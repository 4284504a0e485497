"""Post-processing model zoo and the rolling-origin protocol.

Six variants share one training loop. The raw-ensemble baseline
("members") needs no training: per cell it reports the member mean and
(n-1)-normalized member standard deviation. The per-grid baseline
("fcn") sees seven per-cell summary features through 1x1 convolutions,
so no spatial context leaks between cells. The four convolutional
variants differ only in their input channels and training multiset:

    cnn       20 member channels, originals only
    cnn-dyn   25 channels (members + geographic/dynamic), originals only
    cnn-aug   20 channels, interpolation + noise augmentation
    cnn-all   25 channels, interpolation + noise augmentation

All trained variants minimize the same temporally weighted closed-form
CRPS over land cells, full batch, fixed 100 epochs of Adam at lr 0.001.
Sea cells carry no loss weight, so training computes land cells only.
Network outputs live in standardized target space: mu = t_mean +
t_std * out0 and sigma = t_std * softplus(out1) + floor, where t_mean /
t_std summarize the training observations over land. Without this
rescaling a freshly initialized network sits hundreds of mm from the
data and 100 fixed-rate epochs cannot close the gap.

``train_model`` is the one trainer: it fits on the originals before a
target, and its model refuses earlier reports and other grids. A fit
holds each training report until its input stack is built, and each
stack until its standardized land rows are in the float32 patch matrix;
there is no (B, C, H, W) buffer. The epochs then hold the patch rows
and the network's three reused hidden-size arrays.
"""

from __future__ import annotations

import typing
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import expit

from .augmentation import DEFAULT_NOISE_SCALE, build_augmented_set
from .domain import GridDomain, Report, ReportOrigin
from .features import (
    CHANNEL_NAMES,
    N_MEMBERS,
    NormStats,
    apply_standardizer,
    assemble_stack,
    fit_standardizer,
)
from .neuralnet import (
    DTYPE,
    Adam,
    Network,
    TrainingDiverged,
    im2col,
    load_network,
    save_network,
    softplus,
)
from .scoring import GaussianField, crps_gaussian, crps_gradient, make_weights
from .storage import record_from_json, typed

FCN_CHANNEL_NAMES = ("member_mean", "member_std", *CHANNEL_NAMES[N_MEMBERS:])
_MEMBER_CHANNELS = CHANNEL_NAMES[:N_MEMBERS]
#: variant -> (input channels, hidden width, first kernel, augments); the
#: members baseline reads the member channels and trains no network
_VARIANT_TABLE = {
    "members": (_MEMBER_CHANNELS, None, None, False),
    "fcn": (FCN_CHANNEL_NAMES, 16, (1, 1), False),
    "cnn": (_MEMBER_CHANNELS, 32, (2, 2), False),
    "cnn-dyn": (CHANNEL_NAMES, 32, (2, 2), False),
    "cnn-aug": (_MEMBER_CHANNELS, 32, (2, 2), True),
    "cnn-all": (CHANNEL_NAMES, 32, (2, 2), True),
}
VARIANTS = tuple(_VARIANT_TABLE)

SIGMA_FLOOR_MM = 1e-3
MEMBERS_SIGMA_FLOOR = 1e-6
#: t_std is clamped here so near-dry training windows cannot blow up the
#: standardized-space gradients
TARGET_STD_FLOOR_MM = 1.0


@dataclass(frozen=True)
class ModelConfig:
    """Training recipe for one variant; the variant fixes its inputs and training set."""

    variant: str
    epochs: int = 100
    noise_scale: float = DEFAULT_NOISE_SCALE
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError(f"noise scale must be finite and >= 0, got {self.noise_scale}")

    @classmethod
    def for_variant(cls, variant: str, **overrides) -> "ModelConfig":
        return cls(variant.lower(), **overrides)

    @property
    def channel_names(self) -> tuple[str, ...]:
        return _VARIANT_TABLE[self.variant][0]

    @property
    def network_shape(self) -> tuple[int, int, tuple[int, int]]:
        """(input channels, hidden width, first kernel) of the variant's net."""
        names, hidden, kernel, _augments = _VARIANT_TABLE[self.variant]
        return len(names), hidden, kernel

    @property
    def use_augmentation(self) -> bool:
        return _VARIANT_TABLE[self.variant][3]

    @property
    def trains(self) -> bool:
        return self.variant != "members"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "ModelConfig":
        """Inverse of ``to_dict``; a missing, unknown or mistyped key is a ValueError."""
        return record_from_json(cls, d, "config")


def predict_members_baseline(report: Report) -> GaussianField:
    """Gaussian from the raw ensemble: member mean and (n-1) std per cell."""
    mu = report.members.mean(axis=0)
    sigma = np.maximum(report.members.std(axis=0, ddof=1), MEMBERS_SIGMA_FLOOR)
    return GaussianField(mu=mu, sigma=sigma)


def original_track(reports) -> list[tuple[float, tuple[float, float]]]:
    """(index, tc_center) of the original reports, ascending."""
    pairs = [(r.index, r.tc_center) for r in reports
             if r.origin is ReportOrigin.ORIGINAL]
    return sorted(pairs, key=lambda p: p[0])


def track_through(track_pairs, report: Report) -> list[tuple[float, float]]:
    """TC positions known when report was issued.

    All original centers up to the report's fractional index, plus the
    report's own (interpolated) center when it sits between originals.
    """
    track = [c for i, c in track_pairs if i <= report.index]
    if report.index != int(report.index):
        track.append(report.tc_center)
    if not track:
        track = [report.tc_center]
    return track


def fcn_features(report: Report, domain: GridDomain, track) -> np.ndarray:
    """The (7, H, W) per-cell predictors of the per-grid baseline.

    Member mean and std, then the stack's geographic and dynamic channels.
    """
    geo_dyn = assemble_stack(report, domain, track)[N_MEMBERS:]
    return np.concatenate([[report.members.mean(axis=0),
                            report.members.std(axis=0, ddof=1)], geo_dyn])


def _gaussian(t_mean: float, t_std: float, out_mu, out_sigma):
    """(mu, sigma) in mm from the network's raw head values."""
    return t_mean + t_std * out_mu, t_std * softplus(out_sigma) + SIGMA_FLOOR_MM


def _stack_for(config: ModelConfig, report: Report, domain: GridDomain,
               track_pairs) -> np.ndarray:
    """The (C, H, W) input channels the variant sees for one report."""
    if config.channel_names == _MEMBER_CHANNELS:
        if report.members.shape[1:] != domain.shape:
            raise ValueError(f"member fields {report.members.shape} do not match domain {domain.shape}")
        return report.members
    features = fcn_features if config.channel_names == FCN_CHANNEL_NAMES else assemble_stack
    return features(report, domain, track_through(track_pairs, report))


@dataclass
class TrainedModel:
    """A fitted network plus everything needed to replay its predictions."""

    config: ModelConfig
    net: Network
    norm: NormStats
    target_mean: float
    target_std: float
    #: (rows, cols) of the training grid
    grid_shape: tuple[int, int]
    #: the report this fold was trained for; all training reports precede it
    target: int
    loss_history: list[float] = field(default_factory=list)

    def predict(self, report: Report, domain: GridDomain, track_pairs) -> GaussianField:
        """Post-processed Gaussian for one report at or after the target.

        ``track_pairs`` are (index, tc_center) originals of the scenario;
        only positions at or before the report's index are consulted. An
        earlier report or a domain of another shape is a ValueError.
        """
        if report.index < self.target:
            raise ValueError(f"model trained for target {self.target} saw reports "
                             f"at or after target {report.index:g}")
        if domain.shape != self.grid_shape:
            raise ValueError("model trained on a {}x{} grid cannot predict a "
                             "{}x{} scenario".format(*self.grid_shape, *domain.shape))
        stack = _stack_for(self.config, report, domain, track_pairs)
        x = apply_standardizer(stack, self.norm)[None]
        out = self.net.forward(im2col(x, self.net.shape[2], dtype=DTYPE))[0].astype(float)
        self.net.drop_buffers()
        return GaussianField(*_gaussian(self.target_mean, self.target_std, *out))

    def save(self, path) -> None:
        meta = {
            "config": self.config.to_dict(),
            "norm_mean": self.norm.mean.tolist(),
            "norm_std": self.norm.std.tolist(),
            "target_mean": self.target_mean,
            "target_std": self.target_std,
            "grid_shape": self.grid_shape,
            "target": self.target,
        }
        save_network(path, self.net, meta=meta)

    @classmethod
    def load(cls, path) -> "TrainedModel":
        """Inverse of ``save``; a missing or mistyped (never coerced) key is a ValueError."""
        net, meta = load_network(path)
        kinds = typing.get_type_hints(cls)
        try:
            config = ModelConfig.from_dict(meta["config"])
            fold = {key: typed(meta[key], kinds[key], f"key {key!r}")
                    for key in ("target_mean", "target_std", "grid_shape", "target")}
            norm = [typed(meta[key], list[float], f"key {key!r}")
                    for key in ("norm_mean", "norm_std")]
            model = cls(config=config, net=net, norm=NormStats(*norm), **fold)
        except KeyError as exc:
            raise ValueError(f"checkpoint {path} has no meta key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed checkpoint meta in {path}: {exc}") from None
        n_in = config.network_shape[0]  # a members row has no width: nothing fits it
        if net.shape != config.network_shape or model.norm.mean.shape != (n_in,):
            raise ValueError(f"checkpoint {path} does not fit a {config.variant} "
                             f"network on {n_in} channels")
        return model


def train_model(config: ModelConfig, reports, domain: GridDomain,
                target: int) -> TrainedModel:
    """Fit one variant for one target report; the only trainer.

    This is the only place that picks a training set. It keeps the
    original ``reports`` indexed strictly below ``target``, each with an
    observation; derived reports are dropped, since an interpolation at
    target - 0.5 blends the target itself. The -aug variants then expand
    those originals with the config's own noise scale and seed.
    Full-batch: each epoch is one Adam step on the weighted CRPS loss
    over land cells. The patch rows are built once, for land cells only:
    sea cells carry no loss weight, and a land cell's sea neighbours stay
    in its row.

    The fit gets the training set as a new list no one else holds, and
    in it each report gives way to its input stack, and each stack to its
    standardized land rows in the float32 patch matrix. So a derived
    report is freed as soon as its stack is built, and a stack as soon as
    its rows are copied; the caller's list stays as it is.

    A mu, sigma, loss or gradient that stops being finite raises
    ``TrainingDiverged``, the one report of it: numpy's float warnings in
    the fit are off.
    """
    if not config.trains:
        raise ValueError("the members baseline has no trainable parameters")
    return _fit(config, _training_set(config, reports, target), domain, target)


@np.errstate(all="ignore")
def _fit(config: ModelConfig, reports: list, domain: GridDomain,
         target: int) -> TrainedModel:
    """``train_model``'s fit; it empties ``reports``, its own list."""
    track_pairs = original_track(reports)
    land = domain.land_mask
    n_land = int(land.sum())
    # all the epochs need of the reports themselves. y is masked report by
    # report, as freeing a (B, H, W) temporary larger than a stack would
    # raise glibc's mmap threshold and keep the freed stacks in the heap.
    # It is F-ordered, the layout np.stack(...)[:, land] gives: reductions
    # over y, and so the fitted bits, follow its memory order.
    y = np.stack([r.observation[land] for r in reports], axis=1).T  # (B, n_land)
    w = make_weights([r.index for r in reports], len(track_pairs))  # (B,), sums to 1
    # fold_key decorrelates the parameter draw across rolling-origin folds
    # so a single unlucky initialization cannot taint every target.
    fold_key = round(10 * max(r.index for r in reports))

    # each report gives way to its stack, standardized in place below: a
    # report's own read-only members are copied, a new stack is kept as is
    stacks = reports
    for i, report in enumerate(stacks):
        stacks[i] = np.require(_stack_for(config, report, domain, track_pairs),
                               requirements="W")
    del report
    norm = fit_standardizer(stacks)
    if not (np.isfinite(norm.mean).all() and np.isfinite(norm.std).all()):
        raise ValueError(f"{config.variant} training features overflow float64")
    for stack in stacks:
        apply_standardizer(stack, norm, out=stack)
    del stack
    # im2col empties the list, freeing each stack once its rows are copied
    patches = im2col(stacks, config.network_shape[2], mask=land, dtype=DTYPE)

    target_mean = float(y.mean())
    target_std = max(float(y.std()), TARGET_STD_FLOOR_MM)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(config.seed), 7, int(fold_key))))
    net = Network.kaiming(*config.network_shape, rng)
    opt = Adam(net.parameters())
    model = TrainedModel(config=config, net=net, norm=norm,
                         target_mean=target_mean, target_std=target_std,
                         grid_shape=domain.shape, target=target)

    # per-cell loss scale: w_r / n_land
    cell_w = w[:, None] / n_land
    for _epoch in range(config.epochs):
        out = net.forward(patches)[..., 0].astype(float)  # (B, 2, n_land)
        mu, sigma = _gaussian(target_mean, target_std, out[:, 0], out[:, 1])
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise TrainingDiverged(
                f"non-finite mu or sigma at epoch {_epoch} for {config.variant}")
        scores = crps_gaussian(mu, sigma, y)
        loss = float((cell_w * scores).sum())
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite training loss at epoch {_epoch} for {config.variant}")
        model.loss_history.append(loss)

        dmu, dsigma = crps_gradient(mu, sigma, y)
        grad = np.empty_like(out)
        grad[:, 0] = cell_w * dmu * target_std
        grad[:, 1] = cell_w * dsigma * target_std * expit(out[:, 1])
        net.zero_grad()
        net.backward(grad.astype(DTYPE)[..., None])
        opt.step()
    net.drop_buffers()
    return model


def _training_set(config: ModelConfig, reports, target: int) -> list[Report]:
    """A new list of the reports ``train_model`` fits for one target (see there)."""
    history = sorted((r for r in reports
                      if r.origin is ReportOrigin.ORIGINAL and r.index < target),
                     key=lambda r: r.index)
    if not history:
        raise ValueError(f"no reports precede target {target}")
    if any(r.observation is None for r in history):
        raise ValueError("every training report needs an observation")
    if not config.use_augmentation:
        return history
    if len(history) < 2:
        warnings.warn(f"target {target}: single-report history cannot be "
                      "augmented; training on originals", stacklevel=3)
        return history
    return build_augmented_set(history, eta=config.noise_scale, seed=config.seed).reports


def rolling_origin_run(configs, scenario, targets=range(6, 12),
                       ) -> dict[tuple[str, int], GaussianField]:
    """Train-and-predict every variant at every target, never peeking ahead.

    For each target k the trainable variants are fitted by ``train_model``
    and then post-process report k's forecast stack. Returns {(variant,
    k): prediction}; targets without any preceding report are skipped
    with a warning.
    """
    domain = scenario.domain
    by_index = {r.index: r for r in scenario.reports
                if r.origin is ReportOrigin.ORIGINAL}
    track_pairs = original_track(scenario.reports)

    predictions: dict[tuple[str, int], GaussianField] = {}
    for k in targets:
        target = by_index.get(float(k))
        if target is None:
            raise ValueError(f"scenario has no original report with index {k}")
        if min(by_index) >= k:
            warnings.warn(f"skipping target {k}: no preceding reports", stacklevel=2)
            continue
        for config in configs:
            if config.trains:
                model = train_model(config, scenario.reports, domain, k)
                predictions[(config.variant, k)] = model.predict(target, domain, track_pairs)
            else:
                predictions[(config.variant, k)] = predict_members_baseline(target)
    return predictions
