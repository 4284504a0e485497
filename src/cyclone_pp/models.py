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
data and 100 fixed-rate epochs cannot close the gap. The fit scores the
CRPS in those units, with t_std in the row weights (``_step``), and
takes its derivatives from ``scoring.crps_slopes``; no scipy is loaded.

A fold's inputs come from one report source (``synthgen.ReportSource``),
which alone cuts before the target. ``train_model`` is the one trainer,
and its model's ``predict`` refuses an earlier report or another grid
before it reads anything. A fit reads its training reports once, each
built or read when it is reached: a report gives way to its input
stack, and the stack to its land patch rows in the float32 patch
matrix, once the standardizer has merged it, before the next is read.
There is no (B, C, H, W) buffer and no list of reports. The epochs then
hold the patch rows and the network's three block-sized hidden arrays,
and run forward, loss and backward one row block at a time, with one
Adam step per epoch.

Train and predict build a stack's patch rows the same way: standardized
in float64, then cast to float32, with taps past the grid's edge at 0.
Both hand the network 2-D blocks of at most ``BLOCK_ROWS`` rows
(``row_blocks``), so a prediction's hidden arrays are no larger than a
fit's. A fit does not know its statistics until it has read every
report, so it standardizes by the first stack's own mean and std, which
keeps the float32 rows free of the channels' offsets, and then moves
each report's rows to the fit's statistics in place, in float64.
"""

from __future__ import annotations

import typing
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .augmentation import AugmentedReports
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
    one_blas_thread,
    row_blocks,
    save_network,
    softplus_and_slope,
)
from .scoring import GaussianField, crps_slopes, make_weights
from .scoring import crps_gaussian  # noqa: F401  (perfbench's tracer tests reach it here)
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
#: the largest float32 patch matrix a fit allocates, 2 GiB; the default
#: 15-report 500x500 scenario's cnn-all fit for target 15 needs 1.4 GB
MAX_PATCH_BYTES = 2 ** 31


@dataclass(frozen=True)
class ModelConfig:
    """Training recipe for one variant; the variant fixes its inputs and training set."""

    variant: str
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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


def track_through(track_pairs, report: Report) -> list[tuple[float, float]]:
    """TC positions known when report was issued: the original centers
    before its fractional index, then its own center."""
    return [c for i, c in track_pairs if i < report.index] + [report.tc_center]


def fcn_features(report: Report, domain: GridDomain, track) -> np.ndarray:
    """The (7, H, W) per-cell predictors of the per-grid baseline.

    Member mean and std, then the stack's geographic and dynamic channels.
    """
    geo_dyn = assemble_stack(report, domain, track)[N_MEMBERS:]
    return np.concatenate([[report.members.mean(axis=0),
                            report.members.std(axis=0, ddof=1)], geo_dyn])


def _gaussian(t_mean: float, t_std: float, out_mu, out_sigma):
    """(mu, sigma) in mm from the network's raw head values, and sigma's
    slope: d sigma / d out_sigma divided by t_std."""
    softplus, slope = softplus_and_slope(out_sigma)
    return t_mean + t_std * out_mu, t_std * softplus + SIGMA_FLOOR_MM, slope


def _stack_for(config: ModelConfig, report: Report, domain: GridDomain,
               track_pairs) -> np.ndarray:
    """The (C, H, W) input channels the variant sees for one report."""
    if config.channel_names == _MEMBER_CHANNELS:
        if report.members.shape[1:] != domain.shape:
            raise ValueError(f"member fields {report.members.shape} do not match domain {domain.shape}")
        return report.members
    features = fcn_features if config.channel_names == FCN_CHANNEL_NAMES else assemble_stack
    return features(report, domain, track_through(track_pairs, report))


def _restandardize(rows: np.ndarray, old: NormStats, new: NormStats, edge) -> None:
    """Patch rows standardized by ``old`` become, in place and in float64,
    rows standardized by ``new``; the ``edge`` taps, (R, kh*kw) flags of
    those past the grid's edge, stay exactly 0."""
    x = rows.reshape(len(rows), len(new.mean), -1).astype(float)
    x *= (old.std / new.std)[:, None]
    x += ((old.mean - new.mean) / new.std)[:, None]
    np.copyto(x, 0.0, where=edge[:, None, :])
    rows[...] = x.reshape(rows.shape)


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

    def predict(self, source, domain: GridDomain, k: int) -> GaussianField:
        """Post-processed Gaussian for report ``k`` of a report source; an
        earlier ``k`` or another grid is a ValueError before any read."""
        if k < self.target:
            raise ValueError(f"model trained for target {self.target} saw reports "
                             f"at or after target {k:g}")
        if domain.shape != self.grid_shape:
            raise ValueError("model trained on a {}x{} grid cannot predict a "
                             "{}x{} scenario".format(*self.grid_shape, *domain.shape))
        return self._field(source.target(k), domain, source.track_before(k))

    def _field(self, report: Report, domain: GridDomain, track_pairs) -> GaussianField:
        """``predict``'s forward of one report, in ``BLOCK_ROWS`` blocks as
        in the fit; ``track_pairs`` are (index, center) of earlier originals."""
        rows = im2col(apply_standardizer(_stack_for(self.config, report, domain, track_pairs),
                                         self.norm), self.net.shape[2], dtype=DTYPE)
        with one_blas_thread():
            out = np.hstack([self.net.forward(block) for block in row_blocks(rows)])
        self.net.drop_buffers()
        out = out.astype(float).reshape(2, *domain.shape)  # (mu, sigma) raw head grids
        return GaussianField(*_gaussian(self.target_mean, self.target_std, *out)[:2])

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


def train_model(config: ModelConfig, source, domain: GridDomain,
                target: int) -> TrainedModel:
    """Fit one variant for report ``target`` of a report source; the only trainer.

    It fits ``source.before(target)``, each report with an observation,
    which the -aug variants expand with ``AugmentedReports`` keyed on the
    config's seed. A patch matrix above ``MAX_PATCH_BYTES`` is refused unread.
    Full-batch: each epoch sums the gradients of every row block of the
    weighted CRPS loss over land cells, then takes one Adam step. The
    patch rows are built once, for land cells only: sea cells carry no
    loss weight, and a land cell's sea neighbours stay in its row.

    The fit reads the training set once, in index order, building an
    augmented set as it reads (see the module docstring): the caller's
    reports are never copied, and none it reads or builds outlives its
    patch rows. numpy's bundled BLAS runs on one thread throughout, so
    the bits do not depend on the BLAS thread count. A mu, sigma, loss or
    gradient that stops being finite raises ``TrainingDiverged``, the one
    report of it: numpy's float warnings in the fit are off.
    """
    if not config.trains:
        raise ValueError("the members baseline has no trainable parameters")
    return _fit(config, _training_set(config, source, target), domain, target)


@np.errstate(all="ignore")
@one_blas_thread()
def _fit(config: ModelConfig, reports, domain: GridDomain,
         target: int) -> TrainedModel:
    """``train_model``'s fit; ``reports`` is a sized iterable in index
    order, which it reads once."""
    land = domain.land_mask
    n_land = int(land.sum())
    n_in, _hidden, kernel = config.network_shape
    shape = (len(reports) * n_land, n_in * kernel[0] * kernel[1])
    if (size := shape[0] * shape[1] * np.dtype(DTYPE).itemsize) > MAX_PATCH_BYTES:
        raise ValueError(f"{config.variant} for target {target} needs a {size:,}-byte "
                         f"patch matrix, above the {MAX_PATCH_BYTES:,}-byte limit")
    patches = np.empty(shape, DTYPE)
    y = np.empty((len(reports), n_land))
    indices, track_pairs = [], []

    first = None  # the first stack's own mean and std

    def stacks():
        # in index order, the originals seen so far are the track up to
        # each report. Once the standardizer has merged a stack, it is
        # standardized in place by the first stack's statistics and its
        # rows are copied out; then report and stack give way to the next.
        # Derived reports kept in a list while the rows fill would peak
        # 20 MB higher at 84x70 after an augment in the same process: it
        # has raised glibc's mmap threshold, so their freed ~1 MB arrays
        # stay in the heap.
        nonlocal first
        for i, report in enumerate(reports):
            if report.origin is ReportOrigin.ORIGINAL:
                track_pairs.append((report.index, report.tc_center))
            indices.append(report.index)
            if report.observation is None:
                raise ValueError("every training report needs an observation")
            y[i] = report.observation[land]
            # a report's own read-only members are copied, a new stack kept
            stack = np.require(_stack_for(config, report, domain, track_pairs),
                               requirements="W")
            if first is None:
                first = fit_standardizer([stack])
            yield stack
            apply_standardizer(stack, first, out=stack)
            rows = patches[i * n_land:(i + 1) * n_land]
            rows[...] = im2col(stack, kernel, land, DTYPE)
            if not np.isfinite(rows).all():
                raise ValueError(f"{config.variant} training features overflow float32")
            del report, stack  # neither is kept while the next is read and built

    norm = fit_standardizer(stacks())
    if not (np.isfinite(norm.mean).all() and np.isfinite(norm.std).all()):
        raise ValueError(f"{config.variant} training features overflow float64")
    edge = im2col(np.ones((1, *domain.shape)), kernel, land) == 0
    for lo in range(0, len(patches), n_land):
        _restandardize(patches[lo:lo + n_land], first, norm, edge)

    w = make_weights(indices, len(track_pairs))  # (B,), sums to 1
    y = y.ravel()
    target_mean = float(y.mean())
    target_std = max(float(y.std()), TARGET_STD_FLOOR_MM)
    if config.epochs and not np.isfinite([target_mean, target_std]).all():
        # the standardized mu and sigma would stay finite; in mm they are not
        raise TrainingDiverged(f"non-finite mu or sigma at epoch 0 for {config.variant}")
    # fold_key decorrelates the parameter draw across rolling-origin folds
    # so a single unlucky initialization cannot taint every target.
    fold_key = round(10 * max(indices))
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(config.seed), 7, int(fold_key))))
    net = Network.kaiming(*config.network_shape, rng)
    opt = Adam(net.parameters())
    model = TrainedModel(config=config, net=net, norm=norm,
                         target_mean=target_mean, target_std=target_std,
                         grid_shape=domain.shape, target=target)
    # a row's loss weight is w_r / n_land for each of report r's land rows
    ys, wt, floor = _standard_units(y, np.repeat(w / n_land, n_land), target_mean, target_std)

    for _epoch in range(config.epochs):
        net.zero_grad()
        loss = sum(_step(net, *block, floor) for block in
                   zip(row_blocks(patches), row_blocks(ys), row_blocks(wt)))
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite training loss at epoch {_epoch} for {config.variant}")
        model.loss_history.append(loss)
        opt.step()
    net.drop_buffers()
    return model


def _standard_units(y, row_w, t_mean: float, t_std: float):
    """``_step``'s (ys, wt, floor), once per fit; y is standardized in place."""
    y -= t_mean
    y /= t_std
    return y, row_w * t_std, SIGMA_FLOOR_MM / t_std


def _step(net: Network, block: np.ndarray, ys, wt, floor: float) -> float:
    """One row block's forward, loss and backward: adds the block's
    gradients to the network's and returns its weighted CRPS in mm, which
    is t_std times the CRPS of mu_s = raw mu head and sigma_s =
    softplus(raw sigma head) + floor against ys (``_standard_units``)."""
    raw = net.forward(block)
    sigma, slope = softplus_and_slope(raw[1].astype(float))
    sigma += floor
    z = (raw[0] - ys) / sigma
    dmu, dsigma = crps_slopes(z)
    net.backward(np.array([wt * dmu, wt * dsigma * slope], raw.dtype))
    return float(wt @ (sigma * (z * dmu + dsigma)))


def _training_set(config: ModelConfig, source, target: int):
    """The reports ``train_model`` fits for one target (see there), in
    index order: the source's cut, or an ``AugmentedReports`` set of it."""
    history = source.before(target)
    if not history:
        raise ValueError(f"no reports precede target {target}")
    if not config.use_augmentation:
        return history
    if len(history) < 2:
        warnings.warn(f"target {target}: single-report history cannot be "
                      "augmented; training on originals", stacklevel=3)
        return history
    return AugmentedReports(history, seed=config.seed)


def rolling_origin_run(configs, scenario, targets=range(6, 12),
                       ) -> dict[tuple[str, int], GaussianField]:
    """Train-and-predict every variant at every target, never peeking ahead.

    For each target k the trainable variants are fitted by ``train_model``
    on ``scenario.originals()`` and then post-process report k's forecast
    stack. Returns {(variant, k): prediction}; targets without any
    preceding report are skipped with a warning.
    """
    domain, source = scenario.domain, scenario.originals()
    predictions: dict[tuple[str, int], GaussianField] = {}
    for k in targets:
        if not source.before(k):
            warnings.warn(f"skipping target {k}: no preceding reports", stacklevel=2)
            continue
        for config in configs:
            if config.trains:
                model = train_model(config, source, domain, k)
                predictions[(config.variant, k)] = model.predict(source, domain, k)
            else:
                predictions[(config.variant, k)] = predict_members_baseline(source.target(k))
    return predictions
