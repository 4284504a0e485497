"""Command-line pipeline.

Five subcommands chain into a reproducible run: ``generate`` fabricates
a scenario directory, ``augment`` expands its training reports,
``train`` fits one variant for a target report, ``predict``
post-processes the target's forecast stack, and ``evaluate`` scores
every prediction directory it is given, in target order.

Every stage runs through one ``_Stage``. It records each input by role
(``spec``, ``scenario``, ``checkpoint``, ``predictions/<k>``) with the
upstream manifest fingerprint, or a bare file's sha256, and the paths as
typed in ``input_paths``, which the fingerprint leaves out. It refuses an
``--out`` at, inside or above an input, and writes into a temporary
directory renamed over ``--out`` only on success, with a manifest of the
config, inputs and a sha256 per output file.

Every stage reads a scenario's originals through one report source,
``synthgen.OriginalReports``, which chooses them by directory name and
hash-checks each file just before it is parsed, so each stage hashes
exactly the files it opens: ``augment`` the original reports, ``train``
the originals before the target, ``predict`` the target's forecast
fields and the earlier originals' metadata, ``evaluate`` its targets'
reports. ``train`` and ``predict`` are ``train_model`` and
``TrainedModel.predict`` on that source, so the fold is the library's:
nothing at or after the target informs a prediction, and the loaded
model refuses an earlier target before any report is read. ``evaluate``
scores only predictions of its own ``--scenario``, one per target. A
streamed report is dropped once used.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .augmentation import AugmentedReports
from .evaluation import (
    calibration_error,
    concat_skill_tables,
    crpss_by_stratum,
    exceedance_map,
    exceedance_probability,
    reliability_diagram,
    skill_table,
    write_crpss_summary,
    write_exceedance_map,
    write_reliability,
    write_skill_table,
)
from .models import (
    VARIANTS,
    ModelConfig,
    TrainedModel,
    predict_members_baseline,
    train_model,
)
from .scoring import GaussianField
from .storage import (
    manifest_fingerprint,
    read_json,
    sha256_file,
    staged_dir,
    typed,
    verify_manifest,
    write_manifest,
    write_text,
)
from .synthgen import (
    OriginalReports,
    ScenarioSpec,
    Scenario,
    generate_scenario,
    load_scenario_header,
    make_island_domain,
    save_scenario,
)

TRAINABLE = tuple(v for v in VARIANTS if v != "members")
#: the most rows or columns ``generate`` makes; a 500x500 scenario's
#: members alone take 40 MB per report
MAX_GRID_SIDE = 500


def _grid_side(text: str) -> int:
    if not text.isdecimal() or not 1 <= int(text) <= MAX_GRID_SIDE:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer up to {MAX_GRID_SIDE}, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _load_spec(path, seed=None) -> ScenarioSpec:
    spec = read_json(path)
    if isinstance(spec, dict):
        spec = spec.get("spec", spec)  # accept both bare and wrapped forms
    if seed is not None and isinstance(spec, dict):
        spec = {**spec, "seed": seed}
    return ScenarioSpec.from_dict(spec, source=path)


class _Stage:
    """One run of a stage: its inputs kept by role, then its output.

    The paths as typed go to ``input_paths``, outside the fingerprint. An
    ``--out`` at, inside or above an input is refused, as is a role twice.
    """

    def __init__(self, out):
        self.t0 = time.perf_counter()
        self.out = Path(out)
        self.inputs, self.input_paths = {}, {}

    def record(self, role: str, path, digest: str) -> None:
        """Keep one input: a manifest fingerprint or a bare file's sha256."""
        out, given = self.out.resolve(), Path(path).resolve()
        if out == given or out in given.parents or given in out.parents:
            raise ValueError(f"--out {self.out} overlaps input {path}")
        if role in self.inputs:
            raise ValueError(f"{path} and {self.input_paths[role]} are both input {role!r}")
        self.inputs[role] = digest
        self.input_paths[role] = Path(path).as_posix()

    @contextlib.contextmanager
    def output(self, name: str, config):
        """Yield the staging directory; the manifest goes in on clean exit."""
        with staged_dir(self.out) as tmp:
            yield tmp
            write_manifest(tmp, name, config=config, inputs=self.inputs,
                           wall_time_s=time.perf_counter() - self.t0,
                           input_paths=self.input_paths)


def _open_scenario(stage: _Stage, scenario_dir):
    """Hash-check, record and read a scenario's spec and domain, and open
    its originals as a report source; no report is read."""
    manifest = verify_manifest(scenario_dir, ["spec.json", "domain.txt"])
    stage.record("scenario", scenario_dir, manifest_fingerprint(manifest))
    spec, domain = load_scenario_header(scenario_dir)
    return spec, domain, OriginalReports(scenario_dir, domain.shape)


def cmd_generate(args) -> int:
    stage = _Stage(args.out)
    if args.spec is not None:
        stage.record("spec", args.spec, sha256_file(args.spec))
        spec = _load_spec(args.spec, seed=args.seed)
    else:
        spec = ScenarioSpec(seed=args.seed if args.seed is not None else 0)
    domain = make_island_domain(n_rows=args.rows, n_cols=args.cols)
    if not domain.land_mask.any():
        raise ValueError(f"a {args.rows}x{args.cols} grid has no land cell; "
                         "training needs at least one")
    scenario = generate_scenario(spec, domain)
    config = {"spec": spec.to_dict(), "rows": args.rows, "cols": args.cols}
    with stage.output("generate", config) as tmp:
        save_scenario(scenario, tmp)
    print(f"generated {len(scenario.reports)} reports -> {args.out}")
    return 0


def cmd_augment(args) -> int:
    stage = _Stage(args.out)
    spec, domain, originals = _open_scenario(stage, args.scenario)
    # each original is read, and each derived report written, in turn
    augmented = AugmentedReports(originals, seed=args.seed)
    n_original = len(originals)
    config = {"seed": args.seed, "n_original": n_original}
    with stage.output("augment", config) as tmp:
        save_scenario(Scenario(spec=spec, domain=domain, reports=augmented), tmp)
    print(f"augmented {n_original} originals into {len(augmented)} reports -> {args.out}")
    return 0


def cmd_train(args) -> int:
    stage = _Stage(args.out)
    variant = args.variant.lower()
    if variant == "members":
        raise ValueError("the members baseline has no trainable parameters; "
                         "run predict with --variant members instead")
    model_config = ModelConfig.for_variant(variant, epochs=args.epochs, seed=args.seed)
    _spec, domain, originals = _open_scenario(stage, args.scenario)
    model = train_model(model_config, originals, domain, args.target)

    config = {"variant": variant, "target": args.target, "epochs": args.epochs,
              "seed": args.seed}
    with stage.output("train", config) as tmp:
        model.save(tmp / f"model_{variant}.json")
    print(f"trained {variant} for target {args.target} -> {args.out}")
    return 0


def _resolve_checkpoint(path) -> Path:
    path = Path(path)
    models = sorted(path.glob("model_*.json")) if path.is_dir() else [path]
    if len(models) != 1:
        raise ValueError(f"{path} holds {len(models)} checkpoints; pass the file itself")
    return models[0]


def _write_predictions_csv(path, field: GaussianField) -> None:
    rows, cols = field.mu.shape
    lines = ["row,col,mu,sigma"] + [
        f"{r},{c},{field.mu[r, c]:.17g},{field.sigma[r, c]:.17g}"
        for r in range(rows) for c in range(cols)]
    write_text(path, "\n".join(lines) + "\n")


def load_predictions_csv(path, shape) -> GaussianField:
    """A GaussianField from a predictions CSV naming each cell once; else a ValueError."""
    rows, cols = shape
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (rows * cols, 4):
        raise ValueError(f"{path} does not cover a {shape} grid")
    if not (np.isfinite(data).all() and (data[:, 3] > 0).all()):
        raise ValueError(f"{path} holds a value that is not finite or a sigma <= 0")
    r, c = data[:, 0], data[:, 1]
    if not np.all((r % 1 == 0) & (c % 1 == 0) & (r >= 0) & (r < rows)
                  & (c >= 0) & (c < cols)):
        raise ValueError(f"{path} names a cell outside a {rows}x{cols} grid")
    mu, sigma = np.full((2, *shape), np.nan)
    r, c = r.astype(int), c.astype(int)
    mu[r, c], sigma[r, c] = data[:, 2], data[:, 3]
    if np.isnan(mu).any():  # as many lines as cells, so another is named twice
        raise ValueError(f"{path} names a cell twice")
    return GaussianField(mu=mu, sigma=sigma)


def cmd_predict(args) -> int:
    stage = _Stage(args.out)
    if (args.checkpoint is None) == (args.variant is None):
        raise ValueError("pass exactly one of --checkpoint or --variant members")
    if args.variant is not None and args.variant.lower() != "members":
        raise ValueError("only the members baseline predicts without a "
                         "checkpoint; train the other variants first")
    _spec, domain, originals = _open_scenario(stage, args.scenario)
    if args.checkpoint is None:
        variant = "members"
        field = predict_members_baseline(originals.target(args.target))
    else:
        ckpt = _resolve_checkpoint(args.checkpoint)
        stage.record("checkpoint", args.checkpoint, sha256_file(ckpt))
        model = TrainedModel.load(ckpt)
        variant = model.config.variant
        field = model.predict(originals, domain, args.target)

    with stage.output("predict", {"variant": variant, "target": args.target}) as tmp:
        _write_predictions_csv(tmp / "predictions.csv", field)
    print(f"predicted target {args.target} with {variant} -> {args.out}")
    return 0


def _block(manifest: dict, key: str) -> dict:
    return manifest.get(key) if isinstance(manifest.get(key), dict) else {}


def cmd_evaluate(args) -> int:
    stage = _Stage(args.out)
    _spec, domain, originals = _open_scenario(stage, args.scenario)
    pred_dirs, variant = {}, None
    for pred_dir in args.predictions:
        manifest = verify_manifest(pred_dir)
        config = _block(manifest, "config")
        where = f"manifest of {pred_dir}: config key"  # true is no target
        target = typed(config.get("target"), int, f"{where} 'target'")
        pred_variant = typed(config.get("variant"), str, f"{where} 'variant'")
        if _block(manifest, "inputs").get("scenario") != stage.inputs["scenario"]:
            raise ValueError(f"{pred_dir} was predicted from another scenario "
                             f"than {args.scenario}")
        if variant not in (None, pred_variant):
            raise ValueError(f"predictions mix variants {sorted([variant, pred_variant])}; "
                             "evaluate one variant per run")
        variant = pred_variant
        stage.record(f"predictions/{target}", pred_dir, manifest_fingerprint(manifest))
        pred_dirs[target] = pred_dir
    targets = sorted(pred_dirs)
    tables, pooled_p, pooled_y, maps = [], [], [], {}
    for k in targets:
        # read when it is scored; its observation is what is scored against
        target_rep = originals.target(k, with_observation=True)
        field = load_predictions_csv(Path(pred_dirs[k]) / "predictions.csv",
                                     domain.shape)
        obs = target_rep.observation
        reference = predict_members_baseline(target_rep)
        tables.append(skill_table(k, field, reference, obs, domain))
        p = exceedance_probability(field)
        maps[k] = exceedance_map(p, domain)
        land = domain.land_mask
        pooled_p.append(p[land])
        pooled_y.append(obs[land])

    skill = concat_skill_tables(tables)
    summaries = crpss_by_stratum(skill)
    bins = reliability_diagram(np.concatenate(pooled_p), np.concatenate(pooled_y))

    config = {"variant": variant, "targets": targets}
    with stage.output("evaluate", config) as tmp:
        write_skill_table(tmp / "skill_table.csv", skill)
        write_crpss_summary(tmp / "crpss_summary.csv", summaries)
        for k in targets:
            write_exceedance_map(tmp / f"exceedance_map_{k}.csv", maps[k])
        write_reliability(tmp / "reliability.csv", bins)
    err = calibration_error(bins)
    print(f"evaluated targets {targets} -> {args.out} "
          f"(calibration error {err:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclone-pp",
        description="Ensemble rainfall post-processing pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="fabricate a synthetic scenario")
    p.add_argument("--spec", help="scenario spec JSON (defaults built in)")
    p.add_argument("--seed", type=_non_negative_int, default=None, help="override spec seed")
    p.add_argument("--rows", type=_grid_side, default=84)
    p.add_argument("--cols", type=_grid_side, default=70)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("augment", help="interpolate + noise-expand a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="fit one variant for one target report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--variant", required=True, help=f"one of {', '.join(TRAINABLE)}")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--epochs", type=_non_negative_int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="post-process one target report")
    p.add_argument("--checkpoint", default=None,
                   help="trained model JSON (or its directory)")
    p.add_argument("--variant", default=None,
                   help="'members' for the untrained baseline")
    p.add_argument("--scenario", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="verification CSVs from predictions")
    p.add_argument("--predictions", nargs="+", required=True,
                   help="prediction directories, one per target")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ValueError, FileNotFoundError, NotADirectoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
