"""Command-line pipeline.

Five subcommands chain into a reproducible run: ``generate`` fabricates
a scenario directory, ``augment`` expands its training reports,
``train`` fits one variant (or all of them) for a target report,
``predict`` post-processes the target's forecast stack, and
``evaluate`` turns predictions into verification CSVs.

Every stage writes into a temporary directory that is renamed over the
output path only on success, and leaves behind a manifest recording the
config hash, seed, input hashes, and a sha256 per output file. Stages
verify their input manifests before reading, so a corrupted upstream
directory fails loudly instead of propagating.

Training and prediction never open observation or member data from
reports at or beyond the target index (an interpolated report that
blends the target counts as beyond); only the target's own forecast
fields are read. The report selection happens on directory names before
any file is touched.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .augmentation import DEFAULT_NOISE_SCALE, build_augmented_set
from .domain import ReportOrigin
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
    fit_fold,
    predict_members_baseline,
)
from .scoring import GaussianField
from .storage import (
    read_json,
    sha256_file,
    staged_dir,
    verify_manifest,
    write_manifest,
    write_text,
)
from .synthgen import (
    ScenarioSpec,
    Scenario,
    generate_scenario,
    list_report_dirs,
    load_report,
    load_scenario_header,
    load_track_csv,
    parse_report_dirname,
    make_island_domain,
    save_scenario,
)

THREADS_ENV = "CYCLONE_PP_THREADS"
TRAINABLE = tuple(v for v in VARIANTS if v != "members")


def thread_cap() -> int:
    """Worker limit from the environment; at least 1."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _parse_targets(text: str) -> list[int]:
    """Accept '6..11', '6,9,11', or a single integer."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty target range {text!r}")
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def _load_spec(path, seed=None) -> ScenarioSpec:
    doc = read_json(path)
    payload = doc.get("spec", doc)  # accept both bare and wrapped forms
    spec = ScenarioSpec.from_dict(payload)
    if seed is not None:
        spec = ScenarioSpec.from_dict({**spec.to_dict(), "seed": seed})
    return spec


def _verified_input(path, include=None) -> dict[str, str]:
    """Hash-check a stage directory and summarize it for a manifest."""
    manifest = verify_manifest(path, include=include)
    return {Path(path).as_posix(): manifest["config_hash"]}


def _causal_file_filter(target: int, include_target_forecast: bool = False):
    """Restrict manifest verification to files a causal stage may read.

    Report files indexed at or beyond the target stay unopened, so a
    byte flipped in a future report cannot fail (or influence) the run.
    With ``include_target_forecast`` the target's own member and meta
    files are admitted; its observation never is.
    """
    def allow(rel: str) -> bool:
        head, _, tail = rel.partition("/")
        parsed = parse_report_dirname(head)
        if parsed is None:
            return True
        index, noise = parsed
        if math.ceil(index) < target:  # a k-0.5 interpolation blends report k
            return True
        if include_target_forecast and index == target and not noise:
            return tail != "obs.npy"
        return False
    return allow


def _history_reports(scenario_dir, target: int) -> list:
    """Reports built only from originals before the target.

    Selected by directory name. An interpolated report at k - 0.5 blends
    the target's own fields, so the causal cut is ceil(index) < target
    rather than index < target.
    """
    return [load_report(rdir)
            for index, _noise, rdir in list_report_dirs(scenario_dir)
            if math.ceil(index) < target]


def _original_dir(scenario_dir, index: int) -> Path:
    for i, noise, rdir in list_report_dirs(scenario_dir):
        if i == index and not noise:
            return rdir
    raise FileNotFoundError(
        f"scenario has no original report with index {index}")


def _causal_track(scenario_dir, target: int) -> list[tuple[float, tuple[float, float]]]:
    """Original (integer-index) track positions at or before the target."""
    track = load_track_csv(Path(scenario_dir) / "track.csv")
    return [(i, c) for i, c in track if i == int(i) and i <= target]


def cmd_generate(args) -> int:
    t0 = time.time()
    inputs = {}
    if args.spec is not None:
        spec = _load_spec(args.spec, seed=args.seed)
        inputs[Path(args.spec).as_posix()] = sha256_file(args.spec)
    else:
        spec = ScenarioSpec(seed=args.seed if args.seed is not None else 0)
    domain = make_island_domain(n_rows=args.rows, n_cols=args.cols)
    if not domain.land_mask.any():
        raise ValueError(f"a {args.rows}x{args.cols} grid has no land cell; "
                         "training needs at least one")
    scenario = generate_scenario(spec, domain)
    with staged_dir(args.out) as tmp:
        save_scenario(scenario, tmp)
        write_manifest(tmp, "generate",
                       config={"spec": spec.to_dict(),
                               "rows": args.rows, "cols": args.cols},
                       seed=spec.seed, inputs=inputs,
                       wall_time_s=time.time() - t0)
    print(f"generated {len(scenario.reports)} reports -> {args.out}")
    return 0


def cmd_augment(args) -> int:
    t0 = time.time()
    inputs = _verified_input(args.scenario)
    spec, domain = load_scenario_header(args.scenario)
    originals = [load_report(rdir)
                 for _i, _n, rdir in list_report_dirs(args.scenario)]
    originals = [r for r in originals if r.origin is ReportOrigin.ORIGINAL]
    augset = build_augmented_set(originals, eta=args.eta, seed=args.seed)
    augmented = Scenario(spec=spec, domain=domain, reports=list(augset.reports))
    with staged_dir(args.out) as tmp:
        save_scenario(augmented, tmp)
        write_manifest(tmp, "augment",
                       config={"eta": args.eta, "seed": args.seed,
                               "n_original": augset.n_original},
                       seed=args.seed, inputs=inputs,
                       wall_time_s=time.time() - t0)
    print(f"augmented {augset.n_original} originals into "
          f"{len(augset.reports)} reports -> {args.out}")
    return 0


def cmd_train(args) -> int:
    t0 = time.time()
    variants = list(TRAINABLE) if args.all_variants else [args.variant.lower()]
    if "members" in variants:
        raise ValueError("the members baseline has no trainable parameters; "
                         "run predict with --variant members instead")
    for v in variants:
        if v not in TRAINABLE:
            raise ValueError(f"unknown variant {v!r}; expected one of {TRAINABLE}")
    inputs = _verified_input(args.scenario, _causal_file_filter(args.target))
    _spec, domain = load_scenario_header(args.scenario)
    _original_dir(args.scenario, args.target)  # fail now rather than at predict
    history = _history_reports(args.scenario, args.target)
    configs = [ModelConfig.for_variant(v, epochs=args.epochs,
                                       noise_scale=args.eta, seed=args.seed)
               for v in variants]

    def fit(config):
        return fit_fold(config, history, domain, args.target)

    workers = min(thread_cap(), len(configs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fitted = list(pool.map(fit, configs))
    else:
        fitted = [fit(c) for c in configs]

    with staged_dir(args.out) as tmp:
        for model in fitted:
            model.save(tmp / f"model_{model.config.variant}.json")
        write_manifest(tmp, "train",
                       config={"variants": variants, "target": args.target,
                               "epochs": args.epochs, "eta": args.eta,
                               "seed": args.seed},
                       seed=args.seed, inputs=inputs,
                       wall_time_s=time.time() - t0)
    print(f"trained {', '.join(variants)} for target {args.target} -> {args.out}")
    return 0


def _resolve_checkpoint(path) -> Path:
    path = Path(path)
    if path.is_dir():
        models = sorted(path.glob("model_*.json"))
        if len(models) != 1:
            raise ValueError(
                f"{path} holds {len(models)} checkpoints; pass the file itself")
        return models[0]
    return path


def _write_predictions_csv(path, field: GaussianField) -> None:
    rows, cols = field.mu.shape
    lines = ["row,col,mu,sigma"]
    for r in range(rows):
        for c in range(cols):
            lines.append(f"{r},{c},{field.mu[r, c]:.17g},{field.sigma[r, c]:.17g}")
    write_text(path, "\n".join(lines) + "\n")


def load_predictions_csv(path, shape) -> GaussianField:
    """Rebuild a GaussianField from a predictions CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (shape[0] * shape[1], 4):
        raise ValueError(f"{path} does not cover a {shape} grid")
    mu = np.full(shape, np.nan)
    sigma = np.full(shape, np.nan)
    r = data[:, 0].astype(int)
    c = data[:, 1].astype(int)
    mu[r, c] = data[:, 2]
    sigma[r, c] = data[:, 3]
    return GaussianField(mu=mu, sigma=sigma)


def cmd_predict(args) -> int:
    t0 = time.time()
    if (args.checkpoint is None) == (args.variant is None):
        raise ValueError("pass exactly one of --checkpoint or --variant members")
    inputs = _verified_input(
        args.scenario,
        _causal_file_filter(args.target, include_target_forecast=True))
    _spec, domain = load_scenario_header(args.scenario)
    # the target's observation is verification data, never an input here
    target = load_report(_original_dir(args.scenario, args.target),
                         with_observation=False)

    if args.variant is not None:
        if args.variant.lower() != "members":
            raise ValueError("only the members baseline predicts without a "
                             "checkpoint; train the other variants first")
        variant = "members"
        field = predict_members_baseline(target)
    else:
        ckpt = _resolve_checkpoint(args.checkpoint)
        inputs[ckpt.as_posix()] = sha256_file(ckpt)
        model = TrainedModel.load(ckpt)
        if model.target is None:
            raise ValueError(f"{ckpt} records no training target; "
                             "write it with `cyclone-pp train`")
        if args.target < model.target:
            raise ValueError(f"checkpoint trained for target {model.target} saw "
                             f"reports at or after target {args.target}")
        if model.grid_shape != domain.shape:
            raise ValueError("checkpoint trained on a {}x{} grid cannot predict a "
                             "{}x{} scenario".format(*model.grid_shape, *domain.shape))
        variant = model.config.variant
        track_pairs = _causal_track(args.scenario, args.target)
        field = model.predict(target, domain, track_pairs)

    with staged_dir(args.out) as tmp:
        _write_predictions_csv(tmp / "predictions.csv", field)
        write_manifest(tmp, "predict",
                       config={"variant": variant, "target": args.target},
                       seed=args.seed, inputs=inputs,
                       wall_time_s=time.time() - t0)
    print(f"predicted target {args.target} with {variant} -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    t0 = time.time()
    inputs = _verified_input(args.scenario)
    _spec, domain = load_scenario_header(args.scenario)

    fields = {}
    variants = set()
    for pred_dir in args.predictions:
        manifest = verify_manifest(pred_dir)
        inputs[Path(pred_dir).as_posix()] = manifest["config_hash"]
        config = manifest.get("config") if isinstance(manifest.get("config"), dict) else {}
        if not isinstance(config.get("target"), int) or not isinstance(config.get("variant"), str):
            raise ValueError(f"manifest of {pred_dir} has no config 'target' and 'variant'")
        variants.add(config["variant"])
        fields[config["target"]] = load_predictions_csv(
            Path(pred_dir) / "predictions.csv", domain.shape)
    targets = (_parse_targets(args.targets) if args.targets
               else sorted(fields))
    missing = [k for k in targets if k not in fields]
    if missing:
        raise ValueError(f"no predictions supplied for targets {missing}")
    if len(variants) > 1:
        raise ValueError(f"predictions mix variants {sorted(variants)}; "
                         "evaluate one variant per run")

    tables = []
    pooled_p, pooled_y = [], []
    maps = {}
    for k in targets:
        target_rep = load_report(_original_dir(args.scenario, k))
        obs = target_rep.observation
        reference = predict_members_baseline(target_rep)
        tables.append(skill_table(k, fields[k], reference, obs, domain))
        p = exceedance_probability(fields[k])
        maps[k] = exceedance_map(p, domain)
        land = domain.land_mask
        pooled_p.append(p[land])
        pooled_y.append(obs[land])

    skill = concat_skill_tables(tables)
    summaries = crpss_by_stratum(skill)
    bins = reliability_diagram(np.concatenate(pooled_p), np.concatenate(pooled_y))

    with staged_dir(args.out) as tmp:
        write_skill_table(tmp / "skill_table.csv", skill)
        write_crpss_summary(tmp / "crpss_summary.csv", summaries)
        for k in targets:
            write_exceedance_map(tmp / f"exceedance_map_{k}.csv", maps[k])
        write_reliability(tmp / "reliability.csv", bins)
        write_manifest(tmp, "evaluate",
                       config={"variant": sorted(variants)[0],
                               "targets": targets},
                       seed=args.seed, inputs=inputs,
                       wall_time_s=time.time() - t0)
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
    p.add_argument("--seed", type=int, default=None, help="override spec seed")
    p.add_argument("--rows", type=_positive_int, default=84)
    p.add_argument("--cols", type=_positive_int, default=70)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("augment", help="interpolate + noise-expand a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--eta", type=float, default=DEFAULT_NOISE_SCALE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="fit one variant for one target report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--variant", default=None,
                   help=f"one of {', '.join(TRAINABLE)}")
    p.add_argument("--all-variants", action="store_true",
                   help="train every trainable variant")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--eta", type=float, default=DEFAULT_NOISE_SCALE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="post-process one target report")
    p.add_argument("--checkpoint", default=None,
                   help="trained model JSON (or its directory)")
    p.add_argument("--variant", default=None,
                   help="'members' for the untrained baseline")
    p.add_argument("--scenario", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="verification CSVs from predictions")
    p.add_argument("--predictions", nargs="+", required=True,
                   help="prediction directories, one per target")
    p.add_argument("--scenario", required=True)
    p.add_argument("--targets", default=None, help="e.g. 6..11 or 6,8,10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "train" and not args.all_variants and args.variant is None:
        print("error: pass --variant or --all-variants", file=sys.stderr)
        return 2
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ValueError, FileNotFoundError, NotADirectoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
