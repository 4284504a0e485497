"""One measured process of the benchmark: a set-up, or one repetition.

``run.py`` starts each set-up and each repetition of a workload's timed
body as a fresh ``python3 perfbench/worker.py JOB.json RESULT.json``
process, so that peak memory is per process and no warm state carries
from one repetition to the next. The job file names the workload, the
seed, the directory to work in and whether to trace; the result file
gets timings, operation outcomes, output fingerprints and quality.

Outputs are checked after the timed part, never inside it. A stage that
raises, exits non-zero or leaves a bad output is a failed operation; the
process carries on and reports it.
"""

import time

T_START = time.perf_counter()  # set-up time counts the imports below

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

GRID = (84, 70)
SWEEP_GRID = (28, 24)
SWEEP_VARIANTS = ("members", "fcn", "cnn", "cnn-all")
SWEEP_TARGETS = range(6, 12)
PIPELINE_TARGET = 11
VERIFY_TARGETS = range(2, 16)
#: set-up outputs, seen from a repetition's directory; one relative path
#: for every repetition keeps manifest fingerprints comparable
INPUTS = "../inputs"


def check_field(field, shape) -> str | None:
    """A prediction must cover the grid, be finite and have sigma > 0."""
    import numpy as np
    if field.mu.shape != tuple(shape) or field.sigma.shape != tuple(shape):
        return f"prediction shape {field.mu.shape}, expected {tuple(shape)}"
    if not (np.isfinite(field.mu).all() and np.isfinite(field.sigma).all()):
        return "prediction is not finite on every cell"
    if not (field.sigma > 0).all():
        return "prediction has sigma <= 0"
    return None


def field_fingerprint(field) -> str:
    return hashlib.sha256(field.mu.tobytes() + field.sigma.tobytes()).hexdigest()


def check_stage_output(out, shape=None) -> tuple[str | None, str | None]:
    """(error, manifest fingerprint) of one stage output directory."""
    from cyclone_pp.cli import load_predictions_csv
    from cyclone_pp.storage import manifest_fingerprint, verify_manifest
    try:
        manifest = verify_manifest(out)
        fingerprint = manifest_fingerprint(manifest)
        if shape is not None:
            field = load_predictions_csv(Path(out) / "predictions.csv", shape)
            error = check_field(field, shape)
            if error:
                return error, fingerprint
    except Exception as exc:  # any unreadable output is a failed check
        return f"{type(exc).__name__}: {exc}", None
    return None, fingerprint


class Run:
    """Operations, fingerprints and timings that one process collects."""

    def __init__(self):
        self.ops: list[dict] = []
        self.fingerprints: dict[str, str] = {}
        self.forecast_s: list[float] = []
        self.outputs: list[str] = []
        self._pending: list = []

    def stage(self, key: str, argv: list[str], out: str, shape=None) -> float:
        """Run one CLI stage in process and return its time."""
        from cyclone_pp import cli
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
            error = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:  # a crash is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        self.outputs.append(out)
        self._pending.append((key, seconds, error,
                              lambda: check_stage_output(out, shape)))
        return seconds

    def forecast(self, key: str, seconds: float, field, error, shape) -> None:
        """Record one in-memory forecast; its check runs later."""
        def check():
            if field is None:
                return None, None
            return check_field(field, shape), field_fingerprint(field)
        self._pending.append((key, seconds, error, check))

    def check(self) -> None:
        """Check every recorded output; call after the timed part."""
        for key, seconds, error, check in self._pending:
            found, fingerprint = check()
            if fingerprint is not None:
                self.fingerprints[key] = fingerprint
            self.ops.append({"name": key, "seconds": seconds,
                             "error": error or found})
        self._pending.clear()


# ---- quality ----------------------------------------------------------

def skill(domain, cases, with_crpss: bool = True) -> dict[str, float | None]:
    """Land CRPS, heavy-plain CRPSS and P(y > 200 mm) reliability error.

    ``cases`` is a list of (forecast, members reference, observation);
    cells are pooled over cases. Without ``with_crpss`` (the forecast is
    the members baseline itself) CRPSS is None.
    """
    import numpy as np
    from cyclone_pp.domain import RainCategory, classify_rain_field
    from cyclone_pp.evaluation import (
        calibration_error,
        exceedance_probability,
        reliability_diagram,
    )
    from cyclone_pp.scoring import crps_gaussian
    land = domain.land_mask
    crps, heavy, heavy_ref, p, y = [], [], [], [], []
    for field, ref, obs in cases:
        score = crps_gaussian(field.mu, field.sigma, obs)
        crps.append(score[land])
        cats = classify_rain_field(obs)
        sel = domain.plain_mask & ((cats == RainCategory.HEAVY)
                                   | (cats == RainCategory.BEYOND_HEAVY))
        heavy.append(score[sel])
        heavy_ref.append(crps_gaussian(ref.mu[sel], ref.sigma[sel], obs[sel]))
        p.append(exceedance_probability(field)[land])
        y.append(obs[land])
    heavy, heavy_ref = np.concatenate(heavy), np.concatenate(heavy_ref)
    return {
        "crps_land_mm": float(np.concatenate(crps).mean()),
        "crpss_heavy_plain": (None if not with_crpss or heavy.size == 0
                              else float(np.median(1.0 - heavy / heavy_ref))),
        "calibration_error": calibration_error(
            reliability_diagram(np.concatenate(p), np.concatenate(y))),
    }


def _original_report(scenario_dir, k: int):
    from cyclone_pp.synthgen import list_report_dirs, load_report
    for index, noise, rdir in list_report_dirs(scenario_dir):
        if index == k and not noise:
            return load_report(rdir)
    raise FileNotFoundError(f"no report {k} in {scenario_dir}")


def _stage_quality(scenario_dir, pred_dirs, with_crpss: bool) -> dict:
    from cyclone_pp.cli import load_predictions_csv
    from cyclone_pp.models import predict_members_baseline
    from cyclone_pp.synthgen import load_scenario_header
    _spec, domain = load_scenario_header(scenario_dir)
    cases = []
    for k, pred in pred_dirs:
        report = _original_report(scenario_dir, k)
        ref = predict_members_baseline(report)
        field = load_predictions_csv(Path(pred) / "predictions.csv", domain.shape)
        cases.append((field, ref, report.observation))
    return skill(domain, cases, with_crpss)


# ---- workloads ----------------------------------------------------------

def sweep_scenario(seed: int):
    from cyclone_pp.synthgen import ScenarioSpec, generate_scenario, make_island_domain
    return generate_scenario(ScenarioSpec(seed=seed), make_island_domain(*SWEEP_GRID))


def setup(workload: str, seed: int, run: Run) -> None:
    if workload == "sweep-28x24":
        sweep_scenario(seed)
        return
    run.stage("generate", ["generate", "--seed", str(seed), "--out", "scenario"],
              "scenario")
    if workload == "verify-84x70":
        run.stage("augment", ["augment", "--scenario", "scenario", "--out", "aug"],
                  "aug")


def body_pipeline(run: Run, _scenario):
    """augment; train cnn-all on the original scenario; predict; evaluate."""
    sc = f"{INPUTS}/scenario"
    k = str(PIPELINE_TARGET)
    t0 = time.perf_counter()
    run.stage("augment", ["augment", "--scenario", sc, "--out", "aug"], "aug")
    train = run.stage("train", ["train", "--scenario", sc, "--variant", "cnn-all",
                                "--target", k, "--out", "train"], "train")
    predict = run.stage("predict", ["predict", "--checkpoint", "train",
                                    "--scenario", sc, "--target", k, "--out", "pred"],
                        "pred", shape=GRID)
    run.stage("evaluate", ["evaluate", "--predictions", "pred", "--scenario", sc,
                           "--out", "eval"], "eval")
    wall = time.perf_counter() - t0
    run.forecast_s.append(train + predict)
    return wall, lambda: _stage_quality(sc, [(PIPELINE_TARGET, "pred")], True)


def body_sweep(run: Run, scenario):
    """One in-memory rolling_origin_run call per (variant, target)."""
    from cyclone_pp.models import ModelConfig, rolling_origin_run
    configs = [ModelConfig.for_variant(v) for v in SWEEP_VARIANTS]
    fields = {}
    t0 = time.perf_counter()
    for k in SWEEP_TARGETS:
        for config in configs:
            key, field, error = (config.variant, k), None, None
            t1 = time.perf_counter()
            try:
                field = rolling_origin_run([config], scenario, targets=[k])[key]
            except Exception as exc:  # a crash is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t1
            fields[key] = field
            run.forecast(f"{config.variant}:{k}", seconds, field, error, SWEEP_GRID)
            if config.variant == "cnn-all":
                run.forecast_s.append(seconds)
    wall = time.perf_counter() - t0

    def quality():
        from cyclone_pp.models import predict_members_baseline
        by_index = {r.index: r for r in scenario.reports}
        cases = []
        for k in SWEEP_TARGETS:
            report = by_index[float(k)]
            cases.append((fields[("cnn-all", k)], predict_members_baseline(report),
                          report.observation))
        return skill(scenario.domain, cases)
    return wall, quality


def body_verify(run: Run, _scenario):
    """members predict for every target 2..15, then one evaluate over all."""
    aug = f"{INPUTS}/aug"
    preds = [(k, f"pred_{k}") for k in VERIFY_TARGETS]
    t0 = time.perf_counter()
    for k, out in preds:
        run.forecast_s.append(run.stage(
            f"predict:{k}", ["predict", "--variant", "members", "--scenario", aug,
                             "--target", str(k), "--out", out], out, shape=GRID))
    run.stage("evaluate", ["evaluate", "--predictions", *[p for _k, p in preds],
                           "--scenario", aug, "--out", "eval"], "eval")
    wall = time.perf_counter() - t0
    return wall, lambda: _stage_quality(aug, preds, False)


BODIES = {"pipeline-84x70": body_pipeline, "sweep-28x24": body_sweep,
          "verify-84x70": body_verify}


def disk_mb(dirs) -> float:
    total = 0
    for d in dirs:
        for p in Path(d).rglob("*"):
            if p.is_file():
                total += p.stat().st_size
    return total / 1e6


def run_job(job: dict) -> dict:
    import cyclone_pp.cli  # noqa: F401  (imports every module of the package)
    from tracing import mb_hashed_per_call, new_tracer, process_totals, self_time_gap
    rep = job["kind"] == "rep"
    # the sweep's in-memory input is made before tracing starts
    scenario = (sweep_scenario(job["seed"])
                if rep and job["workload"] == "sweep-28x24" else None)
    tracer = new_tracer() if job["trace"] else None
    run = Run()
    result: dict = {"checks": []}
    if rep:
        result["wall_s"], quality = BODIES[job["workload"]](run, scenario)
    else:
        setup(job["workload"], job["seed"], run)
        result["setup_s"] = time.perf_counter() - T_START
    # read before checks and scoring allocate anything
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = process_totals(tracer)
        result["mb_hashed_per_predict"] = mb_hashed_per_call(tracer.spans, "cli.predict")
        result["train_self"] = self_time_gap(tracer.spans, "cli.train")
        with open(job["spans_out"], "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.counts]) + "\n")
    run.check()
    if rep:
        result["disk_written_mb"] = disk_mb(run.outputs)
    if job["score"]:  # outputs repeat bit for bit, so one scoring suffices
        try:
            result["quality"] = quality()
        except Exception as exc:  # e.g. a failed stage left no predictions
            result["checks"].append(f"quality: {type(exc).__name__}: {exc}")
    result.update(ops=run.ops, fingerprints=run.fingerprints, forecast_s=run.forecast_s)
    return result


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    os.chdir(job["dir"])
    result = run_job(job)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
