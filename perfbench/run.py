"""Benchmark of the cyclone-pp pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-28x24 --seed 1 --seconds 22 --trace 0

Workloads (closed loop, one client: each call starts when the previous
one returns; the seed only shapes the generated scenario):

    pipeline-84x70  generate at 84x70 as set-up; time augment, train
                    cnn-all for target 11, predict and evaluate
    sweep-28x24     rolling_origin_run in memory, once per (variant,
                    target) for members/fcn/cnn/cnn-all and targets 6..11
    verify-84x70    generate and augment at 84x70 as set-up; time members
                    predict for targets 2..15 and one evaluate over them

Set-up runs three times, each repetition of the timed body runs until
``--seconds`` has passed (at least once), and every one of them is its
own process (``worker.py``) with BLAS pinned to one thread. Timings are
medians over those processes. ``--trace 1`` instead runs set-up once
and the body twice, untraced and then traced, and reports per-layer
metrics; end-to-end metrics always come from untraced processes.

Everything is written under ``.perfbench_out/`` in the checkout; the
per-run working directory is removed at the end and a result file with
the environment is kept. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the declared metrics
of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import layer_metrics, merge_totals  # noqa: E402

WORKLOADS = ("pipeline-84x70", "sweep-28x24", "verify-84x70")
N_SETUPS = 3
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_ENV = "CYCLONE_PP_THREADS"  # left unset: the package's own pool stays off
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(samples) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * len(xs))  # nearest rank
        if len(xs) - rank >= 10:
            out[f"p{p:g}"] = xs[rank - 1]
            break
    return out


def child_env(root: Path, tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env.update({k: "1" for k in BLAS_ENV})
    env.update(PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]),
               PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(tmp))
    return env


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    """Machine, library versions and thread settings next to the results."""
    import numpy
    import scipy
    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "cache_per_core_L2": caches.get("L2", "unknown"),
        "cache_L3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {**{k: "1" for k in BLAS_ENV}, THREADS_ENV: "unset"},
    }


class Launcher:
    """Working directory and process launcher for one benchmark run."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.work = root / OUT_DIR / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.env = child_env(root, self.work / "tmp")

    def job(self, kind: str, index: int, trace: bool) -> dict:
        """Run one worker process to completion and return its result."""
        name = f"{kind}-{index}"
        (self.work / name).mkdir()
        job_file, result_file = self.work / f"{name}.job", self.work / f"{name}.result"
        job_file.write_text(json.dumps({
            "kind": kind, "workload": self.workload, "seed": self.seed,
            "trace": trace, "score": kind == "rep" and index == 0,
            "dir": str(self.work / name),
            "spans_out": str(self.root / OUT_DIR / f"spans-{self.workload}-{name}.jsonl"),
        }))
        with open(self.work / f"{name}.log", "w") as log:
            try:
                rc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(job_file),
                     str(result_file)],
                    cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=CHILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = f"timeout after {CHILD_TIMEOUT_S} s"
        if rc == 0:
            return json.loads(result_file.read_text())
        tail = _read(self.work / f"{name}.log").splitlines()[-3:]
        return {"ops": [{"name": f"{name} process", "seconds": 0.0,
                         "error": f"worker exit {rc}: {' | '.join(tail)}"}],
                "checks": [], "fingerprints": {}, "forecast_s": []}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def flush(path: Path) -> None:
    """fsync every file under path.

    Left to the kernel, write-back of the set-up's outputs starts about
    30 s later, inside the next set-ups or the timed repetitions, and
    slows them.
    """
    for p in path.rglob("*"):
        if p.is_file():
            fd = os.open(p, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def measure(launcher: Launcher, seconds: float, trace: bool):
    """(set-up results, untraced body results, traced body result or None)."""
    setups = []
    for i in range(1 if trace else N_SETUPS):
        setups.append(launcher.job("setup", i, trace))
        if i:  # only the first set-up's outputs feed the body
            shutil.rmtree(launcher.work / f"setup-{i}")
        else:
            flush(launcher.work / "setup-0")
    os.replace(launcher.work / "setup-0", launcher.work / "inputs")
    bodies, traced = [], None
    t0 = time.perf_counter()
    while not bodies or (not trace and time.perf_counter() - t0 < seconds):
        bodies.append(launcher.job("rep", len(bodies), False))
        shutil.rmtree(launcher.work / f"rep-{len(bodies) - 1}")
    if trace:
        traced = launcher.job("rep", len(bodies), True)
    return setups, bodies, traced


def consistency(results) -> list[str]:
    """Every repeat of one output must give the same fingerprint (C8)."""
    seen: dict[str, set] = {}
    for r in results:
        for key, fp in r["fingerprints"].items():
            seen.setdefault(key, set()).add(fp)
    return [f"fingerprint of {key} differs across repeats"
            for key, fps in sorted(seen.items()) if len(fps) > 1]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(setups, bodies) -> tuple[dict, int, int]:
    """({name: (summary or value, unit)}, operations attempted, failed)."""
    ops = [op for r in setups + bodies for op in r["ops"]]
    failed = sum(1 for op in ops if op["error"])
    timings = {
        "setup_s": [r["setup_s"] for r in setups if "setup_s" in r],
        "wall_s": [r["wall_s"] for r in bodies if "wall_s" in r],
        "forecast_s": [x for r in bodies for x in r["forecast_s"]],
    }
    out = {name: (summarize(xs), "s") if xs else None for name, xs in timings.items()}
    quality = next((r["quality"] for r in bodies if "quality" in r), {})
    out.update({
        "peak_rss_mb": (max((r["peak_rss_mb"] for r in bodies if "peak_rss_mb" in r),
                            default=None), "MB"),
        "disk_written_mb": (_median(r["disk_written_mb"] for r in bodies
                                    if "disk_written_mb" in r), "MB"),
        "failed_frac": (failed / len(ops), "ratio"),
    })
    for key, unit in (("crps_land_mm", "mm"), ("crpss_heavy_plain", "ratio"),
                      ("calibration_error", "ratio")):
        out[key] = (quality.get(key), unit)
    return out, len(ops), failed


def operation_times(results) -> dict[str, list[float]]:
    """Seconds of every operation by name, over all processes given."""
    out: dict[str, list[float]] = {}
    for r in results:
        for op in r["ops"]:
            out.setdefault(op["name"], []).append(op["seconds"])
    return out


def per_layer(setups, bodies, traced) -> tuple[dict, list[str]]:
    totals = merge_totals([r["layers"] for r in setups + [traced] if "layers" in r])
    metrics = layer_metrics(totals)
    checks = []
    hashed = traced.get("mb_hashed_per_predict", [])
    metrics["storage.mb_hashed_first_predict"] = (hashed[0] if hashed else 0.0, "MB")
    metrics["storage.mb_hashed_last_predict"] = (hashed[-1] if hashed else 0.0, "MB")
    untraced = _median(r["wall_s"] for r in bodies if "wall_s" in r)
    overhead = (traced["wall_s"] / untraced - 1.0
                if untraced and "wall_s" in traced else None)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    total, self_sum = traced.get("train_self", (0.0, 0.0))
    gap = abs(total - self_sum) / total if total else 0.0
    metrics["trace.train_self_gap_frac"] = (gap, "ratio")
    if overhead is not None and gap > abs(overhead):
        checks.append(f"self times under cli.train sum to {self_sum:.6f} s, "
                      f"not {total:.6f} s within trace.overhead_frac")
    return metrics, checks


def value_of(entry):
    if entry is None or entry[0] is None:
        return None
    value, unit = entry
    return (value["median"] if isinstance(value, dict) else value), unit


def print_table(metrics: dict) -> None:
    for name, entry in metrics.items():
        if value_of(entry) is None:
            print(f"  {name:40s} absent")
            continue
        value, unit = entry
        if isinstance(value, dict):
            extra = "  ".join(f"{k} {v:.6g}" for k, v in value.items()
                              if k not in ("median", "n"))
            print(f"  {name:40s} {value['median']:.6g} {unit}  (median; {extra}"
                  f"{'  ' if extra else ''}n={value['n']})")
        else:
            print(f"  {name:40s} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cyclone_pp" / "cli.py").is_file():
        print(f"error: {root} holds no src/cyclone_pp; run from a checkout root",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    for key in BLAS_ENV:
        os.environ[key] = "1"
    env = environment()

    launcher = Launcher(root, args.workload, args.seed)
    try:
        setups, bodies, traced = measure(launcher, args.seconds, bool(args.trace))
    finally:
        launcher.close()

    metrics, attempted, failed = end_to_end(setups, bodies)
    checks = consistency(setups + bodies + ([traced] if traced else []))
    checks += [c for r in setups + bodies for c in r["checks"]]
    if traced is not None:
        layers, layer_checks = per_layer(setups, bodies, traced)
        checks += layer_checks + traced["checks"]
        attempted += len(traced["ops"])
        failed += sum(1 for op in traced["ops"] if op["error"])

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"end to end ({len(bodies)} repetition(s), {len(setups)} set-up(s)):")
    print_table(metrics)
    if traced is not None:
        print("per layer (one traced set-up and repetition):")
        print_table(layers)
    for op in (op for r in setups + bodies + ([traced] if traced else [])
               for op in r["ops"] if op["error"]):
        print(f"failed operation {op['name']}: {op['error']}")
    for check in checks:
        print(f"failed check: {check}")

    shown = layers if traced is not None else metrics
    names = [m["name"] for m in declared["per_layer" if traced else "end_to_end"]]
    final = {}
    for name in names:
        entry = value_of(shown.get(name))
        if entry is not None:
            final[name] = {"value": entry[0], "unit": entry[1]}
    line = {"correct": failed == 0 and not checks, "attempted": attempted,
            "failed": failed, "metrics": final}
    result_file = root / OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json")
    result_file.write_text(json.dumps({
        "environment": env, "args": vars(args), "checks": checks,
        "end_to_end": metrics, "per_layer": layers if traced else None,
        "samples": {"setup_s": [r.get("setup_s") for r in setups],
                    "wall_s": [r.get("wall_s") for r in bodies],
                    "forecast_s": [r["forecast_s"] for r in bodies],
                    "operation_s": operation_times(setups + bodies)},
        "result": line}, indent=1, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
