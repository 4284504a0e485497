"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from tracing import Span  # noqa: E402

SMALL = ["--rows", "16", "--cols", "14"]


def test_self_times_subtract_what_children_cover():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("a", 6.0, 7.0, 2),   # same name nested under another span
        Span("c", 3.0, 5.5, 0),   # overlaps a and b: the union is subtracted
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 8.0, 3.0, 3.0, 1.0, 2.5])
    # every subtree's self times add up to the root's duration
    assert sum(own[i] for i in tracing.subtree(spans, 2)) == pytest.approx(4.0)
    assert tracing.inclusive_totals(spans) == pytest.approx(
        {"root": 10.0, "a": 4.0, "b": 4.0, "c": 2.5})
    total, self_sum = tracing.self_time_gap(spans, "b")
    assert (total, self_sum) == pytest.approx((4.0, 4.0))


def test_nested_same_name_spans_count_once():
    spans = [Span("x", 0.0, 5.0, None), Span("x", 1.0, 2.0, 0),
             Span("y", 6.0, 7.0, None), Span("x", 6.5, 6.75, 2)]
    assert tracing.inclusive_totals(spans) == pytest.approx({"x": 5.25, "y": 1.0})


def test_tracer_wraps_every_namespace_and_restores_it():
    import cyclone_pp.cli  # noqa: F401
    from cyclone_pp import models, scoring
    original = scoring.crps_gaussian
    tracer = tracing.new_tracer()
    try:
        assert models.crps_gaussian is scoring.crps_gaussian is not original
        scores = models.crps_gaussian(np.zeros(6), np.ones(6), np.ones(6))
    finally:
        tracer.uninstall()
    assert models.crps_gaussian is original and scoring.crps_gaussian is original
    assert [s.name for s in tracer.spans] == ["scoring.crps"]
    assert tracer.spans[0].counts == {"scoring.cells_scored": scores.size}
    assert tracer.absent == []


def test_missing_names_are_reported_absent():
    tracer = tracing.Tracer()
    tracer.install([("neuralnet", "RemovedLayer.forward", "neuralnet.conv_forward", None),
                    ("no_such_module", "f", "cli.train", None)])
    assert tracer.absent == ["neuralnet.conv_forward", "cli.train"]
    metrics = tracing.layer_metrics(tracing.process_totals(tracer))
    assert metrics["neuralnet.conv_forward_s"] is None
    assert metrics["neuralnet.land_row_frac"] is None
    assert metrics["neuralnet.conv_gflop"] is None
    assert metrics["cli.train_s"] is None
    assert metrics["cli.predict_s"] == (0.0, "s")


def test_summary_percentile_keeps_ten_samples_beyond():
    assert run.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    s = run.summarize(range(1, 101))
    assert s["p90"] == 90 and s["n"] == 100
    assert "p75" in run.summarize(range(40)) and "p90" not in run.summarize(range(40))


def _stage(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    r = worker.Run()
    r.stage("generate", ["generate", "--seed", "5", *SMALL, "--out", "scenario"],
            "scenario")
    return r


def test_flipped_byte_is_a_failed_operation_not_a_crash(tmp_path, monkeypatch):
    r = _stage(tmp_path, monkeypatch)
    victim = tmp_path / "scenario" / "report_0030" / "member_01.csv"
    data = bytearray(victim.read_bytes())
    data[10] ^= 0x01
    victim.write_bytes(bytes(data))
    r.stage("augment", ["augment", "--scenario", "scenario", "--out", "aug"], "aug")
    r.check()
    errors = {op["name"]: op["error"] for op in r.ops}
    assert "hash mismatch" in errors["generate"]
    assert errors["augment"] == "exit code 1"


def test_checks_pass_on_current_code(tmp_path, monkeypatch):
    r = _stage(tmp_path, monkeypatch)
    for out in ("pred_a", "pred_b"):  # a repeat must give the same fingerprint
        r.stage(out, ["predict", "--variant", "members", "--scenario", "scenario",
                      "--target", "4", "--out", out], out, shape=(16, 14))
    r.stage("train", ["train", "--scenario", "scenario", "--variant", "cnn-all",
                      "--target", "4", "--epochs", "2", "--out", "train"], "train")
    r.stage("predict", ["predict", "--checkpoint", "train", "--scenario", "scenario",
                        "--target", "4", "--out", "pred"], "pred", shape=(16, 14))
    r.check()
    assert [op["error"] for op in r.ops] == [None] * 5
    assert r.fingerprints["pred_a"] == r.fingerprints["pred_b"]
    quality = worker._stage_quality("scenario", [(4, "pred")], True)
    assert quality["crps_land_mm"] > 0 and 0 <= quality["calibration_error"] <= 1


def test_bad_prediction_fails_its_check():
    from cyclone_pp.scoring import GaussianField
    good = GaussianField(mu=np.ones((3, 2)), sigma=np.ones((3, 2)))
    assert worker.check_field(good, (3, 2)) is None
    assert "shape" in worker.check_field(good, (2, 3))
    bad = GaussianField(mu=np.ones((3, 2)), sigma=np.ones((3, 2)))
    bad.mu[1, 1] = np.nan
    assert "finite" in worker.check_field(bad, (3, 2))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-28x24",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_declares_what_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    metrics = tracing.layer_metrics({"time": {}, "self": {}, "counts": {},
                                     "absent": [], "uncounted": []})
    extra = {"storage.mb_hashed_first_predict", "storage.mb_hashed_last_predict",
             "trace.overhead_frac", "trace.train_self_gap_frac"}
    assert {m["name"] for m in doc["per_layer"]} == set(metrics) | extra


def test_fingerprints_must_agree_across_repeats():
    same = [{"fingerprints": {"train": "a"}}, {"fingerprints": {"train": "a"}}]
    assert run.consistency(same) == []
    differ = same + [{"fingerprints": {"train": "b", "eval": "c"}}]
    assert run.consistency(differ) == ["fingerprint of train differs across repeats"]


def test_traced_training_counts_come_from_shapes(tmp_path, monkeypatch):
    r = _stage(tmp_path, monkeypatch)
    tracer = tracing.new_tracer()
    try:
        r.stage("train", ["train", "--scenario", "scenario", "--variant", "cnn-all",
                          "--target", "4", "--epochs", "3", "--out", "train"], "train")
    finally:
        tracer.uninstall()
    r.check()
    assert [op["error"] for op in r.ops] == [None, None]
    metrics = tracing.layer_metrics(tracing.process_totals(tracer))
    from cyclone_pp.synthgen import make_island_domain
    land = make_island_domain(n_rows=16, n_cols=14).land_mask
    assert metrics["neuralnet.land_row_frac"] == (land.sum() / land.size, "ratio")
    assert metrics["neuralnet.epochs"] == (3, "count")
    assert metrics["models.fits"] == (1, "count")
    assert metrics["augmentation.reports_built"] == (10, "count")  # 3 originals
    assert metrics["neuralnet.conv_gflop"][0] > 0
    total, self_sum = tracing.self_time_gap(tracer.spans, "cli.train")
    assert total > 0 and self_sum == pytest.approx(total, rel=1e-9)


def test_failing_counter_leaves_the_call_and_its_time_alone():
    tracer = tracing.Tracer()
    def broken(spans, index, args, kwargs, result):
        return {"models.fits": args[5]}  # as if the signature had changed
    traced = tracer.wrap(lambda x: x + 1, "models.train_model", broken)
    assert traced(1) == 2
    metrics = tracing.layer_metrics(tracing.process_totals(tracer))
    assert metrics["models.fits"] is None
    assert metrics["neuralnet.land_row_frac"] is None
    assert metrics["models.train_model_s"][0] > 0
