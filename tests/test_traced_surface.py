"""The package surface that the benchmark's tracer wraps stays whole.

``perfbench/tracing.py`` wraps package functions and methods by name at
run time, and its counters read argument shapes and layer attributes.
A refactor that renames one of them, or changes what a counter reads,
leaves that per-layer metric absent from a traced benchmark run. These
tests drive the traced names on tiny grids with the tracer installed:
the library calls, and the five CLI stages end to end. Every traced
``neuralnet`` span must also read above 0, so a name that is kept but
no longer called fails here too.
"""

import importlib
import json
from pathlib import Path

import pytest

from cyclone_pp import cli, models
from cyclone_pp.models import ModelConfig, TrainedModel
from cyclone_pp.synthgen import ScenarioSpec, generate_scenario, make_island_domain

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_traced_training_and_checkpoints_leave_no_metric_absent(tracing, tmp_path):
    domain = make_island_domain(n_rows=14, n_cols=12)
    scenario = generate_scenario(ScenarioSpec(seed=1), domain)
    source = scenario.originals()
    tracer = tracing.new_tracer()
    try:
        for variant in ("fcn", "cnn-all"):
            # through the module, so the call goes to the wrapped name
            model = models.train_model(ModelConfig.for_variant(variant, epochs=2),
                                       source, domain, 6)
            model.predict(source, domain, 6)
            path = tmp_path / f"{variant}.json"
            model.save(path)
            TrainedModel.load(path).predict(source, domain, 6)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.uncounted == set()
    metrics = tracing.layer_metrics(tracing.process_totals(tracer))
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["neuralnet.epochs"] == (4, "count")
    # a traced name that a refactor kept but stopped calling reads 0
    for span in ("conv_forward", "conv_backward", "softplus_forward",
                 "softplus_backward", "adam_step", "checkpoint_io"):
        assert metrics[f"neuralnet.{span}_s"][0] > 0, span


def test_traced_cli_stages_count_every_declared_metric(tracing, tmp_path):
    scen, aug, model = tmp_path / "scen", tmp_path / "aug", tmp_path / "model"
    pred, ev = tmp_path / "pred", tmp_path / "eval"
    stages = [
        ["generate", "--seed", "1", "--rows", "10", "--cols", "8", "--out", scen],
        ["augment", "--scenario", scen, "--out", aug],
        ["train", "--scenario", scen, "--variant", "cnn-all", "--target", "6",
         "--epochs", "2", "--out", model],
        ["predict", "--checkpoint", model, "--scenario", scen, "--target", "6",
         "--out", pred],
        ["evaluate", "--predictions", pred, "--scenario", scen, "--out", ev],
    ]
    tracer = tracing.new_tracer()
    try:
        # through the module, so each stage goes to the wrapped cmd_* name
        codes = [cli.main([str(arg) for arg in argv]) for argv in stages]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(stages)
    assert tracer.uncounted == set()
    metrics = tracing.layer_metrics(tracing.process_totals(tracer))
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                ["per_layer"]]
    assert [name for name in declared if name in metrics and metrics[name] is None] == []
    for stage in ("generate", "augment", "train", "predict", "evaluate"):
        assert metrics[f"cli.{stage}_s"][0] > 0
    assert metrics["storage.verify_manifest_s"][0] > 0
    assert metrics["storage.mb_hashed"][0] > 0
    # train reads the 5 originals before its target through load_report and
    # fits once through train_model; a reader past either would leave the
    # benchmark's per-report and per-fit metrics at 0
    [train] = [i for i, span in enumerate(tracer.spans) if span.name == "cli.train"]
    counts = tracing.count_totals(tracer.spans, tracing.subtree(tracer.spans, train))
    assert counts["synthgen.load_report_calls"] == 5
    assert counts["models.fits"] == 1
