"""The package surface that the benchmark's tracer wraps stays whole.

``perfbench/tracing.py`` wraps package functions and methods by name at
run time, and its counters read argument shapes and layer attributes.
A refactor that renames one of them, or changes what a counter reads,
leaves that per-layer metric absent from a traced benchmark run. This
test drives the traced names on a tiny grid with the tracer installed.
"""

import importlib
from pathlib import Path

import pytest

from cyclone_pp import models
from cyclone_pp.models import ModelConfig, TrainedModel, original_track
from cyclone_pp.synthgen import ScenarioSpec, generate_scenario, make_island_domain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_traced_training_and_checkpoints_leave_no_metric_absent(tracing, tmp_path):
    domain = make_island_domain(n_rows=14, n_cols=12)
    scenario = generate_scenario(ScenarioSpec(seed=1), domain)
    history = [r for r in scenario.reports if r.index < 6]
    target = next(r for r in scenario.reports if r.index == 6)
    track = original_track(scenario.reports)
    tracer = tracing.new_tracer()
    try:
        for variant in ("fcn", "cnn-all"):
            # through the module, so the call goes to the wrapped name
            model = models.train_model(ModelConfig.for_variant(variant, epochs=2),
                                       history, domain)
            model.predict(target, domain, track)
            path = tmp_path / f"{variant}.json"
            model.save(path)
            TrainedModel.load(path).predict(target, domain, track)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.uncounted == set()
    metrics = tracing.layer_metrics(tracing.process_totals(tracer))
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["neuralnet.epochs"] == (4, "count")
