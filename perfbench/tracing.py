"""Span tracer for the per-layer benchmark run.

Wrappers installed from this file record one span per call into a
module's public function: name, start, end, parent span and any counts
taken from the call's arguments and result. Spans stay in memory until
the run ends. Nothing under ``src/`` is edited; the wrappers replace
attributes at run time.

The package imports names directly (``from .scoring import
crps_gaussian``), so a function is wrapped in every ``cyclone_pp``
namespace that holds the same object, not only where it is defined.
Methods are wrapped on their class. A name that no longer exists is
skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "cyclone_pp"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list, None for a root
    counts: dict[str, float] = field(default_factory=dict)


def children_of(spans) -> list[list[int]]:
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    return children


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = children_of(spans)
    return [s.end - s.start
            - covered([(spans[c].start, spans[c].end) for c in children[i]],
                      s.start, s.end)
            for i, s in enumerate(spans)]


def subtree(spans, root: int) -> list[int]:
    """Indices of a span and all its descendants."""
    children = children_of(spans)
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(children[i])
    return out


def inclusive_totals(spans) -> dict[str, float]:
    """Per name, summed duration of spans with no same-named ancestor."""
    totals: dict[str, float] = {}
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start)
    return totals


def self_totals(spans) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def count_totals(spans, indices=None) -> dict[str, float]:
    totals: dict[str, float] = {}
    for i in range(len(spans)) if indices is None else indices:
        for key, amount in spans[i].counts.items():
            totals[key] = totals.get(key, 0.0) + amount
    return totals


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    #: spans whose counter failed, e.g. on a changed signature
    uncounted: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def wrap(self, fn, name: str, count=None):
        """``count(spans, index, args, kwargs, result)`` returns the counts.

        It runs after the call returns, with the call's own span at
        ``spans[index]`` and its child spans complete.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    span.counts = count(self.spans, index, args, kwargs, result)
                except Exception:  # a refactor must not break the traced run
                    self.uncounted.add(name)
            return result
        return traced

    def install(self, targets) -> None:
        """Wrap every (module, qualname, span name, counter) target.

        ``qualname`` is ``func`` or ``Class.method``. A missing module,
        class or attribute is listed in ``absent`` instead of raising.
        """
        for module_name, qualname, name, count in targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                module = None
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(original, name, count)
            homes = [owner] if owner_name else [
                m for key, m in list(sys.modules.items())
                if (key == PACKAGE or key.startswith(PACKAGE + "."))
                and getattr(m, attr, None) is original]
            for home in homes:
                self._undo.append((home, attr, original))
                setattr(home, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            home, attr, original = self._undo.pop()
            setattr(home, attr, original)


# ---- counts, taken from arguments, results and array shapes ----------

def _calls(key):
    return lambda spans, index, args, kwargs, result: {key: 1}


def _path_mb(args, kwargs) -> float:
    return os.path.getsize(args[0] if args else kwargs["path"]) / 1e6


def _hashed(spans, index, args, kwargs, result):
    return {"storage.mb_hashed": _path_mb(args, kwargs)}


def _saved_grid(spans, index, args, kwargs, result):
    return {"storage.save_grid_csv_calls": 1,
            "storage.csv_mb_written": _path_mb(args, kwargs)}


def _cells_scored(spans, index, args, kwargs, result):
    return {"scoring.cells_scored": int(getattr(result, "size", 1))}


def _reports_built(spans, index, args, kwargs, result):
    return {"augmentation.reports_built": len(result.reports)}


def _fit(spans, index, args, kwargs, result):
    """One fit, plus land rows against conv rows computed while training.

    Every conv row is one grid cell of one report, so a call's land rows
    are its rows times the domain's land share.
    """
    domain = args[2] if len(args) > 2 else kwargs["domain"]
    n_cells, n_land = domain.land_mask.size, int(domain.land_mask.sum())
    rows = sum(spans[i].counts.get("neuralnet.conv_rows", 0)
               for i in subtree(spans, index) if i != index)
    return {"models.fits": 1, "neuralnet.train_conv_rows": rows,
            "neuralnet.train_land_rows": rows // n_cells * n_land}


def _conv_dims(layer, input_shape):
    batch, _channels, rows, cols = input_shape
    out_ch, in_ch, kh, kw = layer.kernels.value.shape
    return batch * rows * cols, in_ch * kh * kw, out_ch


def _conv_forward(spans, index, args, kwargs, result):
    layer, x = args[0], args[1]
    m, k, n = _conv_dims(layer, x.shape)
    return {"neuralnet.conv_gflop": 2.0 * m * k * n / 1e9,
            "neuralnet.conv_rows": m}


def _conv_backward(spans, index, args, kwargs, result):
    layer = args[0]
    m, k, n = _conv_dims(layer, layer._input_shape)
    matmuls = 2 if layer.input_grad else 1  # kernel grad, then input grad
    return {"neuralnet.conv_gflop": matmuls * 2.0 * m * k * n / 1e9}


def _epoch(spans, index, args, kwargs, result):
    return {"neuralnet.epochs": 1}


#: (module, qualname, span name, counter). A timed metric is its span
#: name plus ``_s``.
TARGETS = [
    ("cli", "cmd_generate", "cli.generate", None),
    ("cli", "cmd_augment", "cli.augment", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_predict", "cli.predict", None),
    ("cli", "cmd_evaluate", "cli.evaluate", None),
    ("storage", "save_grid_csv", "storage.save_grid_csv", _saved_grid),
    ("storage", "load_grid_csv", "storage.load_grid_csv",
     _calls("storage.load_grid_csv_calls")),
    ("storage", "sha256_file", "storage.sha256_file", _hashed),
    ("storage", "verify_manifest", "storage.verify_manifest", None),
    ("storage", "write_manifest", "storage.write_manifest", None),
    ("synthgen", "generate_scenario", "synthgen.generate_scenario", None),
    ("synthgen", "save_scenario", "synthgen.save_scenario", None),
    ("synthgen", "load_report", "synthgen.load_report",
     _calls("synthgen.load_report_calls")),
    ("synthgen", "list_report_dirs", "synthgen.list_report_dirs", None),
    ("augmentation", "build_augmented_set", "augmentation.build_augmented_set",
     _reports_built),
    ("features", "assemble_stack", "features.assemble_stack",
     _calls("features.assemble_stack_calls")),
    ("features", "fit_standardizer", "features.fit_standardizer", None),
    ("features", "apply_standardizer", "features.apply_standardizer", None),
    ("models", "fcn_features", "models.fcn_features", None),
    ("models", "train_model", "models.train_model", _fit),
    ("models", "TrainedModel.predict", "models.predict", None),
    ("models", "predict_members_baseline", "models.predict_members", None),
    ("neuralnet", "ConvLayer.forward", "neuralnet.conv_forward", _conv_forward),
    ("neuralnet", "ConvLayer.backward", "neuralnet.conv_backward", _conv_backward),
    ("neuralnet", "SoftplusLayer.forward", "neuralnet.softplus_forward", None),
    ("neuralnet", "SoftplusLayer.backward", "neuralnet.softplus_backward", None),
    ("neuralnet", "Adam.step", "neuralnet.adam_step", _epoch),
    ("neuralnet", "save_network", "neuralnet.checkpoint_io", None),
    ("neuralnet", "load_network", "neuralnet.checkpoint_io", None),
    ("scoring", "crps_gaussian", "scoring.crps", _cells_scored),
    ("scoring", "crps_gradient", "scoring.crps", None),
    ("evaluation", "skill_table", "evaluation.skill_table", None),
    ("evaluation", "reliability_diagram", "evaluation.reliability", None),
    ("evaluation", "exceedance_probability", "evaluation.exceedance", None),
    ("evaluation", "exceedance_map", "evaluation.exceedance", None),
    ("evaluation", "write_skill_table", "evaluation.write", None),
    ("evaluation", "write_crpss_summary", "evaluation.write", None),
    ("evaluation", "write_exceedance_map", "evaluation.write", None),
    ("evaluation", "write_reliability", "evaluation.write", None),
    ("domain", "GridDomain.latlon_grids", "domain.latlon_grids",
     _calls("domain.latlon_grids_calls")),
]

#: Count metrics: unit and the span whose calls produce them.
COUNTS = {
    "storage.save_grid_csv_calls": ("count", "storage.save_grid_csv"),
    "storage.csv_mb_written": ("MB", "storage.save_grid_csv"),
    "storage.load_grid_csv_calls": ("count", "storage.load_grid_csv"),
    "storage.mb_hashed": ("MB", "storage.sha256_file"),
    "synthgen.load_report_calls": ("count", "synthgen.load_report"),
    "augmentation.reports_built": ("count", "augmentation.build_augmented_set"),
    "features.assemble_stack_calls": ("count", "features.assemble_stack"),
    "models.fits": ("count", "models.train_model"),
    "neuralnet.epochs": ("count", "neuralnet.adam_step"),
    "neuralnet.conv_gflop": ("GFLOP", "neuralnet.conv_forward"),
    "scoring.cells_scored": ("count", "scoring.crps"),
    "domain.latlon_grids_calls": ("count", "domain.latlon_grids"),
}


def span_names() -> list[str]:
    return list(dict.fromkeys(name for _m, _q, name, _c in TARGETS))


def process_totals(tracer: Tracer) -> dict:
    """Additive per-layer totals of one traced process, JSON-ready."""
    spans = tracer.spans
    return {"time": inclusive_totals(spans), "self": self_totals(spans),
            "counts": count_totals(spans),
            "absent": sorted(set(tracer.absent)),
            "uncounted": sorted(tracer.uncounted)}


def merge_totals(parts) -> dict:
    merged = {"time": {}, "self": {}, "counts": {}, "absent": set(), "uncounted": set()}
    for part in parts:
        for key in ("time", "self", "counts"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0.0) + value
        merged["absent"].update(part["absent"])
        merged["uncounted"].update(part["uncounted"])
    return merged


def layer_metrics(totals) -> dict[str, tuple[float, str] | None]:
    """Every per-layer metric as (value, unit); None when it cannot be taken."""
    absent = set(totals["absent"])
    uncountable = absent | set(totals["uncounted"])
    out: dict[str, tuple[float, str] | None] = {}
    for name in span_names():
        out[f"{name}_s"] = (None if name in absent
                            else (totals["time"].get(name, 0.0), "s"))
        if name == "models.train_model":
            out["models.train_model_self_s"] = (
                None if name in absent else (totals["self"].get(name, 0.0), "s"))
    for key, (unit, source) in COUNTS.items():
        out[key] = (None if source in uncountable
                    else (totals["counts"].get(key, 0.0), unit))
    rows = totals["counts"].get("neuralnet.train_conv_rows", 0)
    out["neuralnet.land_row_frac"] = (
        None if uncountable & {"neuralnet.conv_forward", "models.train_model"}
        else (totals["counts"].get("neuralnet.train_land_rows", 0) / rows
              if rows else 0.0, "ratio"))
    return out


def mb_hashed_per_call(spans, name: str) -> list[float]:
    """MB hashed under each span of one name, in call order."""
    return [count_totals(spans, subtree(spans, i)).get("storage.mb_hashed", 0.0)
            for i, s in enumerate(spans) if s.name == name]


def self_time_gap(spans, name: str) -> tuple[float, float]:
    """(summed duration, summed self time of all subtrees) of one span name.

    The two agree when every child lies inside its parent, which is what
    the self-time arithmetic assumes.
    """
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s.name == name]
    return (sum(spans[i].end - spans[i].start for i in roots),
            sum(own[j] for i in roots for j in subtree(spans, i)))


def new_tracer() -> Tracer:
    """A tracer with every target wrapped; import the package first."""
    tracer = Tracer()
    tracer.install(TARGETS)
    return tracer
