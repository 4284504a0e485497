"""Forecast verification aggregates.

Turns per-cell predictions into the standard diagnostic artifacts: a
per-grid skill table joined with rain category and terrain class,
box-summary CRPSS distributions per stratum, exceedance-probability
maps, and reliability diagrams for a threshold event.
"""

from dataclasses import dataclass, fields

import numpy as np

from .domain import GridDomain, RainCategory, TerrainClass, classify_rain_field
from .scoring import GaussianField, crpss, ndtr
from .storage import write_text

EXCEEDANCE_THRESHOLD_MM = 200.0
EXCEEDANCE_CUTOFF = 0.5
N_RELIABILITY_BINS = 10
#: every rain category crossed with plain and mountain terrain
STRATA = tuple((cat, ter) for cat in RainCategory
               for ter in (TerrainClass.PLAIN, TerrainClass.MOUNTAIN))


def exceedance_probability(field: GaussianField) -> np.ndarray:
    """Per-cell probability that rainfall exceeds ``EXCEEDANCE_THRESHOLD_MM``.

    For a Gaussian forecast this is 1 - Phi((t - mu) / sigma), evaluated
    as Phi((mu - t) / sigma) by ``scoring.ndtr`` to stay accurate in the
    far tail: its relative error is at most 1e-12 down to z = -37.
    """
    return ndtr((field.mu - EXCEEDANCE_THRESHOLD_MM) / field.sigma)


def exceedance_map(probabilities: np.ndarray, domain: GridDomain) -> list[tuple[int, int, float]]:
    """Land cells whose exceedance probability is above ``EXCEEDANCE_CUTOFF``.

    Returns (row, col, p) triples sorted by descending probability; ties
    break on (row, col) so the listing is reproducible.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.shape != domain.shape:
        raise ValueError(f"probability grid {p.shape} does not match domain {domain.shape}")
    rows, cols = np.nonzero(domain.land_mask & (p > EXCEEDANCE_CUTOFF))
    entries = [(int(r), int(c), float(p[r, c])) for r, c in zip(rows, cols)]
    entries.sort(key=lambda e: (-e[2], e[0], e[1]))
    return entries


@dataclass(frozen=True)
class ReliabilityBins:
    """Decile-binned forecast probability vs observed event frequency.

    Empty bins carry NaN for both the mean probability and the observed
    frequency but keep a zero count, so the bin partition is always
    complete and re-binnable by the caller.
    """

    edges: np.ndarray
    mean_probability: np.ndarray
    event_frequency: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        meanp = np.asarray(self.mean_probability, dtype=float)
        freq = np.asarray(self.event_frequency, dtype=float)
        counts = np.asarray(self.counts, dtype=int)
        for name, arr in (("edges", edges), ("mean_probability", meanp),
                          ("event_frequency", freq), ("counts", counts)):
            object.__setattr__(self, name, arr)
        n = len(counts)
        if edges.shape != (n + 1,) or meanp.shape != (n,) or freq.shape != (n,):
            raise ValueError("bin arrays are inconsistently sized")
        filled = counts > 0
        if np.any((freq[filled] < 0) | (freq[filled] > 1)):
            raise ValueError("event frequencies must lie in [0, 1]")


def reliability_diagram(probabilities, observations) -> ReliabilityBins:
    """Bin forecast probabilities and tally how often the event verified.

    ``probabilities`` and ``observations`` are flattened together; the
    event is {observation > EXCEEDANCE_THRESHOLD_MM}, the one that
    :func:`exceedance_probability` forecasts. ``N_RELIABILITY_BINS`` bins
    partition [0, 1] evenly with the final bin closed at 1, so every cell
    lands in exactly one.
    """
    p = np.asarray(probabilities, dtype=float).ravel()
    y = np.asarray(observations, dtype=float).ravel()
    if p.shape != y.shape:
        raise ValueError("probabilities and observations must align")
    if p.size and (p.min() < 0 or p.max() > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    n_bins = N_RELIABILITY_BINS
    event = y > EXCEEDANCE_THRESHOLD_MM
    idx = np.minimum((p * n_bins).astype(int), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    sum_p = np.bincount(idx, weights=p, minlength=n_bins)
    sum_e = np.bincount(idx, weights=event.astype(float), minlength=n_bins)
    with np.errstate(invalid="ignore"):
        meanp = np.where(counts > 0, sum_p / np.maximum(counts, 1), np.nan)
        freq = np.where(counts > 0, sum_e / np.maximum(counts, 1), np.nan)
    return ReliabilityBins(edges=np.linspace(0.0, 1.0, n_bins + 1),
                           mean_probability=meanp, event_frequency=freq,
                           counts=counts)


def calibration_error(bins: ReliabilityBins) -> float:
    """Count-weighted mean |observed frequency - mean forecast probability|.

    The weighting makes this the expected calibration error: bins holding
    more cells contribute proportionally more. NaN when every bin is empty.
    """
    filled = bins.counts > 0
    if not filled.any():
        return float("nan")
    gaps = np.abs(bins.event_frequency[filled] - bins.mean_probability[filled])
    return float(np.average(gaps, weights=bins.counts[filled]))


@dataclass(frozen=True)
class SkillTable:
    """Per-land-cell scores joined with rain category and terrain class.

    Parallel arrays, one entry per (report, cell). ``crpss`` is NaN where
    the reference score is exactly zero.
    """

    report_index: np.ndarray
    row: np.ndarray
    col: np.ndarray
    terrain: np.ndarray
    category: np.ndarray
    crps_model: np.ndarray
    crps_ref: np.ndarray
    crpss: np.ndarray

    def __post_init__(self):
        n = len(self.report_index)
        for column in fields(self):
            arr = np.asarray(getattr(self, column.name))
            if arr.shape != (n,):
                raise ValueError(f"column {column.name} has shape {arr.shape}, expected ({n},)")
            object.__setattr__(self, column.name, arr)

    def __len__(self) -> int:
        return len(self.report_index)


def skill_table(report_index: int, model: GaussianField, reference: GaussianField,
                observation: np.ndarray, domain: GridDomain) -> SkillTable:
    """Score one report's predictions cell by cell over the land mask."""
    observation = np.asarray(observation, dtype=float)
    if observation.shape != domain.shape:
        raise ValueError("observation grid does not match domain")
    rows, cols = np.nonzero(domain.land_mask)
    obs = observation[rows, cols]
    cm = model.crps(observation)[rows, cols]
    cr = reference.crps(observation)[rows, cols]
    return SkillTable(
        report_index=np.full(rows.shape, report_index, dtype=int),
        row=rows.astype(int),
        col=cols.astype(int),
        terrain=domain.terrain_class[rows, cols].astype(np.int8),
        category=classify_rain_field(obs),
        crps_model=cm,
        crps_ref=cr,
        crpss=np.asarray(crpss(cm, cr)),
    )


def concat_skill_tables(tables) -> SkillTable:
    """Stack per-report tables into one; order follows the input."""
    tables = list(tables)
    if not tables:
        raise ValueError("no skill tables to concatenate")
    return SkillTable(**{c.name: np.concatenate([getattr(t, c.name) for t in tables])
                         for c in fields(SkillTable)})


@dataclass(frozen=True)
class StratumSummary:
    """Five-number box summary of one stratum's CRPSS values.

    Quartiles plus Tukey whiskers (the most extreme values within 1.5
    interquartile ranges of the box). All NaN when the stratum is empty.
    """

    n: int
    whisker_lo: float
    q1: float
    median: float
    q3: float
    whisker_hi: float


_EMPTY_SUMMARY = StratumSummary(n=0, whisker_lo=float("nan"), q1=float("nan"),
                                median=float("nan"), q3=float("nan"),
                                whisker_hi=float("nan"))


def _summarize(values: np.ndarray) -> StratumSummary:
    values = values[np.isfinite(values)]
    if values.size == 0:
        return _EMPTY_SUMMARY
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    iqr = q3 - q1
    inside = values[(values >= q1 - 1.5 * iqr) & (values <= q3 + 1.5 * iqr)]
    return StratumSummary(n=int(values.size), whisker_lo=float(inside.min()),
                          q1=float(q1), median=float(med), q3=float(q3),
                          whisker_hi=float(inside.max()))


def crpss_by_stratum(skill: SkillTable) -> dict[tuple[RainCategory, TerrainClass], StratumSummary]:
    """Box summaries of per-cell CRPSS per stratum of ``STRATA``.

    Empty strata come back as zero-count summaries rather than being
    dropped, so downstream tables keep a fixed layout.
    """
    if len(skill) == 0:
        raise ValueError("skill table is empty")
    out = {}
    for cat, ter in STRATA:
        sel = (skill.category == int(cat)) & (skill.terrain == int(ter))
        out[(cat, ter)] = _summarize(skill.crpss[sel])
    return out


def _fmt(x) -> str:
    if isinstance(x, float):
        return "nan" if np.isnan(x) else format(x, ".10g")
    return str(x)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_skill_table(path, skill: SkillTable) -> None:
    """Emit the per-cell table as plot-ready CSV."""
    rows = zip(skill.report_index, skill.row, skill.col,
               (TerrainClass(int(t)).name.lower() for t in skill.terrain),
               (RainCategory(int(c)).name.lower() for c in skill.category),
               (float(v) for v in skill.crps_model),
               (float(v) for v in skill.crps_ref),
               (float(v) for v in skill.crpss))
    write_text(path, _csv_text([c.name for c in fields(skill)], rows))


def write_crpss_summary(path, summaries: dict) -> None:
    """Emit per-stratum box summaries as CSV, one stratum per row."""
    rows = [(cat.name.lower(), ter.name.lower(), s.n, s.whisker_lo, s.q1,
             s.median, s.q3, s.whisker_hi)
            for (cat, ter), s in summaries.items()]
    write_text(path, _csv_text(
        ("category", "terrain", "n", "whisker_lo", "q1", "median", "q3",
         "whisker_hi"), rows))


def write_exceedance_map(path, entries) -> None:
    """Emit (row, col, probability) triples as CSV."""
    write_text(path, _csv_text(("row", "col", "probability"), entries))


def write_reliability(path, bins: ReliabilityBins) -> None:
    """Emit one row per probability bin as CSV."""
    rows = [(float(bins.edges[i]), float(bins.edges[i + 1]),
             float(bins.mean_probability[i]), float(bins.event_frequency[i]),
             int(bins.counts[i]))
            for i in range(len(bins.counts))]
    write_text(path, _csv_text(
        ("bin_lo", "bin_hi", "mean_probability", "event_frequency", "count"),
        rows))
