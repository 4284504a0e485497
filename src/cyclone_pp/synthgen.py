"""Seeded synthetic TC rainfall scenarios with a known truth law.

The real event data cannot be redistributed, so the pipeline is
exercised on fabricated storms: an elliptical island with a central
mountain ridge, a linear TC track crossing it mid-sequence, and a
per-report truth law

    rain(cell, k) = A * exp(-dist(cell, track_k) / L) * (1 + tf * alt_km)

multiplied by unit-mean lognormal noise. Ensemble members see the same
signal through a per-member multiplicative bias (drawn once per
scenario, i.i.d. across members, so the ensemble is exchangeable) plus
their own field noise; the bias mean sits above 1, giving the raw
ensemble a systematic overforecast that post-processing can learn away.

Everything is deterministic in (spec, domain): per-report noise streams
are keyed on (seed, report index), so reports can be generated in any
order or in parallel with identical results.
"""

from __future__ import annotations

import copy
import re
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .domain import (
    N_MEMBERS,
    GridDomain,
    Report,
    ReportOrigin,
    check_center,
    index_tenths,
    load_domain_file,
    save_domain_file,
)
from .features import tc_distance_field
from .storage import (
    load_grid_csv,
    read_json,
    record_from_json,
    save_grid_csv,
    verify_manifest,
    write_json,
)

SCENARIO_FORMAT = "cyclone-pp-scenario/4"
# island origin and extent in degrees, kept constant across grid resolutions
ISLAND_LAT0, ISLAND_LON0 = 21.9, 120.0
ISLAND_EXTENT_LAT = 2.52
ISLAND_PEAK_M = 3200.0
_POINT = ("[-90, 90]", "[-180, 360)")  # a track point's latitude and longitude
#: the interval of each numeric key, or of each component of a pair. The
#: rain amounts stop at about five times the world's 24 h rain record
#: (1,825 mm): rain near 1e154 mm overflows float64 when the fit squares
#: it. A tenfold wet bias or tenfold rain per km of altitude, a log-std
#: of 5 (a spread of e^5 = 150 times) or a storm center moved by 10
#: degrees is already far outside any real ensemble. Report directories
#: name an index in four digits of tenths, so 999 reports at most.
_BOUNDS = {
    "seed": "[0, inf)", "n_reports": "[2, 999]", "track_start": _POINT, "track_end": _POINT,
    "amplitude_mm": "[0, 1e4]", "decay_km": "(0, inf)", "terrain_factor": "[0, 10]",
    "noise_sigma": "[0, 5]", "member_bias": "(0, 10]", "member_bias_spread": "[0, 5]",
    "member_noise_sigma": "[0, 5]", "member_noise_mm": "[0, 1e4]",
    "member_terrain_factor": "[0, 10]", "track_bias_deg": ("[-10, 10]", "[-10, 10]"),
    "track_jitter_deg": "[0, 10]",
}
_STREAM_REPORT = 101
_STREAM_BIAS = 9001

# the files of a report directory; report_files() names them to others
_META, _MEMBERS, _OBS = "meta.json", "members.npy", "obs.npy"
_REPORT_DIR_RE = re.compile(r"report_(\d{4})(n?)$")


def _inside(value, interval: str) -> bool:
    """Whether value lies in an interval written like "[0, 5]" or "(0, inf)"."""
    low, high = map(float, interval[1:-1].split(","))
    return ((low < value) if interval[0] == "(" else (low <= value)) and (
        (value < high) if interval[-1] == ")" else (value <= high))


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic storm.

    amplitude_mm and decay_km shape the rain field; terrain_factor adds
    fractional enhancement per km of altitude; noise_sigma is the
    log-std of the truth's lognormal noise.

    The ensemble is imperfect in three learnable ways. member_bias is
    the mean multiplicative bias (above 1 = overforecast), with
    member_bias_spread the log-std of the per-member draw and
    member_noise_sigma the log-std of each member's own field noise
    (member_noise_mm adds a small additive jitter, clamped at zero).
    member_terrain_factor is the weaker orographic response the members
    believe in, and track_bias_deg displaces every member's storm center
    from the true track (track_jitter_deg adds a per-member scatter on
    top), so the true-position and altitude channels carry correction
    signal the raw forecasts lack.
    """

    seed: int = 0
    n_reports: int = 15
    track_start: tuple[float, float] = (21.0, 124.5)
    track_end: tuple[float, float] = (25.5, 117.5)
    amplitude_mm: float = 550.0
    decay_km: float = 80.0
    terrain_factor: float = 0.35
    noise_sigma: float = 0.35
    member_bias: float = 1.35
    member_bias_spread: float = 0.10
    member_noise_sigma: float = 0.10
    member_noise_mm: float = 1.0
    member_terrain_factor: float = 0.15
    track_bias_deg: tuple[float, float] = (0.18, 0.27)
    track_jitter_deg: float = 0.03

    def __post_init__(self):
        for key, bounds in _BOUNDS.items():
            value = getattr(self, key)
            parts, intervals = (value, bounds) if isinstance(bounds, tuple) else ([value], [bounds])
            if not all(map(_inside, parts, intervals)):
                raise ValueError(f"{key!r} must be in {' x '.join(intervals)}, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d, source="spec") -> "ScenarioSpec":
        """Inverse of ``to_dict``: every field, and no other key.

        Anything else is a ValueError naming ``source`` and the key.
        """
        return record_from_json(cls, d, f"{source}: spec")


@dataclass(frozen=True)
class _Center:
    """A report's meta.json: the storm center, which its name does not hold."""

    tc_lat: float
    tc_lon: float

    def __post_init__(self):
        check_center((self.tc_lat, self.tc_lon))


@dataclass(frozen=True)
class Scenario:
    spec: ScenarioSpec
    domain: GridDomain
    reports: list[Report]

    def originals(self) -> ReportSource:
        """The in-memory report source of the original reports."""
        return ReportSource({int(r.index): r for r in self.reports
                             if r.origin is ReportOrigin.ORIGINAL})


def make_island_domain(n_rows: int = 84, n_cols: int = 70) -> GridDomain:
    """Elliptical island with a ridge rising toward its center.

    The island's geographic extent stays fixed as the grid is refined or
    coarsened: the cell size is ISLAND_EXTENT_LAT / n_rows, so a 28x24
    grid covers the same storm at reduced cost as the full 84x70.
    """
    rows = np.arange(n_rows)[:, None]
    cols = np.arange(n_cols)[None, :]
    r = np.hypot((rows - (n_rows - 1) / 2) / (0.38 * n_rows),
                 (cols - (n_cols - 1) / 2) / (0.22 * n_cols))
    land = r < 1.0
    altitude = np.where(land, ISLAND_PEAK_M * np.maximum(1.0 - r, 0.0) ** 1.6, 0.0)
    return GridDomain(n_rows=n_rows, n_cols=n_cols, lat0=ISLAND_LAT0, lon0=ISLAND_LON0,
                      cell=ISLAND_EXTENT_LAT / n_rows, land_mask=land, altitude=altitude)


def track_positions(spec: ScenarioSpec) -> list[tuple[float, float]]:
    """Linear path from track_start to track_end, one point per report."""
    (lat_a, lon_a), (lat_b, lon_b) = spec.track_start, spec.track_end
    out = []
    for k in range(spec.n_reports):
        t = k / (spec.n_reports - 1)
        out.append((lat_a + t * (lat_b - lat_a), lon_a + t * (lon_b - lon_a)))
    return out


def _base_field(spec: ScenarioSpec, domain: GridDomain, center: tuple[float, float],
                terrain_factor: float) -> np.ndarray:
    """Noise-free rain around one storm center, enhanced by terrain_factor per km."""
    dist = tc_distance_field(domain, center)
    terrain = 1.0 + terrain_factor * domain.altitude / 1000.0
    return spec.amplitude_mm * np.exp(-dist / spec.decay_km) * terrain


def truth_distribution(spec: ScenarioSpec, domain: GridDomain,
                       k: int) -> tuple[np.ndarray, np.ndarray]:
    """Analytic conditional mean and standard deviation of truth at report k.

    Truth is base * LogNormal(-s^2/2, s), so the conditional mean is the
    base field itself and the std is base * sqrt(exp(s^2) - 1).
    """
    if not 1 <= k <= spec.n_reports:
        raise ValueError(f"report index {k} outside 1..{spec.n_reports}")
    base = _base_field(spec, domain, track_positions(spec)[k - 1], spec.terrain_factor)
    s2 = spec.noise_sigma ** 2
    return base, base * np.sqrt(np.expm1(s2))


def _report_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), _STREAM_REPORT, k)))


def _member_biases(spec: ScenarioSpec) -> np.ndarray:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(spec.seed), _STREAM_BIAS)))
    mu = np.log(spec.member_bias) - spec.member_bias_spread ** 2 / 2
    return np.exp(rng.normal(mu, spec.member_bias_spread, size=20))


def generate_scenario(spec: ScenarioSpec, domain: GridDomain) -> Scenario:
    """Draw the full report sequence for one storm."""
    track = track_positions(spec)
    lat_lo = domain.lat0
    lat_hi = domain.lat0 + domain.n_rows * domain.cell
    lon_lo = domain.lon0
    lon_hi = domain.lon0 + domain.n_cols * domain.cell
    if not any(lat_lo <= lat <= lat_hi and lon_lo <= lon <= lon_hi for lat, lon in track):
        warnings.warn("TC track never enters the domain; scenario will be nearly dry",
                      stacklevel=2)

    biases = _member_biases(spec)
    shape = domain.shape
    reports = []
    for k in range(1, spec.n_reports + 1):
        rng = _report_rng(spec.seed, k)
        base = _base_field(spec, domain, track[k - 1], spec.terrain_factor)
        s = spec.noise_sigma
        eps = np.exp(rng.normal(-s * s / 2, s, size=shape)) if s > 0 else np.ones(shape)
        observation = base * eps

        sm = spec.member_noise_sigma
        blat, blon = spec.track_bias_deg
        members = np.empty((20, *shape))
        for m in range(20):
            jlat, jlon = spec.track_jitter_deg * rng.standard_normal(2)
            center_m = (track[k - 1][0] + blat + jlat,
                        track[k - 1][1] + blon + jlon)
            try:
                base_m = _base_field(spec, domain, center_m, spec.member_terrain_factor)
            except ValueError as exc:  # a center pushed off the globe
                raise ValueError(f"'track_bias_deg' and 'track_jitter_deg' move member "
                                 f"{m + 1} of report {k}: {exc}") from None
            zeta = np.exp(rng.normal(-sm * sm / 2, sm, size=shape)) if sm > 0 else 1.0
            jitter = spec.member_noise_mm * rng.standard_normal(shape)
            members[m] = np.maximum(biases[m] * base_m * zeta + jitter, 0.0)

        reports.append(Report(
            index=float(k),
            origin=ReportOrigin.ORIGINAL,
            members=members,
            observation=observation,
            tc_center=track[k - 1],
        ))
    return Scenario(spec=spec, domain=domain, reports=reports)


def report_dirname(index: float, origin: ReportOrigin) -> str:
    """Directory name for one report: index in zero-padded tenths.

    report_0010 is index 1, report_0015 is the 1.5 interpolation, and a
    trailing 'n' marks a noise copy (report_0015n).
    """
    suffix = "n" if origin is ReportOrigin.NOISE_INJECTED else ""
    return f"report_{index_tenths(index):04d}{suffix}"


def parse_report_dirname(name: str) -> tuple[float, bool] | None:
    """Inverse of report_dirname; None when the name is not a report dir."""
    m = _REPORT_DIR_RE.fullmatch(name)
    if not m:
        return None
    return int(m.group(1)) / 10.0, m.group(2) == "n"


def save_scenario(scenario: Scenario, out_dir) -> None:
    """Write spec.json, domain.txt, and one report_XXXX/ each: the (20, H, W)
    members.npy, obs.npy and meta.json (the storm center).

    The reports are written in the order ``scenario.reports`` yields them,
    one at a time, so a lazily built set such as
    ``augmentation.AugmentedReports`` is never held whole.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "spec.json",
               {"format": SCENARIO_FORMAT, "spec": scenario.spec.to_dict()})
    save_domain_file(scenario.domain, out_dir / "domain.txt")
    for r in scenario.reports:
        rdir = out_dir / report_dirname(r.index, r.origin)
        rdir.mkdir(exist_ok=True)
        save_grid_csv(rdir / _MEMBERS, r.members)
        save_grid_csv(rdir / _OBS, r.observation)
        write_json(rdir / _META, asdict(_Center(*r.tc_center)))


def report_files(*, with_members: bool = True, with_observation: bool = True) -> list[str]:
    """The files of a report directory that load_report opens (meta.json
    alone is load_report_meta's)."""
    return [_META] + [_MEMBERS] * with_members + [_OBS] * with_observation


def load_scenario_header(path) -> tuple[ScenarioSpec, GridDomain]:
    """Read just spec.json and domain.txt, leaving report data untouched."""
    path = Path(path)
    doc = read_json(path / "spec.json")
    if not isinstance(doc, dict):
        raise ValueError(f"{path / 'spec.json'} is not a JSON object")
    if doc.get("format") != SCENARIO_FORMAT:
        raise ValueError(f"{path} has scenario format {doc.get('format')!r}, "
                         f"not {SCENARIO_FORMAT!r}; generate it again")
    if "spec" not in doc:
        raise ValueError(f"{path / 'spec.json'} has no key 'spec'")
    spec = ScenarioSpec.from_dict(doc["spec"], source=path / "spec.json")
    return spec, load_domain_file(path / "domain.txt")


def list_report_dirs(path) -> list[tuple[float, bool, Path]]:
    """(index, is_noise_copy, dir) per report directory, sorted, no file reads.

    The index and noise flag come from the directory name alone, so callers
    can select the reports they are allowed to open before touching any
    report's contents.
    """
    path = Path(path)
    entries = []
    for child in path.iterdir():
        parsed = parse_report_dirname(child.name)
        if parsed is not None:
            entries.append((parsed[0], parsed[1], child))
    entries.sort(key=lambda e: (e[0], e[1]))
    return entries


def load_report_meta(rdir) -> dict:
    """index, origin and tc_center of a report directory, as Report keywords.

    The name gives the index and noise flag; a plain copy at an integer
    index is an original, any other an interpolation. meta.json holds just
    ``tc_lat`` and ``tc_lon``, within ``domain.check_center``'s intervals.
    Another name, or a missing, extra, mistyped or impossible key, is a
    ValueError naming the directory, or file and key.
    """
    rdir = Path(rdir)
    parsed = parse_report_dirname(rdir.name)
    if parsed is None:
        raise ValueError(f"{rdir} is not named like a report directory "
                         "(report_0010, report_0015n)")
    index, noise = parsed
    origin = (ReportOrigin.NOISE_INJECTED if noise
              else ReportOrigin.ORIGINAL if index == int(index) else ReportOrigin.INTERPOLATED)
    center = record_from_json(_Center, read_json(rdir / _META), str(rdir / _META))
    return {"index": index, "origin": origin, "tc_center": (center.tc_lat, center.tc_lon)}


def load_report(rdir, with_observation: bool = True) -> Report:
    """Read one report directory: meta.json, members.npy and obs.npy.

    ``with_observation=False`` skips obs.npy entirely; forecast-only
    consumers (prediction on a target report) must never open it. Grids
    that do not fit a report are a ValueError naming the directory.
    """
    rdir = Path(rdir)
    meta, members = load_report_meta(rdir), load_grid_csv(rdir / _MEMBERS)
    observation = load_grid_csv(rdir / _OBS) if with_observation else None
    if observation is not None and observation.shape != members.shape[1:]:
        raise ValueError(f"{rdir / _OBS} holds a {observation.shape} grid, "
                         f"but {_MEMBERS} holds {members.shape}")
    try:
        return Report(**meta, members=members, observation=observation)
    except ValueError as exc:
        raise ValueError(f"{rdir}: {exc}") from None


class ReportSource:
    """A scenario's original reports by index, each read when asked for: the
    one place a fold's causal cut is made. A fold is for a report the source
    holds, or a ValueError. ``before(k)`` and ``track_before(k)`` see only
    the reports below k; ``target(k)`` is report k without its observation.

    This form holds its reports in memory; ``OriginalReports`` reads them
    from disk. The two differ only in how they read a report and a center.
    """

    def __init__(self, items: dict):
        self.items = dict(sorted(items.items()))  # index -> what a read reads

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        """Each report with its observation, in index order; none is kept."""
        return (self._read(k, True) for k in self.items)

    def _require(self, k) -> None:
        if k not in self.items:
            raise ValueError(f"scenario has no original report with index {k}")

    def before(self, k) -> "ReportSource":
        """The reports indexed below ``k``; none is read."""
        self._require(k)
        part = copy.copy(self)
        part.items = {i: item for i, item in self.items.items() if i < k}
        return part

    def track_before(self, k) -> list[tuple[int, tuple[float, float]]]:
        """(index, tc_center) of the reports below ``k``, read from centers alone."""
        return [(i, self._center(i)) for i in self.before(k).items]

    def target(self, k, with_observation: bool = False) -> Report:
        """Report ``k``; with its observation only for verification."""
        self._require(k)
        return self._read(k, with_observation)

    def _read(self, k, with_observation: bool) -> Report:
        report = self.items[k]
        return report if with_observation else replace(report, observation=None)

    def _center(self, k) -> tuple[float, float]:
        return self.items[k].tc_center


class OriginalReports(ReportSource):
    """The originals of the scenario in ``scenario_dir``, chosen by directory
    name (an interpolation at k - 0.5 blends report k). A read hash-checks
    just the files it parses, ``meta.json`` alone for a center, and needs
    member grids that fit ``shape``.
    """

    def __init__(self, scenario_dir, shape):
        self.scenario_dir, self.shape = scenario_dir, shape
        super().__init__({int(i): rdir for i, noise, rdir in list_report_dirs(scenario_dir)
                          if not noise and i == int(i)})

    def _verified(self, k, **files) -> Path:
        rdir = self.items[k]
        verify_manifest(self.scenario_dir, [f"{rdir.name}/{f}" for f in report_files(**files)])
        return rdir

    def _read(self, k, with_observation: bool) -> Report:
        rdir = self._verified(k, with_observation=with_observation)
        report, want = load_report(rdir, with_observation), (N_MEMBERS, *self.shape)
        if report.members.shape != want:
            raise ValueError(f"{rdir / _MEMBERS} holds {report.members.shape}; "
                             "the {}x{} domain needs {}".format(*self.shape, want))
        return report

    def _center(self, k) -> tuple[float, float]:
        rdir = self._verified(k, with_members=False, with_observation=False)
        return load_report_meta(rdir)["tc_center"]
