"""Spatial lattice, forecast reports, terrain classes, and rain categories.

Everything downstream (features, augmentation, training, verification) is
expressed over a fixed lat/lon lattice with a land mask and a plain/mountain
split at 500 m altitude. Rain categories follow the operational hazard
thresholds at 10, 80 and 200 mm / 24 h.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .storage import write_text

N_MEMBERS = 20

#: Upper category boundaries in mm; each interval is half-open (a, b].
RAIN_CATEGORY_BOUNDS = (10.0, 80.0, 200.0)

#: Altitude (m) separating plain from mountain land cells.
MOUNTAIN_ALTITUDE_M = 500.0

#: Sentinel altitude for sea cells in the plain-text domain file.
SEA_SENTINEL = -9999.0


class RainCategory(IntEnum):
    """24 h accumulated rain classes: y <= 10 < light <= 80 < heavy <= 200 < beyond."""

    VERY_LIGHT = 0
    LIGHT = 1
    HEAVY = 2
    BEYOND_HEAVY = 3


class TerrainClass(IntEnum):
    SEA = 0
    PLAIN = 1
    MOUNTAIN = 2


class ReportOrigin(Enum):
    ORIGINAL = "original"
    INTERPOLATED = "interpolated"
    NOISE_INJECTED = "noise"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GridDomain:
    """Regular lat/lon lattice with land mask and altitude.

    ``lat0``/``lon0`` give the south-west corner of the bounding rectangle;
    cell centers sit half a cell inside, so cell (0, 0) is centered at
    (lat0 + cell/2, lon0 + cell/2). Row 0 is the southernmost row.
    ``altitude`` is in meters and is 0 over sea; :func:`save_domain_file`
    writes sea cells with the -9999 sentinel.
    """

    n_rows: int
    n_cols: int
    lat0: float
    lon0: float
    cell: float
    land_mask: np.ndarray
    altitude: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "land_mask", _readonly(np.asarray(self.land_mask, dtype=bool)))
        object.__setattr__(self, "altitude", _readonly(np.asarray(self.altitude, dtype=float)))
        if self.land_mask.shape != (self.n_rows, self.n_cols):
            raise ValueError(f"land_mask shape {self.land_mask.shape} != {(self.n_rows, self.n_cols)}")
        if self.altitude.shape != (self.n_rows, self.n_cols):
            raise ValueError(f"altitude shape {self.altitude.shape} != {(self.n_rows, self.n_cols)}")
        if not np.all(np.isfinite(self.altitude)):
            raise ValueError("altitude must be finite everywhere (use 0 over sea)")
        if not (np.all(np.isfinite([self.lat0, self.lon0, self.cell])) and self.cell > 0):
            raise ValueError(f"origin ({self.lat0}, {self.lon0}) must be finite and "
                             f"cell size {self.cell} finite and positive")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def n_land(self) -> int:
        return int(self.land_mask.sum())

    @property
    def terrain_class(self) -> np.ndarray:
        """Per-cell TerrainClass values (int array, same shape as the grid)."""
        tc = np.full(self.shape, TerrainClass.SEA, dtype=np.int8)
        tc[self.land_mask & (self.altitude < MOUNTAIN_ALTITUDE_M)] = TerrainClass.PLAIN
        tc[self.land_mask & (self.altitude >= MOUNTAIN_ALTITUDE_M)] = TerrainClass.MOUNTAIN
        return tc

    @property
    def plain_mask(self) -> np.ndarray:
        return self.land_mask & (self.altitude < MOUNTAIN_ALTITUDE_M)

    @property
    def mountain_mask(self) -> np.ndarray:
        return self.land_mask & (self.altitude >= MOUNTAIN_ALTITUDE_M)

    @property
    def cell_lats(self) -> np.ndarray:
        """Latitudes of cell centers per row (length n_rows)."""
        return self.lat0 + (np.arange(self.n_rows) + 0.5) * self.cell

    @property
    def cell_lons(self) -> np.ndarray:
        """Longitudes of cell centers per column (length n_cols)."""
        return self.lon0 + (np.arange(self.n_cols) + 0.5) * self.cell

    def latlon_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """(lat, lon) center coordinates as full (n_rows, n_cols) grids."""
        return np.meshgrid(self.cell_lats, self.cell_lons, indexing="ij")


def index_tenths(index: float) -> int:
    """A report index in tenths (1.5 -> 15); it must be a multiple of 0.1."""
    tenths = round(float(index) * 10)
    if abs(tenths - float(index) * 10) > 1e-9:
        raise ValueError(f"report index {index} is not a multiple of 0.1")
    return tenths


@dataclass(frozen=True)
class Report:
    """One forecast origin: 20 member fields, observation, and TC position.

    ``index`` is 1-based and fractional for augmented reports (1, 1.5, 2, ...);
    original reports carry integer indices. ``observation`` may be None for a
    forecast target whose verifying rain is not yet available.
    """

    index: float
    origin: ReportOrigin
    members: np.ndarray
    observation: np.ndarray | None
    tc_center: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "members", _readonly(np.asarray(self.members, dtype=float)))
        if self.members.ndim != 3 or self.members.shape[0] != N_MEMBERS:
            raise ValueError(f"expected {N_MEMBERS} member fields, got shape {self.members.shape}")
        if not np.all(np.isfinite(self.members)) or np.any(self.members < 0):
            raise ValueError("member precipitation must be finite and >= 0")
        if self.observation is not None:
            obs = _readonly(np.asarray(self.observation, dtype=float))
            object.__setattr__(self, "observation", obs)
            if obs.shape != self.members.shape[1:]:
                raise ValueError(f"observation shape {obs.shape} != member field shape {self.members.shape[1:]}")
            if not np.all(np.isfinite(obs)) or np.any(obs < 0):
                raise ValueError("observed precipitation must be finite and >= 0")
        if self.origin is ReportOrigin.ORIGINAL and self.index != int(self.index):
            raise ValueError(f"original report must have integer index, got {self.index}")
        check_center(self.tc_center)


def check_center(tc_center) -> tuple[float, float]:
    """A storm center's (lat, lon) in degrees as floats; a lat outside [-90, 90]
    or lon outside [-180, 360), or NaN, is a ValueError naming its meta.json key."""
    lat, lon = float(tc_center[0]), float(tc_center[1])
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"'tc_lat' {lat} outside [-90, 90]")
    if not -180.0 <= lon < 360.0:
        raise ValueError(f"'tc_lon' {lon} outside [-180, 360)")
    return lat, lon


def classify_rain(y: float) -> RainCategory:
    """Classify one 24 h rain amount (mm) into its category.

    Boundaries are half-open on the left as printed in the operational
    table: 10 mm is still very light, 80 mm still light, 200 mm still heavy.
    """
    if not np.isfinite(y) or y < 0:
        raise ValueError(f"rain amount must be finite and >= 0, got {y}")
    return RainCategory(int(np.searchsorted(RAIN_CATEGORY_BOUNDS, y, side="left")))


def classify_rain_field(y: np.ndarray) -> np.ndarray:
    """Vectorized :func:`classify_rain`; returns an int array of category codes."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)) or np.any(y < 0):
        raise ValueError("rain amounts must be finite and >= 0")
    return np.searchsorted(RAIN_CATEGORY_BOUNDS, y, side="left").astype(np.int8)


def tabulate_categories(report: Report, domain: GridDomain) -> np.ndarray:
    """Count land cells per (rain category, terrain class).

    Returns a (4, 2) int array: rows are RainCategory order, columns are
    (plain, mountain). Entries always sum to the number of land cells.
    """
    if report.observation is None:
        raise ValueError("report has no observation to tabulate")
    if report.observation.shape != domain.shape:
        raise ValueError("report grid does not match domain")
    cats = classify_rain_field(report.observation)
    counts = np.zeros((len(RainCategory), 2), dtype=int)
    for ci in range(len(RainCategory)):
        counts[ci, 0] = int(np.sum((cats == ci) & domain.plain_mask))
        counts[ci, 1] = int(np.sum((cats == ci) & domain.mountain_mask))
    return counts


def _exact(value) -> str:
    """The shortest text that reads back as the same float (-9999.0 as -9999)."""
    return repr(float(value)).removesuffix(".0")


def save_domain_file(domain: GridDomain, path) -> None:
    """Write the plain-text domain file, which loads back bit for bit.

    Line 1 holds "rows cols lat0 lon0 cell"; the rest is the row-major
    altitude grid with sea cells encoded as -9999.
    """
    alt = np.where(domain.land_mask, domain.altitude, SEA_SENTINEL)
    lines = [f"{domain.n_rows} {domain.n_cols} "
             + " ".join(map(_exact, (domain.lat0, domain.lon0, domain.cell)))]
    lines += [" ".join(map(_exact, row)) for row in alt.tolist()]
    write_text(path, "\n".join(lines) + "\n")


def load_domain_file(path) -> GridDomain:
    """Read a domain written by :func:`save_domain_file`; a malformed one is a ValueError."""
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 5:
                raise ValueError("malformed domain header")
            n_rows, n_cols = int(header[0]), int(header[1])
            lat0, lon0, cell = float(header[2]), float(header[3]), float(header[4])
            values = np.array(fh.read().split(), dtype=float)
        if values.size != n_rows * n_cols:
            raise ValueError(f"expected {n_rows * n_cols} altitude values, got {values.size}")
        alt = values.reshape(n_rows, n_cols)
        land = alt != SEA_SENTINEL
        return GridDomain(
            n_rows=n_rows,
            n_cols=n_cols,
            lat0=lat0,
            lon0=lon0,
            cell=cell,
            land_mask=land,
            altitude=np.where(land, alt, 0.0),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
