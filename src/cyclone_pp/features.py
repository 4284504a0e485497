"""Input-channel assembly: 20 members plus geographic and TC-relative fields.

A full stack is 25 channels over the grid: the 20 ensemble member fields,
then longitude, latitude, altitude, great-circle distance to the current TC
center, and a binary flag marking cells the TC track has already passed
within a neighborhood radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import N_MEMBERS, GridDomain, Report, check_center

EARTH_RADIUS_KM = 6371.0

PASSED_RADIUS_KM = 100.0

CHANNEL_NAMES = tuple(
    [f"member_{i + 1}" for i in range(N_MEMBERS)]
    + ["lon", "lat", "altitude", "dist_tc", "passed_flag"]
)

N_CHANNELS = len(CHANNEL_NAMES)  # 25

#: Channels below this std are treated as constant and passed through.
_CONST_STD = 1e-12


@dataclass(frozen=True)
class NormStats:
    """Per-channel standardization parameters."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=float))
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean/std must be equal-length 1-D arrays")
        if np.any(self.std <= 0):
            raise ValueError("std must be > 0 (constant channels are clamped to 1)")


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance on a 6371 km sphere; arguments in degrees."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(a, dtype=float)) for a in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def tc_distance_field(domain: GridDomain, tc_center) -> np.ndarray:
    """Distance (km) from every cell center to the TC center."""
    return _distance_km(domain.latlon_grids(), tc_center)


def _distance_km(latlon_grids, tc_center) -> np.ndarray:
    """``tc_distance_field`` on the domain's (lat, lon) grids."""
    lat, lon = check_center(tc_center)
    return haversine_km(*latlon_grids, lat, lon)


def passed_flag_field(track, domain: GridDomain) -> np.ndarray:
    """1.0 where any track position so far came within PASSED_RADIUS_KM, else 0.0.

    ``track`` is the sequence of TC centers up to and including the current
    report.
    """
    track = list(track)
    if not track:
        raise ValueError("track must contain at least one TC position")
    grids = domain.latlon_grids()
    min_dist = np.full(domain.shape, np.inf)
    for center in track:
        np.minimum(min_dist, _distance_km(grids, center), out=min_dist)
    return (min_dist <= PASSED_RADIUS_KM).astype(float)


def assemble_stack(report: Report, domain: GridDomain, track) -> np.ndarray:
    """The (25, H, W) channel stack of one report, in ``CHANNEL_NAMES`` order.

    Geographic channels depend only on the domain; the two dynamic channels
    are recomputed from the report's TC center and the track up to it.
    """
    if report.members.shape != (N_MEMBERS, *domain.shape):
        raise ValueError(f"member fields {report.members.shape} do not match domain {domain.shape}")
    grids = lat_grid, lon_grid = domain.latlon_grids()
    channels = np.empty((N_CHANNELS, *domain.shape))
    channels[:N_MEMBERS] = report.members
    channels[N_MEMBERS + 0] = lon_grid
    channels[N_MEMBERS + 1] = lat_grid
    channels[N_MEMBERS + 2] = domain.altitude
    channels[N_MEMBERS + 3] = _distance_km(grids, report.tc_center)
    channels[N_MEMBERS + 4] = passed_flag_field(track, domain)
    return channels


def fit_standardizer(stacks) -> NormStats:
    """Per-channel mean/std over equal-shaped (C, H, W) float stacks, in one pass.

    ``stacks`` is any iterable of them: a (B, C, H, W) array, a list, or
    a generator that builds each stack when asked, so a fit holds one
    stack at a time. Each stack's own mean and summed squared deviations
    are merged into the running ones by the pairwise update of Chan,
    Golub & LeVeque (1979), so the bits depend only on the stacks and
    their order, and agree with numpy's ``mean``/``std(axis=(0, 2, 3))``
    to rounding. Constant channels keep their mean but have std clamped
    to 1 so the transform degrades to a pure shift.
    """
    shape, count = None, 0
    for stack in stacks:
        shape = np.shape(stack) if shape is None else shape
        if len(shape) != 3 or np.shape(stack) != shape:
            raise ValueError(f"need (B, C, H, W) equal-shaped stacks to fit, "
                             f"got {sorted({shape, np.shape(stack)})}")
        n = shape[1] * shape[2]
        stack_mean = stack.mean(axis=(1, 2))
        dev = stack - stack_mean[:, None, None]
        dev *= dev
        stack_sq = dev.sum(axis=(1, 2))
        del stack, dev  # neither is kept while the next stack is built
        if count == 0:
            mean, sq = stack_mean, stack_sq
        else:
            delta = stack_mean - mean
            mean = mean + delta * (n / (count + n))
            sq = sq + stack_sq + delta * delta * (count * n / (count + n))
        count += n
    if shape is None:
        raise ValueError("need at least one stack to fit")
    std = np.sqrt(sq / count)
    std = np.where(std < _CONST_STD, 1.0, std)
    return NormStats(mean=mean, std=std)


def apply_standardizer(channels: np.ndarray, stats: NormStats, out=None) -> np.ndarray:
    """Affine (x - mean) / std per channel of a (..., C, H, W) float array.

    ``out=channels`` standardizes in place; the arithmetic is the same.
    """
    n = channels.shape[-3]
    if stats.mean.shape[0] != n:
        raise ValueError(f"stats cover {stats.mean.shape[0]} channels, stack has {n}")
    out = np.subtract(channels, stats.mean[:, None, None], out=out)
    return np.divide(out, stats.std[:, None, None], out=out)
