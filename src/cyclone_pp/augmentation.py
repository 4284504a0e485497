"""Training-set expansion for short TC sequences.

Two operators stretch N original reports into 2*(2N-1): midpoint
interpolation of consecutive reports (N-1 new fractional indices) and
additive Gaussian noise injection into every member field of all 2N-1
reports (one noise copy each, same fractional index). Noise streams are
keyed on (seed, index), so a report built alone equals the same report
built among the others. ``AugmentedReports`` builds the set one report
at a time, as it is iterated, from originals it reads as they come, so
a fit or a write holds two originals and one derived report, never the
whole set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Report, ReportOrigin, index_tenths

DEFAULT_NOISE_SCALE = 0.05


def report_sort_key(report: Report) -> tuple[int, int]:
    """Orders by fractional index, plain origins before noise copies."""
    return (index_tenths(report.index), 1 if report.origin is ReportOrigin.NOISE_INJECTED else 0)


def interpolate_reports(a: Report, b: Report) -> Report:
    """Midpoint of two consecutive original reports.

    Every member field, the observation, and the TC center are averaged
    coordinate-wise; the result carries index k + 0.5.
    """
    if a.origin is not ReportOrigin.ORIGINAL or b.origin is not ReportOrigin.ORIGINAL:
        raise ValueError("can only interpolate original reports")
    if b.index != a.index + 1:
        raise ValueError(f"reports must have consecutive indices, got {a.index} and {b.index}")
    if a.observation is None or b.observation is None:
        raise ValueError("both reports need observations to interpolate")
    return Report(
        index=a.index + 0.5,
        origin=ReportOrigin.INTERPOLATED,
        members=0.5 * (a.members + b.members),
        observation=0.5 * (a.observation + b.observation),
        tc_center=(0.5 * (a.tc_center[0] + b.tc_center[0]),
                   0.5 * (a.tc_center[1] + b.tc_center[1])),
    )


def inject_noise(report: Report, eta: float, rng: np.random.Generator) -> Report:
    """Perturb each member field with zero-mean Gaussian noise.

    The noise standard deviation is eta times the standard deviation of that
    member's own field; results are clamped at zero. The observation, TC
    center, and fractional index are untouched.
    """
    if not (np.isfinite(eta) and eta >= 0):
        raise ValueError(f"noise scale must be finite and >= 0, got {eta}")
    members = report.members.copy()
    for m in range(members.shape[0]):
        scale = eta * float(np.std(members[m]))
        noise = rng.standard_normal(members[m].shape)
        members[m] = np.maximum(members[m] + scale * noise, 0.0)
    return Report(
        index=report.index,
        origin=ReportOrigin.NOISE_INJECTED,
        members=members,
        observation=report.observation,
        tc_center=report.tc_center,
    )


def _noise_rng(seed: int, index: float) -> np.random.Generator:
    # keyed on the fractional index so per-report streams are order-free
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), index_tenths(index))))


class AugmentedReports:
    """The augmented set of N original reports, built as it is iterated.

    ``originals`` is a sized iterable (a list or a stream) of N >= 2
    originals with consecutive indices, in index order, read once and
    pairwise: iteration yields the 2*(2N-1) reports in
    ``report_sort_key`` order, each noise copy directly after its
    source, building each only when it is reached. ``len`` builds
    nothing; a pair that is not two consecutive originals is refused
    when it is reached.
    """

    def __init__(self, originals, eta: float = DEFAULT_NOISE_SCALE, seed: int = 0):
        if len(originals) < 2:
            raise ValueError("need at least two original reports to augment")
        self.originals, self.eta, self.seed = originals, eta, seed

    def __len__(self) -> int:
        return 2 * (2 * len(self.originals) - 1)

    def __iter__(self):
        a = None
        for b in self.originals:
            if a is not None:
                yield from self._with_noise_copy(interpolate_reports(a, b))
            a = b  # the earlier original goes before b's noise copy is built
            yield from self._with_noise_copy(b)

    def _with_noise_copy(self, plain: Report):
        yield plain
        # rebound, so an interpolation is not kept beside its noise copy
        plain = inject_noise(plain, self.eta, _noise_rng(self.seed, plain.index))
        yield plain


@dataclass(frozen=True)
class AugmentedSet:
    """Original, interpolated, and noise-injected reports for one sequence.

    Sorted by fractional index with each noise copy directly after its
    source. From N originals the set holds 2*(2N-1) reports.
    """

    reports: list[Report] = field(repr=False)


def build_augmented_set(originals, eta: float = DEFAULT_NOISE_SCALE, seed: int = 0) -> AugmentedSet:
    """Interpolate consecutive pairs, then noise-inject everything.

    The whole ``AugmentedReports`` set, held at once. The result's index
    multiset is {k, k+0.5, ..., N} each appearing twice (plain and noise
    copy).
    """
    originals = sorted(originals, key=report_sort_key)
    return AugmentedSet(reports=list(AugmentedReports(originals, eta, seed)))
