import numpy as np
import pytest

from cyclone_pp.augmentation import (
    AugmentedSet,
    build_augmented_set,
    inject_noise,
    interpolate_reports,
)
from cyclone_pp.domain import ReportOrigin


def originals(report_factory, n, start=1):
    return [report_factory(index=float(k)) for k in range(start, start + n)]


class TestInterpolation:
    def test_midpoint_members(self, report_factory):
        a, b = originals(report_factory, 2)
        mid = interpolate_reports(a, b)
        np.testing.assert_array_equal(mid.members, 0.5 * (a.members + b.members))

    def test_midpoint_observation_center_time(self, report_factory):
        a = report_factory(index=4.0)
        b = report_factory(index=5.0)
        mid = interpolate_reports(a, b)
        np.testing.assert_array_equal(mid.observation, 0.5 * (a.observation + b.observation))
        assert mid.tc_center == (
            0.5 * (a.tc_center[0] + b.tc_center[0]),
            0.5 * (a.tc_center[1] + b.tc_center[1]),
        )

    def test_index_is_half_step(self, report_factory):
        a = report_factory(index=7.0)
        b = report_factory(index=8.0)
        assert interpolate_reports(a, b).index == 7.5
        assert interpolate_reports(a, b).origin is ReportOrigin.INTERPOLATED

    def test_rejects_non_consecutive(self, report_factory):
        a = report_factory(index=1.0)
        c = report_factory(index=3.0)
        with pytest.raises(ValueError, match="consecutive"):
            interpolate_reports(a, c)

    def test_rejects_derived_inputs(self, report_factory):
        a, b = originals(report_factory, 2)
        mid = interpolate_reports(a, b)
        with pytest.raises(ValueError, match="original"):
            interpolate_reports(mid, b)


class TestNoiseInjection:
    def test_zero_scale_is_identity(self, report_factory):
        r = report_factory(index=3.0)
        out = inject_noise(r, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.members, r.members)
        assert out.origin is ReportOrigin.NOISE_INJECTED
        assert out.index == r.index

    def test_observation_untouched(self, report_factory):
        r = report_factory(index=3.0)
        out = inject_noise(r, 0.3, np.random.default_rng(0))
        assert out.observation is r.observation
        assert out.tc_center == r.tc_center

    def test_clamped_at_zero(self, report_factory):
        r = report_factory(index=1.0)
        out = inject_noise(r, 5.0, np.random.default_rng(7))
        assert np.all(out.members >= 0.0)

    def test_negative_scale_rejected(self, report_factory):
        r = report_factory(index=1.0)
        with pytest.raises(ValueError, match=">= 0"):
            inject_noise(r, -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, report_factory, eta):
        # nan < 0 is False, so a sign test alone lets NaN through
        r = report_factory(index=1.0)
        with pytest.raises(ValueError, match="noise scale must be finite"):
            inject_noise(r, eta, np.random.default_rng(0))

    def test_perturbation_std_tracks_field_std(self, report_factory):
        # Monte Carlo estimate over repeated draws; on a well-scattered
        # field the clamp at zero rarely binds, so the realized noise std
        # should land within a few percent of eta * std(field).
        r = report_factory(index=2.0)
        eta = 0.05
        member = 4
        target = eta * float(np.std(r.members[member]))
        diffs = []
        for trial in range(300):
            out = inject_noise(r, eta, np.random.default_rng(trial))
            diffs.append(out.members[member] - r.members[member])
        realized = float(np.std(np.stack(diffs)))
        assert realized == pytest.approx(target, rel=0.05)

    def test_scale_is_per_member_field(self, report_factory):
        r = report_factory(index=2.0)
        members = r.members.copy()
        members[3] *= 10.0  # one member much more variable than the rest
        r = report_factory(index=2.0, members=members)
        eta = 0.1
        d3, d7 = [], []
        for trial in range(200):
            out = inject_noise(r, eta, np.random.default_rng(trial))
            d3.append(out.members[3] - r.members[3])
            d7.append(out.members[7] - r.members[7])
        ratio = float(np.std(np.stack(d3))) / float(np.std(np.stack(d7)))
        expected = float(np.std(r.members[3])) / float(np.std(r.members[7]))
        assert ratio == pytest.approx(expected, rel=0.08)


class TestAugmentedSet:
    @pytest.mark.parametrize("n,total", [(2, 6), (3, 10), (5, 18), (15, 58)])
    def test_count_doubles_interleaved_sequence(self, report_factory, n, total):
        aset = build_augmented_set(originals(report_factory, n))
        assert len(aset.reports) == total == 2 * (2 * n - 1)
        assert sum(r.origin is ReportOrigin.ORIGINAL for r in aset.reports) == n

    def test_index_multiset(self, report_factory):
        aset = build_augmented_set(originals(report_factory, 3))
        assert [r.index for r in aset.reports] == [1.0, 1.0, 1.5, 1.5, 2.0, 2.0,
                                                   2.5, 2.5, 3.0, 3.0]

    def test_each_index_has_plain_and_noise_copy(self, report_factory):
        aset = build_augmented_set(originals(report_factory, 4))
        for i in range(0, len(aset.reports), 2):
            plain, noisy = aset.reports[i], aset.reports[i + 1]
            assert plain.index == noisy.index
            assert plain.origin is not ReportOrigin.NOISE_INJECTED
            assert noisy.origin is ReportOrigin.NOISE_INJECTED

    def test_seeded_replay_is_bit_identical(self, report_factory):
        a = build_augmented_set(originals(report_factory, 4), seed=42)
        b = build_augmented_set(originals(report_factory, 4), seed=42)
        for ra, rb in zip(a.reports, b.reports):
            np.testing.assert_array_equal(ra.members, rb.members)

    def test_different_seeds_differ(self, report_factory):
        a = build_augmented_set(originals(report_factory, 3), seed=1)
        b = build_augmented_set(originals(report_factory, 3), seed=2)
        noisy_a = [r for r in a.reports if r.origin is ReportOrigin.NOISE_INJECTED]
        noisy_b = [r for r in b.reports if r.origin is ReportOrigin.NOISE_INJECTED]
        assert any(
            not np.array_equal(ra.members, rb.members)
            for ra, rb in zip(noisy_a, noisy_b)
        )

    def test_noise_keyed_on_index_not_position(self, report_factory):
        # Augmenting a prefix of the sequence must give bit-identical noise
        # copies for the shared indices: per-report streams are keyed on
        # (seed, index), so later reports never shift earlier draws.
        reports = originals(report_factory, 5)
        short = build_augmented_set(reports[:3], seed=9)
        full = build_augmented_set(reports, seed=9)
        by_index = {
            (r.index, r.origin): r
            for r in full.reports
        }
        for r in short.reports:
            np.testing.assert_array_equal(r.members, by_index[(r.index, r.origin)].members)

    def test_rejects_single_report(self, report_factory):
        with pytest.raises(ValueError, match="at least two"):
            build_augmented_set(originals(report_factory, 1))

    def test_rejects_gap(self, report_factory):
        reports = [report_factory(index=1.0), report_factory(index=3.0)]
        with pytest.raises(ValueError, match="consecutive"):
            build_augmented_set(reports)

    def test_rejects_derived_origin(self, report_factory):
        a, b = originals(report_factory, 2)
        mid = interpolate_reports(a, b)
        with pytest.raises(ValueError, match="original"):
            build_augmented_set([a, mid])

    def test_unsorted_input_accepted(self, report_factory):
        reports = originals(report_factory, 4)
        aset = build_augmented_set(list(reversed(reports)), seed=3)
        assert aset.reports[0].index == 1.0
        assert aset.reports[-1].index == 4.0
