import numpy as np
import pytest

from cyclone_pp.domain import GridDomain
from cyclone_pp.features import (
    CHANNEL_NAMES,
    EARTH_RADIUS_KM,
    N_CHANNELS,
    PASSED_RADIUS_KM,
    apply_standardizer,
    assemble_stack,
    fit_standardizer,
    haversine_km,
    passed_flag_field,
    tc_distance_field,
)
from tests.conftest import make_report


def cell_center(domain, row, col):
    """(lat, lon) of one cell center."""
    return float(domain.cell_lats[row]), float(domain.cell_lons[col])


def spherical_law_of_cosines_km(lat1, lon1, lat2, lon2):
    """Independent distance formula used as oracle for haversine."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dl = np.radians(lon2 - lon1)
    c = np.clip(np.sin(p1) * np.sin(p2) + np.cos(p1) * np.cos(p2) * np.cos(dl), -1, 1)
    return EARTH_RADIUS_KM * np.arccos(c)


class TestTcDistance:
    def test_zero_at_center(self, small_domain):
        center = cell_center(small_domain, 2, 3)
        d = tc_distance_field(small_domain, center)
        assert d[2, 3] == pytest.approx(0.0, abs=1e-9)

    def test_one_degree_longitude_at_23_5N(self):
        # frozen via the spherical law of cosines: 101.97 km
        d = haversine_km(23.5, 121.0, 23.5, 122.0)
        assert d == pytest.approx(101.97, abs=0.5)
        assert d == pytest.approx(spherical_law_of_cosines_km(23.5, 121.0, 23.5, 122.0), abs=1e-6)

    def test_random_points_vs_law_of_cosines(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lat1, lat2 = rng.uniform(-80, 80, 2)
            lon1, lon2 = rng.uniform(-170, 170, 2)
            assert haversine_km(lat1, lon1, lat2, lon2) == pytest.approx(
                spherical_law_of_cosines_km(lat1, lon1, lat2, lon2), abs=1e-3)

    def test_sphere_bound(self, small_domain):
        d = tc_distance_field(small_domain, (-23.0, -59.0 + 180.0))
        assert np.all(d <= np.pi * EARTH_RADIUS_KM + 1e-9)
        assert np.all(d >= 0)

    def test_symmetry_cell_vs_center(self, small_domain):
        cell = cell_center(small_domain, 1, 1)
        center = (25.0, 124.0)
        assert haversine_km(*cell, *center) == pytest.approx(haversine_km(*center, *cell))

    @pytest.mark.parametrize("center", [(95.0, 121.0), (23.0, 500.0), (float("nan"), 121.0)])
    def test_invalid_center(self, small_domain, center):
        with pytest.raises(ValueError):
            tc_distance_field(small_domain, center)


class TestPassedFlag:
    def test_far_track_small_radius_all_zero(self, small_domain):
        flags = passed_flag_field([(5.0, 150.0)], small_domain)
        assert np.all(flags == 0.0)

    def test_matches_brute_force_min_distance(self, small_domain):
        # stops short of the domain, so the radius splits its cells
        track = [(20.0 + 0.7 * t, 124.0 - 0.5 * t) for t in range(5)]
        flags = passed_flag_field(track, small_domain)
        assert 0.0 < flags.mean() < 1.0
        for i in range(small_domain.n_rows):
            for j in range(small_domain.n_cols):
                cell = cell_center(small_domain, i, j)
                dmin = min(haversine_km(*cell, *c) for c in track)
                assert flags[i, j] == (1.0 if dmin <= PASSED_RADIUS_KM else 0.0)

    def test_empty_track_errors(self, small_domain):
        with pytest.raises(ValueError):
            passed_flag_field([], small_domain)


class TestAssembleStack:
    def test_shape_and_order(self, small_domain):
        rep = make_report(1, tc_center=(22.5, 122.0))
        stack = assemble_stack(rep, small_domain, [rep.tc_center])
        assert stack.shape == (25, 6, 5) == (len(CHANNEL_NAMES), *small_domain.shape)
        assert CHANNEL_NAMES[0] == "member_1"
        assert CHANNEL_NAMES[-1] == "passed_flag"
        assert np.array_equal(stack[CHANNEL_NAMES.index("member_1")], rep.members[0])
        assert np.array_equal(stack[CHANNEL_NAMES.index("passed_flag")],
                              passed_flag_field([rep.tc_center], small_domain))

    def test_geo_channels_identical_across_reports(self, small_domain):
        r1 = make_report(1, seed=1, tc_center=(22.0, 123.0))
        r2 = make_report(2, seed=2, tc_center=(23.5, 121.5))
        s1 = assemble_stack(r1, small_domain, [r1.tc_center])
        s2 = assemble_stack(r2, small_domain, [r1.tc_center, r2.tc_center])
        for name in ("lon", "lat", "altitude"):
            i = CHANNEL_NAMES.index(name)
            assert np.array_equal(s1[i], s2[i])

    def test_dist_channel_matches_tc_distance_field(self, small_domain):
        rep = make_report(1, tc_center=(22.5, 122.0))
        stack = assemble_stack(rep, small_domain, [rep.tc_center])
        assert np.array_equal(stack[CHANNEL_NAMES.index("dist_tc")],
                              tc_distance_field(small_domain, rep.tc_center))

    def test_member_channels_carry_fields(self, small_domain):
        rep = make_report(1, seed=9)
        stack = assemble_stack(rep, small_domain, [rep.tc_center])
        assert np.array_equal(stack[:20], rep.members)

    def test_operational_scale_shape(self):
        dom = GridDomain(n_rows=84, n_cols=70, lat0=21.375, lon0=119.55, cell=0.05,
                         land_mask=np.zeros((84, 70), bool), altitude=np.zeros((84, 70)))
        rep = make_report(1, shape=(84, 70))
        stack = assemble_stack(rep, dom, [rep.tc_center])
        assert stack.shape == (25, 84, 70)

    def test_wrong_grid_rejected(self, small_domain):
        rep = make_report(1, shape=(4, 4))
        with pytest.raises(ValueError):
            assemble_stack(rep, small_domain, [rep.tc_center])


class TestStandardizer:
    def _stacks(self, small_domain, n=3):
        """(n, C, H, W) channels of n reports, stacked as training holds them."""
        out = []
        for s in range(n):
            # track stays > 300 km offshore so passed_flag is constant zero
            rep = make_report(s + 1, seed=s, tc_center=(19.5 + 0.2 * s, 126.0 - 0.3 * s))
            out.append(assemble_stack(rep, small_domain, [rep.tc_center]))
        return np.stack(out)

    def test_fitted_set_standardized_to_unit_moments(self, small_domain):
        data = self._stacks(small_domain)
        stats = fit_standardizer(data)
        z = apply_standardizer(data, stats)
        mean = z.mean(axis=(0, 2, 3))
        std = z.std(axis=(0, 2, 3))
        # passed_flag is constant (all zero) for this far-away track
        const = stats.std == 1.0
        assert np.all(np.abs(mean[~const]) < 1e-6)
        assert np.all(np.abs(std[~const] - 1.0) < 1e-6)

    def test_constant_channel_passthrough(self, small_domain):
        data = self._stacks(small_domain)
        stats = fit_standardizer(data)
        z = apply_standardizer(data[0], stats)
        flag_idx = CHANNEL_NAMES.index("passed_flag")
        assert stats.std[flag_idx] == 1.0
        assert np.allclose(z[flag_idx], data[0, flag_idx] - stats.mean[flag_idx])

    def test_refit_on_standardized_is_identity_stats(self, small_domain):
        data = self._stacks(small_domain)
        stats = fit_standardizer(data)
        stats2 = fit_standardizer(apply_standardizer(data, stats))
        const = stats.std == 1.0
        assert np.all(np.abs(stats2.mean[~const]) < 1e-9)
        assert np.all(np.abs(stats2.std[~const] - 1.0) < 1e-9)

    def test_round_trip(self, small_domain):
        data = self._stacks(small_domain)
        stats = fit_standardizer(data)
        z = apply_standardizer(data[0], stats)
        back = z * stats.std[:, None, None] + stats.mean[:, None, None]
        assert np.allclose(back, data[0], atol=1e-10)

    def test_shape_preserved(self, small_domain):
        data = self._stacks(small_domain)
        stats = fit_standardizer(data)
        assert apply_standardizer(data[0], stats).shape == data[0].shape
        assert apply_standardizer(data, stats).shape == data.shape

    def test_in_place_matches_the_copy_bit_for_bit(self, small_domain):
        data = self._stacks(small_domain)
        stats = fit_standardizer(data)
        want = np.stack([(d - stats.mean[:, None, None]) / stats.std[:, None, None]
                         for d in data])
        buf = data.copy()
        assert apply_standardizer(buf, stats, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert apply_standardizer(data, stats).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 25, 6, 5), (4, 3, 7, 9), (26, 25, 28, 24),
                                       (38, 25, 84, 70)])
    def test_streamed_std_is_numpys_bit_for_bit(self, shape):
        # one pass merges each stack into the running mean and squared
        # deviations, so the bits are the same however the stacks are
        # held, and numpy's two-pass mean/std agree to rounding. The last
        # shape is the 84x70 pipeline's cnn-all fit.
        rng = np.random.default_rng(shape[0])
        data = rng.gamma(0.5, 40.0, size=shape) + rng.normal(0.0, 100.0, size=shape[1])[:, None, None]
        data[:, 1] = 0.1  # a constant channel; 0.1 is inexact in binary
        stats = fit_standardizer(data)
        std = data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(stats.mean, data.mean(axis=(0, 2, 3)), rtol=1e-12)
        np.testing.assert_allclose(stats.std, np.where(std < 1e-12, 1.0, std), rtol=1e-12)
        assert stats.std[1] == 1.0 and np.all(stats.std[2:] != 1.0)
        for held in (list(data), (stack for stack in data)):
            again = fit_standardizer(held)
            assert again.mean.tobytes() == stats.mean.tobytes()
            assert again.std.tobytes() == stats.std.tobytes()

    def test_stacks_of_two_shapes_refused(self, small_domain):
        data = self._stacks(small_domain)
        with pytest.raises(ValueError, match="equal-shaped"):
            fit_standardizer([data[0], data[1, :20]])

    def test_channel_count_mismatch_errors(self, small_domain):
        data = self._stacks(small_domain)
        stats = fit_standardizer(data)
        with pytest.raises(ValueError, match="stats cover 25 channels"):
            apply_standardizer(data[:, :20], stats)

    def test_empty_fit_set_errors(self, small_domain):
        with pytest.raises(ValueError, match="at least one stack"):
            fit_standardizer(np.empty((0, N_CHANNELS, *small_domain.shape)))

    def test_fit_needs_a_4d_array(self, small_domain):
        with pytest.raises(ValueError, match="B, C, H, W"):
            fit_standardizer(self._stacks(small_domain)[0])
