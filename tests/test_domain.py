import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclone_pp.domain import (
    GridDomain,
    RainCategory,
    Report,
    ReportOrigin,
    TerrainClass,
    classify_rain,
    classify_rain_field,
    index_tenths,
    load_domain_file,
    save_domain_file,
    tabulate_categories,
)
from cyclone_pp.synthgen import make_island_domain
from tests.conftest import make_report


class TestClassifyRain:
    def test_boundary_80_is_light(self):
        assert classify_rain(80.0) is RainCategory.LIGHT

    def test_zero_is_very_light(self):
        assert classify_rain(0.0) is RainCategory.VERY_LIGHT

    def test_torrential_folds_into_beyond_heavy(self):
        assert classify_rain(350.5) is RainCategory.BEYOND_HEAVY

    @pytest.mark.parametrize("y,cat", [
        (10.0, RainCategory.VERY_LIGHT),
        (10.0001, RainCategory.LIGHT),
        (200.0, RainCategory.HEAVY),
        (200.0001, RainCategory.BEYOND_HEAVY),
    ])
    def test_half_open_boundaries(self, y, cat):
        assert classify_rain(y) is cat

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            classify_rain(bad)

    @given(st.floats(0, 1000), st.floats(0, 1000))
    def test_monotone(self, y1, y2):
        if y1 > y2:
            y1, y2 = y2, y1
        assert classify_rain(y1) <= classify_rain(y2)

    def test_field_matches_scalar(self):
        y = np.array([0.0, 10.0, 10.5, 80.0, 81.0, 200.0, 201.0, 350.5])
        codes = classify_rain_field(y)
        assert [RainCategory(int(c)) for c in codes] == [classify_rain(v) for v in y]


class TestTabulate:
    def test_all_zero_observation(self, small_domain):
        rep = make_report(1, observation=np.zeros(small_domain.shape))
        counts = tabulate_categories(rep, small_domain)
        n_plain = int(small_domain.plain_mask.sum())
        n_mountain = int(small_domain.mountain_mask.sum())
        assert counts[RainCategory.VERY_LIGHT, 0] == n_plain
        assert counts[RainCategory.VERY_LIGHT, 1] == n_mountain
        assert counts[1:].sum() == 0

    def test_single_beyond_heavy_plain_cell(self, small_domain):
        obs = np.zeros(small_domain.shape)
        obs[2, 1] = 250.0  # altitude 120 m -> plain
        counts = tabulate_categories(make_report(1, observation=obs), small_domain)
        assert counts[RainCategory.BEYOND_HEAVY, 0] == 1
        assert counts[RainCategory.BEYOND_HEAVY, 1] == 0

    def test_matches_per_cell_loop_oracle(self, small_domain):
        rng = np.random.default_rng(42)
        obs = rng.gamma(1.5, 90.0, size=small_domain.shape)
        counts = tabulate_categories(make_report(1, observation=obs), small_domain)
        oracle = np.zeros((4, 2), dtype=int)
        tc = small_domain.terrain_class
        for i in range(small_domain.n_rows):
            for j in range(small_domain.n_cols):
                if tc[i, j] == TerrainClass.SEA:
                    continue
                col = 0 if tc[i, j] == TerrainClass.PLAIN else 1
                oracle[classify_rain(obs[i, j]), col] += 1
        assert np.array_equal(counts, oracle)

    def test_totals_equal_land_count(self, small_domain):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            obs = rng.gamma(1.0, 120.0, size=small_domain.shape)
            counts = tabulate_categories(make_report(1, observation=obs), small_domain)
            assert counts.sum() == small_domain.n_land

    def test_missing_observation_errors(self, small_domain):
        rep = make_report(1)
        object.__setattr__(rep, "observation", None)
        with pytest.raises(ValueError):
            tabulate_categories(rep, small_domain)


class TestCellLatlon:
    """Cell centers sit half a cell inside the south-west corner."""

    def test_southwest_cell_half_offset(self, small_domain):
        lat_grid, lon_grid = small_domain.latlon_grids()
        assert lat_grid[0, 0] == pytest.approx(23.0 + 0.05)
        assert lon_grid[0, 0] == pytest.approx(121.0 + 0.05)

    def test_northeast_cell(self, small_domain):
        lat_grid, lon_grid = small_domain.latlon_grids()
        assert lat_grid[5, 4] == pytest.approx(23.0 + 5.5 * 0.1)
        assert lon_grid[5, 4] == pytest.approx(121.0 + 4.5 * 0.1)

    def test_midpoint_is_mean_of_corners(self, small_domain):
        lats, lons = small_domain.cell_lats, small_domain.cell_lons
        # 6 rows x 5 cols: the grid has no exact central cell in rows, use
        # linearity instead: cell (r, c) = sw + (r, c) * cell
        assert lats[3] == pytest.approx(lats[0] + 3 * 0.1)
        assert lons[2] == pytest.approx((lons[0] + lons[4]) / 2)


class TestIndexTenths:
    @pytest.mark.parametrize("index,tenths", [(1, 10), (1.5, 15), (12.0, 120)])
    def test_tenths(self, index, tenths):
        assert index_tenths(index) == tenths

    def test_finer_index_rejected(self):
        with pytest.raises(ValueError, match="multiple of 0.1"):
            index_tenths(1.25)


class TestDomainInvariants:
    def test_operational_scale_cell_count(self):
        dom = GridDomain(n_rows=84, n_cols=70, lat0=21.375, lon0=119.55, cell=0.05,
                         land_mask=np.zeros((84, 70), bool), altitude=np.zeros((84, 70)))
        assert dom.n_rows * dom.n_cols == 5880

    def test_terrain_partition(self, small_domain):
        tc = small_domain.terrain_class
        assert np.all((tc == TerrainClass.PLAIN) == small_domain.plain_mask)
        assert np.all((tc == TerrainClass.MOUNTAIN) == small_domain.mountain_mask)
        assert small_domain.n_land == small_domain.plain_mask.sum() + small_domain.mountain_mask.sum()

    def test_mountain_threshold_at_500m(self, small_domain):
        assert small_domain.terrain_class[3, 1] == TerrainClass.MOUNTAIN  # 750 m
        assert small_domain.terrain_class[4, 2] == TerrainClass.PLAIN     # 400 m

    def test_arrays_readonly(self, small_domain):
        with pytest.raises(ValueError):
            small_domain.altitude[0, 0] = 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GridDomain(n_rows=3, n_cols=3, lat0=0, lon0=0, cell=0.1,
                       land_mask=np.zeros((2, 3), bool), altitude=np.zeros((3, 3)))

    @pytest.mark.parametrize("key", ["lat0", "lon0", "cell"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_origin_and_cell_must_be_finite(self, key, value):
        kwargs = dict(n_rows=2, n_cols=2, lat0=21.0, lon0=120.0, cell=0.1,
                      land_mask=np.ones((2, 2), bool), altitude=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            GridDomain(**{**kwargs, key: value})


class TestDomainFile:
    def test_round_trip(self, small_domain, tmp_path):
        path = tmp_path / "domain.txt"
        save_domain_file(small_domain, path)
        loaded = load_domain_file(path)
        assert loaded.shape == small_domain.shape
        assert np.array_equal(loaded.land_mask, small_domain.land_mask)
        assert np.allclose(loaded.altitude, small_domain.altitude)
        assert loaded.cell == small_domain.cell

    @pytest.mark.parametrize("shape", [(84, 70), (13, 11)])
    def test_round_trip_is_exact(self, tmp_path, shape):
        # a saved scenario must train exactly like the one in memory, and
        # the altitude and latitude channels read this file
        domain = make_island_domain(*shape)
        save_domain_file(domain, tmp_path / "domain.txt")
        back = load_domain_file(tmp_path / "domain.txt")
        assert (back.lat0, back.lon0, back.cell) == (domain.lat0, domain.lon0, domain.cell)
        assert np.array_equal(back.land_mask, domain.land_mask)
        assert np.array_equal(back.altitude, domain.altitude)

    def test_sea_sentinel_in_file(self, small_domain, tmp_path):
        path = tmp_path / "domain.txt"
        save_domain_file(small_domain, path)
        body = path.read_text().splitlines()[1:]
        assert "-9999" in body[0].split()

    def test_truncated_file_rejected(self, small_domain, tmp_path):
        path = tmp_path / "domain.txt"
        save_domain_file(small_domain, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]))
        with pytest.raises(ValueError):
            load_domain_file(path)

    @pytest.mark.parametrize("field", [2, 3, 4])
    def test_non_finite_header_names_the_file(self, small_domain, tmp_path, field):
        path = tmp_path / "domain.txt"
        save_domain_file(small_domain, path)
        lines = path.read_text().splitlines(keepends=True)
        header = lines[0].split()
        header[field] = "nan"
        lines[0] = " ".join(header) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*finite"):
            load_domain_file(path)


class TestReport:
    def test_requires_20_members(self):
        with pytest.raises(ValueError):
            Report(index=1, origin=ReportOrigin.ORIGINAL,
                   members=np.zeros((19, 4, 4)), observation=np.zeros((4, 4)),
                   tc_center=(23.0, 121.0))

    def test_rejects_negative_precip(self):
        members = np.zeros((20, 4, 4))
        members[3, 1, 1] = -0.5
        with pytest.raises(ValueError):
            Report(index=1, origin=ReportOrigin.ORIGINAL, members=members,
                   observation=np.zeros((4, 4)), tc_center=(23.0, 121.0))

    def test_original_needs_integer_index(self):
        with pytest.raises(ValueError):
            make_report(1.5, origin=ReportOrigin.ORIGINAL)
        make_report(1.5, origin=ReportOrigin.INTERPOLATED)  # fine

    @pytest.mark.parametrize("center, key", [
        ((90.5, 121.0), "tc_lat"), ((float("nan"), 121.0), "tc_lat"),
        ((23.0, 360.0), "tc_lon"), ((23.0, -180.5), "tc_lon"),
        ((23.0, 1000.0), "tc_lon"), ((23.0, float("inf")), "tc_lon")])
    def test_impossible_center_names_its_key(self, center, key):
        with pytest.raises(ValueError, match=f"^'{key}' .* outside"):
            make_report(1, tc_center=center)

    def test_observation_may_be_absent(self):
        rep = Report(index=3, origin=ReportOrigin.ORIGINAL,
                     members=np.ones((20, 4, 4)), observation=None,
                     tc_center=(23.0, 121.0))
        assert rep.observation is None
