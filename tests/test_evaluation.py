import dataclasses

import numpy as np
import pytest

from cyclone_pp.domain import RainCategory, TerrainClass
from cyclone_pp.evaluation import (
    EXCEEDANCE_CUTOFF,
    ReliabilityBins,
    SkillTable,
    calibration_error,
    concat_skill_tables,
    crpss_by_stratum,
    exceedance_map,
    exceedance_probability,
    reliability_diagram,
    skill_table,
    write_crpss_summary,
    write_exceedance_map,
    write_reliability,
    write_skill_table,
)
from cyclone_pp.scoring import GaussianField, crps_gaussian
from cyclone_pp.synthgen import ScenarioSpec, generate_scenario, make_island_domain, truth_distribution


def const_field(shape, mu, sigma):
    return GaussianField(mu=np.full(shape, float(mu)),
                         sigma=np.full(shape, float(sigma)))


class TestExceedanceProbability:
    def test_mu_at_threshold_gives_half(self):
        f = const_field((3, 4), 200.0, 30.0)
        np.testing.assert_allclose(exceedance_probability(f), 0.5)

    def test_95th_percentile_quantile(self):
        sigma = 17.0
        f = const_field((2, 2), 200.0 + 1.644854 * sigma, sigma)
        np.testing.assert_allclose(exceedance_probability(f), 0.95,
                                   atol=1e-6)

    def test_tiny_sigma_below_threshold(self):
        f = const_field((2, 2), 150.0, 1e-9)
        assert np.all(exceedance_probability(f) == 0.0)

    def test_monotone_in_mu(self):
        rng = np.random.default_rng(11)
        f = GaussianField(mu=rng.uniform(0, 400, (5, 5)),
                          sigma=rng.uniform(1, 80, (5, 5)))
        bigger = GaussianField(mu=f.mu + 25.0, sigma=f.sigma)
        assert np.all(exceedance_probability(bigger) >= exceedance_probability(f))


class TestExceedanceMap:
    def test_all_below_cutoff_empty(self, small_domain):
        p = np.full(small_domain.shape, 0.5)  # cutoff is strict
        assert exceedance_map(p, small_domain) == []

    def test_uniform_high_probability_lists_all_land(self, small_domain):
        p = np.full(small_domain.shape, 0.9)
        entries = exceedance_map(p, small_domain)
        assert len(entries) == small_domain.n_land
        assert all(small_domain.land_mask[r, c] for r, c, _ in entries)

    def test_matches_bruteforce_filter(self, small_domain):
        rng = np.random.default_rng(4)
        p = rng.uniform(0, 1, small_domain.shape)
        entries = exceedance_map(p, small_domain)
        expected = {(r, c): p[r, c]
                    for r in range(6) for c in range(5)
                    if small_domain.land_mask[r, c] and p[r, c] > EXCEEDANCE_CUTOFF}
        assert {(r, c) for r, c, _ in entries} == set(expected)
        for r, c, val in entries:
            assert val == expected[(r, c)]

    def test_sorted_descending(self, small_domain):
        rng = np.random.default_rng(5)
        p = rng.uniform(0, 1, small_domain.shape)
        entries = exceedance_map(p, small_domain)
        probs = [e[2] for e in entries]
        assert probs == sorted(probs, reverse=True)

    def test_sea_cells_never_listed(self, small_domain):
        p = np.ones(small_domain.shape)
        entries = exceedance_map(p, small_domain)
        assert all(small_domain.land_mask[r, c] for r, c, _ in entries)

    def test_shape_mismatch(self, small_domain):
        with pytest.raises(ValueError):
            exceedance_map(np.zeros((3, 3)), small_domain)


class TestReliabilityDiagram:
    def test_counts_partition_complete(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 1, 500)
        y = rng.uniform(0, 400, 500)
        bins = reliability_diagram(p, y)
        assert bins.counts.sum() == 500

    def test_calibrated_forecasts_land_near_diagonal(self):
        # events drawn with the stated probability: per-bin gap obeys a
        # binomial bound
        rng = np.random.default_rng(1)
        n = 20000
        p = rng.uniform(0, 1, n)
        y = np.where(rng.uniform(size=n) < p, 300.0, 0.0)
        bins = reliability_diagram(p, y)
        for i in range(len(bins.counts)):
            if bins.counts[i] == 0:
                continue
            gap = abs(bins.event_frequency[i] - bins.mean_probability[i])
            assert gap <= 3.0 / np.sqrt(bins.counts[i])

    def test_single_bin_population(self):
        p = np.full(40, 0.55)
        y = np.zeros(40)
        bins = reliability_diagram(p, y)
        assert bins.counts[5] == 40
        assert bins.counts.sum() == 40
        assert bins.mean_probability[5] == pytest.approx(0.55)
        assert np.isnan(bins.mean_probability[0])

    def test_perfect_deterministic_forecasts(self):
        p = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([10.0, 50.0, 300.0, 250.0])
        bins = reliability_diagram(p, y)
        assert bins.event_frequency[0] == 0.0
        assert bins.mean_probability[0] == 0.0
        assert bins.event_frequency[-1] == 1.0
        assert bins.mean_probability[-1] == 1.0

    def test_probability_one_in_last_bin(self):
        bins = reliability_diagram(np.array([1.0]), np.array([500.0]))
        assert bins.counts[-1] == 1

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            reliability_diagram(np.zeros(4), np.zeros(5))

    def test_out_of_range_probability(self):
        with pytest.raises(ValueError):
            reliability_diagram(np.array([1.2]), np.array([0.0]))

    def test_frequency_bounds_validated(self):
        with pytest.raises(ValueError):
            ReliabilityBins(edges=np.linspace(0, 1, 3),
                            mean_probability=np.array([0.2, 0.8]),
                            event_frequency=np.array([0.5, 1.4]),
                            counts=np.array([3, 3]))


class TestCalibrationError:
    def test_hand_weighted_example(self):
        bins = ReliabilityBins(
            edges=np.linspace(0, 1, 3),
            mean_probability=np.array([0.2, 0.8]),
            event_frequency=np.array([0.3, 0.6]),
            counts=np.array([30, 10]))
        # (30*0.1 + 10*0.2) / 40
        assert calibration_error(bins) == pytest.approx(0.125)

    def test_perfect_calibration_zero(self):
        bins = reliability_diagram(np.array([0.0, 1.0]),
                                   np.array([0.0, 300.0]))
        assert calibration_error(bins) == 0.0

    def test_empty_is_nan(self):
        bins = reliability_diagram(np.array([]), np.array([]))
        assert np.isnan(calibration_error(bins))


class TestSkillTable:
    @pytest.fixture
    def table(self, small_domain):
        rng = np.random.default_rng(7)
        obs = rng.gamma(2.0, 40.0, small_domain.shape)
        model = GaussianField(mu=obs + rng.normal(0, 5, small_domain.shape),
                              sigma=np.full(small_domain.shape, 20.0))
        ref = GaussianField(mu=np.full(small_domain.shape, 90.0),
                            sigma=np.full(small_domain.shape, 60.0))
        return skill_table(8, model, ref, obs, small_domain), model, ref, obs

    def test_one_row_per_land_cell(self, table, small_domain):
        t = table[0]
        assert len(t) == small_domain.n_land
        assert np.all(t.report_index == 8)

    def test_scores_match_direct_computation(self, table, small_domain):
        t, model, ref, obs = table
        for i in range(len(t)):
            r, c = t.row[i], t.col[i]
            assert small_domain.land_mask[r, c]
            assert t.crps_model[i] == pytest.approx(
                float(crps_gaussian(model.mu[r, c], model.sigma[r, c], obs[r, c])))
            assert t.crpss[i] == pytest.approx(1 - t.crps_model[i] / t.crps_ref[i])

    def test_category_and_terrain_join(self, table, small_domain):
        t, _, _, obs = table
        for i in range(len(t)):
            r, c = t.row[i], t.col[i]
            assert t.terrain[i] == small_domain.terrain_class[r, c]
            bounds = [10.0, 80.0, 200.0]
            assert t.category[i] == int(np.searchsorted(bounds, obs[r, c]))

    def test_observation_shape_checked(self, small_domain):
        f = const_field(small_domain.shape, 10.0, 5.0)
        with pytest.raises(ValueError):
            skill_table(1, f, f, np.zeros((2, 2)), small_domain)

    def test_concat_preserves_order(self, table):
        t = table[0]
        both = concat_skill_tables([t, t])
        assert len(both) == 2 * len(t)
        np.testing.assert_array_equal(both.row[:len(t)], t.row)
        np.testing.assert_array_equal(both.row[len(t):], t.row)

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_skill_tables([])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            SkillTable(report_index=np.array([1]), row=np.array([0]),
                       col=np.array([0]), terrain=np.array([1]),
                       category=np.array([0, 1]), crps_model=np.array([1.0]),
                       crps_ref=np.array([1.0]), crpss=np.array([0.0]))


def make_table(categories, terrains, crpss_values):
    n = len(crpss_values)
    return SkillTable(report_index=np.zeros(n, dtype=int),
                      row=np.zeros(n, dtype=int), col=np.arange(n),
                      terrain=np.asarray(terrains),
                      category=np.asarray(categories),
                      crps_model=np.ones(n), crps_ref=np.ones(n),
                      crpss=np.asarray(crpss_values, dtype=float))


class TestCrpssByStratum:
    def test_single_cell_stratum_collapses(self):
        t = make_table([2], [1], [0.37])
        s = crpss_by_stratum(t)[(RainCategory.HEAVY, TerrainClass.PLAIN)]
        assert (s.whisker_lo == s.q1 == s.median == s.q3 == s.whisker_hi == 0.37)
        assert s.n == 1

    def test_model_equals_reference_all_zero(self):
        t = make_table([2] * 10, [1] * 10, [0.0] * 10)
        s = crpss_by_stratum(t)[(RainCategory.HEAVY, TerrainClass.PLAIN)]
        assert s.median == 0.0 and s.q1 == 0.0 and s.q3 == 0.0
        assert s.whisker_lo == 0.0 and s.whisker_hi == 0.0

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(0, 1, 200)
        t = make_table([3] * 200, [2] * 200, vals)
        s = crpss_by_stratum(t)[(RainCategory.BEYOND_HEAVY, TerrainClass.MOUNTAIN)]
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        assert s.q1 == pytest.approx(q1)
        assert s.median == pytest.approx(med)
        assert s.q3 == pytest.approx(q3)
        iqr = q3 - q1
        inside = vals[(vals >= q1 - 1.5 * iqr) & (vals <= q3 + 1.5 * iqr)]
        assert s.whisker_lo == pytest.approx(inside.min())
        assert s.whisker_hi == pytest.approx(inside.max())

    def test_outlier_excluded_from_whisker(self):
        vals = list(np.linspace(0, 1, 30)) + [40.0]
        t = make_table([2] * 31, [1] * 31, vals)
        s = crpss_by_stratum(t)[(RainCategory.HEAVY, TerrainClass.PLAIN)]
        assert s.whisker_hi < 40.0

    def test_empty_stratum_reported_not_errored(self):
        t = make_table([2], [1], [0.5])
        out = crpss_by_stratum(t)
        empty = out[(RainCategory.VERY_LIGHT, TerrainClass.MOUNTAIN)]
        assert empty.n == 0
        assert np.isnan(empty.median)

    def test_nan_crpss_excluded_from_n(self):
        t = make_table([2, 2, 2], [1, 1, 1], [0.5, np.nan, 0.7])
        s = crpss_by_stratum(t)[(RainCategory.HEAVY, TerrainClass.PLAIN)]
        assert s.n == 2

    def test_empty_table_rejected(self):
        t = make_table([], [], [])
        with pytest.raises(ValueError):
            crpss_by_stratum(t)


class TestPerfectModelAnchor:
    def test_truth_parameters_beat_members_on_average(self):
        # a model issuing the generator's own conditional mean/std should
        # hold positive skill against the raw ensemble over many draws
        domain = make_island_domain(n_rows=28, n_cols=24)
        spec = ScenarioSpec()
        mean, std = truth_distribution(spec, domain, 8)
        land = domain.land_mask
        perfect = GaussianField(mu=mean[land],
                                sigma=np.maximum(std[land], 1e-6))
        skills = []
        for seed in range(50):
            scen = generate_scenario(dataclasses.replace(spec, seed=seed), domain)
            rep = scen.reports[7]
            obs = rep.observation[land]
            mu_m = rep.members.mean(axis=0)[land]
            sd_m = np.maximum(rep.members.std(axis=0, ddof=1)[land], 1e-6)
            cm = crps_gaussian(perfect.mu, perfect.sigma, obs)
            cr = crps_gaussian(mu_m, sd_m, obs)
            skills.append(1.0 - cm.mean() / cr.mean())
        assert np.mean(skills) > 0


class TestCsvEmitters:
    def test_skill_table_csv(self, tmp_path, small_domain):
        rng = np.random.default_rng(9)
        obs = rng.gamma(2.0, 40.0, small_domain.shape)
        f = const_field(small_domain.shape, 80.0, 30.0)
        t = skill_table(3, f, f, obs, small_domain)
        path = tmp_path / "skill_table.csv"
        write_skill_table(path, t)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("report_index,row,col,terrain,category,"
                            "crps_model,crps_ref,crpss")
        assert len(lines) == 1 + len(t)
        first = lines[1].split(",")
        assert first[3] in ("plain", "mountain")
        assert first[4] in ("very_light", "light", "heavy", "beyond_heavy")

    def test_crpss_summary_csv(self, tmp_path):
        t = make_table([2] * 5, [1] * 5, [0.1, 0.2, 0.3, 0.4, 0.5])
        path = tmp_path / "crpss_summary.csv"
        write_crpss_summary(path, crpss_by_stratum(t))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "category,terrain,n,whisker_lo,q1,median,q3,whisker_hi"
        # every category x {plain, mountain} appears, populated or not
        assert len(lines) == 1 + 8
        heavy = next(l for l in lines if l.startswith("heavy,plain"))
        assert heavy.split(",")[2] == "5"
        empty = next(l for l in lines if l.startswith("light,mountain"))
        assert empty.split(",")[3] == "nan"

    def test_exceedance_map_csv(self, tmp_path, small_domain):
        p = np.where(small_domain.land_mask, 0.8, 0.0)
        path = tmp_path / "exceedance_map_8.csv"
        write_exceedance_map(path, exceedance_map(p, small_domain))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,col,probability"
        assert len(lines) == 1 + small_domain.n_land

    def test_reliability_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        bins = reliability_diagram(rng.uniform(0, 1, 100),
                                   rng.uniform(0, 400, 100))
        path = tmp_path / "reliability.csv"
        write_reliability(path, bins)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,mean_probability,event_frequency,count"
        assert len(lines) == 11
        counts = [int(l.split(",")[4]) for l in lines[1:]]
        assert sum(counts) == 100

    def test_no_temp_files_left(self, tmp_path):
        bins = reliability_diagram(np.array([0.5]), np.array([100.0]))
        write_reliability(tmp_path / "reliability.csv", bins)
        assert [p.name for p in tmp_path.iterdir()] == ["reliability.csv"]
