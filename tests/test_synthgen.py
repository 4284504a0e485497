import dataclasses
import re

import numpy as np
import pytest

from cyclone_pp.domain import RainCategory, ReportOrigin, tabulate_categories
from cyclone_pp.features import tc_distance_field
from cyclone_pp.scoring import crps_gaussian
from cyclone_pp.storage import read_json, save_grid_csv, write_manifest
from cyclone_pp.synthgen import (
    OriginalReports,
    Scenario,
    ScenarioSpec,
    generate_scenario,
    load_report,
    load_report_meta,
    load_scenario_header,
    make_island_domain,
    report_dirname,
    report_files,
    save_scenario,
    track_positions,
    truth_distribution,
)
from tests.conftest import load_scenario

REDUCED = dict(n_rows=28, n_cols=24)


@pytest.fixture(scope="module")
def reduced_domain():
    return make_island_domain(**REDUCED)


@pytest.fixture(scope="module")
def default_scenario(reduced_domain):
    return generate_scenario(ScenarioSpec(seed=5), reduced_domain)


class TestIslandDomain:
    def test_full_scale_cell_count(self):
        dom = make_island_domain()
        assert dom.land_mask.size == 5880
        assert dom.shape == (84, 70)

    def test_land_fraction_sane(self):
        dom = make_island_domain()
        frac = dom.n_land / dom.land_mask.size
        assert 0.18 < frac < 0.35

    def test_has_plains_and_mountains(self, reduced_domain):
        for dom in (make_island_domain(), reduced_domain):
            assert dom.plain_mask.sum() > 0.2 * dom.n_land
            assert dom.mountain_mask.sum() > 0.2 * dom.n_land

    def test_extent_constant_across_resolutions(self, reduced_domain):
        full = make_island_domain()
        assert full.n_rows * full.cell == pytest.approx(
            reduced_domain.n_rows * reduced_domain.cell)
        assert full.lat0 == reduced_domain.lat0

    def test_ridge_peaks_inside(self):
        dom = make_island_domain()
        peak = np.unravel_index(np.argmax(dom.altitude), dom.shape)
        assert abs(peak[0] - dom.n_rows / 2) < dom.n_rows / 4
        assert abs(peak[1] - dom.n_cols / 2) < dom.n_cols / 4
        assert dom.altitude.max() > 2000.0


class TestSpec:
    def test_defaults_valid(self):
        spec = ScenarioSpec()
        assert spec.n_reports == 15

    def test_rejects_single_report(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_reports=1)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            ScenarioSpec(decay_km=0.0)

    def test_amplitude_bounded_at_ten_metres(self):
        assert ScenarioSpec(amplitude_mm=10_000.0).amplitude_mm == 10_000.0
        for amplitude in (10_000.5, 1e160, -1.0):
            with pytest.raises(ValueError, match="amplitude_mm"):
                ScenarioSpec(amplitude_mm=amplitude)
        with pytest.raises(ValueError, match="^where/spec.json: .*'amplitude_mm'"):
            ScenarioSpec.from_dict({**ScenarioSpec().to_dict(), "amplitude_mm": 1e160},
                                   source="where/spec.json")

    @pytest.mark.parametrize("key, top", [
        ("member_bias", 10.0), ("terrain_factor", 10.0),
        ("member_terrain_factor", 10.0), ("member_noise_mm", 10_000.0)])
    def test_multiplicative_scales_bounded(self, key, top):
        assert getattr(ScenarioSpec(**{key: top}), key) == top
        for value in (top * 1.5, 1e300, -1.0):
            with pytest.raises(ValueError, match=f"'{key}'"):
                ScenarioSpec(**{key: value})
        with pytest.raises(ValueError, match=f"^where/spec.json: .*'{key}'"):
            ScenarioSpec.from_dict({**ScenarioSpec().to_dict(), key: 1e300},
                                   source="where/spec.json")

    @pytest.mark.parametrize("key, value", [
        ("noise_sigma", 5.01), ("member_bias_spread", 1e300), ("member_noise_sigma", 6.0),
        ("noise_sigma", -0.1), ("track_jitter_deg", 1e300), ("track_jitter_deg", 10.5),
        ("track_bias_deg", (1e300, 0.0)), ("track_bias_deg", (0.0, -10.5)),
        ("track_start", (100.0, 124.5)), ("track_start", (21.0, -180.5)),
        ("track_end", (-90.5, 117.5)), ("track_end", (25.5, 360.0)),
        ("n_reports", 1000), ("n_reports", 1), ("decay_km", 0.0), ("decay_km", -1.0),
        ("member_bias", 0.0), ("seed", -1)])
    def test_every_numeric_key_bounded(self, key, value):
        # one interval per key, or per component of a pair; each refusal names its key
        with pytest.raises(ValueError, match=f"^'{key}' must be in "):
            ScenarioSpec(**{key: value})

    def test_bounds_are_closed_where_written(self):
        spec = ScenarioSpec(noise_sigma=5.0, member_bias_spread=5.0, member_noise_sigma=0.0,
                            track_jitter_deg=10.0, track_bias_deg=(10.0, -10.0),
                            track_start=(90.0, -180.0), track_end=(-90.0, 359.99),
                            n_reports=999, decay_km=1e-3, member_bias=10.0)
        assert spec.n_reports == 999

    def test_dict_round_trip(self):
        spec = ScenarioSpec(seed=9, amplitude_mm=321.0, track_start=(20.0, 125.0))
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("doc, key", [
        ({"seed": 1}, "'track_start'"),
        ({**ScenarioSpec().to_dict(), "colour": 1}, "'colour'"),
        ({**ScenarioSpec().to_dict(), "n_reports": "15"}, "'n_reports'"),
        ({**ScenarioSpec().to_dict(), "seed": 1.5}, "'seed'"),
        ({**ScenarioSpec().to_dict(), "seed": True}, "'seed'"),
        ({**ScenarioSpec().to_dict(), "amplitude_mm": None}, "'amplitude_mm'"),
        ({**ScenarioSpec().to_dict(), "track_start": 5}, "'track_start'"),
        ({**ScenarioSpec().to_dict(), "track_end": [25.5]}, "'track_end'"),
        ({**ScenarioSpec().to_dict(), "track_bias_deg": ["a", 1]}, "'track_bias_deg'"),
        ([1, 2], "not a JSON object"),
    ])
    def test_malformed_dict_names_source_and_key(self, doc, key):
        with pytest.raises(ValueError, match=f"^where/spec.json: .*{key}"):
            ScenarioSpec.from_dict(doc, source="where/spec.json")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ScenarioSpec(seed=-1)
        with pytest.raises(ValueError, match="^where/spec.json: .*seed"):
            ScenarioSpec.from_dict({**ScenarioSpec().to_dict(), "seed": -4},
                                   source="where/spec.json")

    def test_integral_floats_are_kept_as_written(self):
        spec = ScenarioSpec.from_dict({**ScenarioSpec().to_dict(), "amplitude_mm": 550})
        assert spec.to_dict()["amplitude_mm"] == 550


class TestTrack:
    def test_endpoints_and_midpoint(self):
        spec = ScenarioSpec(n_reports=15)
        track = track_positions(spec)
        assert track[0] == spec.track_start
        assert track[-1] == spec.track_end
        mid = track[7]  # report 8 of 15
        assert mid[0] == pytest.approx((spec.track_start[0] + spec.track_end[0]) / 2)
        assert mid[1] == pytest.approx((spec.track_start[1] + spec.track_end[1]) / 2)

    def test_mid_sequence_crosses_island(self, reduced_domain):
        track = track_positions(ScenarioSpec())
        lat, lon = track[7]
        d = tc_distance_field(reduced_domain, (lat, lon))
        assert d[reduced_domain.land_mask].min() < 30.0

    def test_off_domain_track_warns(self, reduced_domain):
        spec = ScenarioSpec(track_start=(5.0, 150.0), track_end=(8.0, 155.0))
        with pytest.warns(UserWarning, match="never enters"):
            generate_scenario(spec, reduced_domain)


class TestTruthLaw:
    def test_infinite_decay_no_noise_gives_terrain_shape(self, reduced_domain):
        spec = ScenarioSpec(decay_km=1e9, noise_sigma=0.0)
        scenario = generate_scenario(spec, reduced_domain)
        want = spec.amplitude_mm * (1 + spec.terrain_factor *
                                    reduced_domain.altitude / 1000.0)
        np.testing.assert_allclose(scenario.reports[7].observation, want, rtol=1e-5)

    def test_max_rain_at_closest_approach(self, reduced_domain):
        spec = ScenarioSpec(terrain_factor=0.0, noise_sigma=0.0)
        scenario = generate_scenario(spec, reduced_domain)
        rep = scenario.reports[7]
        dist = tc_distance_field(reduced_domain, rep.tc_center)
        assert np.argmax(rep.observation) == np.argmin(dist)

    def test_truth_distribution_matches_zero_noise_field(self, reduced_domain):
        spec = ScenarioSpec(noise_sigma=0.0)
        scenario = generate_scenario(spec, reduced_domain)
        for k in (1, 8, 15):
            mean, std = truth_distribution(spec, reduced_domain, k)
            np.testing.assert_allclose(scenario.reports[k - 1].observation, mean)
            assert not std.any()

    def test_truth_std_ratio(self, reduced_domain):
        spec = ScenarioSpec()
        mean, std = truth_distribution(spec, reduced_domain, 8)
        ratio = np.sqrt(np.expm1(spec.noise_sigma ** 2))
        np.testing.assert_allclose(std, mean * ratio)

    def test_truth_distribution_is_conditional_mean(self, reduced_domain):
        # Monte Carlo over seeds: the observation averages to the analytic
        # mean field cell by cell.
        spec = ScenarioSpec()
        mean, _ = truth_distribution(spec, reduced_domain, 8)
        acc = np.zeros(reduced_domain.shape)
        n = 150
        for seed in range(n):
            scen = generate_scenario(dataclasses.replace(spec, seed=seed),
                                     reduced_domain)
            acc += scen.reports[7].observation
        wet = mean > 1.0
        np.testing.assert_allclose((acc / n)[wet], mean[wet], rtol=0.12)

    def test_out_of_range_k(self, reduced_domain):
        with pytest.raises(ValueError):
            truth_distribution(ScenarioSpec(), reduced_domain, 16)


class TestEnsemble:
    def test_report_structure(self, default_scenario):
        assert len(default_scenario.reports) == 15
        for k, rep in enumerate(default_scenario.reports, start=1):
            assert rep.index == float(k)
            assert rep.origin is ReportOrigin.ORIGINAL
            assert rep.members.shape == (20, 28, 24)
            assert np.all(rep.members >= 0)
            assert np.all(rep.observation >= 0)

    def test_members_carry_systematic_overforecast(self, reduced_domain):
        # averaged over seeds and members, forecast/base converges on the
        # configured mean bias where rain is substantial (geometry errors
        # switched off so the amplitude bias is isolated)
        spec = ScenarioSpec(track_bias_deg=(0.0, 0.0), track_jitter_deg=0.0,
                            member_terrain_factor=0.35)
        base, _ = truth_distribution(spec, reduced_domain, 8)
        wet = base > 50.0
        ratios = []
        for seed in range(25):
            scen = generate_scenario(dataclasses.replace(spec, seed=seed),
                                     reduced_domain)
            ens_mean = scen.reports[7].members.mean(axis=0)
            ratios.append(np.mean(ens_mean[wet] / base[wet]))
        assert np.mean(ratios) == pytest.approx(spec.member_bias, rel=0.05)

    def test_member_storm_displaced_by_track_bias(self, reduced_domain):
        # with every other error source off, a member field is exactly the
        # decay profile around the displaced center, not the true one
        spec = ScenarioSpec(terrain_factor=0.0, member_terrain_factor=0.0,
                            noise_sigma=0.0, member_bias=1.0,
                            member_bias_spread=0.0, member_noise_sigma=0.0,
                            member_noise_mm=0.0, track_jitter_deg=0.0,
                            track_bias_deg=(0.12, 0.18))
        scen = generate_scenario(spec, reduced_domain)
        rep = scen.reports[7]
        lat, lon = rep.tc_center
        shifted = (lat + 0.12, lon + 0.18)
        expect = spec.amplitude_mm * np.exp(
            -tc_distance_field(reduced_domain, shifted) / spec.decay_km)
        np.testing.assert_allclose(rep.members[0], expect, rtol=1e-9)
        true_field = spec.amplitude_mm * np.exp(
            -tc_distance_field(reduced_domain, rep.tc_center) / spec.decay_km)
        assert np.abs(rep.members[0] - true_field).max() > 1.0

    def test_members_underestimate_orographic_enhancement(self, reduced_domain):
        # truth responds to altitude, members with a zero terrain factor
        # do not: their field is the bare decay profile
        spec = ScenarioSpec(terrain_factor=0.5, member_terrain_factor=0.0,
                            noise_sigma=0.0, member_bias=1.0,
                            member_bias_spread=0.0, member_noise_sigma=0.0,
                            member_noise_mm=0.0, track_jitter_deg=0.0,
                            track_bias_deg=(0.0, 0.0))
        scen = generate_scenario(spec, reduced_domain)
        rep = scen.reports[7]
        flat = spec.amplitude_mm * np.exp(
            -tc_distance_field(reduced_domain, rep.tc_center) / spec.decay_km)
        np.testing.assert_allclose(rep.members[0], flat, rtol=1e-9)
        high = reduced_domain.altitude > 2000.0
        assert np.all(rep.observation[high] > 1.9 * rep.members[0][high])

    def test_fixed_seed_reproducible(self, reduced_domain):
        a = generate_scenario(ScenarioSpec(seed=3), reduced_domain)
        b = generate_scenario(ScenarioSpec(seed=3), reduced_domain)
        for ra, rb in zip(a.reports, b.reports):
            np.testing.assert_array_equal(ra.members, rb.members)
            np.testing.assert_array_equal(ra.observation, rb.observation)

    def test_seeds_differ(self, reduced_domain):
        a = generate_scenario(ScenarioSpec(seed=3), reduced_domain)
        b = generate_scenario(ScenarioSpec(seed=4), reduced_domain)
        assert not np.array_equal(a.reports[7].members, b.reports[7].members)

    def test_ideal_gaussian_beats_raw_ensemble(self, reduced_domain):
        # oracle dominance: a Gaussian built from the generator's analytic
        # conditional mean/std scores better CRPS than the raw ensemble
        # statistics, on average over 50 seeds
        spec = ScenarioSpec()
        mean, std = truth_distribution(spec, reduced_domain, 8)
        land = reduced_domain.land_mask
        ideal_scores, members_scores = [], []
        for seed in range(50):
            scen = generate_scenario(dataclasses.replace(spec, seed=seed),
                                     reduced_domain)
            rep = scen.reports[7]
            obs = rep.observation[land]
            mu_m = rep.members.mean(axis=0)[land]
            sd_m = np.maximum(rep.members.std(axis=0, ddof=1)[land], 1e-6)
            members_scores.append(np.mean(crps_gaussian(mu_m, sd_m, obs)))
            ideal_scores.append(np.mean(crps_gaussian(
                mean[land], np.maximum(std[land], 1e-6), obs)))
        assert np.mean(ideal_scores) < np.mean(members_scores)


def category_profile(scenario):
    """Land-cell rain-category counts per report, shape (n_reports, 4)."""
    return np.array([tabulate_categories(r, scenario.domain).sum(axis=1)
                     for r in scenario.reports])


class TestCategoryProfile:
    def test_beyond_heavy_rises_and_falls(self, default_scenario):
        profile = category_profile(default_scenario)
        beyond = profile[:, RainCategory.BEYOND_HEAVY]
        assert profile.shape == (15, 4)
        assert beyond[7] > beyond[1]
        peak = int(np.argmax(beyond)) + 1
        assert 6 <= peak <= 10
        n_land = default_scenario.domain.n_land
        assert beyond[0] < 0.05 * n_land and beyond[1] < 0.05 * n_land
        assert beyond[13] < 0.05 * n_land and beyond[14] < 0.05 * n_land

    def test_counts_sum_to_land(self, default_scenario):
        profile = category_profile(default_scenario)
        assert np.all(profile.sum(axis=1) == default_scenario.domain.n_land)

    def test_zero_amplitude_all_very_light(self, reduced_domain):
        scen = generate_scenario(ScenarioSpec(amplitude_mm=0.0), reduced_domain)
        profile = category_profile(scen)
        n_land = reduced_domain.n_land
        assert np.all(profile[:, RainCategory.VERY_LIGHT] == n_land)

    def test_doubling_amplitude_monotone_in_beyond_heavy(self, reduced_domain):
        base = category_profile(generate_scenario(ScenarioSpec(seed=2), reduced_domain))
        doubled = category_profile(generate_scenario(
            ScenarioSpec(seed=2, amplitude_mm=2 * ScenarioSpec().amplitude_mm),
            reduced_domain))
        assert np.all(doubled[:, RainCategory.BEYOND_HEAVY]
                      >= base[:, RainCategory.BEYOND_HEAVY])


class TestReportDirname:
    @pytest.mark.parametrize("index,origin,name", [
        (1.0, ReportOrigin.ORIGINAL, "report_0010"),
        (1.5, ReportOrigin.INTERPOLATED, "report_0015"),
        (1.5, ReportOrigin.NOISE_INJECTED, "report_0015n"),
        (10.5, ReportOrigin.INTERPOLATED, "report_0105"),
        (15.0, ReportOrigin.ORIGINAL, "report_0150"),
    ])
    def test_encoding(self, index, origin, name):
        assert report_dirname(index, origin) == name

    def test_rejects_non_tenth(self):
        with pytest.raises(ValueError):
            report_dirname(1.23, ReportOrigin.ORIGINAL)


class TestScenarioIO:
    @pytest.fixture()
    def tiny_scenario(self):
        dom = make_island_domain(n_rows=12, n_cols=10)
        return generate_scenario(ScenarioSpec(seed=7, n_reports=3), dom)

    def test_round_trip(self, tiny_scenario, tmp_path):
        save_scenario(tiny_scenario, tmp_path / "scen")
        back = load_scenario(tmp_path / "scen")
        assert back.spec == tiny_scenario.spec
        np.testing.assert_array_equal(back.domain.land_mask,
                                      tiny_scenario.domain.land_mask)
        assert len(back.reports) == 3
        for ra, rb in zip(tiny_scenario.reports, back.reports):
            assert ra.index == rb.index
            assert ra.origin is rb.origin
            assert ra.tc_center == pytest.approx(rb.tc_center)
            np.testing.assert_allclose(ra.members, rb.members, rtol=1e-9)
            np.testing.assert_allclose(ra.observation, rb.observation, rtol=1e-9)

    def test_expected_layout(self, tiny_scenario, tmp_path):
        save_scenario(tiny_scenario, tmp_path / "scen")
        root = tmp_path / "scen"
        assert sorted(p.name for p in root.iterdir()) == [
            "domain.txt", "report_0010", "report_0020", "report_0030", "spec.json"]
        rdir = root / "report_0020"
        assert sorted(p.name for p in rdir.iterdir()) == ["members.npy", "meta.json",
                                                          "obs.npy"]
        members = np.load(rdir / "members.npy")
        assert members.shape == (20, 12, 10) and members.dtype == np.float64
        assert members.tobytes() == tiny_scenario.reports[1].members.tobytes()

    def test_report_files_name_what_is_written(self, tiny_scenario, tmp_path):
        save_scenario(tiny_scenario, tmp_path / "scen")
        rdir = tmp_path / "scen" / "report_0010"
        assert sorted(report_files()) == sorted(p.name for p in rdir.iterdir())
        assert report_files(with_observation=False) == ["meta.json", "members.npy"]
        assert report_files(with_members=False, with_observation=False) == ["meta.json"]

    def test_meta_holds_the_center_bit_for_bit(self, tiny_scenario, tmp_path):
        save_scenario(tiny_scenario, tmp_path / "scen")
        for r in tiny_scenario.reports:
            meta = load_report_meta(tmp_path / "scen" / report_dirname(r.index, r.origin))
            assert meta == {"index": r.index, "origin": r.origin,
                            "tc_center": r.tc_center}

    def test_meta_json_holds_only_the_center(self, tiny_scenario, tmp_path):
        # the directory name is the index and origin; meta.json does not repeat them
        save_scenario(tiny_scenario, tmp_path / "scen")
        for rdir in sorted((tmp_path / "scen").glob("report_*")):
            assert sorted(read_json(rdir / "meta.json")) == ["tc_lat", "tc_lon"]

    @pytest.mark.parametrize("name, index, origin", [
        ("report_0030", 3.0, ReportOrigin.ORIGINAL),
        ("report_0035", 3.5, ReportOrigin.INTERPOLATED),
        ("report_0035n", 3.5, ReportOrigin.NOISE_INJECTED),
        ("report_0030n", 3.0, ReportOrigin.NOISE_INJECTED)])
    def test_meta_index_and_origin_come_from_the_name(self, tmp_path, name, index, origin):
        rdir = tmp_path / name
        rdir.mkdir()
        (rdir / "meta.json").write_text('{"tc_lat": 22.5, "tc_lon": 121.0}')
        assert load_report_meta(rdir) == {"index": index, "origin": origin,
                                          "tc_center": (22.5, 121.0)}

    @pytest.mark.parametrize("name", ["report_30", "report_0030x", "meta"])
    def test_meta_of_a_directory_not_named_like_a_report(self, tmp_path, name):
        rdir = tmp_path / name
        rdir.mkdir()
        (rdir / "meta.json").write_text('{"tc_lat": 22.5, "tc_lon": 121.0}')
        with pytest.raises(ValueError, match=f"^{re.escape(str(rdir))} ") as exc:
            load_report_meta(rdir)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("victim,shape", [("members.npy", (12, 10)),
                                              ("members.npy", (19, 12, 10)),
                                              ("obs.npy", (1, 12, 10))])
    def test_grid_of_wrong_shape_names_the_report(self, tiny_scenario, tmp_path,
                                                  victim, shape):
        save_scenario(tiny_scenario, tmp_path / "scen")
        rdir = tmp_path / "scen" / "report_0010"
        save_grid_csv(rdir / victim, np.ones(shape))
        with pytest.raises(ValueError, match="report_0010") as exc:
            load_report(rdir)
        assert "\n" not in str(exc.value)

    def test_load_rejects_junk_dir(self, tmp_path):
        (tmp_path / "spec.json").write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="format"):
            load_scenario_header(tmp_path)


class TestReportSources:
    """A scenario in memory and the same scenario on disk make the same folds."""

    @pytest.fixture(scope="class")
    def both(self, tmp_path_factory):
        domain = make_island_domain(n_rows=14, n_cols=12)
        scenario = generate_scenario(ScenarioSpec(seed=4), domain)
        scen = tmp_path_factory.mktemp("sources") / "scen"
        save_scenario(scenario, scen)
        write_manifest(scen, "generate", config={}, inputs={}, wall_time_s=0.0)
        return scenario.originals(), OriginalReports(scen, domain.shape)

    def test_every_fold_agrees(self, both):
        memory, disk = both
        n = len(memory)
        assert len(disk) == n == 15
        for k in range(1, n + 1):
            indices = [[r.index for r in source.before(k)] for source in both]
            assert indices[0] == indices[1] == [float(i) for i in range(1, k)]
            assert memory.track_before(k) == disk.track_before(k)
            assert [i for i, _center in disk.track_before(k)] == list(range(1, k))
            targets = [source.target(k) for source in both]
            assert [t.observation for t in targets] == [None, None]
            assert targets[0].members.tobytes() == targets[1].members.tobytes()

    @pytest.mark.parametrize("call", ["before", "track_before", "target"])
    def test_a_missing_index_is_one_message(self, both, call):
        messages = []
        for source in both:
            with pytest.raises(ValueError) as exc:
                getattr(source, call)(16)
            messages.append(str(exc.value))
        assert messages == ["scenario has no original report with index 16"] * 2
