import dataclasses
import re
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from cyclone_pp.domain import ReportOrigin
from cyclone_pp.features import CHANNEL_NAMES, NormStats, apply_standardizer
from cyclone_pp.models import (
    FCN_CHANNEL_NAMES,
    VARIANTS,
    ModelConfig,
    TrainedModel,
    fcn_features,
    original_track,
    predict_members_baseline,
    rolling_origin_run,
    track_through,
    train_model,
)
from cyclone_pp import augmentation, models, neuralnet
from cyclone_pp.augmentation import build_augmented_set
from cyclone_pp.neuralnet import Network, TrainingDiverged, im2col
from cyclone_pp.scoring import weighted_loss
from cyclone_pp.synthgen import ScenarioSpec, generate_scenario, make_island_domain

from conftest import make_report

TINY = dict(n_rows=14, n_cols=12)


@pytest.fixture(scope="module")
def tiny_domain():
    return make_island_domain(**TINY)


@pytest.fixture(scope="module")
def tiny_scenario(tiny_domain):
    return generate_scenario(ScenarioSpec(seed=2), tiny_domain)


def history_until(scenario, k):
    return [r for r in scenario.reports if r.index < k]


def track_of(scenario):
    return original_track(scenario.reports)


class TestModelConfig:
    def test_variant_flag_matrix(self):
        # one row per variant: (input channels, hidden width, first kernel)
        # of its network, and whether its training set is augmented
        table = {v: (ModelConfig.for_variant(v).network_shape,
                     ModelConfig.for_variant(v).use_augmentation)
                 for v in VARIANTS}
        assert table == {
            "members": ((20, None, None), False),
            "fcn": ((7, 16, (1, 1)), False),
            "cnn": ((20, 32, (2, 2)), False),
            "cnn-dyn": ((25, 32, (2, 2)), False),
            "cnn-aug": ((20, 32, (2, 2)), True),
            "cnn-all": ((25, 32, (2, 2)), True),
        }

    def test_the_variant_is_the_only_flag(self):
        # inputs and training set follow from the variant; nothing restates them
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "variant", "epochs", "noise_scale", "seed"]

    def test_for_variant_case_insensitive(self):
        assert ModelConfig.for_variant("CNN-All").variant == "cnn-all"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig.for_variant("resnet")

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), -0.1])
    def test_noise_scale_must_be_finite_and_non_negative(self, eta):
        # a NaN here would reach the checkpoint as a bare NaN, not JSON
        with pytest.raises(ValueError, match="noise scale must be finite"):
            ModelConfig.for_variant("cnn", noise_scale=eta)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ModelConfig.for_variant("cnn", seed=-2)

    def test_channel_counts(self):
        assert len(ModelConfig.for_variant("fcn").channel_names) == 7
        assert len(ModelConfig.for_variant("cnn").channel_names) == 20
        assert len(ModelConfig.for_variant("cnn-aug").channel_names) == 20
        assert len(ModelConfig.for_variant("cnn-dyn").channel_names) == 25
        assert len(ModelConfig.for_variant("cnn-all").channel_names) == 25

    def test_cnn_channels_are_member_prefix(self):
        # the -dyn variants extend, never reorder, the member channels
        assert ModelConfig.for_variant("cnn").channel_names == CHANNEL_NAMES[:20]
        assert ModelConfig.for_variant("cnn-all").channel_names == CHANNEL_NAMES

    def test_members_does_not_train(self):
        assert not ModelConfig.for_variant("members").trains
        assert ModelConfig.for_variant("fcn").trains

    def test_dict_round_trip(self):
        cfg = ModelConfig.for_variant("cnn-all", seed=9, epochs=12)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.pop("seed"), "config has no key 'seed'"),
        (lambda d: d.update(lr=0.001), "config has unknown key 'lr'"),
        (lambda d: d.update(epochs="12"), "config key 'epochs' must be an integer"),
        (lambda d: d.update(variant=None), "config key 'variant' must be a string"),
        (lambda d: d.update(noise_scale=float("nan")),
         "config key 'noise_scale' must be a finite number"),
        (lambda d: d.update(variant="resnet"), "config: unknown variant 'resnet'"),
    ])
    def test_from_dict_names_the_key(self, edit, message):
        d = ModelConfig.for_variant("cnn-all", seed=9, epochs=12).to_dict()
        edit(d)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ModelConfig.from_dict(d)


class TestMembersBaseline:
    def test_degenerate_ensemble_floors_sigma(self):
        rep = make_report(3.0, shape=(4, 4), members=np.full((20, 4, 4), 7.5))
        field = predict_members_baseline(rep)
        np.testing.assert_allclose(field.mu, 7.5)
        np.testing.assert_allclose(field.sigma, 1e-6)

    def test_hand_computed_mean_and_std(self):
        members = np.zeros((20, 2, 2))
        members[:, 0, 0] = np.arange(20.0)
        members[:, 0, 1] = 5.0
        rep = make_report(3.0, shape=(2, 2), members=members)
        field = predict_members_baseline(rep)
        assert field.mu[0, 0] == pytest.approx(9.5)
        assert field.sigma[0, 0] == pytest.approx(np.sqrt(35.0))
        assert field.mu[0, 1] == pytest.approx(5.0)

    def test_member_permutation_invariant(self):
        rng = np.random.default_rng(0)
        members = rng.gamma(2.0, 10.0, (20, 3, 3))
        a = predict_members_baseline(make_report(1.0, shape=(3, 3), members=members))
        b = predict_members_baseline(
            make_report(1.0, shape=(3, 3), members=members[::-1].copy()))
        np.testing.assert_allclose(a.mu, b.mu)
        np.testing.assert_allclose(a.sigma, b.sigma)


class TestTrackHelpers:
    def test_original_track_sorted_and_filtered(self):
        reps = [make_report(2.0, tc_center=(24.0, 121.0)),
                make_report(1.0, tc_center=(23.0, 122.0)),
                make_report(1.5, origin=ReportOrigin.INTERPOLATED,
                            tc_center=(23.5, 121.5))]
        track = original_track(reps)
        assert track == [(1.0, (23.0, 122.0)), (2.0, (24.0, 121.0))]

    def test_track_through_excludes_future(self):
        pairs = [(1.0, (23.0, 122.0)), (2.0, (24.0, 121.0)), (3.0, (25.0, 120.0))]
        rep = make_report(2.0, tc_center=(24.0, 121.0))
        assert track_through(pairs, rep) == [(23.0, 122.0), (24.0, 121.0)]

    def test_track_through_adds_interpolated_center(self):
        pairs = [(1.0, (23.0, 122.0)), (2.0, (24.0, 121.0))]
        rep = make_report(1.5, origin=ReportOrigin.INTERPOLATED,
                          tc_center=(23.5, 121.5))
        assert track_through(pairs, rep) == [(23.0, 122.0), (23.5, 121.5)]

    def test_track_through_ends_at_the_report_center(self):
        # a caller's track need not hold the report itself: its own center
        # still ends the track, and alone makes it when nothing precedes
        pairs = [(1.0, (23.0, 122.0)), (3.0, (25.0, 120.0))]
        rep = make_report(2.0, tc_center=(24.0, 121.0))
        assert track_through(pairs, rep) == [(23.0, 122.0), (24.0, 121.0)]
        assert track_through(pairs[1:], rep) == [(24.0, 121.0)]


class TestFcnFeatures:
    def test_channel_layout(self, tiny_scenario, tiny_domain):
        rep = tiny_scenario.reports[7]
        stack = fcn_features(rep, tiny_domain,
                             track_through(track_of(tiny_scenario), rep))
        assert stack.shape == (7, *tiny_domain.shape)
        assert FCN_CHANNEL_NAMES == ("member_mean", "member_std", "lon",
                                     "lat", "altitude", "dist_tc",
                                     "passed_flag")
        np.testing.assert_allclose(stack[FCN_CHANNEL_NAMES.index("member_mean")],
                                   rep.members.mean(axis=0))
        np.testing.assert_allclose(stack[FCN_CHANNEL_NAMES.index("altitude")],
                                   tiny_domain.altitude)


class TestGaussianHead:
    def test_sigma_slope_is_its_central_difference_over_t_std(self):
        t_mean, t_std, h = 2.0, 7.5, 1e-6
        out = np.array([-8.0, -3.0, -0.5, 0.0, 0.5, 3.0, 8.0])

        def gaussian(out_sigma):
            return models._gaussian(t_mean, t_std, np.zeros_like(out_sigma), out_sigma)

        mu, sigma, slope = gaussian(out)
        fd = (gaussian(out + h)[1] - gaussian(out - h)[1]) / (2 * h)
        np.testing.assert_allclose(slope, fd / t_std, rtol=1e-7)
        assert mu.tolist() == [t_mean] * len(out) and slope[3] == 0.5
        assert np.all(sigma > models.SIGMA_FLOOR_MM)


class TestTrainModel:
    def test_loss_decreases(self, tiny_scenario, tiny_domain):
        cfg = ModelConfig.for_variant("cnn-all", epochs=40, seed=2)
        model = train_model(cfg, tiny_scenario.reports, tiny_domain, 8)
        assert len(model.loss_history) == 40
        assert model.loss_history[-1] < model.loss_history[0]
        assert all(np.isfinite(l) for l in model.loss_history)

    def test_fcn_loss_decreases(self, tiny_scenario, tiny_domain):
        model = train_model(ModelConfig.for_variant("fcn", epochs=40, seed=2),
                            tiny_scenario.reports, tiny_domain, 8)
        assert model.loss_history[-1] < model.loss_history[0]

    @pytest.mark.parametrize("variant", ["fcn", "cnn", "cnn-all"])
    def test_first_loss_is_the_full_grid_weighted_crps(self, tiny_scenario,
                                                       tiny_domain, variant):
        # training scores land rows only; the oracle scores full-grid
        # predictions of the untrained network over the land mask
        config = ModelConfig.for_variant(variant, epochs=1)
        model = train_model(config, tiny_scenario.reports, tiny_domain, 5)
        untrained = train_model(dataclasses.replace(config, epochs=0),
                                tiny_scenario.reports, tiny_domain, 5)
        history = history_until(tiny_scenario, 5)
        if variant == "cnn-all":
            history = build_augmented_set(history).reports
        track = original_track(history)
        # the model refuses the reports before its target, its training
        # reports among them; relabelled to target 1 it scores them as is
        scorer = dataclasses.replace(untrained, target=1)
        predictions = [scorer.predict(r, tiny_domain, track) for r in history]
        oracle = weighted_loss(predictions, history, len(track), tiny_domain.land_mask)
        assert model.loss_history[0] == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("variant", ["fcn", "cnn"])
    def test_overflowing_fit_is_divergence(self, tiny_scenario, tiny_domain, variant):
        # observed rain near 1e160 mm squares past float64 in the target's
        # std, so the first epoch's sigma is infinite; that is divergence,
        # not a complaint about crps_gaussian's input
        history = [dataclasses.replace(r, observation=r.observation * 1e158)
                   for r in history_until(tiny_scenario, 6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and numpy stays quiet
            with pytest.raises(TrainingDiverged, match=f"sigma at epoch 0 for {variant}$"):
                train_model(ModelConfig.for_variant(variant, epochs=2), history,
                            tiny_domain, 6)

    @pytest.mark.parametrize("variant", ["fcn", "cnn"])
    def test_overflowing_features_are_refused(self, tiny_scenario, tiny_domain, variant):
        # members near 1e160 mm would standardize to zero or NaN
        history = [dataclasses.replace(r, members=r.members * 1e158)
                   for r in history_until(tiny_scenario, 6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{variant} training features overflow"):
                train_model(ModelConfig.for_variant(variant, epochs=2), history,
                            tiny_domain, 6)

    def test_zero_epochs_returns_initialized_model(self, tiny_scenario, tiny_domain):
        cfg = ModelConfig.for_variant("cnn", epochs=0, seed=1)
        model = train_model(cfg, tiny_scenario.reports, tiny_domain, 6)
        assert model.loss_history == []
        rep = tiny_scenario.reports[6]
        field = model.predict(rep, tiny_domain, track_of(tiny_scenario))
        assert np.all(np.isfinite(field.mu))
        assert np.all(field.sigma > 0)

    def test_deterministic_given_seed(self, tiny_scenario, tiny_domain):
        cfg = ModelConfig.for_variant("cnn-dyn", epochs=15, seed=6)
        rep = tiny_scenario.reports[7]
        fields = []
        for _ in range(2):
            model = train_model(cfg, tiny_scenario.reports, tiny_domain, 8)
            fields.append(model.predict(rep, tiny_domain, track_of(tiny_scenario)))
        assert fields[0].mu.tobytes() == fields[1].mu.tobytes()
        assert fields[0].sigma.tobytes() == fields[1].sigma.tobytes()

    def test_seeds_change_the_fit(self, tiny_scenario, tiny_domain):
        rep = tiny_scenario.reports[7]
        a = train_model(ModelConfig.for_variant("cnn", epochs=15, seed=0),
                        tiny_scenario.reports, tiny_domain, 8)
        b = train_model(ModelConfig.for_variant("cnn", epochs=15, seed=1),
                        tiny_scenario.reports, tiny_domain, 8)
        assert not np.array_equal(
            a.predict(rep, tiny_domain, track_of(tiny_scenario)).mu,
            b.predict(rep, tiny_domain, track_of(tiny_scenario)).mu)

    def test_network_input_width_tracks_variant(self, tiny_scenario, tiny_domain):
        reports = tiny_scenario.reports
        cnn = train_model(ModelConfig.for_variant("cnn", epochs=1), reports,
                          tiny_domain, 6)
        dyn = train_model(ModelConfig.for_variant("cnn-dyn", epochs=1), reports,
                          tiny_domain, 6)
        assert cnn.net.conv.kernels.value.shape == (32, 20, 2, 2)
        assert dyn.net.conv.kernels.value.shape == (32, 25, 2, 2)

    def test_members_config_rejected(self, tiny_scenario, tiny_domain):
        with pytest.raises(ValueError):
            train_model(ModelConfig.for_variant("members"),
                        tiny_scenario.reports, tiny_domain, 6)

    def test_empty_history_rejected(self, tiny_domain):
        with pytest.raises(ValueError, match="no reports precede target 6"):
            train_model(ModelConfig.for_variant("cnn"), [], tiny_domain, 6)

    def test_observation_required(self, tiny_domain):
        rep = make_report(1.0, shape=tiny_domain.shape)
        stripped = dataclasses.replace(rep, observation=None)
        with pytest.raises(ValueError, match="needs an observation"):
            train_model(ModelConfig.for_variant("cnn"), [stripped], tiny_domain, 2)

    def test_sigma_strictly_positive(self, tiny_scenario, tiny_domain):
        cfg = ModelConfig.for_variant("cnn", epochs=10, seed=3)
        model = train_model(cfg, tiny_scenario.reports, tiny_domain, 7)
        field = model.predict(tiny_scenario.reports[6], tiny_domain,
                              track_of(tiny_scenario))
        assert np.all(field.sigma > 0)

    def test_fit_holds_each_report_once(self):
        # train_model builds the augmented set one report at a time; each
        # report gives way to its stack and each stack to its float32 land
        # patch rows (176 of 672 cells x 4 taps x half the width: 0.52x a
        # stack each). Beside the rows, the report pass (no epoch) holds one
        # derived report, one stack and their temporaries: 5 stacks' worth
        # covers them (it reads 3.9). A pass that kept the previous stack,
        # the standardizer's squared deviations and each interpolation
        # beside its noise copy read 5.7. One epoch adds three block-sized
        # hidden buffers and one block's temporaries: 10 stacks' worth
        # covers those (it reads 4.2). A fit that held the 38 stacks beside
        # the rows would need 1.67x the rows.
        domain = make_island_domain(n_rows=28, n_cols=24)
        scenario = generate_scenario(ScenarioSpec(seed=1), domain)
        cfg = ModelConfig.for_variant("cnn-all")
        (n_in, hidden, (kh, kw)), n_land = cfg.network_shape, int(domain.land_mask.sum())
        n = len(build_augmented_set(history_until(scenario, 11)).reports)
        stack = n_in * 28 * 24 * 8
        rows = n_land * n_in * kh * kw * 4
        buffers = 3 * min(neuralnet.BLOCK_ROWS, n * n_land) * hidden * 4

        def peak_of_fit(epochs):
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                train_model(dataclasses.replace(cfg, epochs=epochs), scenario.reports,
                            domain, 11)
                return tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()

        assert peak_of_fit(0) <= n * rows + 5 * stack
        assert peak_of_fit(1) <= n * rows + buffers + 10 * stack

    def test_derived_reports_are_built_as_the_fit_reads_them(self, monkeypatch):
        # the augmented set is built one report at a time: when a stack is
        # built, at most one derived report is alive, since a noise copy
        # takes its interpolation's place; a set built whole holds all 13
        domain = make_island_domain(**TINY)
        reports = generate_scenario(ScenarioSpec(seed=1), domain).reports
        derived, alive = [], []

        def kept(build):
            def building(*args):
                report = build(*args)
                derived.append(weakref.ref(report))
                return report
            return building

        def counting(stack_for):
            def stacking(*args):
                alive.append(sum(ref() is not None for ref in derived))
                return stack_for(*args)
            return stacking

        for name in ("interpolate_reports", "inject_noise"):
            monkeypatch.setattr(augmentation, name, kept(getattr(augmentation, name)))
        monkeypatch.setattr(models, "_stack_for", counting(models._stack_for))
        train_model(ModelConfig.for_variant("cnn-aug", epochs=1), reports, domain, 6)
        assert len(derived) == 13 and max(alive) == 1


class TestFitRows:
    """The fit's patch rows are the standardized stacks' im2col rows."""

    @pytest.fixture(scope="class")
    def edge_domain(self):
        # land on the last row and the last column reaches the taps past
        # the grid's edge; no island domain has any land there
        island = make_island_domain(n_rows=10, n_cols=8)
        land = island.land_mask.copy()
        land[-1, 2:] = True
        land[:, -1] = True
        return dataclasses.replace(island, land_mask=land,
                                   altitude=np.where(land, island.altitude + 50.0, 0.0))

    @pytest.mark.parametrize("variant", ["cnn", "cnn-all"])
    def test_rows_are_the_standardized_stacks_rows(self, edge_domain, monkeypatch, variant):
        scenario = generate_scenario(ScenarioSpec(seed=3), edge_domain)
        fitted = []
        row_blocks = models.row_blocks

        def spy(rows):
            fitted.append(rows.copy())
            return row_blocks(rows)

        monkeypatch.setattr(models, "row_blocks", spy)
        config = ModelConfig.for_variant(variant, epochs=1)
        model = train_model(config, scenario.reports, edge_domain, 6)
        history = history_until(scenario, 6)
        if config.use_augmentation:
            history = build_augmented_set(history).reports
        land = edge_domain.land_mask
        want = np.concatenate([im2col(
            apply_standardizer(models._stack_for(config, r, edge_domain, track_of(scenario)),
                               model.norm), (2, 2), land, np.float32)
            for r in history])
        rows = fitted[0]
        np.testing.assert_allclose(rows, want, rtol=1e-6, atol=1e-6)
        # the (row, col) offsets of the four taps; a tap past the edge is 0
        cells = np.argwhere(land)
        taps = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
        edge = ((cells[:, None, 0] + taps[:, 0] >= land.shape[0])
                | (cells[:, None, 1] + taps[:, 1] >= land.shape[1]))
        per_tap = rows.reshape(len(history), len(cells), -1, 4).transpose(0, 2, 1, 3)
        assert edge.any() and not per_tap[:, :, edge].any()


class TestFitFold:
    """The training set train_model hands to its fit, per variant."""

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        # the fit hands back its reports, so train_model returns the set
        monkeypatch.setattr(models, "_fit", lambda config, reports, domain, target:
                            SimpleNamespace(history=reports, target=target))

    @staticmethod
    def chosen(variant, reports, target, **overrides):
        return train_model(ModelConfig.for_variant(variant, **overrides),
                           reports, None, target).history

    def test_records_the_target(self, augmented):
        model = train_model(ModelConfig.for_variant("cnn"), augmented, None, 4)
        assert model.target == 4

    @pytest.fixture()
    def augmented(self, report_factory):
        # an augment output: train_model must rebuild from its originals
        originals = [report_factory(index=float(i)) for i in range(1, 6)]
        return build_augmented_set(originals, seed=5).reports

    def test_k3_takes_six_reports(self, augmented):
        # the 2.5 interpolation blends report 3, so it stays out
        got = self.chosen("cnn-aug", augmented, 3)
        assert [r.index for r in got] == [1.0, 1.0, 1.5, 1.5, 2.0, 2.0]

    def test_non_augmenting_variants_take_originals(self, augmented):
        for variant in ("fcn", "cnn", "cnn-dyn"):
            got = self.chosen(variant, augmented, 4)
            assert [r.index for r in got] == [1.0, 2.0, 3.0]
            assert all(r.origin is ReportOrigin.ORIGINAL for r in got)

    def test_k2_takes_the_single_original(self, augmented):
        with pytest.warns(UserWarning, match="cannot be augmented"):
            got = self.chosen("cnn-all", augmented, 2)
        assert [(r.index, r.origin) for r in got] == [(1.0, ReportOrigin.ORIGINAL)]

    def test_k_past_end_takes_all(self, report_factory):
        originals = [report_factory(index=float(i)) for i in range(1, 5)]
        got = self.chosen("cnn-aug", originals, 5)
        assert len(got) == len(build_augmented_set(originals).reports)

    def test_nesting(self, augmented):
        for k in range(3, 6):
            small = [r.index for r in self.chosen("cnn-all", augmented, k)]
            large = [r.index for r in self.chosen("cnn-all", augmented, k + 1)]
            assert small == large[: len(small)]

    def test_rejects_target_without_history(self, augmented):
        with pytest.raises(ValueError, match="no reports precede target 1"):
            self.chosen("cnn", augmented, 1)

    def test_excludes_target_and_future(self, augmented):
        for variant in ("cnn", "cnn-all"):
            assert max(r.index for r in self.chosen(variant, augmented, 4)) == 3.0

    def test_noise_comes_from_the_config(self, augmented, report_factory):
        # the augment output used seed 5; the config's seed wins
        originals = [report_factory(index=float(i)) for i in range(1, 4)]
        got = self.chosen("cnn-aug", augmented, 4, seed=0, noise_scale=0.1)
        want = build_augmented_set(originals, eta=0.1, seed=0).reports
        assert [r.members.tobytes() for r in got] == [r.members.tobytes() for r in want]


class TestFoldInCheckpoint:
    """The model carries its fold: a target and a grid it may predict."""

    @pytest.fixture(scope="class")
    def fold_7(self, tiny_scenario, tiny_domain):
        return train_model(ModelConfig.for_variant("cnn", epochs=1),
                           tiny_scenario.reports, tiny_domain, 7)

    def test_target_and_grid_round_trip(self, fold_7, tmp_path):
        path = tmp_path / "model.json"
        fold_7.save(path)
        loaded = TrainedModel.load(path)
        assert (loaded.target, loaded.grid_shape) == (7, (14, 12))

    def test_predict_before_the_target_refused(self, fold_7, tiny_scenario, tiny_domain):
        # report 6 preceded target 7: the model was trained on it
        track = track_of(tiny_scenario)
        with pytest.raises(ValueError, match="^model trained for target 7 saw reports "
                                             "at or after target 6$"):
            fold_7.predict(tiny_scenario.reports[5], tiny_domain, track)
        fold_7.predict(tiny_scenario.reports[6], tiny_domain, track)

    def test_predict_on_another_grid_refused(self, fold_7):
        other = make_island_domain(n_rows=12, n_cols=9)
        scenario = generate_scenario(ScenarioSpec(seed=2), other)
        with pytest.raises(ValueError, match="^model trained on a 14x12 grid cannot "
                                             "predict a 12x9 scenario$"):
            fold_7.predict(scenario.reports[8], other, track_of(scenario))

    @pytest.mark.parametrize("variant", ["cnn", "cnn-all"])
    def test_whole_scenario_trains_like_the_originals_before_the_target(
            self, tiny_scenario, tiny_domain, tmp_path, variant):
        # the target, the reports after it and an augment output's derived
        # reports (k - 0.5 blends report k) all stay out of the fit
        derived = [r for r in build_augmented_set(tiny_scenario.reports, seed=5).reports
                   if r.origin is not ReportOrigin.ORIGINAL]
        config = ModelConfig.for_variant(variant, epochs=2)
        whole, before = tmp_path / "whole.json", tmp_path / "before.json"
        train_model(config, [*reversed(tiny_scenario.reports), *derived],
                    tiny_domain, 7).save(whole)
        train_model(config, history_until(tiny_scenario, 7), tiny_domain, 7).save(before)
        assert whole.read_bytes() == before.read_bytes()


class TestFcnLocality:
    def test_cell_permutation_equivariance(self, tiny_scenario, tiny_domain):
        # 1x1 convolutions see one cell at a time: shuffling the cells of
        # the input shuffles the output identically
        model = train_model(ModelConfig.for_variant("fcn", epochs=5, seed=0),
                            tiny_scenario.reports, tiny_domain, 7)
        rep = tiny_scenario.reports[7]
        stack = models._stack_for(model.config, rep, tiny_domain, track_of(tiny_scenario))
        x = im2col(apply_standardizer(stack, model.norm), (1, 1), dtype=np.float32)
        out = model.net.forward(x)
        perm = np.random.default_rng(8).permutation(len(x))
        out_perm = model.net.forward(x[perm])
        np.testing.assert_allclose(out_perm, out[perm], rtol=1e-6)


class TestSaveLoad:
    def test_round_trip_predicts_identically(self, tiny_scenario, tiny_domain,
                                             tmp_path):
        cfg = ModelConfig.for_variant("cnn-all", epochs=10, seed=5)
        model = train_model(cfg, tiny_scenario.reports, tiny_domain, 8)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = TrainedModel.load(path)
        assert loaded.config == cfg
        assert (loaded.grid_shape, loaded.target) == ((14, 12), 8)
        rep = tiny_scenario.reports[9]
        a = model.predict(rep, tiny_domain, track_of(tiny_scenario))
        b = loaded.predict(rep, tiny_domain, track_of(tiny_scenario))
        assert a.mu.tobytes() == b.mu.tobytes()
        assert a.sigma.tobytes() == b.sigma.tobytes()

    def test_load_draws_no_weights(self, tiny_scenario, tiny_domain, tmp_path,
                                   monkeypatch):
        # the checkpoint's four arrays are the network; none is drawn first
        model = train_model(ModelConfig.for_variant("fcn", epochs=1),
                            tiny_scenario.reports, tiny_domain, 7)
        path = tmp_path / "model.json"
        model.save(path)

        def no_draw(*args):
            raise AssertionError("a load drew Kaiming weights")

        monkeypatch.setattr(neuralnet, "kaiming_init", no_draw)
        loaded = TrainedModel.load(path)
        for a, b in zip(model.net.parameters(), loaded.net.parameters()):
            assert a.value.tobytes() == b.value.tobytes()

    @pytest.mark.parametrize("variant", ["fcn", "cnn-all"])
    def test_fit_and_predict_leave_the_network_no_buffers(self, tiny_scenario,
                                                          tiny_domain, variant):
        # a kept model holds its four arrays, not the patch rows of its
        # fit or the hidden-size arrays of its last prediction
        model = train_model(ModelConfig.for_variant(variant, epochs=1),
                            tiny_scenario.reports, tiny_domain, 7)
        net = model.net
        for _call in range(2):
            assert net._buffers == [None, None, None]
            assert net.conv._rows is net.head._rows is net.softplus._slope is None
            model.predict(tiny_scenario.reports[6], tiny_domain, track_of(tiny_scenario))


class TestPredict:
    def test_forwards_at_most_block_rows_per_call(self, monkeypatch):
        # a full-grid prediction blocks its 5,880 patch rows like a fit,
        # and matches one unblocked forward to rounding
        domain = make_island_domain()
        config = ModelConfig.for_variant("cnn")
        n_in, hidden, kernel = config.network_shape
        model = TrainedModel(config=config,
                             net=Network.kaiming(n_in, hidden, kernel, np.random.default_rng(0)),
                             norm=NormStats(np.full(n_in, 10.0), np.full(n_in, 7.0)),
                             target_mean=20.0, target_std=9.0, grid_shape=domain.shape, target=1)
        rows, forward = [], Network.forward

        def spy(net, x):
            rows.append(x.size // (n_in * kernel[0] * kernel[1]))
            return forward(net, x)

        monkeypatch.setattr(Network, "forward", spy)
        report = make_report(1.0, shape=domain.shape)
        blocked = model.predict(report, domain, [])
        assert rows == [neuralnet.BLOCK_ROWS, 5880 - neuralnet.BLOCK_ROWS]
        monkeypatch.setattr(neuralnet, "BLOCK_ROWS", 5880)
        whole = model.predict(report, domain, [])
        assert rows[2:] == [5880]
        np.testing.assert_allclose(blocked.mu, whole.mu, rtol=1e-6)
        np.testing.assert_allclose(blocked.sigma, whole.sigma, rtol=1e-6)


class TestStackFor:
    """The channels each variant sees: members alone take no geo/dyn fields."""

    @pytest.mark.parametrize("variant", ["cnn", "cnn-aug"])
    def test_member_variants_see_the_member_fields(self, tiny_scenario, tiny_domain,
                                                   variant):
        rep = tiny_scenario.reports[4]
        stack = models._stack_for(ModelConfig.for_variant(variant), rep, tiny_domain,
                                  track_of(tiny_scenario))
        assert stack is rep.members

    @pytest.mark.parametrize("variant", ["fcn", "cnn", "cnn-aug", "cnn-all"])
    def test_members_of_another_grid_rejected(self, tiny_domain, variant):
        rep = make_report(3.0, shape=(4, 4))
        with pytest.raises(ValueError, match="do not match domain"):
            models._stack_for(ModelConfig.for_variant(variant), rep, tiny_domain,
                              [(3.0, rep.tc_center)])


@pytest.fixture(scope="module")
def runs(tiny_scenario):
    configs = [ModelConfig.for_variant(v, epochs=8, seed=2)
               for v in ("members", "cnn", "cnn-all")]
    return rolling_origin_run(configs, tiny_scenario, targets=range(6, 12))


class TestRollingOrigin:

    def test_six_predictions_per_variant(self, runs):
        for v in ("members", "cnn", "cnn-all"):
            assert sorted(k for vv, k in runs if vv == v) == [6, 7, 8, 9, 10, 11]

    def test_members_matches_direct_baseline(self, runs, tiny_scenario):
        rep = next(r for r in tiny_scenario.reports if r.index == 9.0)
        direct = predict_members_baseline(rep)
        np.testing.assert_array_equal(runs[("members", 9)].mu, direct.mu)

    def test_missing_target_errors(self, tiny_scenario):
        with pytest.raises(ValueError):
            rolling_origin_run([ModelConfig.for_variant("members")],
                               tiny_scenario, targets=[40])

    def test_no_history_skips_with_warning(self, tiny_scenario):
        cfg = ModelConfig.for_variant("members")
        with pytest.warns(UserWarning, match="no preceding reports"):
            out = rolling_origin_run([cfg], tiny_scenario, targets=[1, 6])
        assert ("members", 1) not in out
        assert ("members", 6) in out

    def test_single_report_history_cannot_augment(self, tiny_scenario):
        cfg = ModelConfig.for_variant("cnn-aug", epochs=1, seed=0)
        with pytest.warns(UserWarning, match="cannot be augmented"):
            out = rolling_origin_run([cfg], tiny_scenario, targets=[2])
        assert ("cnn-aug", 2) in out

    def test_causality_under_future_mutation(self, tiny_scenario, tiny_domain):
        # corrupt every report at or beyond the target, including the
        # target's own observation: predictions must not move a bit
        configs = [ModelConfig.for_variant(v, epochs=6, seed=1)
                   for v in ("members", "fcn", "cnn", "cnn-dyn", "cnn-aug",
                             "cnn-all")]
        k = 7
        baseline = rolling_origin_run(configs, tiny_scenario, targets=[k])

        mutated_reports = []
        for r in tiny_scenario.reports:
            if r.index > k:
                r = dataclasses.replace(
                    r, members=r.members * 3.0 + 11.0,
                    observation=(None if r.observation is None
                                 else r.observation * 0.1),
                    tc_center=(r.tc_center[0] + 2.0, r.tc_center[1] - 2.0))
            elif r.index == k:
                # the target's forecast fields are legitimate inputs; its
                # observation is verification data, so only that moves
                r = dataclasses.replace(r, observation=r.observation * 0.1 + 7.0)
            mutated_reports.append(r)
        mutated = dataclasses.replace(tiny_scenario, reports=mutated_reports)
        after = rolling_origin_run(configs, mutated, targets=[k])

        for key, field in baseline.items():
            assert field.mu.tobytes() == after[key].mu.tobytes()
            assert field.sigma.tobytes() == after[key].sigma.tobytes()

    def test_later_targets_see_more_history(self, tiny_scenario, tiny_domain):
        # the k=6 and k=11 fits differ because the training windows differ
        cfg = ModelConfig.for_variant("cnn", epochs=8, seed=2)
        out = rolling_origin_run([cfg], tiny_scenario, targets=[6, 11])
        assert not np.array_equal(out[("cnn", 6)].mu, out[("cnn", 11)].mu)
