"""End-to-end and contract tests for the command-line pipeline."""

import json
import shutil

import numpy as np
import pytest

from cyclone_pp.cli import (
    TRAINABLE,
    _causal_file_filter,
    _parse_targets,
    load_predictions_csv,
    main,
    thread_cap,
)
from cyclone_pp.domain import ReportOrigin
from cyclone_pp.models import (
    ModelConfig,
    predict_members_baseline,
    rolling_origin_run,
    train_model,
)
from cyclone_pp.storage import (
    manifest_fingerprint,
    read_json,
    sha256_file,
    verify_manifest,
)
from cyclone_pp.synthgen import list_report_dirs, load_report, load_scenario

GRID = ["--rows", "14", "--cols", "12"]
TARGET = "6"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small five-stage run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    scen, aug = root / "scen", root / "aug"
    model, pred = root / "model", root / "pred"
    base, ev = root / "base", root / "eval"
    assert main(["generate", "--seed", "3", *GRID, "--out", str(scen)]) == 0
    assert main(["augment", "--scenario", str(scen), "--out", str(aug)]) == 0
    assert main(["train", "--scenario", str(scen), "--variant", "cnn-all",
                 "--target", TARGET, "--epochs", "2", "--out", str(model)]) == 0
    assert main(["predict", "--checkpoint", str(model), "--scenario", str(scen),
                 "--target", TARGET, "--out", str(pred)]) == 0
    assert main(["predict", "--variant", "members", "--scenario", str(scen),
                 "--target", TARGET, "--out", str(base)]) == 0
    assert main(["evaluate", "--predictions", str(pred), "--scenario", str(scen),
                 "--targets", TARGET, "--out", str(ev)]) == 0
    return {"root": root, "scen": scen, "aug": aug, "model": model,
            "pred": pred, "base": base, "eval": ev}


class TestHelpers:
    def test_targets_range(self):
        assert _parse_targets("6..11") == [6, 7, 8, 9, 10, 11]

    def test_targets_list(self):
        assert _parse_targets("6,9,11") == [6, 9, 11]

    def test_targets_single(self):
        assert _parse_targets(" 8 ") == [8]

    def test_targets_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty target range"):
            _parse_targets("11..6")

    def test_thread_cap_default(self, monkeypatch):
        monkeypatch.delenv("CYCLONE_PP_THREADS", raising=False)
        assert thread_cap() == 1

    def test_thread_cap_from_env(self, monkeypatch):
        monkeypatch.setenv("CYCLONE_PP_THREADS", "4")
        assert thread_cap() == 4

    def test_thread_cap_floors_at_one(self, monkeypatch):
        monkeypatch.setenv("CYCLONE_PP_THREADS", "0")
        assert thread_cap() == 1

    def test_thread_cap_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("CYCLONE_PP_THREADS", "lots")
        with pytest.raises(ValueError, match="CYCLONE_PP_THREADS"):
            thread_cap()

    def test_causal_filter_blocks_future_reports(self):
        allow = _causal_file_filter(6)
        assert allow("spec.json") and allow("track.csv")
        assert allow("report_0050/obs.npy")
        assert allow("report_0045n/member_03.npy")
        # the 5.5 interpolation blends report 6, so it counts as future
        assert not allow("report_0055/member_01.npy")
        assert not allow("report_0055n/obs.npy")
        assert not allow("report_0060/member_01.npy")
        assert not allow("report_0070/obs.npy")

    def test_causal_filter_admits_target_forecast_only(self):
        allow = _causal_file_filter(6, include_target_forecast=True)
        assert allow("report_0060/member_19.npy")
        assert allow("report_0060/meta.json")
        assert not allow("report_0060/obs.npy")
        assert not allow("report_0060n/member_00.npy")
        assert not allow("report_0065/member_00.npy")


class TestGenerate:
    def test_layout_and_manifest(self, pipeline):
        scen = pipeline["scen"]
        for name in ("spec.json", "domain.txt", "track.csv", "manifest.json"):
            assert (scen / name).is_file()
        assert len(list_report_dirs(scen)) == 15
        manifest = verify_manifest(scen)
        assert manifest["stage"] == "generate"
        assert manifest["seed"] == 3

    def test_deterministic_across_runs(self, pipeline, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["generate", "--seed", "3", *GRID]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        fa = manifest_fingerprint(read_json(a / "manifest.json"))
        fb = manifest_fingerprint(read_json(b / "manifest.json"))
        assert fa == fb
        assert fa == manifest_fingerprint(read_json(pipeline["scen"] / "manifest.json"))

    @pytest.mark.parametrize("flag,value", [("--rows", "0"), ("--cols", "-2")])
    def test_non_positive_grid_size_is_usage_error(self, tmp_path, capsys,
                                                    flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["generate", flag, value, "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "positive integer" in err
        assert not (tmp_path / "s").exists()

    def test_grid_without_land_rejected(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["generate", "--rows", "2", "--cols", "2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "no land cell" in err
        assert not out.exists()

    def test_spec_file_round_trips(self, pipeline, tmp_path, capsys):
        out = tmp_path / "scen2"
        spec_path = pipeline["scen"] / "spec.json"
        assert main(["generate", "--spec", str(spec_path), *GRID,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert (read_json(out / "manifest.json")["outputs"]
                == read_json(pipeline["scen"] / "manifest.json")["outputs"])


class TestAugment:
    def test_report_count(self, pipeline):
        dirs = list_report_dirs(pipeline["aug"])
        assert len(dirs) == 2 * (2 * 15 - 1)
        manifest = read_json(pipeline["aug"] / "manifest.json")
        assert manifest["config"]["n_original"] == 15

    def test_corrupt_input_fails_without_output(self, pipeline, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(pipeline["scen"], broken)
        victim = next(broken.glob("report_0010/member_01.npy"))
        victim.write_bytes(b"garbage\n")
        out = tmp_path / "aug"
        assert main(["augment", "--scenario", str(broken),
                     "--out", str(out)]) == 1
        assert "hash mismatch" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scenario_fails(self, tmp_path, capsys):
        assert main(["augment", "--scenario", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "aug")]) == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_members_has_nothing_to_train(self, pipeline, tmp_path, capsys):
        assert main(["train", "--scenario", str(pipeline["scen"]),
                     "--variant", "members", "--target", TARGET,
                     "--out", str(tmp_path / "m")]) == 1
        assert "no trainable parameters" in capsys.readouterr().err

    def test_variant_flag_required(self, pipeline, tmp_path, capsys):
        assert main(["train", "--scenario", str(pipeline["scen"]),
                     "--target", TARGET, "--out", str(tmp_path / "m")]) == 2
        assert "--variant or --all-variants" in capsys.readouterr().err

    def test_unknown_variant_rejected(self, pipeline, tmp_path, capsys):
        assert main(["train", "--scenario", str(pipeline["scen"]),
                     "--variant", "resnet", "--target", TARGET,
                     "--out", str(tmp_path / "m")]) == 1
        assert "unknown variant" in capsys.readouterr().err

    def test_target_without_report_rejected(self, pipeline, tmp_path, capsys):
        out = tmp_path / "m"
        assert main(["train", "--scenario", str(pipeline["scen"]),
                     "--variant", "cnn", "--target", "99", "--epochs", "1",
                     "--out", str(out)]) == 1
        assert "no original report with index 99" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_written(self, pipeline):
        assert (pipeline["model"] / "model_cnn-all.json").is_file()
        manifest = verify_manifest(pipeline["model"])
        assert manifest["config"] == {"variants": ["cnn-all"], "target": 6,
                                      "epochs": 2, "eta": 0.05, "seed": 0}

    def test_deterministic_across_runs(self, pipeline, tmp_path):
        out = tmp_path / "again"
        assert main(["train", "--scenario", str(pipeline["scen"]),
                     "--variant", "cnn-all", "--target", TARGET,
                     "--epochs", "2", "--out", str(out)]) == 0
        assert (read_json(out / "manifest.json")["outputs"]
                == read_json(pipeline["model"] / "manifest.json")["outputs"])

    def test_pre_augmented_scenario_trains_identically(self, pipeline, tmp_path):
        # train rebuilds the augmentation from the originals before the
        # target, so an augment output trains exactly like its source
        out = tmp_path / "maug"
        assert main(["train", "--scenario", str(pipeline["aug"]),
                     "--variant", "cnn-all", "--target", TARGET,
                     "--epochs", "2", "--out", str(out)]) == 0
        assert (read_json(out / "manifest.json")["outputs"]
                == read_json(pipeline["model"] / "manifest.json")["outputs"])

    def test_single_original_warning_is_one_plain_line(self, pipeline, tmp_path,
                                                       capsys):
        assert main(["train", "--scenario", str(pipeline["scen"]),
                     "--variant", "cnn-aug", "--target", "2", "--epochs", "1",
                     "--out", str(tmp_path / "m")]) == 0
        assert capsys.readouterr().err == (
            "warning: target 2: single-report history cannot be augmented; "
            "training on originals\n")

    def test_all_variants_with_thread_cap(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("CYCLONE_PP_THREADS", "2")
        out = tmp_path / "all"
        assert main(["train", "--scenario", str(pipeline["scen"]),
                     "--all-variants", "--target", TARGET, "--epochs", "1",
                     "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("model_*.json"))
        assert names == ["model_cnn-all.json", "model_cnn-aug.json",
                         "model_cnn-dyn.json", "model_cnn.json",
                         "model_fcn.json"]


class TestTrainMatchesLibrary:
    """CLI train + predict and rolling_origin_run pick one training set."""

    @pytest.mark.parametrize("source", ["scen", "aug"])
    @pytest.mark.parametrize("variant", TRAINABLE)
    def test_same_bits_as_rolling_origin(self, pipeline, tmp_path, variant,
                                         source):
        scen = pipeline[source]
        model, pred = tmp_path / "model", tmp_path / "pred"
        assert main(["train", "--scenario", str(scen), "--variant", variant,
                     "--target", TARGET, "--epochs", "2",
                     "--out", str(model)]) == 0
        assert main(["predict", "--checkpoint", str(model),
                     "--scenario", str(scen), "--target", TARGET,
                     "--out", str(pred)]) == 0
        got = load_predictions_csv(pred / "predictions.csv", (14, 12))
        config = ModelConfig.for_variant(variant, epochs=2)
        k = int(TARGET)
        expected = rolling_origin_run([config], load_scenario(scen),
                                      targets=[k])[(variant, k)]
        assert got.mu.tobytes() == expected.mu.tobytes()
        assert got.sigma.tobytes() == expected.sigma.tobytes()

    def test_augment_seed_does_not_reach_train(self, pipeline, tmp_path):
        # train augments with its own --seed, whatever augment used
        aug5 = tmp_path / "aug5"
        assert main(["augment", "--scenario", str(pipeline["scen"]),
                     "--seed", "5", "--out", str(aug5)]) == 0
        outs = []
        for scen in (pipeline["scen"], aug5):
            out = tmp_path / f"model_{scen.name}"
            assert main(["train", "--scenario", str(scen), "--all-variants",
                         "--target", TARGET, "--epochs", "2", "--seed", "0",
                         "--out", str(out)]) == 0
            outs.append(out)
        for variant in TRAINABLE:
            name = f"model_{variant}.json"
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestPredict:
    def test_requires_exactly_one_source(self, pipeline, tmp_path, capsys):
        common = ["predict", "--scenario", str(pipeline["scen"]),
                  "--target", TARGET, "--out", str(tmp_path / "p")]
        assert main(common) == 1
        assert main(common + ["--variant", "members",
                              "--checkpoint", str(pipeline["model"])]) == 1
        err = capsys.readouterr().err
        assert "exactly one of" in err

    def test_non_members_variant_needs_checkpoint(self, pipeline, tmp_path, capsys):
        assert main(["predict", "--scenario", str(pipeline["scen"]),
                     "--variant", "cnn", "--target", TARGET,
                     "--out", str(tmp_path / "p")]) == 1
        assert "train the other variants first" in capsys.readouterr().err

    def test_csv_round_trip(self, pipeline):
        field = load_predictions_csv(pipeline["pred"] / "predictions.csv",
                                     (14, 12))
        assert np.all(np.isfinite(field.mu))
        assert np.all(field.sigma > 0)

    def test_members_matches_library_baseline(self, pipeline):
        rdir = next(d for i, noise, d in list_report_dirs(pipeline["scen"])
                    if i == 6 and not noise)
        expected = predict_members_baseline(load_report(rdir))
        got = load_predictions_csv(pipeline["base"] / "predictions.csv",
                                   (14, 12))
        np.testing.assert_array_equal(got.mu, expected.mu)
        np.testing.assert_array_equal(got.sigma, expected.sigma)

    def test_manifest_records_variant(self, pipeline):
        manifest = verify_manifest(pipeline["pred"])
        assert manifest["config"] == {"variant": "cnn-all", "target": 6}


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestPredictChecksCheckpointFold:
    """A checkpoint predicts only targets and grids its fold allows."""

    def predict(self, pipeline, out, target, scenario=None, checkpoint=None):
        return main(["predict", "--checkpoint", str(checkpoint or pipeline["model"]),
                     "--scenario", str(scenario or pipeline["scen"]),
                     "--target", str(target), "--out", str(out)])

    def test_earlier_target_rejected(self, pipeline, tmp_path, capsys):
        # trained for target 6, so on reports 1..5: target 4 would be
        # predicted by a model that saw reports 4 and 5
        out = tmp_path / "p"
        assert self.predict(pipeline, out, 4) == 1
        assert "trained for target 6" in one_error_line(capsys)
        assert not out.exists()

    def test_checkpoint_without_target_rejected(self, pipeline, tmp_path, capsys):
        # train_model alone does not know the fold, so its checkpoint
        # cannot show which targets it may predict
        scenario = load_scenario(pipeline["scen"])
        history = [r for r in scenario.reports if r.index < 6]
        ckpt = tmp_path / "model.json"
        train_model(ModelConfig.for_variant("cnn", epochs=1), history,
                    scenario.domain).save(ckpt)
        assert self.predict(pipeline, tmp_path / "p", 6, checkpoint=ckpt) == 1
        assert "records no training target" in one_error_line(capsys)

    def test_later_target_allowed(self, pipeline, tmp_path):
        assert self.predict(pipeline, tmp_path / "p", 8) == 0

    def test_other_grid_rejected(self, pipeline, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["generate", "--seed", "3", "--rows", "12", "--cols", "9",
                     "--out", str(other)]) == 0
        capsys.readouterr()
        out = tmp_path / "p"
        assert self.predict(pipeline, out, 11, scenario=other) == 1
        assert "14x12 grid" in one_error_line(capsys)
        assert not out.exists()

    def test_first_format_checkpoint_rejected(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "model_cnn-all.json"
        doc = read_json(pipeline["model"] / "model_cnn-all.json")
        doc["format"] = "cyclone-pp-net/1"
        ckpt.write_text(json.dumps(doc))
        assert self.predict(pipeline, tmp_path / "p", 6, checkpoint=ckpt) == 1
        assert "cyclone-pp-net/1" in one_error_line(capsys)

    def edited_checkpoint(self, pipeline, tmp_path, edit):
        doc = read_json(pipeline["model"] / "model_cnn-all.json")
        edit(doc)
        ckpt = tmp_path / "model_cnn-all.json"
        ckpt.write_text(json.dumps(doc))
        return ckpt

    def test_second_format_checkpoint_rejected(self, pipeline, tmp_path, capsys):
        # format 2 stored a typed layer list; retrain it
        ckpt = self.edited_checkpoint(
            pipeline, tmp_path, lambda doc: doc.update(format="cyclone-pp-net/2"))
        assert self.predict(pipeline, tmp_path / "p", 6, checkpoint=ckpt) == 1
        assert "cyclone-pp-net/2" in one_error_line(capsys)

    @pytest.mark.parametrize("key", ["norm_std", "config", "grid_shape", "target"])
    def test_checkpoint_without_meta_key_rejected(self, pipeline, tmp_path, capsys,
                                                  key):
        ckpt = self.edited_checkpoint(pipeline, tmp_path,
                                      lambda doc: doc["meta"].pop(key))
        out = tmp_path / "p"
        assert self.predict(pipeline, out, 6, checkpoint=ckpt) == 1
        assert repr(key) in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("norm_std", "wide"), ("norm_mean", [0.0]),
                                           ("grid_shape", 14), ("target_std", None),
                                           ("config", {"variant": "cnn-all"})])
    def test_checkpoint_with_mistyped_meta_rejected(self, pipeline, tmp_path, capsys,
                                                    key, value):
        ckpt = self.edited_checkpoint(pipeline, tmp_path,
                                      lambda doc: doc["meta"].update({key: value}))
        assert self.predict(pipeline, tmp_path / "p", 6, checkpoint=ckpt) == 1
        one_error_line(capsys)


class TestCausality:
    """Train and predict must not open report files at or past the target."""

    @pytest.fixture()
    def tampered(self, pipeline, tmp_path):
        """Scenario copy with every off-limits report file destroyed."""
        broken = tmp_path / "tampered"
        shutil.copytree(pipeline["scen"], broken)
        for index, _noise, rdir in list_report_dirs(broken):
            if index < 6:
                continue
            (rdir / "obs.npy").write_bytes(b"ruined\n")
            if index > 6:
                (rdir / "meta.json").write_bytes(b"ruined\n")
                for member in rdir.glob("member_*.npy"):
                    member.write_bytes(b"ruined\n")
        return broken

    def test_tampering_is_detectable(self, tampered):
        with pytest.raises(ValueError, match="hash mismatch"):
            verify_manifest(tampered)

    def test_train_and_predict_unaffected(self, pipeline, tampered, tmp_path):
        model = tmp_path / "model"
        assert main(["train", "--scenario", str(tampered),
                     "--variant", "cnn-all", "--target", TARGET,
                     "--epochs", "2", "--out", str(model)]) == 0
        assert (read_json(model / "manifest.json")["outputs"]
                == read_json(pipeline["model"] / "manifest.json")["outputs"])

        pred = tmp_path / "pred"
        assert main(["predict", "--checkpoint", str(model),
                     "--scenario", str(tampered), "--target", TARGET,
                     "--out", str(pred)]) == 0
        assert (read_json(pred / "manifest.json")["outputs"]
                == read_json(pipeline["pred"] / "manifest.json")["outputs"])

    def test_evaluate_still_checks_everything(self, pipeline, tampered,
                                              tmp_path, capsys):
        assert main(["evaluate", "--predictions", str(pipeline["pred"]),
                     "--scenario", str(tampered), "--targets", TARGET,
                     "--out", str(tmp_path / "ev")]) == 1
        assert "hash mismatch" in capsys.readouterr().err


class TestEvaluate:
    def test_outputs_present(self, pipeline):
        ev = pipeline["eval"]
        for name in ("skill_table.csv", "crpss_summary.csv",
                     "exceedance_map_6.csv", "reliability.csv"):
            assert (ev / name).is_file()
        manifest = verify_manifest(ev)
        assert manifest["config"] == {"variant": "cnn-all", "targets": [6]}

    def test_defaults_to_supplied_targets(self, pipeline, tmp_path, capsys):
        out = tmp_path / "ev"
        assert main(["evaluate", "--predictions", str(pipeline["pred"]),
                     "--scenario", str(pipeline["scen"]),
                     "--out", str(out)]) == 0
        assert "calibration error" in capsys.readouterr().out
        assert (out / "exceedance_map_6.csv").is_file()

    def test_mixed_variants_rejected(self, pipeline, tmp_path, capsys):
        assert main(["evaluate", "--predictions", str(pipeline["pred"]),
                     str(pipeline["base"]),
                     "--scenario", str(pipeline["scen"]),
                     "--out", str(tmp_path / "ev")]) == 1
        assert "mix variants" in capsys.readouterr().err

    def test_missing_target_rejected(self, pipeline, tmp_path, capsys):
        assert main(["evaluate", "--predictions", str(pipeline["pred"]),
                     "--scenario", str(pipeline["scen"]), "--targets", "7",
                     "--out", str(tmp_path / "ev")]) == 1
        assert "no predictions supplied" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["target", "variant"])
    def test_manifest_config_without_key_exits_1(self, pipeline, tmp_path, capsys, key):
        pred = tmp_path / "pred"
        shutil.copytree(pipeline["pred"], pred)
        manifest = read_json(pred / "manifest.json")
        del manifest["config"][key]
        (pred / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "ev"
        assert main(["evaluate", "--predictions", str(pred),
                     "--scenario", str(pipeline["scen"]), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(pred) in err and repr(key) in err
        assert not out.exists()


def without_manifest_outputs(src, dst):
    """A copy of a stage directory whose manifest lacks its outputs."""
    shutil.copytree(src, dst)
    manifest = read_json(dst / "manifest.json")
    del manifest["outputs"]
    (dst / "manifest.json").write_text(json.dumps(manifest))
    return dst


class TestManifestWithoutOutputs:
    def test_evaluate_exits_1(self, pipeline, tmp_path, capsys):
        pred = without_manifest_outputs(pipeline["pred"], tmp_path / "pred")
        out = tmp_path / "ev"
        assert main(["evaluate", "--predictions", str(pred),
                     "--scenario", str(pipeline["scen"]), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(pred) in err and "'outputs'" in err
        assert not out.exists()

    def test_predict_exits_1(self, pipeline, tmp_path, capsys):
        scen = without_manifest_outputs(pipeline["scen"], tmp_path / "scen")
        out = tmp_path / "p"
        assert main(["predict", "--checkpoint", str(pipeline["model"]),
                     "--scenario", str(scen), "--target", TARGET,
                     "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(scen) in err and "'outputs'" in err
        assert not out.exists()


def rehash_outputs(stage_dir) -> None:
    """Re-record every output's sha256, so only the file check can object."""
    manifest = read_json(stage_dir / "manifest.json")
    manifest["outputs"] = {p.relative_to(stage_dir).as_posix(): sha256_file(p)
                           for p in sorted(stage_dir.rglob("*"))
                           if p.is_file() and p.name != "manifest.json"}
    (stage_dir / "manifest.json").write_text(json.dumps(manifest))


class TestGridFilesRefused:
    """Scenario grids other than 2D float64 .npy exit 1 with one line."""

    def augment(self, scen, tmp_path):
        out = tmp_path / "aug"
        code = main(["augment", "--scenario", str(scen), "--out", str(out)])
        assert not out.exists()
        return code

    def test_csv_scenario_of_first_format(self, pipeline, tmp_path, capsys):
        # the layout the first scenario format wrote: %.17g CSV grids
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        for grid in scen.glob("report_*/*.npy"):
            np.savetxt(grid.with_suffix(".csv"), np.load(grid), fmt="%.17g",
                       delimiter=",")
            grid.unlink()
        doc = read_json(scen / "spec.json")
        doc["format"] = "cyclone-pp-scenario/1"
        (scen / "spec.json").write_text(json.dumps(doc))
        rehash_outputs(scen)
        assert self.augment(scen, tmp_path) == 1
        err = one_error_line(capsys)
        assert "'cyclone-pp-scenario/1'" in err and str(scen) in err

    @pytest.mark.parametrize("bad", ["one_d", "float32", "object", "truncated"])
    @pytest.mark.parametrize("victim", ["member_07.npy", "obs.npy"])
    def test_bad_grid(self, pipeline, tmp_path, capsys, bad_grid_writer, bad, victim):
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        bad_grid_writer(scen / "report_0030" / victim, bad)
        rehash_outputs(scen)
        verify_manifest(scen)
        assert self.augment(scen, tmp_path) == 1
        assert f"report_0030/{victim}" in one_error_line(capsys)
