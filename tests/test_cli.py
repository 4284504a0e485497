"""End-to-end and contract tests for the command-line pipeline."""

import json
import os
import shlex
import shutil
import stat
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from cyclone_pp import cli, models, storage, synthgen
from cyclone_pp.cli import TRAINABLE, load_predictions_csv, main
from cyclone_pp.domain import ReportOrigin
from cyclone_pp.models import (
    ModelConfig,
    TrainedModel,
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
from cyclone_pp.synthgen import (
    ScenarioSpec,
    generate_scenario,
    list_report_dirs,
    load_report,
    make_island_domain,
)
from tests.conftest import load_scenario

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
                 "--out", str(ev)]) == 0
    return {"root": root, "scen": scen, "aug": aug, "model": model,
            "pred": pred, "base": base, "eval": ev}


class TestGenerate:
    def test_layout_and_manifest(self, pipeline):
        scen = pipeline["scen"]
        for name in ("spec.json", "domain.txt", "manifest.json"):
            assert (scen / name).is_file()
        assert not (scen / "track.csv").exists()
        assert len(list_report_dirs(scen)) == 15
        manifest = verify_manifest(scen)
        assert manifest["stage"] == "generate"
        assert manifest["config"]["spec"]["seed"] == 3
        # spec.json, domain.txt and three files per report
        assert len(manifest["outputs"]) == 2 + 3 * 15
        assert {"report_0070/meta.json", "report_0070/members.npy",
                "report_0070/obs.npy"} < set(manifest["outputs"])

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

    @pytest.mark.parametrize("flag", ["--rows", "--cols"])
    def test_grid_side_bounded_at_500(self, tmp_path, capsys, flag):
        # 100000 x 100000 ran out of memory in numpy with a traceback
        with pytest.raises(SystemExit) as exc:
            main(["generate", flag, "501", "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "500" in err and flag in err
        assert not (tmp_path / "s").exists()

    def test_absurd_amplitude_refused(self, tmp_path, capsys):
        spec, out = tmp_path / "spec.json", tmp_path / "s"
        spec.write_text(json.dumps({**ScenarioSpec().to_dict(), "amplitude_mm": 1e160}))
        assert main(["generate", "--spec", str(spec), "--rows", "10", "--cols", "8",
                     "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(spec) in err and "'amplitude_mm'" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["member_bias", "terrain_factor",
                                     "member_terrain_factor", "member_noise_mm",
                                     "noise_sigma", "member_bias_spread",
                                     "member_noise_sigma", "track_jitter_deg"])
    def test_absurd_scale_refused(self, tmp_path, capsys, key):
        # each scale multiplies the rain; at 1e300 it overflows float64
        spec, out = tmp_path / "spec.json", tmp_path / "s"
        spec.write_text(json.dumps({**ScenarioSpec().to_dict(), key: 1e300}))
        assert main(["generate", "--spec", str(spec), "--rows", "10", "--cols", "8",
                     "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(spec) in err and f"'{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("track_bias_deg", [1e300, 0.0]), ("track_start", [100.0, 124.5]),
        ("track_end", [25.5, 360.0]), ("n_reports", 1000)])
    def test_out_of_range_track_or_count_refused(self, tmp_path, capsys, key, value):
        spec, out = tmp_path / "spec.json", tmp_path / "s"
        spec.write_text(json.dumps({**ScenarioSpec().to_dict(), key: value}))
        assert main(["generate", "--spec", str(spec), "--rows", "10", "--cols", "8",
                     "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(spec) in err and f"'{key}' must be in" in err
        assert not out.exists()

    @pytest.mark.parametrize("track", ["at its bounds", "as by default"])
    def test_spec_at_every_upper_bound(self, tmp_path, capsys, track):
        # the scales, the spread and the report count at their tops; seed and
        # decay_km have no top, so a large value stands in. The storm then
        # generates and trains, or stops in one line naming its keys.
        top = {**ScenarioSpec().to_dict(), "seed": 2**64, "n_reports": 999,
               "amplitude_mm": 1e4, "decay_km": 1e300, "terrain_factor": 10.0,
               "noise_sigma": 5.0, "member_bias": 10.0, "member_bias_spread": 5.0,
               "member_noise_sigma": 5.0, "member_noise_mm": 1e4,
               "member_terrain_factor": 10.0, "track_bias_deg": [10.0, 10.0],
               "track_jitter_deg": 10.0}
        if track == "at its bounds":
            top.update(track_start=[90.0, 359.99], track_end=[90.0, 359.99])
        spec, scen, model = tmp_path / "spec.json", tmp_path / "s", tmp_path / "m"
        spec.write_text(json.dumps(top))
        code = main(["generate", "--spec", str(spec), "--rows", "10", "--cols", "8",
                     "--out", str(scen)])
        if code == 0:
            code = main(["train", "--scenario", str(scen), "--variant", "cnn-all",
                         "--target", "11", "--epochs", "1", "--out", str(model)])
        lines = capsys.readouterr().err.splitlines()
        errors = [line for line in lines if not line.startswith("warning: ")]
        assert (code, errors) == (0, []) or (code == 1 and len(errors) == 1
                                             and errors[0].startswith("error: ")), lines
        if track == "at its bounds":  # the members' storm leaves the globe
            assert code == 1 and "'track_bias_deg'" in errors[0]
        else:
            assert code == 0 and (model / "model_cnn-all.json").is_file()

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
        victim = next(broken.glob("report_0010/members.npy"))
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
        out = tmp_path / "m"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--scenario", str(pipeline["scen"]),
                  "--target", TARGET, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "required: --variant" in err
        assert not out.exists()

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
        assert manifest["config"] == {"variant": "cnn-all", "target": 6,
                                      "epochs": 2, "seed": 0}

    def train_on_scaled_rain(self, tmp_path, capsys, scale, grids="*") -> list[str]:
        """train's stderr lines on a 10x8 scenario whose grids are scaled
        on disk (generate refuses such rain)."""
        scen, out = tmp_path / "scen", tmp_path / "m"
        assert main(["generate", "--rows", "10", "--cols", "8", "--out", str(scen)]) == 0
        for grid in scen.glob(f"report_*/{grids}.npy"):
            np.save(grid, np.load(grid) * scale)
        rehash_outputs(scen)
        capsys.readouterr()
        assert main(["train", "--scenario", str(scen), "--variant", "cnn",
                     "--target", TARGET, "--epochs", "2", "--out", str(out)]) == 1
        assert not out.exists()
        return capsys.readouterr().err.splitlines()

    def test_diverged_training_is_one_error_line(self, tmp_path, capsys):
        # the fit's own gradient check reports it, naming the checkpoint
        # key, with no numpy float warning before it
        assert self.train_on_scaled_rain(tmp_path, capsys, 1e98) == [
            "error: non-finite gradient in parameter 'conv_kernels'"]

    def test_overflowing_rain_is_divergence(self, tmp_path, capsys):
        # the target's std overflows, so the first sigma is infinite
        assert self.train_on_scaled_rain(tmp_path, capsys, 1e158, "obs") == [
            "error: non-finite mu or sigma at epoch 0 for cnn"]
        # member fields as large overflow the standardizer first
        assert self.train_on_scaled_rain(tmp_path / "all", capsys, 1e158) == [
            "error: cnn training features overflow float64"]

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

    @pytest.mark.parametrize("variant", TRAINABLE)
    def test_one_checkpoint_per_variant(self, pipeline, tmp_path, variant):
        # one train call writes its variant's checkpoint and nothing more
        out = tmp_path / variant
        assert main(["train", "--scenario", str(pipeline["scen"]),
                     "--variant", variant.upper(), "--target", TARGET,
                     "--epochs", "1", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", f"model_{variant}.json"]
        assert verify_manifest(out)["config"]["variant"] == variant


#: runs the CLI once per argv in the JSON list it is given, in one
#: process; prints the peak RSS above the RSS right after import, in MB.
#: The process's own VmHWM, not ru_maxrss: on Linux ru_maxrss carries the
#: parent's peak across fork and exec.
PEAK_ABOVE_IMPORT = """
import json
import sys
from cyclone_pp import cli

def status_mb(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key)) / 1024

after_import = status_mb("VmRSS:")
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(1)
print(status_mb("VmHWM:") - after_import)
"""


def peak_above_import(*argvs) -> float:
    """MB of peak RSS above imports of one process that runs the CLI stages."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, "-c", PEAK_ABOVE_IMPORT,
         json.dumps([[str(arg) for arg in argv] for argv in argvs])],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return float(run.stdout.split()[-1])


#: Peak RSS above imports at 84x70, seed 1. On one 2-vCPU machine these
#: read 31, 7 and 32 MB; stages that loaded every original they read
#: before the first was used read 41, 19 and 41 MB, and fail each bound.
#: tracemalloc cannot see memory the allocator keeps, so each stage runs
#: in a process of its own.
needs_proc_status = pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                                       reason="reads the process's peak RSS from /proc")
FULL_GRID_TRAIN = ["train", "--variant", "cnn-all", "--target", "11", "--epochs", "2"]


@needs_proc_status
def test_cli_import_peak_memory_above_numpy():
    # scipy.special on the import path costs about 22 MB; the CLI's own
    # modules add about 7
    script = textwrap.dedent("""
        import numpy

        def peak_mb():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh
                            if line.startswith("VmHWM:")) / 1024

        before = peak_mb()
        import cyclone_pp.cli
        print(peak_mb() - before)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout.split()[-1]) <= 15


@pytest.fixture(scope="module")
def full_grid_scen(tmp_path_factory):
    scen = tmp_path_factory.mktemp("full_grid") / "scen"
    assert main(["generate", "--seed", "1", "--out", str(scen)]) == 0
    return scen


@needs_proc_status
def test_full_grid_fit_peak_memory(full_grid_scen, tmp_path):
    # a cnn-all fit at target 11: the float32 land patch rows (23 MB),
    # three block-sized hidden buffers, and the 38 reports of the augmented
    # set built from two originals at a time (1 MB each) and dropped one at
    # a time; loading the 10 originals first added about 10 MB
    assert peak_above_import([*FULL_GRID_TRAIN, "--scenario", full_grid_scen,
                              "--out", tmp_path / "model"]) <= 36


@needs_proc_status
def test_full_grid_augment_peak_memory(full_grid_scen, tmp_path):
    # two originals and one derived report at a time; loading the 15
    # originals first added about 12 MB
    assert peak_above_import(["augment", "--scenario", full_grid_scen,
                              "--out", tmp_path / "aug"]) <= 11


@needs_proc_status
def test_full_grid_augment_then_train_peak_memory(full_grid_scen, tmp_path):
    # the benchmark's body: augment leaves glibc's mmap threshold raised,
    # so memory the fit frees stays in the heap
    assert peak_above_import(
        ["augment", "--scenario", full_grid_scen, "--out", tmp_path / "aug"],
        [*FULL_GRID_TRAIN, "--scenario", full_grid_scen, "--out", tmp_path / "model"]) <= 36


def test_checkpoint_bytes_do_not_depend_on_blas_threads(full_grid_scen, tmp_path):
    # at 84x70 OpenBLAS splits the kernel-gradient products over its
    # threads, which changes their summation order; the fit pins one
    checkpoints = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / f"threads-{threads}"
        run = subprocess.run(
            [sys.executable, "-m", "cyclone_pp.cli", *FULL_GRID_TRAIN[:-1], "5",
             "--scenario", str(full_grid_scen), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        checkpoints.append((out / "model_cnn-all.json").read_bytes())
    assert checkpoints[0] == checkpoints[1]


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

    def test_full_grid_checkpoint_equals_train_model(self, tmp_path):
        # at 84x70 a rounded domain.txt moved altitudes by up to 5e-7 m,
        # so a saved scenario trained cnn-dyn differently from memory
        scen, model = tmp_path / "scen", tmp_path / "model"
        assert main(["generate", "--seed", "1", "--out", str(scen)]) == 0
        assert main(["train", "--scenario", str(scen), "--variant", "cnn-dyn",
                     "--target", "6", "--epochs", "1", "--out", str(model)]) == 0
        got = TrainedModel.load(model / "model_cnn-dyn.json")
        domain = make_island_domain(84, 70)
        scenario = generate_scenario(ScenarioSpec(seed=1), domain)
        want = train_model(ModelConfig.for_variant("cnn-dyn", epochs=1),
                           scenario.originals(), domain, 6)
        for a, b in zip(got.net.parameters(), want.net.parameters()):
            assert a.value.tobytes() == b.value.tobytes(), a.name
        assert got.norm.mean.tobytes() == want.norm.mean.tobytes()
        assert got.norm.std.tobytes() == want.norm.std.tobytes()
        assert (got.target_mean, got.target_std) == (want.target_mean, want.target_std)

    def test_augment_seed_does_not_reach_train(self, pipeline, tmp_path):
        # train augments with its own --seed, whatever augment used
        aug5 = tmp_path / "aug5"
        assert main(["augment", "--scenario", str(pipeline["scen"]),
                     "--seed", "5", "--out", str(aug5)]) == 0
        for variant in TRAINABLE:
            checkpoints = []
            for scen in (pipeline["scen"], aug5):
                out = tmp_path / f"{variant}_{scen.name}"
                assert main(["train", "--scenario", str(scen), "--variant", variant,
                             "--target", TARGET, "--epochs", "2", "--seed", "0",
                             "--out", str(out)]) == 0
                checkpoints.append((out / f"model_{variant}.json").read_bytes())
            assert checkpoints[0] == checkpoints[1], variant

    def test_augment_output_is_the_training_set_of_every_fold(self, pipeline, tmp_path):
        # augment and train share one noise scale, so at one --seed the
        # augment output up to k - 1 is the cnn-aug training set for target k
        aug = tmp_path / "aug4"
        assert main(["augment", "--scenario", str(pipeline["scen"]),
                     "--seed", "4", "--out", str(aug)]) == 0
        written = [(r.index, r.origin, r.members.tobytes(), r.observation.tobytes())
                   for r in load_scenario(aug).reports]
        source = synthgen.OriginalReports(pipeline["scen"], (14, 12))
        config = ModelConfig.for_variant("cnn-aug", seed=4)
        for k in range(6, 12):
            built = [(r.index, r.origin, r.members.tobytes(), r.observation.tobytes())
                     for r in models._training_set(config, source, k)]
            assert built == [w for w in written if w[0] <= k - 1], k


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

    def test_third_format_checkpoint_rejected(self, pipeline, tmp_path, capsys):
        # format 3 stored the variant's flags and a learning rate in its config
        def to_third(doc):
            doc["format"] = "cyclone-pp-net/3"
            doc["meta"]["config"].update(use_geo_dyn=True, use_augmentation=True,
                                         lr=0.001)
        ckpt = self.edited_checkpoint(pipeline, tmp_path, to_third)
        out = tmp_path / "p"
        assert self.predict(pipeline, out, 6, checkpoint=ckpt) == 1
        err = one_error_line(capsys)
        assert "cyclone-pp-net/3" in err and "retrain it" in err and str(ckpt) in err
        assert not out.exists()

    def fourth_format(self, pipeline, tmp_path):
        # format 4 stored the noise scale in its config
        def to_fourth(doc):
            doc["format"] = "cyclone-pp-net/4"
            doc["meta"]["config"]["noise_scale"] = 0.05
        return self.edited_checkpoint(pipeline, tmp_path, to_fourth)

    def test_fourth_format_checkpoint_rejected(self, pipeline, tmp_path, capsys):
        ckpt = self.fourth_format(pipeline, tmp_path)
        out = tmp_path / "p"
        assert self.predict(pipeline, out, 6, checkpoint=ckpt) == 1
        err = one_error_line(capsys)
        assert "cyclone-pp-net/4" in err and "retrain it" in err and str(ckpt) in err
        assert not out.exists()

    def test_fourth_format_refused_by_load(self, pipeline, tmp_path):
        ckpt = self.fourth_format(pipeline, tmp_path)
        with pytest.raises(ValueError, match="'cyclone-pp-net/4'.*retrain it"):
            TrainedModel.load(ckpt)

    @pytest.mark.parametrize("key", ["norm_std", "config", "grid_shape", "target"])
    def test_checkpoint_without_meta_key_rejected(self, pipeline, tmp_path, capsys,
                                                  key):
        ckpt = self.edited_checkpoint(pipeline, tmp_path,
                                      lambda doc: doc["meta"].pop(key))
        out = tmp_path / "p"
        assert self.predict(pipeline, out, 6, checkpoint=ckpt) == 1
        assert repr(key) in one_error_line(capsys)
        assert not out.exists()

    # a bool, a float or a string was coerced: a target of true let a
    # model trained for target 6 predict target 3, and a norm std of true
    # read 1.0; null is refused alike
    @pytest.mark.parametrize("key,value", [("norm_std", "wide"), ("norm_mean", [0.0]),
                                           ("grid_shape", 14), ("target_std", None),
                                           ("config", {"variant": "cnn-all"}),
                                           ("target", True), ("target", 6.7),
                                           ("target", "6"), ("target", None),
                                           ("grid_shape", [14.9, 12]),
                                           ("grid_shape", [14, True]),
                                           ("target_mean", "3.5"),
                                           ("target_std", True),
                                           ("norm_mean", ["1"] * 25),
                                           ("norm_std", [True] * 25)])
    def test_checkpoint_with_mistyped_meta_rejected(self, pipeline, tmp_path, capsys,
                                                    key, value):
        ckpt = self.edited_checkpoint(pipeline, tmp_path,
                                      lambda doc: doc["meta"].update({key: value}))
        out = tmp_path / "p"
        assert self.predict(pipeline, out, 6, checkpoint=ckpt) == 1
        err = one_error_line(capsys)
        assert str(ckpt) in err
        # norm arrays of unequal length are refused as a pair, the config by
        # its own keys
        assert repr(key) in err or value in ([0.0], {"variant": "cnn-all"})
        assert not out.exists()

    @pytest.mark.parametrize("edit,key", [
        (lambda c: c.pop("epochs"), "'epochs'"),
        (lambda c: c.pop("variant"), "'variant'"),
        (lambda c: c.update(lr=0.001), "'lr'"),
        (lambda c: c.update(use_geo_dyn=True), "'use_geo_dyn'"),
        (lambda c: c.update(seed="0"), "'seed'"),
        (lambda c: c.update(epochs=2.0), "'epochs'"),
        (lambda c: c.update(variant=7), "'variant'"),
        (lambda c: c.update(noise_scale=None), "'noise_scale'"),  # a format-4 key
        (lambda c: c.update(seed=None), "'seed'"),
        (lambda c: c.update(seed=-1), "seed"),
    ], ids=["no-epochs", "no-variant", "lr", "flag", "str-seed", "float-epochs",
            "int-variant", "null-noise", "null-seed", "negative-seed"])
    def test_checkpoint_config_names_file_and_key(self, pipeline, tmp_path, capsys,
                                                  edit, key):
        ckpt = self.edited_checkpoint(pipeline, tmp_path,
                                      lambda doc: edit(doc["meta"]["config"]))
        out = tmp_path / "p"
        assert self.predict(pipeline, out, 6, checkpoint=ckpt) == 1
        err = one_error_line(capsys)
        assert str(ckpt) in err and key in err
        assert not out.exists()


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
                (rdir / "members.npy").write_bytes(b"ruined\n")
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
        # evaluate hashes its target's report, whose observation is ruined
        assert main(["evaluate", "--predictions", str(pipeline["pred"]),
                     "--scenario", str(tampered), "--out", str(tmp_path / "ev")]) == 1
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

    @pytest.fixture
    def two_targets(self, pipeline, tmp_path):
        # members predictions for targets 6 and 7 of the pipeline's scenario
        pred7 = tmp_path / "base7"
        assert main(["predict", "--variant", "members", "--scenario", str(pipeline["scen"]),
                     "--target", "7", "--out", str(pred7)]) == 0
        return pipeline["base"], pred7

    def test_every_prediction_scored_in_target_order(self, pipeline, tmp_path, two_targets):
        # the order of --predictions does not reach a byte of the output
        outs = []
        for order in (two_targets, two_targets[::-1]):
            out = tmp_path / f"ev{len(outs)}"
            assert main(["evaluate", "--predictions", *map(str, order),
                         "--scenario", str(pipeline["scen"]), "--out", str(out)]) == 0
            assert verify_manifest(out)["config"] == {"variant": "members", "targets": [6, 7]}
            outs.append(fingerprint(out))
        assert outs[0] == outs[1]

    def test_each_target_scored_as_alone(self, pipeline, tmp_path, two_targets):
        # a second prediction adds its own map and rows, and changes none of
        # the first target's
        alone, both = tmp_path / "alone", tmp_path / "both"
        assert main(["evaluate", "--predictions", str(two_targets[0]),
                     "--scenario", str(pipeline["scen"]), "--out", str(alone)]) == 0
        assert main(["evaluate", "--predictions", *map(str, two_targets),
                     "--scenario", str(pipeline["scen"]), "--out", str(both)]) == 0
        name = "exceedance_map_6.csv"
        assert (alone / name).read_bytes() == (both / name).read_bytes()
        assert (both / "exceedance_map_7.csv").is_file()
        rows = (both / "skill_table.csv").read_text().splitlines()
        alone_rows = (alone / "skill_table.csv").read_text().splitlines()
        assert rows[:len(alone_rows)] == alone_rows
        assert len(rows) == 2 * len(alone_rows) - 1

    def test_mixed_variants_rejected(self, pipeline, tmp_path, capsys):
        assert main(["evaluate", "--predictions", str(pipeline["pred"]),
                     str(pipeline["base"]),
                     "--scenario", str(pipeline["scen"]),
                     "--out", str(tmp_path / "ev")]) == 1
        assert "mix variants" in capsys.readouterr().err

    @pytest.mark.parametrize("line,edit", [
        (1, lambda cells: ["99", *cells[1:]]),
        (1, lambda cells: ["-1", *cells[1:]]),
        (2, lambda cells: ["0", "0", *cells[2:]]),
        (1, lambda cells: [*cells[:3], "nan"]),
        (1, lambda cells: [*cells[:3], "0"]),
    ], ids=["row-99", "row-minus-1", "repeated-cell", "nan-sigma", "zero-sigma"])
    def test_predictions_csv_filling_no_grid_refused(self, pipeline, tmp_path, capsys,
                                                     line, edit):
        # row 99 ended in an IndexError traceback; GaussianField refused the
        # others as non-finite, or a zero sigma, naming no file
        pred = tmp_path / "pred"
        shutil.copytree(pipeline["pred"], pred)
        lines = (pred / "predictions.csv").read_text().splitlines()
        lines[line] = ",".join(edit(lines[line].split(",")))
        (pred / "predictions.csv").write_text("\n".join(lines) + "\n")
        rehash_outputs(pred)
        out = tmp_path / "ev"
        assert main(["evaluate", "--predictions", str(pred),
                     "--scenario", str(pipeline["scen"]), "--out", str(out)]) == 1
        assert str(pred / "predictions.csv") in one_error_line(capsys)
        assert not out.exists()

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

    @pytest.mark.parametrize("key,value", [("target", True), ("target", 6.0),
                                           ("target", "6"), ("variant", True)])
    def test_manifest_config_mistyped_exits_1(self, pipeline, tmp_path, capsys,
                                              key, value):
        # a target of true passed an isinstance(int) check: evaluate scored
        # report 1 and wrote exceedance_map_True.csv
        pred = tmp_path / "pred"
        shutil.copytree(pipeline["base"], pred)
        manifest = read_json(pred / "manifest.json")
        manifest["config"][key] = value
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


def earlier_format(src, dst, version: int):
    """A copy of a generated scenario in the layout an earlier format wrote.

    Both earlier formats kept a track.csv of the centers rounded to
    %.6f and one file per member; the first wrote %.17g CSV grids
    (member_01.csv .. member_20.csv, obs.csv), the second .npy grids.
    """
    shutil.copytree(src, dst)
    track = ["index,lat,lon"]
    for index, _noise, rdir in list_report_dirs(dst):
        meta = read_json(rdir / "meta.json")
        track.append(f"{index:g},{meta['tc_lat']:.6f},{meta['tc_lon']:.6f}")
        grids = [(f"member_{m + 1:02d}", field)
                 for m, field in enumerate(np.load(rdir / "members.npy"))]
        grids.append(("obs", np.load(rdir / "obs.npy")))
        for grid in rdir.glob("*.npy"):
            grid.unlink()
        for name, field in grids:
            if version == 1:
                np.savetxt(rdir / f"{name}.csv", field, fmt="%.17g", delimiter=",")
            else:
                np.save(rdir / f"{name}.npy", field)
    (dst / "track.csv").write_text("\n".join(track) + "\n")
    doc = read_json(dst / "spec.json")
    doc["format"] = f"cyclone-pp-scenario/{version}"
    (dst / "spec.json").write_text(json.dumps(doc))
    rehash_outputs(dst)
    return dst


class TestGridFilesRefused:
    """Scenario grids other than 2D or 3D float64 .npy exit 1 with one line."""

    def augment(self, scen, tmp_path):
        out = tmp_path / "aug"
        code = main(["augment", "--scenario", str(scen), "--out", str(out)])
        assert not out.exists()
        return code

    def test_csv_scenario_of_first_format(self, pipeline, tmp_path, capsys):
        scen = earlier_format(pipeline["scen"], tmp_path / "scen", 1)
        assert (scen / "report_0030" / "member_20.csv").is_file()
        assert not list(scen.glob("report_*/*.npy"))
        assert self.augment(scen, tmp_path) == 1
        err = one_error_line(capsys)
        assert "'cyclone-pp-scenario/1'" in err and str(scen) in err

    @pytest.mark.parametrize("stage", ["augment", "train", "predict"])
    def test_scenario_of_second_format(self, pipeline, tmp_path, capsys, stage):
        scen = earlier_format(pipeline["scen"], tmp_path / "scen", 2)
        assert (scen / "report_0030" / "member_20.npy").is_file()
        out = tmp_path / "out"
        argv = {"augment": ["augment"],
                "train": ["train", "--variant", "cnn", "--target", TARGET,
                          "--epochs", "1"],
                "predict": ["predict", "--checkpoint", str(pipeline["model"]),
                            "--target", TARGET]}[stage]
        assert main(argv + ["--scenario", str(scen), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert "'cyclone-pp-scenario/2'" in err and str(scen) in err
        assert "'cyclone-pp-scenario/4'; generate it again" in err
        assert not out.exists()

    def test_scenario_of_third_format(self, pipeline, tmp_path, capsys):
        # /3 repeated each report's index and origin in its meta.json
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        for index, noise, rdir in list_report_dirs(scen):
            meta = read_json(rdir / "meta.json")
            meta.update(index=index, origin="noise" if noise else "original",
                        valid_time=None)
            (rdir / "meta.json").write_text(json.dumps(meta))
        doc = read_json(scen / "spec.json")
        doc["format"] = "cyclone-pp-scenario/3"
        (scen / "spec.json").write_text(json.dumps(doc))
        rehash_outputs(scen)
        out = tmp_path / "m"
        assert main(["train", "--scenario", str(scen), "--variant", "cnn",
                     "--target", TARGET, "--epochs", "1", "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert "'cyclone-pp-scenario/3'" in err and "'cyclone-pp-scenario/4'" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["one_d", "float32", "object", "truncated"])
    @pytest.mark.parametrize("victim", ["members.npy", "obs.npy"])
    def test_bad_grid(self, pipeline, tmp_path, capsys, bad_grid_writer, bad, victim):
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        bad_grid_writer(scen / "report_0030" / victim, bad)
        rehash_outputs(scen)
        verify_manifest(scen)
        assert self.augment(scen, tmp_path) == 1
        assert f"report_0030/{victim}" in one_error_line(capsys)


    @pytest.mark.parametrize("stage", ["augment", "train"])
    @pytest.mark.parametrize("victim", ["members.npy", "obs.npy"])
    def test_grid_of_another_domain(self, pipeline, tmp_path, capsys, stage, victim):
        # the 14x12 scenario's report 3 on a 10x8 grid: members (20, 10, 8)
        # with a matching (10, 8) observation, or the observation alone
        scen, out = tmp_path / "scen", tmp_path / "out"
        shutil.copytree(pipeline["scen"], scen)
        rdir = scen / "report_0030"
        for name in ["members.npy", "obs.npy"][["members.npy", "obs.npy"].index(victim):]:
            np.save(rdir / name, np.ascontiguousarray(np.load(rdir / name)[..., :10, :8]))
        rehash_outputs(scen)
        argv = {"augment": ["augment"],
                "train": ["train", "--variant", "cnn", "--target", TARGET,
                          "--epochs", "1"]}[stage]
        assert main(argv + ["--scenario", str(scen), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert f"report_0030/{victim}" in err and "10, 8)" in err and "14, 12)" in err
        assert not out.exists()


REPORT_FILES = ["meta.json", "members.npy"]


def report_files(index, with_observation=True):
    names = REPORT_FILES + ["obs.npy"] * with_observation
    return {f"report_{10 * index:04d}/{name}" for name in names}


#: the recorder the audit hook below feeds while a test watches a stage;
#: an audit hook cannot be removed, so it stays installed and idle
_OPENS = []


def _audit(event, args):
    if _OPENS and event == "open" and isinstance(args[0], (str, os.PathLike)):
        _OPENS[-1](os.path.abspath(os.fspath(args[0])))


sys.addaudithook(_audit)


def opened_and_hashed(monkeypatch, argv, root):
    """Run one stage; the files below root it parses and those it hashes.

    Paths are relative to root. A file opened only by the hash check
    counts as hashed, not parsed; manifests are read, never hashed.
    """
    parsed, hashed, hashing = set(), set(), []
    real = storage.sha256_file

    def spy(path):
        hashed.add(os.path.abspath(path))
        hashing.append(path)
        try:
            return real(path)
        finally:
            hashing.pop()

    def record(path):
        if not hashing and Path(path).name != "manifest.json":
            parsed.add(path)

    for home in (storage, cli):
        monkeypatch.setattr(home, "sha256_file", spy, raising=False)
    _OPENS.append(record)
    try:
        assert main([str(a) for a in argv]) == 0
    finally:
        _OPENS.pop()

    def below(paths):
        return {Path(p).relative_to(root).as_posix() for p in paths
                if Path(p).is_relative_to(root)}
    return below(parsed), below(hashed)


class TestStageFiles:
    """Each stage hashes exactly the files it opens, and no others."""

    def test_train_reads_originals_before_target(self, pipeline, tmp_path,
                                                  monkeypatch):
        # on an augment output: originals 1..5 only, no derived report
        # (train_model drops them; 5.5 blends report 6) and nothing after
        aug = pipeline["aug"]
        parsed, hashed = opened_and_hashed(monkeypatch, [
            "train", "--scenario", aug, "--variant", "cnn-all", "--target", TARGET,
            "--epochs", "1", "--out", tmp_path / "m"], aug)
        want = {"spec.json", "domain.txt"}.union(*(report_files(k) for k in range(1, 6)))
        assert hashed == parsed == want

    def test_predict_reads_target_forecast_only(self, pipeline, tmp_path,
                                                monkeypatch):
        root = pipeline["root"]
        parsed, hashed = opened_and_hashed(monkeypatch, [
            "predict", "--checkpoint", pipeline["model"], "--scenario", pipeline["aug"],
            "--target", TARGET, "--out", tmp_path / "p"], root)
        # the track from the metadata of originals 1..6, no grid before
        # the target and nothing after it
        want = {"model/model_cnn-all.json", "aug/spec.json", "aug/domain.txt",
                "aug/report_0060/members.npy"} | {
            f"aug/report_{10 * k:04d}/meta.json" for k in range(1, 7)}
        assert hashed == parsed == want

    def test_members_predict_reads_no_track(self, pipeline, tmp_path, monkeypatch):
        scen = pipeline["scen"]
        parsed, hashed = opened_and_hashed(monkeypatch, [
            "predict", "--variant", "members", "--scenario", scen,
            "--target", TARGET, "--out", tmp_path / "p"], scen)
        assert hashed == parsed == {"spec.json", "domain.txt"} | report_files(6, False)

    def test_augment_reads_originals(self, pipeline, tmp_path, monkeypatch):
        aug = pipeline["aug"]
        parsed, hashed = opened_and_hashed(monkeypatch, [
            "augment", "--scenario", aug, "--out", tmp_path / "a"], aug)
        want = {"spec.json", "domain.txt"}.union(*(report_files(k) for k in range(1, 16)))
        assert hashed == parsed == want

    def test_evaluate_reads_its_targets(self, pipeline, tmp_path, monkeypatch):
        root = pipeline["root"]
        parsed, hashed = opened_and_hashed(monkeypatch, [
            "evaluate", "--predictions", pipeline["pred"], "--scenario", pipeline["scen"],
            "--out", tmp_path / "e"], root)
        want = {"pred/predictions.csv", "scen/spec.json", "scen/domain.txt"} | {
            f"scen/{f}" for f in report_files(6)}
        assert hashed == parsed == want

    def test_generate_hashes_its_spec(self, pipeline, tmp_path, monkeypatch):
        scen = pipeline["scen"]
        parsed, hashed = opened_and_hashed(monkeypatch, [
            "generate", "--spec", scen / "spec.json", *GRID, "--out", tmp_path / "g"],
            scen)
        assert hashed == parsed == {"spec.json"}


def flip_byte(path, offset=-8):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


class TestEarlierReportFlipped:
    """A byte flipped in report 3 is train's business, not predict's."""

    @pytest.fixture()
    def flipped(self, pipeline, tmp_path):
        scen = tmp_path / "flipped"
        shutil.copytree(pipeline["scen"], scen)
        flip_byte(scen / "report_0030" / "members.npy")
        return scen

    def test_train_fails(self, flipped, tmp_path, capsys):
        out = tmp_path / "m"
        assert main(["train", "--scenario", str(flipped), "--variant", "cnn",
                     "--target", TARGET, "--epochs", "1", "--out", str(out)]) == 1
        assert "report_0030/members.npy" in one_error_line(capsys)
        assert not out.exists()

    def test_predict_succeeds_unchanged(self, pipeline, flipped, tmp_path):
        pred = tmp_path / "p"
        assert main(["predict", "--checkpoint", str(pipeline["model"]),
                     "--scenario", str(flipped), "--target", TARGET,
                     "--out", str(pred)]) == 0
        assert ((pred / "predictions.csv").read_bytes()
                == (pipeline["pred"] / "predictions.csv").read_bytes())


def originals_read(monkeypatch, argv) -> tuple[int, list[str], int]:
    """Run one stage; its exit code, the report directories it loads in
    call order, and the most loaded reports alive at any one time."""
    names, refs, alive = [], [], [0]
    real = synthgen.load_report

    def spy(rdir, *args, **kwargs):
        report = real(rdir, *args, **kwargs)
        names.append(Path(rdir).name)
        refs.append(weakref.ref(report))
        alive[0] = max(alive[0], sum(ref() is not None for ref in refs))
        return report

    with monkeypatch.context() as patch:
        for home in (synthgen, cli):
            patch.setattr(home, "load_report", spy, raising=False)
        code = main([str(a) for a in argv])
    return code, names, alive[0]


def original_dirs(last: int) -> list[str]:
    return [f"report_{10 * k:04d}" for k in range(1, last + 1)]


class TestReportsStreamed:
    """train and augment read each original once, as they reach it, and
    hold at most two: a report pair to interpolate."""

    @pytest.mark.parametrize("variant", ["cnn", "cnn-all"])
    def test_train(self, pipeline, tmp_path, monkeypatch, variant):
        code, names, alive = originals_read(monkeypatch, [
            "train", "--scenario", pipeline["scen"], "--variant", variant,
            "--target", "11", "--epochs", "1", "--out", tmp_path / "m"])
        assert code == 0
        assert names == original_dirs(10) and alive <= 2

    def test_augment(self, pipeline, tmp_path, monkeypatch):
        code, names, alive = originals_read(monkeypatch, [
            "augment", "--scenario", pipeline["scen"], "--out", tmp_path / "a"])
        assert code == 0
        assert names == original_dirs(15) and alive <= 2


class TestLastOriginalFlipped:
    """A byte flipped in the last original before the target fails the
    stream after it has read the earlier ones: one error line, no output."""

    @pytest.fixture()
    def flipped(self, pipeline, tmp_path):
        scen = tmp_path / "flipped"
        shutil.copytree(pipeline["scen"], scen)
        flip_byte(scen / "report_0050" / "members.npy")
        return scen

    @pytest.mark.parametrize("stage", [
        ["train", "--variant", "cnn", "--target", TARGET, "--epochs", "1"],
        ["train", "--variant", "cnn-all", "--target", TARGET, "--epochs", "1"],
        ["augment"],
    ], ids=["train-cnn", "train-cnn-all", "augment"])
    def test_one_error_line_and_no_output(self, flipped, tmp_path, capsys,
                                          monkeypatch, stage):
        code, names, _alive = originals_read(monkeypatch, [
            *stage, "--scenario", flipped, "--out", tmp_path / "out"])
        assert code == 1
        assert "report_0050/members.npy" in one_error_line(capsys)
        assert names == original_dirs(4)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["flipped"]


class TestRefusedBeforeReading:
    """A fold that cannot run is refused before any report file is hashed
    or parsed: one error line, no output."""

    @pytest.fixture(scope="class")
    def model_8(self, pipeline, tmp_path_factory):
        out = tmp_path_factory.mktemp("model_8") / "m"
        assert main(["train", "--scenario", str(pipeline["scen"]), "--variant", "cnn",
                     "--target", "8", "--epochs", "1", "--out", str(out)]) == 0
        return out

    @staticmethod
    def report_reads(monkeypatch) -> dict:
        """Counts of load_report calls and of report files hashed."""
        reads = {"load_report": 0, "sha256_file": 0}
        load, hash_file = synthgen.load_report, storage.sha256_file

        def loading(rdir, *args, **kwargs):
            reads["load_report"] += 1
            return load(rdir, *args, **kwargs)

        def hashing(path):
            reads["sha256_file"] += Path(path).parent.name.startswith("report_")
            return hash_file(path)

        monkeypatch.setattr(synthgen, "load_report", loading)
        for home in (storage, cli):
            monkeypatch.setattr(home, "sha256_file", hashing, raising=False)
        return reads

    def test_predict_before_the_checkpoint_target(self, pipeline, model_8, tmp_path,
                                                  capsys, monkeypatch):
        reads, out = self.report_reads(monkeypatch), tmp_path / "p"
        assert main(["predict", "--checkpoint", str(model_8), "--scenario",
                     str(pipeline["scen"]), "--target", "7", "--out", str(out)]) == 1
        assert "trained for target 8" in one_error_line(capsys)
        assert reads == {"load_report": 0, "sha256_file": 0} and not out.exists()

    def test_library_predict_before_the_target(self, pipeline, model_8, monkeypatch):
        scen = pipeline["scen"]
        _spec, domain = synthgen.load_scenario_header(scen)
        model = TrainedModel.load(model_8 / "model_cnn.json")
        reads = self.report_reads(monkeypatch)
        with pytest.raises(ValueError, match="^model trained for target 8 saw reports "
                                             "at or after target 7$"):
            model.predict(synthgen.OriginalReports(scen, domain.shape), domain, 7)
        assert reads == {"load_report": 0, "sha256_file": 0}

    def test_oversized_patch_matrix(self, pipeline, tmp_path, capsys, monkeypatch):
        # cnn-all for target 6 fits 18 reports of 100-wide float32 land rows
        monkeypatch.setattr(models, "MAX_PATCH_BYTES", 1000)
        reads, out = self.report_reads(monkeypatch), tmp_path / "m"
        assert main(["train", "--scenario", str(pipeline["scen"]), "--variant", "cnn-all",
                     "--target", TARGET, "--epochs", "1", "--out", str(out)]) == 1
        size = 18 * int(make_island_domain(14, 12).land_mask.sum()) * 100 * 4
        assert one_error_line(capsys) == (
            f"error: cnn-all for target 6 needs a {size:,}-byte patch matrix, "
            "above the 1,000-byte limit\n")
        assert reads == {"load_report": 0, "sha256_file": 0} and not out.exists()


class TestReportMetaFlipped:
    """predict reads the track from the metadata of originals up to its target."""

    def flipped(self, pipeline, tmp_path, rel):
        scen = tmp_path / "flipped"
        shutil.copytree(pipeline["scen"], scen)
        flip_byte(scen / rel, offset=-4)
        return scen

    def predict(self, pipeline, scen, out):
        return main(["predict", "--checkpoint", str(pipeline["model"]),
                     "--scenario", str(scen), "--target", TARGET, "--out", str(out)])

    def test_earlier_meta_fails_predict(self, pipeline, tmp_path, capsys):
        scen = self.flipped(pipeline, tmp_path, "report_0030/meta.json")
        out = tmp_path / "p"
        assert self.predict(pipeline, scen, out) == 1
        err = one_error_line(capsys)
        assert "hash mismatch" in err and "report_0030/meta.json" in err
        assert not out.exists()

    def test_future_meta_leaves_predict_unchanged(self, pipeline, tmp_path):
        scen = self.flipped(pipeline, tmp_path, "report_0070/meta.json")
        with pytest.raises(ValueError, match="report_0070/meta.json"):
            verify_manifest(scen)
        pred = tmp_path / "p"
        assert self.predict(pipeline, scen, pred) == 0
        assert ((pred / "predictions.csv").read_bytes()
                == (pipeline["pred"] / "predictions.csv").read_bytes())


def fingerprint(stage_dir):
    return manifest_fingerprint(read_json(Path(stage_dir) / "manifest.json"))


def run_stages(p, only=None):
    """generate .. evaluate on a 10x8 grid; p maps a stage to the path typed."""
    stages = {
        "scen": ["generate", "--seed", "7", "--rows", "10", "--cols", "8"],
        "aug": ["augment", "--scenario", p("scen")],
        "model": ["train", "--scenario", p("scen"), "--variant", "cnn-all",
                  "--target", "6", "--epochs", "2"],
        "pred": ["predict", "--checkpoint", p("model"), "--scenario", p("scen"),
                 "--target", "6"],
        "base": ["predict", "--variant", "members", "--scenario", p("scen"),
                 "--target", "6"],
        "eval": ["evaluate", "--predictions", p("pred"), "--scenario", p("scen")],
    }
    for name, argv in stages.items():
        if only is None or name in only:
            assert main(argv + ["--out", p(name)]) == 0, name


class TestFingerprints:
    def test_relative_and_absolute_paths_agree(self, tmp_path, monkeypatch, capsys):
        rel, absolute = tmp_path / "rel", tmp_path / "abs"
        rel.mkdir()
        absolute.mkdir()
        monkeypatch.chdir(rel)
        run_stages(lambda name: name)
        monkeypatch.chdir(tmp_path)
        run_stages(lambda name: str(absolute / name))
        for name in ("scen", "aug", "model", "pred", "base", "eval"):
            assert fingerprint(rel / name) == fingerprint(absolute / name), name
        manifest = read_json(rel / "pred" / "manifest.json")
        assert manifest["input_paths"] == {"checkpoint": "model", "scenario": "scen"}
        assert manifest["inputs"] == {
            "checkpoint": sha256_file(rel / "model" / "model_cnn-all.json"),
            "scenario": fingerprint(rel / "scen")}
        assert set(read_json(rel / "eval" / "manifest.json")["inputs"]) == {
            "predictions/6", "scenario"}

    @pytest.mark.parametrize("upstream", ["scen", "model"])
    def test_upstream_change_reaches_every_downstream_fingerprint(
            self, tmp_path, monkeypatch, capsys, upstream):
        monkeypatch.chdir(tmp_path)
        run_stages(lambda name: name)
        before = {name: fingerprint(name)
                  for name in ("scen", "aug", "model", "pred", "base", "eval")}
        if upstream == "scen":
            flip_byte(tmp_path / "scen" / "report_0030" / "members.npy")
            downstream = ["aug", "model", "pred", "base", "eval"]
        else:
            ckpt = tmp_path / "model" / "model_cnn-all.json"
            doc = read_json(ckpt)
            doc["meta"]["target_mean"] = np.nextafter(doc["meta"]["target_mean"], 1e9)
            ckpt.write_text(json.dumps(doc))
            downstream = ["pred", "eval"]
        rehash_outputs(tmp_path / upstream)
        assert fingerprint(upstream) != before[upstream]
        run_stages(lambda name: f"{name}2" if name in downstream else name,
                   only=downstream)
        for name in downstream:
            assert fingerprint(f"{name}2") != before[name], name


class TestRefusals:
    """Holes that exited 0: one `error:` line and no output now."""

    def evaluate(self, pipeline, out, *preds, scenario=None):
        return main(["evaluate", "--predictions", *map(str, preds),
                     "--scenario", str(scenario or pipeline["scen"]),
                     "--out", str(out)])

    def test_predictions_of_another_scenario(self, pipeline, tmp_path, capsys):
        other, pred = tmp_path / "other", tmp_path / "pred"
        assert main(["generate", "--seed", "4", *GRID, "--out", str(other)]) == 0
        assert main(["predict", "--variant", "members", "--scenario", str(other),
                     "--target", TARGET, "--out", str(pred)]) == 0
        capsys.readouterr()
        out = tmp_path / "ev"
        assert self.evaluate(pipeline, out, pred) == 1
        err = one_error_line(capsys)
        assert str(pred) in err and "another scenario" in err
        assert not out.exists()

    def test_transfer_from_another_scenario_allowed(self, pipeline, tmp_path):
        # a checkpoint trained elsewhere only sees reports before its target
        other, pred = tmp_path / "other", tmp_path / "pred"
        assert main(["generate", "--seed", "4", *GRID, "--out", str(other)]) == 0
        assert main(["predict", "--checkpoint", str(pipeline["model"]),
                     "--scenario", str(other), "--target", TARGET,
                     "--out", str(pred)]) == 0
        assert self.evaluate(pipeline, tmp_path / "ev", pred, scenario=other) == 0

    def test_two_predictions_for_one_target(self, pipeline, tmp_path, capsys):
        again = tmp_path / "pred2"
        shutil.copytree(pipeline["pred"], again)
        out = tmp_path / "ev"
        assert self.evaluate(pipeline, out, pipeline["pred"], again) == 1
        err = one_error_line(capsys)
        assert "'predictions/6'" in err and str(again) in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["equal", "inside", "above"])
    def test_out_overlapping_an_input(self, pipeline, tmp_path, capsys, case):
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        out = {"equal": scen, "inside": scen / "aug", "above": tmp_path}[case]
        before = fingerprint(scen)
        assert main(["predict", "--variant", "members", "--scenario", str(scen),
                     "--target", TARGET, "--out", str(out)]) == 1
        assert "overlaps input" in one_error_line(capsys)
        verify_manifest(scen)
        assert fingerprint(scen) == before
        assert not (scen / "aug").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scen"]

    def test_out_holding_the_checkpoint(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(pipeline["model"], model)
        assert main(["predict", "--checkpoint", str(model / "model_cnn-all.json"),
                     "--scenario", str(pipeline["scen"]), "--target", TARGET,
                     "--out", str(model)]) == 1
        assert "overlaps input" in one_error_line(capsys)
        verify_manifest(model)

    def test_out_typed_another_way(self, pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copytree(pipeline["scen"], tmp_path / "scen")
        assert main(["augment", "--scenario", "scen",
                     "--out", str(tmp_path / "x" / ".." / "scen")]) == 1
        assert "overlaps input" in one_error_line(capsys)

    @pytest.mark.parametrize("stage", ["predict", "evaluate"])
    def test_seed_flag_dropped(self, pipeline, tmp_path, capsys, stage):
        argv = {"predict": ["predict", "--variant", "members", "--target", TARGET],
                "evaluate": ["evaluate", "--predictions", str(pipeline["pred"])]}[stage]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scenario", str(pipeline["scen"]), "--seed", "1",
                         "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRemovedFlags:
    """train fits one variant, evaluate scores every prediction it is
    given, and augment and train share one noise scale: the flags that
    chose otherwise are argparse's usage error."""

    @pytest.mark.parametrize("stage, message", [
        (["train", "--variant", "cnn", "--all-variants", "--target", TARGET,
          "--epochs", "1"], "unrecognized arguments: --all-variants"),
        (["evaluate", "--predictions", "PRED", "--targets", TARGET],
         "unrecognized arguments: --targets"),
        (["train", "--all-variants", "--target", TARGET, "--epochs", "1"],
         "required: --variant"),
        (["evaluate", "--predictions", "PRED", "--targets", "6..7"],
         "unrecognized arguments: --targets 6..7"),
        (["evaluate", "--predictions", "PRED", "--targets", "6,7"],
         "unrecognized arguments: --targets 6,7"),
        (["augment", "--eta", "0.05"], "unrecognized arguments: --eta 0.05"),
        (["train", "--variant", "cnn-aug", "--target", TARGET, "--eta", "0.2"],
         "unrecognized arguments: --eta 0.2"),
    ], ids=["train", "evaluate", "train-all-variants-alone", "evaluate-range",
            "evaluate-list", "augment-eta", "train-eta"])
    def test_refused_with_exit_2(self, pipeline, tmp_path, capsys, stage, message):
        out = tmp_path / "o"
        argv = [str(pipeline["pred"]) if a == "PRED" else a for a in stage]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scenario", str(pipeline["scen"]), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("module", ["concurrent.futures", "logging"])
    def test_cli_import_leaves_out(self, module):
        # the thread pool and its logging went with --all-variants
        script = ("import sys\n"
                  "import cyclone_pp.cli\n"
                  f"print({module!r} in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"


class TestMalformedLoaderInput:
    """A loader input lacking a key: one line naming the file and the key."""

    def edited(self, pipeline, tmp_path, rel, key):
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        doc = read_json(scen / rel)
        del doc[key]
        (scen / rel).write_text(json.dumps(doc))
        rehash_outputs(scen)
        return scen

    def test_spec_without_spec(self, pipeline, tmp_path, capsys):
        scen = self.edited(pipeline, tmp_path, "spec.json", "spec")
        out = tmp_path / "aug"
        assert main(["augment", "--scenario", str(scen), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(scen / "spec.json") in err and "'spec'" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc, key", [
        ({"seed": 1}, "'track_start'"),
        ([1, 2], "not a JSON object"),
        ({"spec": [1]}, "not a JSON object"),
        ({"spec": {"seed": 1}}, "'track_start'"),
    ])
    def test_generate_spec_not_a_full_spec(self, tmp_path, capsys, doc, key):
        spec, out = tmp_path / "spec.json", tmp_path / "g"
        spec.write_text(json.dumps(doc))
        assert main(["generate", "--spec", str(spec), "--seed", "2", *GRID,
                     "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(spec) in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [[1], "spec", None])
    def test_spec_json_not_an_object(self, pipeline, tmp_path, capsys, doc):
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        (scen / "spec.json").write_text(json.dumps(doc))
        rehash_outputs(scen)
        out = tmp_path / "aug"
        assert main(["augment", "--scenario", str(scen), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(scen / "spec.json") in err and "not a JSON object" in err
        assert not out.exists()

    def test_spec_json_with_a_partial_spec(self, pipeline, tmp_path, capsys):
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        doc = read_json(scen / "spec.json")
        del doc["spec"]["decay_km"]
        (scen / "spec.json").write_text(json.dumps(doc))
        rehash_outputs(scen)
        out = tmp_path / "aug"
        assert main(["augment", "--scenario", str(scen), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(scen / "spec.json") in err and "'decay_km'" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["tc_lat", "tc_lon"])
    def test_report_meta_without_a_center_key(self, pipeline, tmp_path, capsys, key):
        scen = self.edited(pipeline, tmp_path, "report_0030/meta.json", key)
        out = tmp_path / "m"
        assert main(["train", "--scenario", str(scen), "--variant", "cnn",
                     "--target", TARGET, "--epochs", "1", "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(scen / "report_0030" / "meta.json") in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("index", 4.0), ("index", 3.0), ("index", 12.0), ("origin", "original"),
        ("origin", "noise"), ("valid_time", None)])
    def test_report_meta_repeating_the_name_refused(self, pipeline, tmp_path, capsys,
                                                    key, value):
        # report_0030 is index 3, an original: a meta.json that says so
        # again, or says otherwise, is refused rather than trusted
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        meta = scen / "report_0030" / "meta.json"
        meta.write_text(json.dumps({**read_json(meta), key: value}))
        rehash_outputs(scen)
        out = tmp_path / "m"
        assert main(["train", "--scenario", str(scen), "--variant", "cnn",
                     "--target", TARGET, "--epochs", "1", "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(meta) in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("valid_time", 5), ("valid_time", "Thursday"), ("tc_lat", "north"),
        ("tc_lon", None), ("index", True), ("index", [3]), ("origin", 0),
        ("origin", "forecast")])
    def test_report_meta_of_another_type(self, pipeline, tmp_path, capsys, key, value):
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        meta = scen / "report_0030" / "meta.json"
        meta.write_text(json.dumps({**read_json(meta), key: value}))
        rehash_outputs(scen)
        out = tmp_path / "m"
        assert main(["train", "--scenario", str(scen), "--variant", "cnn",
                     "--target", TARGET, "--epochs", "1", "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(meta) in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("tc_lon", 1000.0), ("tc_lon", 360.0), ("tc_lat", 90.5)])
    @pytest.mark.parametrize("stage", [
        ["train", "--variant", "cnn", "--target", TARGET, "--epochs", "1"],
        ["train", "--variant", "cnn-all", "--target", TARGET, "--epochs", "1"],
        ["predict", "--checkpoint", "MODEL", "--target", TARGET],
        ["predict", "--variant", "members", "--target", "3"],
    ], ids=["train-cnn", "train-cnn-all", "predict-track", "predict-members"])
    def test_impossible_storm_center_refused_when_read(self, pipeline, tmp_path,
                                                       capsys, stage, key, value):
        # report_0030 is a training report, a point of the track of target
        # 6 and the members baseline's own report at target 3
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        meta = scen / "report_0030" / "meta.json"
        meta.write_text(json.dumps({**read_json(meta), key: value}))
        rehash_outputs(scen)
        out = tmp_path / "o"
        argv = [str(pipeline["model"]) if a == "MODEL" else a for a in stage]
        assert main(argv + ["--scenario", str(scen), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(meta) in err and repr(key) in err
        assert not out.exists()


class TestSeedMustBeNonNegative:
    """--seed is an integer >= 0, refused by argparse otherwise."""

    @pytest.mark.parametrize("seed", ["-1", "-3", "1.5", "x"])
    @pytest.mark.parametrize("stage", [
        ["generate", *GRID],
        ["augment", "--scenario", "SCEN"],
        ["train", "--scenario", "SCEN", "--variant", "cnn", "--target", TARGET,
         "--epochs", "1"],
    ], ids=["generate", "augment", "train"])
    def test_refused_with_exit_2(self, pipeline, tmp_path, capsys, stage, seed):
        out = tmp_path / "o"
        argv = [str(pipeline["scen"]) if a == "SCEN" else a for a in stage]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", seed, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--seed" in err
        assert not out.exists()

    def test_negative_spec_seed_names_file_and_key(self, pipeline, tmp_path, capsys):
        spec, out = tmp_path / "spec.json", tmp_path / "g"
        doc = read_json(pipeline["scen"] / "spec.json")
        doc["spec"]["seed"] = -4
        spec.write_text(json.dumps(doc))
        assert main(["generate", "--spec", str(spec), *GRID, "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(spec) in err and "seed" in err
        assert not out.exists()


class TestEpochsMustBeNonNegative:
    @pytest.mark.parametrize("epochs", ["-1", "1.5", "x"])
    def test_refused_with_exit_2(self, pipeline, tmp_path, capsys, epochs):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--scenario", str(pipeline["scen"]), "--variant", "cnn",
                  "--target", TARGET, "--epochs", epochs, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--epochs" in err
        assert not out.exists()


class TestDomainMustBeFinite:
    """A domain.txt whose origin or cell size is not finite exits 1."""

    @pytest.mark.parametrize("field,value", [(2, "nan"), (3, "inf"), (4, "nan")],
                             ids=["lat0", "lon0", "cell"])
    @pytest.mark.parametrize("stage", [
        ["predict", "--variant", "members", "--target", TARGET],
        ["train", "--variant", "cnn", "--target", TARGET, "--epochs", "1"],
    ], ids=["predict-members", "train-cnn"])
    def test_refused_naming_the_file(self, pipeline, tmp_path, capsys, stage,
                                     field, value):
        scen = tmp_path / "scen"
        shutil.copytree(pipeline["scen"], scen)
        lines = (scen / "domain.txt").read_text().splitlines(keepends=True)
        header = lines[0].split()
        header[field] = value
        lines[0] = " ".join(header) + "\n"
        (scen / "domain.txt").write_text("".join(lines))
        rehash_outputs(scen)
        out = tmp_path / "o"
        assert main(stage + ["--scenario", str(scen), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert str(scen / "domain.txt") in err and "finite" in err
        assert not out.exists()


class TestEtaMustBeFinite:
    """No noise scale reaches augment or train from the command line: it is
    the constant NOISE_SCALE, and argparse refuses --eta with exit 2
    whatever its value, a non-finite one included."""

    @pytest.mark.parametrize("eta", ["nan", "inf", "-inf", "-0.1", "x"])
    @pytest.mark.parametrize("stage", [
        ["augment"],
        ["train", "--variant", "cnn", "--target", TARGET, "--epochs", "1"],
        ["train", "--variant", "cnn-all", "--target", TARGET, "--epochs", "1"],
    ], ids=["augment", "train-cnn", "train-cnn-all"])
    def test_refused_with_exit_2(self, pipeline, tmp_path, capsys, stage, eta):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(stage + ["--scenario", str(pipeline["scen"]), "--eta", eta,
                          "--out", str(out)])
        assert exc.value.code == 2
        assert "--eta" in capsys.readouterr().err
        assert not out.exists()


def test_outputs_follow_the_umask(pipeline, tmp_path):
    old = os.umask(0o022)
    try:
        out = tmp_path / "p"
        assert main(["predict", "--variant", "members", "--scenario",
                     str(pipeline["scen"]), "--target", TARGET, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o755
    for name in ("predictions.csv", "manifest.json"):
        assert stat.S_IMODE((out / name).stat().st_mode) == 0o644


ROOT = Path(__file__).resolve().parents[1]
DOCUMENTED = [ROOT / name for name in ("README.md", "demos/06_cli_pipeline.sh")]
STAGES = ("generate", "augment", "train", "predict", "evaluate")


def documented_lines(doc: Path) -> list[str]:
    return [line.strip() for line in doc.read_text().splitlines()
            if line.strip().startswith("cyclone-pp ")]


@pytest.mark.parametrize("doc", DOCUMENTED, ids=[p.name for p in DOCUMENTED])
def test_docs_show_every_stage(doc):
    # the command lines parsed below are there to be parsed
    shown = {shlex.split(line)[1] for line in documented_lines(doc)}
    assert shown == set(STAGES)


@pytest.mark.parametrize("doc, line", [
    (doc, line) for doc in DOCUMENTED for line in documented_lines(doc)
], ids=[f"{doc.name}-{i}" for doc in DOCUMENTED
        for i, _line in enumerate(documented_lines(doc), 1)])
def test_documented_command_lines_parse(doc, line):
    # every `cyclone-pp ...` line of the docs is one the parser accepts,
    # so no doc can name a flag that is gone
    try:
        cli.build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit:
        pytest.fail(f"{doc.name}: {line}")
