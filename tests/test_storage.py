import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from cyclone_pp import storage
from cyclone_pp.storage import (
    config_hash,
    load_grid_csv,
    manifest_fingerprint,
    save_grid_csv,
    sha256_file,
    staged_dir,
    verify_manifest,
    write_json,
    write_manifest,
)


class TestGridCsv:
    def test_round_trip_is_exact(self, tmp_path):
        field = np.random.default_rng(0).gamma(2.0, 50.0, size=(7, 5))
        path = tmp_path / "field.npy"
        save_grid_csv(path, field)
        back = load_grid_csv(path)
        assert back.dtype == np.float64
        assert back.tobytes() == field.tobytes()

    def test_single_row_keeps_2d(self, tmp_path):
        path = tmp_path / "row.npy"
        save_grid_csv(path, np.array([[1.0, 2.0, 3.0]]))
        assert load_grid_csv(path).shape == (1, 3)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError, match="2D"):
            save_grid_csv(tmp_path / "x.npy", np.zeros(4))

    def test_member_stack_round_trips_exactly(self, tmp_path):
        stack = np.random.default_rng(3).gamma(2.0, 50.0, size=(20, 7, 5))
        save_grid_csv(tmp_path / "members.npy", stack)
        back = load_grid_csv(tmp_path / "members.npy")
        assert back.shape == (20, 7, 5) and back.dtype == np.float64
        assert back.tobytes() == stack.tobytes()

    def test_rank_four_refused_both_ways(self, tmp_path):
        with pytest.raises(ValueError, match="3D"):
            save_grid_csv(tmp_path / "x.npy", np.zeros((2, 2, 2, 2)))
        np.save(tmp_path / "x.npy", np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError, match="x.npy"):
            load_grid_csv(tmp_path / "x.npy")

    def test_no_temp_residue(self, tmp_path):
        save_grid_csv(tmp_path / "a.npy", np.zeros((2, 2)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npy"]

    def test_deterministic_bytes(self, tmp_path):
        field = np.random.default_rng(1).normal(size=(4, 4))
        save_grid_csv(tmp_path / "a.npy", field)
        save_grid_csv(tmp_path / "b.npy", field)
        assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()
        assert (tmp_path / "a.npy").read_bytes()[:6] == b"\x93NUMPY"

    def test_bytes_ignore_memory_layout_and_dtype(self, tmp_path):
        # a Fortran-ordered or float32 field must not change the file
        field = np.random.default_rng(2).normal(size=(5, 3)).astype(np.float32)
        save_grid_csv(tmp_path / "c.npy", field.astype(np.float64))
        save_grid_csv(tmp_path / "f.npy", np.asfortranarray(field))
        save_grid_csv(tmp_path / "s.npy", field)
        want = (tmp_path / "c.npy").read_bytes()
        assert (tmp_path / "f.npy").read_bytes() == want
        assert (tmp_path / "s.npy").read_bytes() == want

    @pytest.mark.parametrize("bad", ["one_d", "float32", "object", "truncated",
                                     "empty", "csv_text"])
    def test_load_refuses_other_files(self, tmp_path, bad_grid_writer, bad):
        path = tmp_path / "grid.npy"
        bad_grid_writer(path, bad)
        with pytest.raises(ValueError, match="grid.npy") as exc:
            load_grid_csv(path)
        assert "\n" not in str(exc.value)


class TestConfigHash:
    def test_key_order_irrelevant(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})

    def test_value_change_changes_hash(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestStagedDir:
    def test_success_moves_into_place(self, tmp_path):
        final = tmp_path / "out"
        with staged_dir(final) as work:
            (work / "x.txt").write_text("hi")
            assert not final.exists()
        assert (final / "x.txt").read_text() == "hi"
        assert not list(tmp_path.glob(".out-staging-*"))

    def test_failure_leaves_nothing(self, tmp_path):
        final = tmp_path / "out"
        with pytest.raises(RuntimeError):
            with staged_dir(final) as work:
                (work / "x.txt").write_text("partial")
                raise RuntimeError("boom")
        assert not final.exists()
        assert not list(tmp_path.glob(".out-staging-*"))

    def test_replaces_previous_version(self, tmp_path):
        final = tmp_path / "out"
        final.mkdir()
        (final / "old.txt").write_text("old")
        with staged_dir(final) as work:
            (work / "new.txt").write_text("new")
        assert not (final / "old.txt").exists()
        assert (final / "new.txt").read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_failed_swap_keeps_previous_version(self, tmp_path, monkeypatch):
        # the new output cannot be moved in: the old one must survive
        final = tmp_path / "out"
        final.mkdir()
        (final / "old.txt").write_text("old")
        real_replace = os.replace

        def failing_replace(src, dst):
            if ".out-staging-" in str(src) and Path(dst) == final:
                monkeypatch.setattr(storage.os, "replace", real_replace)
                raise OSError("disk gone")
            real_replace(src, dst)

        monkeypatch.setattr(storage.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk gone"):
            with staged_dir(final) as work:
                (work / "new.txt").write_text("new")
        assert (final / "old.txt").read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_failure_keeps_previous_version(self, tmp_path):
        final = tmp_path / "out"
        final.mkdir()
        (final / "old.txt").write_text("old")
        with pytest.raises(RuntimeError):
            with staged_dir(final) as work:
                (work / "new.txt").write_text("new")
                raise RuntimeError("boom")
        assert (final / "old.txt").read_text() == "old"


def test_outputs_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        with staged_dir(tmp_path / "out") as work:
            write_json(work / "a.json", {})
            save_grid_csv(work / "b.npy", np.zeros((2, 2)))
    finally:
        os.umask(old)
    out = tmp_path / "out"
    assert stat.S_IMODE(out.stat().st_mode) == 0o755
    for name in ("a.json", "b.npy"):
        assert stat.S_IMODE((out / name).stat().st_mode) == 0o644


class TestManifest:
    def _stage(self, out, payload="data"):
        out.mkdir(exist_ok=True)
        (out / "a.csv").write_text(payload)
        sub = out / "sub"
        sub.mkdir(exist_ok=True)
        (sub / "b.json").write_text("{}")
        return write_manifest(out, "generate", {"seed": 1},
                              inputs={}, wall_time_s=0.5)

    def test_records_all_files(self, tmp_path):
        manifest = self._stage(tmp_path / "out")
        assert sorted(manifest["outputs"]) == ["a.csv", "sub/b.json"]
        assert manifest["outputs"]["a.csv"] == sha256_file(tmp_path / "out" / "a.csv")

    def test_manifest_excludes_itself(self, tmp_path):
        self._stage(tmp_path / "out")
        second = write_manifest(tmp_path / "out", "generate", {"seed": 1},
                                inputs={}, wall_time_s=0.7)
        assert "manifest.json" not in second["outputs"]

    def test_verify_passes_on_intact_dir(self, tmp_path):
        self._stage(tmp_path / "out")
        verify_manifest(tmp_path / "out")

    def test_verify_catches_corruption(self, tmp_path):
        self._stage(tmp_path / "out")
        (tmp_path / "out" / "a.csv").write_text("tampered")
        with pytest.raises(ValueError, match="hash mismatch"):
            verify_manifest(tmp_path / "out")

    def test_verify_catches_deletion(self, tmp_path):
        self._stage(tmp_path / "out")
        (tmp_path / "out" / "a.csv").unlink()
        with pytest.raises(FileNotFoundError):
            verify_manifest(tmp_path / "out")

    def test_records_no_derived_field(self, tmp_path):
        # the config's hash and a top-level seed repeated what config holds
        manifest = self._stage(tmp_path / "out")
        assert sorted(manifest) == ["config", "engine_version", "input_paths", "inputs",
                                    "outputs", "stage", "wall_time_s"]

    @pytest.mark.parametrize("key", ["outputs"])
    def test_verify_names_a_missing_key(self, tmp_path, key):
        manifest = self._stage(tmp_path / "out")
        del manifest[key]
        write_json(tmp_path / "out" / "manifest.json", manifest)
        with pytest.raises(ValueError, match=f"{tmp_path / 'out'}.*'{key}'"):
            verify_manifest(tmp_path / "out")

    def test_verify_listed_files_only(self, tmp_path):
        self._stage(tmp_path / "out")
        (tmp_path / "out" / "a.csv").write_text("tampered")
        verify_manifest(tmp_path / "out", files=["sub/b.json"])
        with pytest.raises(ValueError, match="hash mismatch"):
            verify_manifest(tmp_path / "out", files=["a.csv"])

    def test_verify_refuses_an_unlisted_file(self, tmp_path):
        self._stage(tmp_path / "out")
        (tmp_path / "out" / "c.csv").write_text("not in the manifest")
        with pytest.raises(ValueError, match="does not list 'c.csv'"):
            verify_manifest(tmp_path / "out", files=["a.csv", "c.csv"])

    def test_fingerprint_ignores_wall_time(self, tmp_path):
        m1 = self._stage(tmp_path / "o1")
        m2 = self._stage(tmp_path / "o2")
        m2 = dict(m2, wall_time_s=99.0)
        assert manifest_fingerprint(m1) == manifest_fingerprint(m2)

    def test_fingerprint_ignores_input_paths(self, tmp_path):
        m1 = self._stage(tmp_path / "o1")
        m2 = dict(m1, input_paths={"scenario": "/elsewhere"})
        assert manifest_fingerprint(m1) == manifest_fingerprint(m2)

    def test_fingerprint_sees_output_change(self, tmp_path):
        m1 = self._stage(tmp_path / "o1")
        m2 = self._stage(tmp_path / "o2", payload="different")
        assert manifest_fingerprint(m1) != manifest_fingerprint(m2)


class TestWriteJson:
    def test_round_trip_and_stable_bytes(self, tmp_path):
        obj = {"z": 1, "a": [1, 2, {"k": "v"}]}
        write_json(tmp_path / "a.json", obj)
        write_json(tmp_path / "b.json", obj)
        assert json.loads((tmp_path / "a.json").read_text()) == obj
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
