"""File plumbing shared by the pipeline stages.

Grids are .npy files (2-D or 3-D float64, no pickles), metadata is JSON
and the tables people read are CSV. Writes go to a temporary path and
rename into place, so a crashed stage leaves no half-written file or
directory, and what is left follows the umask. Each stage directory has
a manifest.json with the stage, config, inputs and a sha256 per output
file; at a fixed BLAS thread count, re-running a stage with the same
inputs and config reproduces its fingerprint bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
import tempfile
import typing
from pathlib import Path

import numpy as np

MANIFEST_NAME = "manifest.json"
ENGINE_VERSION = "0.4.0"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(obj) -> str:
    """Stable digest of a JSON-serializable config."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _umask_mode(mode: int) -> int:
    """mode as open() or mkdir() would leave it under the current umask."""
    umask = os.umask(0)
    os.umask(umask)
    return mode & ~umask


@contextlib.contextmanager
def _atomic_open(path, mode: str = "w"):
    """Yield a temporary file beside path, renamed over it on clean exit."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.chmod(tmp, _umask_mode(0o666))  # mkstemp makes it 0600
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_grid_csv(path, field: np.ndarray) -> None:
    """Write a 2-D or 3-D field as a float64 .npy file, atomically.

    The bytes depend only on the values, so a saved scenario trains
    bit-identically to one in memory. The name stays for the tracer.
    """
    field = np.ascontiguousarray(field, dtype=np.float64)
    if field.ndim not in (2, 3):
        raise ValueError(f"expected a 2D or 3D field, got shape {field.shape}")
    with _atomic_open(path, "wb") as fh:
        np.save(fh, field, allow_pickle=False)


def load_grid_csv(path) -> np.ndarray:
    """Read a 2-D or 3-D float64 grid written by save_grid_csv (name kept for the tracer).

    A pickled, truncated or non-float64 file, or another rank, is a ValueError.
    """
    try:
        field = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path} is not a .npy grid: {exc}") from exc
    if not isinstance(field, np.ndarray) or field.ndim not in (2, 3) or field.dtype != np.float64:
        raise ValueError(f"{path} does not hold a 2D or 3D float64 grid")
    return field


def write_json(path, obj) -> None:
    with _atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_text(path, text: str) -> None:
    """Write a text file atomically (temp file in place, then rename)."""
    with _atomic_open(path) as fh:
        fh.write(text)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def typed(value, kind, where: str):
    """value checked, never coerced, against a type: int, str, float, or a tuple or
    list of these."""
    if typing.get_origin(kind) is list:  # of any length
        if isinstance(value, list):
            return [typed(v, typing.get_args(kind)[0], f"{where} item {i}")
                    for i, v in enumerate(value)]
        raise ValueError(f"{where} must be a list, got {value!r}")
    if typing.get_origin(kind) is tuple:
        kinds = typing.get_args(kind)
        if isinstance(value, (list, tuple)) and len(value) == len(kinds):
            return tuple(typed(v, k, f"{where} item {i}")
                         for i, (v, k) in enumerate(zip(value, kinds)))
        raise ValueError(f"{where} must be a list of {len(kinds)} values, got {value!r}")
    if kind in (int, str):  # isinstance(True, int) holds, but true is no integer here
        if isinstance(value, kind) and not isinstance(value, bool):
            return value
        raise ValueError(f"{where} must be {'an integer' if kind is int else 'a string'}, "
                         f"got {value!r}")
    if _finite_number(value):
        return value
    raise ValueError(f"{where} must be a finite number, got {value!r}")


def record_from_json(cls, doc, where: str):
    """A dataclass or NamedTuple from a JSON object of every field and no other key.

    Each value must have its field's type. Anything else, and any
    ValueError of the constructor, is a ValueError starting with
    ``where`` (say, a file name and the object's role) and naming the key.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} is not a JSON object")
    kinds = typing.get_type_hints(cls)  # field name -> type, in field order
    unknown = [key for key in doc if key not in kinds]
    if unknown:
        raise ValueError(f"{where} has unknown key {unknown[0]!r}")
    missing = [name for name in kinds if name not in doc]
    if missing:
        raise ValueError(f"{where} has no key {', '.join(map(repr, missing))}")
    kwargs = {name: typed(doc[name], kind, f"{where} key {name!r}")
              for name, kind in kinds.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


@contextlib.contextmanager
def staged_dir(final_path):
    """Build a stage output directory atomically.

    Yields a temporary directory that replaces final_path on clean exit.
    A previous version is moved aside and deleted only once the new one is
    in, so no failure loses both; on error the old final_path stays.
    """
    final_path = Path(final_path)
    final_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=final_path.parent,
                                prefix=f".{final_path.name}-staging-"))
    aside = tmp.with_name(tmp.name + "-previous")
    try:
        yield tmp
        os.chmod(tmp, _umask_mode(0o777))  # mkdtemp makes it 0700
        if final_path.exists():
            os.replace(final_path, aside)
        os.replace(tmp, final_path)
    except BaseException:
        if aside.exists():
            os.replace(aside, final_path)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(aside, ignore_errors=True)


def write_manifest(out_dir, stage: str, config, inputs: dict[str, str],
                   wall_time_s: float, input_paths=None) -> dict:
    """Record a stage's inputs by role and the sha256 of each file in out_dir."""
    out_dir = Path(out_dir)
    outputs = {p.relative_to(out_dir).as_posix(): sha256_file(p)
               for p in sorted(out_dir.rglob("*")) if p.is_file() and p.name != MANIFEST_NAME}
    manifest = {"stage": stage, "engine_version": ENGINE_VERSION, "config": config,
                "inputs": inputs, "input_paths": input_paths or {}, "outputs": outputs,
                "wall_time_s": wall_time_s}
    write_json(out_dir / MANIFEST_NAME, manifest)
    return manifest


def manifest_fingerprint(manifest: dict) -> str:
    """Digest of a manifest without its volatile wall time and input paths."""
    return config_hash({k: v for k, v in manifest.items()
                        if k not in ("wall_time_s", "input_paths")})


def verify_manifest(stage_dir, files=None) -> dict:
    """Check recorded output hashes; returns the manifest.

    ``files`` lists the relative paths to hash: those a stage opens, so
    it hashes nothing it may not read; None hashes every output. A listed
    file the manifest does not record, or a manifest without its
    ``outputs`` object, is a ValueError.
    """
    stage_dir = Path(stage_dir)
    manifest = read_json(stage_dir / MANIFEST_NAME)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("outputs"), dict):
        raise ValueError(f"manifest of {stage_dir} has no 'outputs' dict")
    for rel in manifest["outputs"] if files is None else files:
        want = manifest["outputs"].get(rel)
        if want is None:
            raise ValueError(f"manifest of {stage_dir} does not list {rel!r}")
        path = stage_dir / rel
        if not path.is_file():
            raise FileNotFoundError(f"manifest lists missing file {rel!r} in {stage_dir}")
        got = sha256_file(path)
        if got != want:
            raise ValueError(f"hash mismatch for {rel!r} in {stage_dir}: "
                             f"recorded {want[:12]}, found {got[:12]}")
    return manifest
