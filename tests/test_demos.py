"""Each demo runs to completion against the package as it is.

``demos/06_cli_pipeline.sh`` falls back to ``python3 -m cyclone_pp.cli``
when the ``cyclone-pp`` script is not installed; ``python3`` here is the
interpreter running the tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclone_pp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-6]*"))


def test_every_demo_is_collected():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    src = str(Path(cyclone_pp.__file__).resolve().parents[1])
    python3 = tmp_path / "bin" / "python3"
    python3.parent.mkdir()
    python3.symlink_to(sys.executable)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PATH": os.pathsep.join([str(python3.parent), os.environ.get("PATH", "")]),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["bash", str(demo)] if demo.suffix == ".sh" else [sys.executable, str(demo)]
    done = subprocess.run(argv, cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
