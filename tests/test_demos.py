"""Each Python demo runs to completion against the package as it is.

``demos/06_cli_pipeline.sh`` is left out: it calls the installed
``cyclone-pp`` script, which a source checkout need not have.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclone_pp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-5]*.py"))


def test_every_python_demo_is_collected():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    src = str(Path(cyclone_pp.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
