"""Each script in demos/ runs to completion in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

import pytest

import relesc

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # as tests/test_places.py::_child_dps: the relesc under test comes first
    # on the child's PYTHONPATH, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(relesc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
