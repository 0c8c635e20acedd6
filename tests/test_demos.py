"""Every demo script runs to completion as a reader would start it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import palm

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(palm.__file__))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr[-2000:]
