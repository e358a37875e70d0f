"""Every demo script runs to completion against the source tree."""

import os
import pathlib
import subprocess
import sys

import pytest

import wavefield

SRC = pathlib.Path(wavefield.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would leave the parametrized test below with no cases
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=tmp_path, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
