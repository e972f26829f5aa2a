"""Every demo script runs to completion from an empty working directory."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
