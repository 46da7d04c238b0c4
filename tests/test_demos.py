"""Smoke test: every demo runs to completion from a clean process, with a
numpy overflow, invalid-value or divide-by-zero warning as an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["dilation_sweep", "embedding_workflow",
                                  "three_formulations", "translation_sweep",
                                  "wavelet_toolbox"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          str(ROOT / "demos" / f"{demo}.py")],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout
