"""The narrative demos still run against the package.

Each demo runs in a subprocess from the checkout (PYTHONPATH=src) in a
scratch working directory. Demo 04 trains two models for about 16 s and
is left out; the acceptance suite's efficacy criterion runs the same
training at a larger scale.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_exits_and_costs.py",
    "02_weight_perturbation.py",
    "03_budget_allocation.py",
    "05_long_tail.py",
])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert list(tmp_path.iterdir()) == []
