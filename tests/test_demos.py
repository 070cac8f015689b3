"""Smoke test: the quick demos run to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 04 and 05 train full model stacks and take several seconds each; they stay out
QUICK_DEMOS = ["01_gradient_checking.py", "02_vae_training.py", "03_latent_transfer.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
