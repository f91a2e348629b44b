"""The quick demos run to completion as standalone scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# 04_synthetic_forecast.py is left out: it trains a model for minutes.
@pytest.mark.parametrize("script", ["01_decay_memory.py", "02_attention_hierarchy.py",
                                    "03_gradient_verification.py"])
def test_demo_exits_cleanly(script):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
