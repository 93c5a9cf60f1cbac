"""The narrative demos run to completion.  ``05_formation_training`` is left
out: it trains for about ten seconds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_graph_basics", "02_solver", "03_encoder", "04_autodiff",
         "06_flocking"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
