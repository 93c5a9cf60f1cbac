"""The measuring scripts in ``tools/`` run and print what they promise."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_step_faults_prints_time_and_faults_per_step():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_faults.py"),
         "--steps", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(
        r"formation steps: 3, median \d+\.\d\d ms, "
        r"median \d+ minor faults per step\n", done.stdout), done.stdout


def test_train_digest_prints_one_digest_per_part():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "train_digest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(
        r"encode: [0-9a-f]{64}\nsolve: [0-9a-f]{64}\n"
        r"formation: [0-9a-f]{64}\nflocking: [0-9a-f]{64}\n",
        done.stdout), done.stdout
