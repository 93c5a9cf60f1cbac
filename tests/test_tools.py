"""The measuring scripts in ``tools/`` run and print what they promise."""

import json
import os
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
        r"formation steps: 3, median \d+\.\d\d ms wall, "
        r"median \d+\.\d\d ms CPU, "
        r"median \d+ minor faults per step\n", done.stdout), done.stdout


def test_step_faults_runs_the_flocking_workload():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_faults.py"),
         "--workload", "flocking", "--steps", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(
        r"flocking steps: 3, median \d+\.\d\d ms wall, "
        r"median \d+\.\d\d ms CPU, "
        r"median \d+ minor faults per step\n", done.stdout), done.stdout


def test_step_ab_prints_both_medians_and_the_paired_ratio():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_ab.py"), str(ROOT),
         str(ROOT), "--workload", "flocking", "--steps", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(
        r"flocking steps: 3, parent median \d+\.\d{3} ms, "
        r"change median \d+\.\d{3} ms, paired median ratio \d+\.\d{3}\n"
        r"flocking presolve iterations per step: "
        r"parent (\d+\.\d), change \1\n"
        r"flocking minor faults per step: "
        r"parent median \d+, change median \d+\n",
        done.stdout), done.stdout


def test_train_digest_prints_one_digest_per_part():
    # The caller's BLAS thread count does not reach the digests: the script
    # runs BLAS on one thread and says so.
    outputs = []
    for threads in ("2", "1"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "train_digest.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert re.fullmatch(
        r"OPENBLAS_NUM_THREADS: 1\n"
        r"encode: [0-9a-f]{64}\nsolve: [0-9a-f]{64}\n"
        r"formation: [0-9a-f]{64}\nflocking: [0-9a-f]{64}\n"
        r"formation-params: [0-9a-f]{64}\nflocking-params: [0-9a-f]{64}\n"
        r"sweep: [0-9a-f]{64}\n",
        outputs[0]), outputs[0]
    assert outputs[0] == outputs[1]


def test_bench_pairs_writes_medians_quartiles_and_wins(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
         str(ROOT), str(ROOT), "--workload", "train-formation",
         "--pairs", "1", "--seconds", "0.1", "--first-seed", "7",
         "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    entry = json.loads(out.read_text())["workloads"]["train-formation"]
    assert entry["seeds"] == [7]
    assert entry["src_lines"]["parent"] == entry["src_lines"]["change"] > 0
    assert all(run[side]["correct"] for run in entry["runs"]
               for side in ("parent", "change"))
    assert set(entry["metrics"]) == {"setup_s", "ops_per_s", "op_ms.p50",
                                     "peak_rss_mib"}
    for m in entry["metrics"].values():
        for side in ("parent", "change"):
            s = m[side]
            assert s["q1"] <= s["median"] <= s["q3"]
        assert m["wins"] in (0, 1)
    assert done.stdout.count("\n") == 4, done.stdout


def test_bench_pairs_refuses_checkouts_measured_differently(tmp_path):
    other = tmp_path / "other"
    (other / "bench").mkdir(parents=True)
    (other / "BENCHMARK.json").write_text("{}\n")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
         str(ROOT), str(other), "--workload", "train-formation",
         "--pairs", "1", "--seconds", "0.1",
         "--out", str(tmp_path / "bench.json")],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "BENCHMARK.json" in done.stderr
    assert not (tmp_path / "bench.json").exists()
