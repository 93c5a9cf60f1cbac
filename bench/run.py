"""Benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The program is imported from ``src/``.
Set-up is timed ``SETUP_REPEATS`` times; one warm-up operation follows;
then whole rounds run until the next one would end after ``--seconds``.
The checks run on the outputs afterwards.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The reported
times are scaled to a calibrated host speed: a fixed pure-Python loop is
timed after every import probe, set-up and operation, and each time is
multiplied by ``CALIBRATION_LOOP_MS`` over the run's median loop time.  Every run
writes its raw operation, set-up and loop times to ``bench/out/``, and a
traced run its spans too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# The training workloads run BLAS on one thread.  A second thread barely
# speeds their steps up, and with two threads one competing busy process on
# a two-vCPU machine doubled the median formation step (68 to 116-129 ms);
# with one thread it stayed at 68-72 ms.  identify-scaling keeps the
# default: a sweep is about 35% faster with it, and its run-to-run spread
# was narrower (bench/README.md).
ONE_BLAS_THREAD = ("train-formation", "train-flocking")

IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import graphident, graphident.dataio; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if not os.path.isdir(os.path.join(SRC, "graphident")):
        print(f"no graphident package under {SRC}", file=sys.stderr)
        return 2
    if args.workload in ONE_BLAS_THREAD:
        # Read by OpenBLAS when numpy is first imported, just below.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    from graphident.errors import GraphIdentError
    from workloads import (CALIBRATION_LOOP_MS, SETUP_REPEATS, WORKLOADS,
                           median)
    from spans import Tracer

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = WORKLOADS[args.workload](args.seed, tracer, workdir)
        imports = []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            workload.calibrate()
        workload.setup()
    setup_s = median(i + s / 1e3 for i, s in zip(imports,
                                                  workload.setup_ms()))
    workload.warm_up()

    if args.trace:
        workload.instrument()
    outputs, failed = [], 0
    started = time.perf_counter()
    while True:
        try:
            outputs.append(workload.run_round())
        except GraphIdentError as exc:
            print(f"round failed: {exc}", file=sys.stderr)
            failed += 1
        elapsed = time.perf_counter() - started
        rounds = len(outputs) + failed
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    tracer.unwrap_all()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Times are reported at the calibrated host speed (workloads.py).
    scale = CALIBRATION_LOOP_MS / median(workload.loop_ms)

    problems, checked, info = workload.check(outputs) if outputs else \
        (["no round completed"], {}, {})
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"info: {args.workload} seed {args.seed}: {info}")

    op_ms = [ms for out in outputs for ms in out.op_ms]
    per_round = len(outputs[0].op_ms) if outputs else 1
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"op_ms": op_ms, "setup_ms": workload.setup_ms(),
                   "import_s": imports, "loop_ms": workload.loop_ms}, fh)
        fh.write("\n")
    if args.trace:
        values = workload.setup_layer_metrics()
        values.update(workload.layer_metrics())
        values.update(checked)
        values["trace.op_ms"] = median(op_ms) * scale
        values["calibration.loop_ms"] = median(workload.loop_ms)
        names = spec["per_layer"]
        tracer.dump(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
        if tracer.missing:
            print(f"not traced, no longer in the program: {tracer.missing}",
                  file=sys.stderr)
    else:
        values = {
            "setup_s": setup_s * scale,
            "ops_per_s": 1e3 * len(op_ms) / max(sum(op_ms) * scale, 1e-9),
            "op_ms.p50": median(op_ms) * scale,
            "peak_rss_mib": peak_rss_mib,
        }
        names = spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in names}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    result = {
        "correct": not problems,
        "attempted": (len(outputs) + failed) * per_round,
        "failed": failed * per_round,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
