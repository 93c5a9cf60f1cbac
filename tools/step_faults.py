"""Time desk training steps and count their minor page faults.

Steps ``training.train`` one step per call through its resume path, as the
benchmark's training workloads do, after two warm-up steps, on one of the
inputs of ``tools/step_ab.py``:

- ``formation`` (the default): the desk graph (n=20, ER seed 12, d=2000),
  formation params, windows not resampled;
- ``flocking``: criterion 8's simulation (n=20, seed 0), flocking params.

Prints the median wall time, the median CPU time and the median number of
minor page faults (``ru_minflt``) per step:

    python tools/step_faults.py                   # this checkout
    python tools/step_faults.py --src OTHER/src   # another checkout
    python tools/step_faults.py --workload flocking --steps 40

The CPU time is the step's ``ru_utime + ru_stime`` of ``RUSAGE_SELF``,
which sums every thread of the process, so a step that keeps a second
core busy reads more CPU time than wall time.  A fault is a freshly
mapped page, so the count shows how much memory a step takes from the
kernel anew instead of reusing.  BLAS threads fault their own buffers;
``OPENBLAS_NUM_THREADS=1`` gives the steadier count.
"""

from __future__ import annotations

import argparse
import dataclasses
import resource
import statistics
import sys
import time
from pathlib import Path

WARM_UP = 2


def measure(workload: str,
            steps: int) -> tuple[list[float], list[float], list[int]]:
    """Wall milliseconds, CPU milliseconds and minor faults of each of
    ``steps`` steps."""
    # Imported here, once ``main`` has put ``--src`` first on the path.
    from graphident import training
    from graphident.datagen import (FlockingSpec, SampleRecord,
                                    generate_flocking_windows,
                                    sample_er_graph, sample_smooth_signals)
    from graphident.encoder import flocking_params, formation_params

    if workload == "formation":
        W = sample_er_graph(20, 0.2, 12)
        X = sample_smooth_signals(W, 0.1, 2000, 13)
        records = [SampleRecord(X=X, W=W, meta={"kind": "formation"})]
        cfg = training.TrainConfig(resample_windows=False)
        params = formation_params(0)
    else:
        records = generate_flocking_windows(FlockingSpec(n=20, seed=0))
        cfg = training.TrainConfig()
        params = flocking_params(0)
    state = training.init_train_state(params)
    ms, cpu_ms, faults = [], [], []
    for k in range(WARM_UP + steps):
        step_cfg = dataclasses.replace(cfg, total_steps=k + 1)
        before = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        state, _ = training.train(records, step_cfg, state=state)
        elapsed = (time.perf_counter() - started) * 1e3
        after = resource.getrusage(resource.RUSAGE_SELF)
        if k >= WARM_UP:
            ms.append(elapsed)
            cpu_ms.append((after.ru_utime + after.ru_stime - before.ru_utime
                           - before.ru_stime) * 1e3)
            faults.append(after.ru_minflt - before.ru_minflt)
    return ms, cpu_ms, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="the src/ directory to import graphident from")
    parser.add_argument("--workload", default="formation",
                        choices=("formation", "flocking"))
    parser.add_argument("--steps", type=int, default=30,
                        help="timed steps after the warm-up (default 30)")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    sys.path.insert(0, args.src)
    ms, cpu_ms, faults = measure(args.workload, args.steps)
    print(f"{args.workload} steps: {args.steps}, "
          f"median {statistics.median(ms):.2f} ms wall, "
          f"median {statistics.median(cpu_ms):.2f} ms CPU, "
          f"median {statistics.median(faults):.0f} minor faults per step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
