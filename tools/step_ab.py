"""Time the training steps of two checkouts in one process, alternating.

    python tools/step_ab.py PARENT_DIR CHANGE_DIR --workload formation|flocking
        [--steps N]

Each checkout's ``src/graphident`` is imported under its own name, so both
run side by side in one interpreter.  Each side steps ``training.train``
one step per call through its resume path, as the benchmark's training
workloads do, after two warm-up steps:

- ``formation``: the desk graph (n=20, ER seed 12, d=2000), formation
  params, windows not resampled;
- ``flocking``: criterion 8's simulation (n=20, seed 0), flocking params.

Step k of the parent and step k of the change run back to back, the parent
first when k is even, so a drift in host speed hits both sides alike.
Prints both sides' median step time and the median of the per-step ratios
change / parent.  Two copies of one tree read about 1.00.  A second line
gives each side's mean presolve iterations per timed step, counted by
wrapping that side's ``training._presolve``, and a third each side's
median minor page faults per timed step, from the ``ru_minflt`` deltas
around that side's steps.  Both sides share one process, its heap and
its worker threads: pages one side frees may serve the other, both call
the one OpenBLAS and its threads, and each side's ``ad.mlp`` worker
thread, where it has one (it runs only when BLAS runs on one thread),
lives on while the other side steps.
``tools/step_faults.py`` counts one checkout's faults and CPU time alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import resource
import statistics
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
WARM_UP = 2


def load_package(name: str, root: Path):
    """``root/src/graphident``, imported as the package ``name``."""
    pkg = root / "src" / "graphident"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"no graphident package under {root / 'src'}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One checkout's inputs and training state, stepped one step a call."""

    def __init__(self, name: str, root: Path, workload: str):
        load_package(name, root)
        self.training = importlib.import_module(f"{name}.training")
        datagen = importlib.import_module(f"{name}.datagen")
        encoder = importlib.import_module(f"{name}.encoder")
        if workload == "formation":
            W = datagen.sample_er_graph(20, 0.2, 12)
            X = datagen.sample_smooth_signals(W, 0.1, 2000, 13)
            self.records = [datagen.SampleRecord(
                X=X, W=W, meta={"kind": "formation"})]
            params = encoder.formation_params(0)
            self.cfg = self.training.TrainConfig(resample_windows=False)
        else:
            self.records = datagen.generate_flocking_windows(
                datagen.FlockingSpec(n=20, seed=0))
            params = encoder.flocking_params(0)
            self.cfg = self.training.TrainConfig()
        self.state = self.training.init_train_state(params)
        self.presolve_iters = 0
        presolve = self.training._presolve

        def counted(rec, op, dual, cfg):
            out = presolve(rec, op, dual, cfg)
            self.presolve_iters += out.iteration - dual.iteration
            return out

        self.training._presolve = counted

    def step(self) -> tuple[float, int]:
        """Wall milliseconds and minor page faults of the next training
        step."""
        cfg = dataclasses.replace(self.cfg, total_steps=self.state.step + 1)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        started = time.perf_counter()
        self.state, _ = self.training.train(self.records, cfg,
                                            state=self.state)
        elapsed = (time.perf_counter() - started) * 1e3
        return (elapsed,
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("formation", "flocking"))
    parser.add_argument("--steps", type=int, default=200,
                        help="timed steps per side after the warm-up "
                             "(default 200)")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    sides = [Side(f"graphident_{s}", root.resolve(), args.workload)
             for s, root in zip(SIDES, (args.parent, args.change))]
    ms, faults = [[], []], [[], []]
    for k in range(WARM_UP + args.steps):
        if k == WARM_UP:
            for side in sides:
                side.presolve_iters = 0
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for i in order:
            elapsed, faulted = sides[i].step()
            if k >= WARM_UP:
                ms[i].append(elapsed)
                faults[i].append(faulted)
    ratio = statistics.median(c / p for p, c in zip(*ms))
    print(f"{args.workload} steps: {args.steps}, "
          f"parent median {statistics.median(ms[0]):.3f} ms, "
          f"change median {statistics.median(ms[1]):.3f} ms, "
          f"paired median ratio {ratio:.3f}")
    print(f"{args.workload} presolve iterations per step: "
          f"parent {sides[0].presolve_iters / args.steps:.1f}, "
          f"change {sides[1].presolve_iters / args.steps:.1f}")
    print(f"{args.workload} minor faults per step: "
          f"parent median {statistics.median(faults[0]):.0f}, "
          f"change median {statistics.median(faults[1]):.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
