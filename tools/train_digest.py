"""Print one SHA-256 per part of the pipeline, so two checkouts can be
compared part by part.

Two checkouts whose digests for a part agree compute that part bit for bit
alike on these inputs:

- ``encode``: ``encode`` at n = 20, 50, 100 and 200 (d=2000, formation
  params, ER graphs with p=0.2).
- ``solve``: ``identify_graph``'s weights, iteration count, converged flag
  and objective on those graphs, once on the encoder's distances and
  regularizers and once on raw distances with the default config.
- ``formation``: losses and parameters after 15 formation steps on the
  benchmark's desk graph (n=20, ER seed 12, d=2000).
- ``flocking``: the same after 640 flocking steps on criterion 8's
  simulation, past the window refresh at step 500.
- ``formation-params`` and ``flocking-params``: the parameters alone, so
  a change that moves only the last bits of the losses can show that
  training itself is unchanged.
- ``sweep``: the summary and detail rows and the kept matrices of a small
  ``formation_sweep`` (n = 10, 20, 30, two repetitions, d=2000), once with
  formation params and once with the fixed (0.2, 1e-4) baseline, and the
  rows of a small ``flocking_sweep`` (n=6, 1.2 s), once with flocking params
  and once with the baseline.

    python tools/train_digest.py                   # this checkout
    python tools/train_digest.py --src OTHER/src   # another checkout

BLAS thread counts change the last bits of a matmul, and with them the
digests (``encode`` at n=200 differs between one thread and two).  So the
script sets ``OPENBLAS_NUM_THREADS=1`` before numpy is imported, whatever
the caller's environment holds, as ``bench/run.py`` does for the training
workloads, and prints that count first.  It takes about ten seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

PARTS = ("encode", "solve", "formation", "flocking", "formation-params",
         "flocking-params", "sweep")


def digests() -> dict:
    # Imported here, once ``main`` has put ``--src`` first on the path.
    import numpy as np

    from graphident import evaluate, training
    from graphident.datagen import (FlockingSpec, SampleRecord,
                                    generate_flocking_windows,
                                    sample_er_graph, sample_smooth_signals)
    from graphident.encoder import (encode, flocking_params,
                                    formation_params, params_to_arrays)
    from graphident.graphcore import distance_matrix, half_vectorize
    from graphident.solver import SolverConfig, identify_graph

    hashers = {part: hashlib.sha256() for part in PARTS}

    def add(part, *arrays):
        for a in arrays:
            hashers[part].update(
                np.ascontiguousarray(a, dtype=np.float64).tobytes())

    def add_rows(part, rows):
        # Every cell is a str, an int or a float, whose repr round-trips.
        for row in rows:
            hashers[part].update(repr(list(row.items())).encode())

    params = formation_params(0)
    for n in (20, 50, 100, 200):
        W = sample_er_graph(n, 0.2, n)
        X = sample_smooth_signals(W, 0.1, 2000, n + 1)
        out = encode(X, params)
        add("encode", out.features, out.distances,
            [out.alpha, out.beta, out.theta])
        for y, cfg in ((half_vectorize(out.distances),
                        SolverConfig(alpha=out.alpha, beta=out.beta)),
                       (half_vectorize(distance_matrix(X)), SolverConfig())):
            res = identify_graph(y, n, cfg)
            add("solve", res.w, [res.iters_run, res.converged, res.objective])

    W = sample_er_graph(20, 0.2, 12)
    X = sample_smooth_signals(W, 0.1, 2000, 13)
    runs = (("formation", [SampleRecord(X=X, W=W, meta={"kind": "formation"})],
             formation_params(0),
             training.TrainConfig(resample_windows=False, total_steps=15)),
            ("flocking", generate_flocking_windows(FlockingSpec(n=20, seed=0)),
             flocking_params(0), training.TrainConfig(total_steps=640)))
    for part, records, params0, cfg in runs:
        state, metrics = training.train(records, cfg, params=params0)
        arrays = params_to_arrays(state.params)
        add(part, [row["loss"] for row in metrics], *arrays)
        add(f"{part}-params", *arrays)

    grid = evaluate.FormationGrid(n_values=(10, 20, 30), repetitions=2)
    specs = [FlockingSpec(n=6, duration=1.2)]
    for fit in ({"params": formation_params(0)}, {"fixed": (0.2, 1e-4)}):
        summary, detail, matrices = evaluate.formation_sweep(grid, **fit)
        add_rows("sweep", summary + detail)
        for key, pair in matrices.items():
            add("sweep", key, *pair)
    for fit in ({"params": flocking_params(0)}, {"fixed": (0.2, 1e-4)}):
        summary, detail = evaluate.flocking_sweep(specs, **fit)
        add_rows("sweep", summary + detail)
    return {part: h.hexdigest() for part, h in hashers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="the src/ directory to import graphident from")
    args = parser.parse_args(argv)
    # Read by OpenBLAS when numpy is first imported, in ``digests``.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    print(f"OPENBLAS_NUM_THREADS: {os.environ['OPENBLAS_NUM_THREADS']}")
    sys.path.insert(0, args.src)
    for part, hexdigest in digests().items():
        print(f"{part}: {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
