"""Print one SHA-256 over the encoder's outputs and a few training steps.

Two checkouts whose digests agree encode and train bit for bit alike on
these inputs: ``encode`` at n=20 and n=200 (d=2000, formation params),
then the losses and parameters after 15 formation steps (on the
benchmark's desk graph: n=20, ER seed 12, d=2000) and 60 flocking steps
(criterion 8's simulation).

    python tools/train_digest.py                   # this checkout
    python tools/train_digest.py --src OTHER/src   # another checkout

BLAS thread counts can change the last bits of a matmul; compare digests
taken under the same ``OPENBLAS_NUM_THREADS``.  It takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path


def digest(hasher) -> None:
    # Imported here, once ``main`` has put ``--src`` first on the path.
    import numpy as np

    from graphident import training
    from graphident.datagen import (FlockingSpec, SampleRecord,
                                    generate_flocking_windows,
                                    sample_er_graph, sample_smooth_signals)
    from graphident.encoder import (encode, flocking_params,
                                    formation_params, params_to_arrays)

    def add(*arrays):
        for a in arrays:
            hasher.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())

    params = formation_params(0)
    for n in (20, 200):
        W = sample_er_graph(n, 0.2, n)
        out = encode(sample_smooth_signals(W, 0.1, 2000, n + 1), params)
        add(out.features, out.distances, [out.alpha, out.beta, out.theta])

    W = sample_er_graph(20, 0.2, 12)
    X = sample_smooth_signals(W, 0.1, 2000, 13)
    runs = (([SampleRecord(X=X, W=W, meta={"kind": "formation"})],
             formation_params(0),
             training.TrainConfig(resample_windows=False, total_steps=15)),
            (generate_flocking_windows(FlockingSpec(n=20, seed=0)),
             flocking_params(0), training.TrainConfig(total_steps=60)))
    for records, params0, cfg in runs:
        state, metrics = training.train(records, cfg, params=params0)
        add([row["loss"] for row in metrics], *params_to_arrays(state.params))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="the src/ directory to import graphident from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    hasher = hashlib.sha256()
    digest(hasher)
    print(hasher.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
