"""The three workloads: set-up, measured rounds, checks and layer metrics.

A workload's operation is one training step (``train-formation``,
``train-flocking``) or one sweep that identifies one graph at each n
(``identify-scaling``).  A round is a fixed sequence of operations, set by
the seed; a run does whole rounds.  Every workload reports the same
end-to-end metrics; a per-layer metric of a layer the workload does not
call reads 0.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time

import numpy as np

from graphident import autodiff as ad
from graphident import dataio, evaluate, solver, training
from graphident.datagen import (FlockingSpec, FormationSpec, SampleRecord,
                                generate_flocking_windows, sample_er_graph,
                                sample_smooth_signals)
from graphident.encoder import (arrays_to_params, encode, flocking_params,
                                formation_params, params_to_arrays)
from graphident.graphcore import build_sum_operator

import checks

SETUP_REPEATS = 5

FORMATION = FormationSpec(n=20, p=0.2, sigma=0.1, d=2000, seed=12)
# 100 steps (about 6 s) let a run do several whole rounds of the same work;
# the loss falls from about 167 to 38 over them.
FORMATION_STEPS = 100
FLOCKING = FlockingSpec(n=20, seed=0)
FLOCKING_STEPS = 1500
SIZES = (20, 50, 100, 200)
GRAPHS_PER_SIZE = 6
# The encoder and training seeds of acceptance criteria 5 and 8.  The seed
# argument picks the formation signal window and the identified graphs.
# Formation training from some other encoder seeds diverges within 300
# steps (CHANGES.md).  train-flocking keeps criterion 8's simulation:
# windows simulated from other seeds change the step cost by about 20%.
ENCODER_SEED = 0
TRAIN_SEED = 0
FD_STEP = 1e-6

MIB = 2.0 ** 20

# The host's speed drifts between runs a few minutes apart: a flocking step
# on the same inputs took 11.7 ms in one run and 18.3 ms in another.  A
# fixed pure-Python loop, timed between operations, drifts with it, so the
# reported times are scaled to the host speed at which that loop takes
# CALIBRATION_LOOP_MS (bench/README.md).
CALIBRATION_LOOP_MS = 0.7


def calibration_loop_ms() -> float:
    """Wall time of a fixed pure-Python loop, in ms: a probe of the host's
    current speed that does not depend on the program."""
    start = time.perf_counter()
    total = 0
    for i in range(10000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def sub_seeds(seed: int, tag: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, tag])
    return [int(s) for s in rng.integers(2 ** 62, size=count)]


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


@dataclasses.dataclass
class RoundOutput:
    op_ms: list[float]
    detail: dict


class Workload:
    name = ""

    def __init__(self, seed: int, tracer, workdir: str):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.loop_ms: list[float] = []

    def calibrate(self) -> None:
        """Time the calibration loop once; called between operations and
        between set-ups, never inside a timed span."""
        self.loop_ms.append(calibration_loop_ms())

    def round_trip(self, records, spec: dict, tag: str):
        """Write the records as a dataset and read them back, as the
        ``gen-*`` then ``train`` commands do."""
        path = os.path.join(self.workdir, f"{tag}.gids")
        with self.tracer.span("dataio.write") as span:
            dataio.write_dataset(records, path, spec=spec)
        span.counts["bytes"] = os.path.getsize(path)
        with self.tracer.span("dataio.read"):
            back, _ = dataio.read_dataset(path)
        os.remove(path)
        self.round_trip_problems += [
            f"dataset {tag} record {k} changed in the round trip"
            for k, (a, b) in enumerate(zip(records, back))
            if not (np.array_equal(a.X, b.X) and np.array_equal(a.W, b.W))]
        return back

    def setup(self) -> None:
        """Builds the inputs ``SETUP_REPEATS`` times, each in a ``setup``
        span; the last build is kept."""
        self.round_trip_problems = []
        for _ in range(SETUP_REPEATS):
            with self.tracer.span("setup"):
                self.build_inputs()
            self.calibrate()

    def setup_ms(self) -> list[float]:
        return [s.ms for _, s in self.tracer.named("setup")]

    def setup_layer_metrics(self) -> dict:
        kids = self.tracer.tree()
        per_setup = {"datagen.signals": [], "datagen.flocking_sim": [],
                     "dataio.write": [], "dataio.read": []}
        sizes = []
        for index, _ in self.tracer.named("setup"):
            spans = [self.tracer.spans[k] for k in kids.get(index, [])]
            for name, totals in per_setup.items():
                totals.append(sum(s.ms for s in spans if s.name == name))
            sizes.append(sum(s.counts.get("bytes", 0) for s in spans
                             if s.name == "dataio.write"))
        out = {f"{name}_ms": median(v) for name, v in per_setup.items()}
        out["dataio.dataset_mib"] = median(sizes) / MIB
        return out


# --- training ----------------------------------------------------------------


class TrainWorkload(Workload):
    steps = 0

    def configs(self) -> list[training.TrainConfig]:
        """One config per step: the round steps ``train`` one step at a
        time through its resume path, so each step is timed by the
        benchmark."""
        return [dataclasses.replace(self.cfg, total_steps=k + 1)
                for k in range(self.steps)]

    def warm_up(self) -> None:
        state = training.init_train_state(self.params0)
        for cfg in self.configs()[:2]:
            state, _ = training.train(self.records, cfg, state=state)

    def run_round(self) -> RoundOutput:
        state = training.init_train_state(self.params0)
        losses, windows, op_ms = [], [], []
        for cfg in self.configs():
            with self.tracer.span("op") as span:
                state, rows = training.train(self.records, cfg, state=state)
            op_ms.append(span.ms)
            self.calibrate()
            losses.append(rows[-1]["loss"])
            windows.append(state.sample_id)
        return RoundOutput(op_ms, {"state": state, "losses": losses,
                                   "windows": windows})

    def instrument(self) -> None:
        t = self.tracer
        t.wrap(training, "_presolve", "training.presolve",
               lambda a, k, r: {"iters": r.iteration - a[2].iteration})
        t.wrap(training, "encode", "encoder.encode")
        t.wrap(training, "dual_step", "solver.dual_step")
        t.wrap(training, "unrolled_identify", "training.unrolled_identify")
        t.wrap(training, "encode_on_tape", "encoder.encode_on_tape")
        t.wrap(training, "loss_on_tape", "training.loss_on_tape")
        t.wrap(ad, "backward", "autodiff.backward", _tape_counts)
        t.wrap(training, "adam_update", "training.adam_update",
               lambda a, k, r: {"rejected": int(r.step == a[0].step)})

    def check(self, outputs: list[RoundOutput]):
        """Checks the first round; later rounds repeat it exactly."""
        out = outputs[0]
        state = out.detail["state"]
        windows = out.detail["windows"]
        first = self.records[windows[0]]
        last = self.records[state.sample_id]
        problems = list(self.round_trip_problems)
        direction_seed = sub_seeds(self.seed, 9, 1)[0]
        info = {}
        for label, record, params, dual in (
                ("first step", first, self.params0, None),
                ("last step", last, state.params, state.dual)):
            err = checks.gradient_error(*gradient_pair(
                record.X, record.W, params, dual, self.cfg.unroll_steps,
                direction_seed))
            info[f"gradient error, {label}"] = err
            problems += [f"{label}: {p}"
                         for p in checks.gradient_problems(err)]
        # The loss is compared on the first window only: flocking windows
        # differ in difficulty, so a later window's loss is not comparable.
        leading = next((k for k, w in enumerate(windows) if w != windows[0]),
                       len(windows))
        problems += checks.loss_problems(out.detail["losses"][:leading])
        W_hat, alpha, beta = evaluate.identify_with_encoder(last.X,
                                                            state.params)
        problems += checks.graph_problems(W_hat)
        problems += self.extra_problems(W_hat, last)
        info.update(alpha=alpha, beta=beta)
        return problems, {}, info

    def extra_problems(self, W_hat, record) -> list[str]:
        return []

    def layer_metrics(self) -> dict:
        t = self.tracer
        kids = t.tree()
        ops = [i for i, _ in t.named("op")]
        calls = {name: [] for name in (
            "training.presolve", "encoder.encode", "solver.dual_step",
            "training.unrolled_identify", "encoder.encode_on_tape",
            "training.loss_on_tape", "autodiff.backward",
            "training.adam_update")}
        for index in descendants(kids, ops):
            span = t.spans[index]
            if span.name in calls:
                calls[span.name].append(index)
        presolve_iters = sum(t.spans[i].counts.get("iters", 0)
                             for i in calls["training.presolve"])
        retried = sum(t.spans[i].counts.get("raised", 0)
                      for i in calls["training.presolve"]
                      + calls["training.unrolled_identify"])
        ms = {name: [t.spans[i].ms for i in idx]
              for name, idx in calls.items()}
        backward = [t.spans[i].counts for i in calls["autodiff.backward"]]
        return {
            "encoder.encode_ms": median(ms["encoder.encode"]),
            "encoder.encode_on_tape_ms": median(ms["encoder.encode_on_tape"]),
            "training.presolve_ms": median(
                t.self_ms(i, "encoder.encode", kids)
                for i in calls["training.presolve"]),
            "training.presolve_iters": presolve_iters / max(len(ops), 1),
            "solver.dual_step_us": 1e3 * median(ms["solver.dual_step"]),
            "training.unroll_ms": median(
                t.self_ms(i, "encoder.encode_on_tape", kids)
                for i in calls["training.unrolled_identify"]),
            "autodiff.backward_ms": median(ms["autodiff.backward"]),
            "autodiff.tape_nodes": median(c["nodes"] for c in backward),
            "autodiff.tape_mib": median(c["bytes"] for c in backward) / MIB,
            "training.loss_ms": median(ms["training.loss_on_tape"]),
            "training.adam_ms": median(ms["training.adam_update"]),
            "training.retries": retried,
            "training.rejected_steps": sum(
                t.spans[i].counts.get("rejected", 0)
                for i in calls["training.adam_update"]),
        }


class TrainFormation(TrainWorkload):
    name = "train-formation"
    steps = FORMATION_STEPS

    def build_inputs(self) -> None:
        signal_seed, = sub_seeds(self.seed, 1, 1)
        W = sample_er_graph(FORMATION.n, FORMATION.p, FORMATION.seed)
        with self.tracer.span("datagen.signals"):
            X = sample_smooth_signals(W, FORMATION.sigma, FORMATION.d,
                                      signal_seed)
        spec = FORMATION.to_dict()
        record = SampleRecord(X=X, W=W, meta=dict(spec, window=0))
        self.records = self.round_trip([record], spec, "formation")
        self.params0 = formation_params(ENCODER_SEED)
        self.cfg = training.TrainConfig(resample_windows=False,
                                        seed=TRAIN_SEED)

    def extra_problems(self, W_hat, record) -> list[str]:
        return checks.empty_graph_problems(W_hat, record.W)


class TrainFlocking(TrainWorkload):
    name = "train-flocking"
    steps = FLOCKING_STEPS

    def build_inputs(self) -> None:
        with self.tracer.span("datagen.flocking_sim"):
            records = generate_flocking_windows(FLOCKING)
        self.records = self.round_trip(records, FLOCKING.to_dict(),
                                       "flocking")
        self.params0 = flocking_params(ENCODER_SEED)
        self.cfg = training.TrainConfig(seed=TRAIN_SEED)


def gradient_pair(X, W, params, dual, unroll_steps: int, seed: int):
    """The encoder-parameter gradient of loss_on_tape(unrolled_identify(.))
    from autodiff.backward, a random unit direction, and the central finite
    difference of the loss along that direction."""
    n = X.shape[0]
    S = build_sum_operator(n)
    St = S.T.copy()
    w_hat = checks.upper(W)

    def loss(p):
        res = training.unrolled_identify(X, p, unroll_steps, solver_seed=0,
                                         dual=dual)
        return res, training.loss_on_tape(res.w, w_hat, S, St)

    res, value = loss(params)
    grads = ad.backward(res.tape, value)
    analytic = [grads[leaf].copy() for leaf in res.param_leaves]
    arrays = params_to_arrays(params)
    rng = np.random.default_rng(seed)
    direction = [rng.standard_normal(a.shape) for a in arrays]
    norm = np.sqrt(sum(float(np.sum(v * v)) for v in direction))
    direction = [v / norm for v in direction]

    def shifted(sign):
        return arrays_to_params([a + sign * FD_STEP * v for a, v in
                                 zip(arrays, direction)], params)

    fd = (float(loss(shifted(1.0))[1].value)
          - float(loss(shifted(-1.0))[1].value)) / (2.0 * FD_STEP)
    return analytic, direction, fd


def _tape_counts(args, kwargs, result) -> dict:
    nodes = args[0].nodes
    return {"nodes": len(nodes),
            "bytes": sum(node.value.nbytes for node in nodes)}


def descendants(kids: dict, roots: list[int]) -> list[int]:
    out, stack = [], list(roots)
    while stack:
        index = stack.pop()
        for child in kids.get(index, []):
            out.append(child)
            stack.append(child)
    return out


# --- identification ----------------------------------------------------------


# The oracle's stopping tolerance.  At its default of 1e-8 it does not
# converge within 200,000 iterations on some n=100 graphs (CHANGES.md); at
# 1e-6 its objective matches a dual solve run to tol=1e-12 within 1e-13.
ORACLE_GRAD_TOL = 1e-6


def identify_and_compare(X, params, solver_seed):
    """Identify once and compare the objective with the reference optimum
    of ``solver.reference_solve``; both objectives use the benchmark's own
    formula."""
    W_hat, alpha, beta = evaluate.identify_with_encoder(X, params,
                                                        seed=solver_seed)
    out = encode(X, params)
    y = checks.upper(out.distances)
    n = X.shape[0]
    w_ref = solver.reference_solve(
        y, n, solver.SolverConfig(alpha=alpha, beta=beta),
        grad_tol=ORACLE_GRAD_TOL)
    W_ref = np.zeros((n, n))
    W_ref[np.triu_indices(n, k=1)] = w_ref
    W_ref = W_ref + W_ref.T
    gap = checks.objective_gap(W_hat, W_ref, y, alpha, beta)
    return W_hat, gap, {"theta": out.theta, "delta": alpha}


class IdentifyScaling(Workload):
    name = "identify-scaling"

    def build_inputs(self) -> None:
        self.pool = {}
        for n in SIZES:
            seeds = sub_seeds(self.seed, 3 + n, 2 * GRAPHS_PER_SIZE)
            records = []
            for j in range(GRAPHS_PER_SIZE):
                W = sample_er_graph(n, 0.2, seeds[2 * j])
                with self.tracer.span("datagen.signals"):
                    X = sample_smooth_signals(W, 0.1, 2000, seeds[2 * j + 1])
                records.append(SampleRecord(X=X, W=W))
            spec = {"kind": "formation", "n": n, "p": 0.2, "sigma": 0.1,
                    "d": 2000}
            self.pool[n] = self.round_trip(records, spec, f"er-n{n}")
        self.params = formation_params(ENCODER_SEED)

    def sweep(self, j: int) -> dict:
        out = {}
        for n in SIZES:
            record = self.pool[n][j]
            with self.tracer.span(f"identify.n{n}"):
                W_hat, _, _ = evaluate.identify_with_encoder(
                    record.X, self.params, seed=j)
            out[n] = W_hat
        return out

    def warm_up(self) -> None:
        self.sweep(0)

    def run_round(self) -> RoundOutput:
        """One sweep per graph of the pool."""
        op_ms, problems = [], []
        for j in range(GRAPHS_PER_SIZE):
            with self.tracer.span("op") as span:
                graphs = self.sweep(j)
            op_ms.append(span.ms)
            self.calibrate()
            problems += [f"n={n} graph {j}: {p}" for n, W in graphs.items()
                         for p in checks.graph_problems(W)]
        return RoundOutput(op_ms, {"problems": problems})

    def instrument(self) -> None:
        t = self.tracer
        t.wrap(evaluate, "encode", "encoder.encode")
        t.wrap(evaluate, "identify_graph", "solver.identify_graph",
               lambda a, k, r: {"iters": r.iters_run})
        t.wrap(solver, "build_sum_operator", "graphcore.build_sum_operator",
               lambda a, k, r: {"bytes": r.nbytes})

    def check(self, outputs: list[RoundOutput]):
        problems = list(self.round_trip_problems)
        for out in outputs:
            problems += out.detail["problems"]
        worst, info = -np.inf, {}
        for n in SIZES:
            W_hat, gap, detail = identify_and_compare(
                self.pool[n][0].X, self.params, 0)
            problems += [f"n={n} oracle graph: {p}"
                         for p in checks.graph_problems(W_hat)
                         + checks.gap_problems(gap)]
            worst = max(worst, gap)
            info[n] = detail
        return problems, {"solver.objective_gap": worst}, info

    def layer_metrics(self) -> dict:
        t = self.tracer
        kids = t.tree()
        out = {}
        for n in SIZES:
            calls = [i for i, _ in t.named(f"identify.n{n}")]
            enc, solve, iters, iter_us, op_mib = [], [], [], [], []
            for i in calls:
                for c in kids.get(i, []):
                    span = t.spans[c]
                    if span.name == "encoder.encode":
                        enc.append(span.ms)
                    elif (span.name == "solver.identify_graph"
                          and "iters" in span.counts):
                        solve.append(span.ms)
                        iters.append(span.counts["iters"])
                        iter_us.append(1e3 * span.ms / span.counts["iters"])
                        built = [t.spans[b].counts["bytes"]
                                 for b in kids.get(c, [])]
                        # identify_graph keeps S and its transposed copy.
                        op_mib.append(2 * max(built, default=0) / MIB)
            out[f"identify_ms.n{n}"] = median(t.spans[i].ms for i in calls)
            out[f"encoder.encode_ms.n{n}"] = median(enc)
            out[f"solver.identify_graph_ms.n{n}"] = median(solve)
            out[f"solver.iters.n{n}"] = median(iters)
            out[f"solver.iter_us.n{n}"] = median(iter_us)
            out[f"graphcore.sum_operator_mib.n{n}"] = median(op_mib)
        return out


WORKLOADS = {w.name: w for w in (TrainFormation, TrainFlocking,
                                 IdentifyScaling)}
