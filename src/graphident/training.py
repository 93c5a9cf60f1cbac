"""Differentiable unrolled solve, training loss, Adam, the training loop and
its checkpoint document.

Each training step records the encoder forward pass once, on a fresh tape.
An untaped presolve advances the solver's dual state from that recording's
values with ``solver.advance``, the loop identification runs, momentum
restart included; a truncated number of plain solver iterations then
continues it as one node on the same tape, whose VJP is the solver's
reverse step swept back over the saved iterates.  The unroll writes each
iteration into its own row of blocks allocated once per node, and the
sweep leaves each step's scalar-sum vectors in rows that one reduction
adds up afterwards, with the bits of a per-step loop.  The loss is applied
to the resulting edge weights, and the gradient flows back into the
encoder parameters.  Adam keeps the parameters and its moments as flat
vectors, so that a step is one update over all of them.  The dual state
persists across steps while the active sample stays the same (truncated
unrolling) and is re-seeded whenever the sample changes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .datagen import SampleRecord, sample_smooth_signals, smooth_signal_root
from .encoder import (EncoderParams, arrays_to_params, encode_on_tape,
                      init_params, lift_params, params_to_arrays)
from .errors import (DimensionError, InvariantError, NumericalFailure,
                     SchemaError, TrainStepError, require_finite)
from .graphcore import (SYM_ATOL, DegreeOperator, devectorize,
                        half_vectorize, mae, nodes_from_edge_count)
from .solver import (DualState, advance, dual_step, dual_step_vjp,
                     init_dual_state, reverse_sums)

log = logging.getLogger("graphident.training")

_CHECKPOINT_FORMAT = "graphident-train"
_CHECKPOINT_VERSION = 2

METRICS_COLUMNS = ("step", "loss", "mae", "alpha", "beta", "sample_id",
                   "wallclock_ms")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PRESOLVE_TOL = 1e-4
# Re-seeded attempts after a step's first attempt fails.
RETRY_BUDGET = 3


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    unroll_steps: int = 30
    total_steps: int = 10000
    sample_refresh_period: int = 500
    grad_clip: float | None = 10.0
    presolve_iters: int = 300
    resample_windows: bool = True
    seed: int = 0

    def __post_init__(self):
        require_finite(self, ("learning_rate", "grad_clip"), DimensionError)
        if self.learning_rate < 0:
            raise DimensionError("learning_rate must be nonnegative")
        if self.unroll_steps < 1:
            raise DimensionError("unroll_steps must be at least 1")
        if self.presolve_iters < 0:
            raise DimensionError("presolve_iters cannot be negative")
        if self.sample_refresh_period < 1:
            raise DimensionError("sample_refresh_period must be at least 1")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise DimensionError("grad_clip must be positive or null")


@dataclass
class TrainState:
    """Where training stands.  The encoder parameters and Adam's two moments
    are three flat vectors in ``params_to_arrays`` order, ``theta``, ``m``
    and ``v``; ``params``, ``adam_m`` and ``adam_v`` are views of them,
    shaped as the arrays of ``layout``.  ``layout`` sets the shapes and
    the encoder's settings; its values are not read."""
    layout: EncoderParams
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    dual: DualState | None = None
    sample_id: int = 0
    params: EncoderParams = field(init=False, repr=False)

    def __post_init__(self):
        self.params = arrays_to_params(
            _split(self.theta, params_to_arrays(self.layout)), self.layout)

    @property
    def adam_m(self) -> list[np.ndarray]:
        return _split(self.m, params_to_arrays(self.layout))

    @property
    def adam_v(self) -> list[np.ndarray]:
        return _split(self.v, params_to_arrays(self.layout))


def init_train_state(params: EncoderParams) -> TrainState:
    theta = _flat(params_to_arrays(params))
    return TrainState(params, theta, np.zeros_like(theta),
                      np.zeros_like(theta))


# --- loss --------------------------------------------------------------------


def _complement(w: ad.Var, op: DegreeOperator) -> ad.Var:
    """The complement graph of the edge weights ``w``, the package's one
    complement operator: each node spreads its degree evenly over its free
    (zero-weight) slots, and each free edge averages its two ends' shares.
    The zero pattern and per-node free-slot counts come from the forward value
    (piecewise constant in w); gradients flow through the degree mass only.
    """
    edge_mask = (w.value == 0.0).astype(np.float64)
    n_free = op.degree(edge_mask)
    inv_free = np.divide(1.0, n_free, out=np.zeros(op.n), where=n_free > 0)
    share = ad.mul(ad.degree(w, op), inv_free)
    return ad.scale(ad.mul(ad.pair_sum(share, op), edge_mask), 0.5)


def loss_on_tape(w: ad.Var, w_hat: np.ndarray, S: np.ndarray | None = None,
                 St: np.ndarray | None = None) -> ad.Var:
    """The identification loss of ``w`` against the target ``w_hat``, on
    the tape of ``w``: the sum of absolute weight errors plus the same for
    their ``_complement`` graphs, which penalizes degenerate all-zero
    solutions on sparse targets.  The target's complement runs the same
    code on an unrecorded tape, so the loss of ``w == w_hat`` is exactly 0.
    On an unrecorded tape it gives the plain value.  A target of another
    length raises ``DimensionError``, a negative target weight
    ``InvariantError``.  ``S`` and ``St``, the dense degree operator and its
    transpose, are accepted for callers that still pass them and are not
    read."""
    w_hat = np.asarray(w_hat, dtype=np.float64)
    if w_hat.shape != w.shape:
        raise DimensionError(f"target has shape {w_hat.shape}, not {w.shape}")
    op = DegreeOperator(nodes_from_edge_count(w.shape[0]))
    if not np.all(w_hat >= -SYM_ATOL):
        raise InvariantError("target weights must be nonnegative")
    target = _complement(ad.Tape(record=False).leaf(w_hat), op).value
    weight_term = ad.asum(ad.absolute(ad.sub(w, w_hat)))
    complement_term = ad.asum(ad.absolute(ad.sub(_complement(w, op), target)))
    return ad.add(weight_term, complement_term)


# --- unrolled solve ----------------------------------------------------------


@dataclass
class EncoderRecording:
    """The encoder forward pass recorded on ``tape``."""
    tape: ad.Tape
    param_leaves: list[ad.Var]
    y: ad.Var
    alpha: ad.Var
    beta: ad.Var


@dataclass
class UnrollResult:
    tape: ad.Tape
    w: ad.Var
    param_leaves: list[ad.Var]
    y: ad.Var
    alpha: ad.Var
    beta: ad.Var
    dual_next: DualState


def record_encoder(X: np.ndarray, params: EncoderParams) -> EncoderRecording:
    """Record the encoder forward pass on a fresh tape."""
    tape = ad.Tape()
    stacks, leaves = lift_params(tape, params)
    _, _, y, alpha, beta, _ = encode_on_tape(tape, X, stacks, params)
    return EncoderRecording(tape=tape, param_leaves=leaves, y=y, alpha=alpha,
                            beta=beta)


def unroll(rec: EncoderRecording, op: DegreeOperator, unroll_steps: int,
           dual: DualState) -> UnrollResult:
    """Run ``unroll_steps`` solver iterations from ``dual`` and record them
    as one node on the tape of ``rec``, after the encoder.

    The forward pass is ``solver.dual_step`` itself, run ``unroll_steps``
    times with no stop rule or restart, each step writing its iterate,
    multipliers and the values it saves for its reverse into its own row
    of blocks allocated once.  Finiteness is checked once, on the blocks,
    after the loop; a non-finite iterate raises ``TrainStepError`` naming
    the first step that made one.  The node's VJP sweeps
    ``solver.dual_step_vjp`` back over the rows to ``y``, ``alpha`` and
    ``beta``, recomputing nothing.  The sweep leaves its per-step adjoints
    of ``y`` and the vectors behind those of ``alpha``, ``beta`` and L in
    rows too; one row reduction and a running sum over the steps then add
    them up as a loop over the steps would, bit for bit.  The starting
    dual is a constant.
    """
    if unroll_steps < 1:
        raise DimensionError("need at least one unrolled iteration")
    y, alpha, beta = rec.y.value, float(rec.alpha.value), float(rec.beta.value)
    lipschitz = (op.n - 1) / beta
    steps, n, m = unroll_steps, op.n, y.size
    # Each step's iterate, multipliers, z, r and Sw - u.
    ws = np.empty((steps, m))
    lams, zs, rs, ds = np.empty((4, steps, n))
    # Row k is step k's extrapolated input point, the start's first.
    omegas = np.empty((steps + 1, n))
    omegas[0] = dual.omega
    states, saved = [], []
    for k in range(steps):
        states.append(dual)
        w, dual = dual_step(y, op, alpha, beta, lipschitz, dual, saved,
                            (ws[k], lams[k], omegas[k + 1], zs[k], rs[k],
                             ds[k]))
    finite = np.isfinite(ws).all(axis=1) & np.isfinite(lams).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise TrainStepError(
            f"non-finite solver iterate at unroll step {k}",
            diagnostics={"unroll_step": k, "alpha": alpha, "beta": beta})

    def vjp(g):
        # Row j of these blocks holds step ``steps - 1 - j``, the j-th of
        # the sweep, so that adding the rows in order repeats the running
        # sums of a loop over the sweep.
        g_lams, g_qs, g_zs = np.empty((3, steps, n))
        g_vs = np.empty((steps, m))
        g_w, g_lam, g_omega = g, 0.0, 0.0
        for j in range(steps):
            k = steps - 1 - j
            *_, g_omega, g_lam = dual_step_vjp(
                y, op, alpha, beta, lipschitz, states[k], ws[k], g_w, g_lam,
                g_omega, saved[k], (g_lams[j], g_qs[j], g_zs[j], g_vs[j]))
            g_w = 0.0
        g_ys, *per_step = reverse_sums(alpha, beta, lipschitz,
                                       omegas[-2::-1], ws[::-1], ds[::-1],
                                       g_lams, g_qs, g_zs, g_vs)
        # The sweep's sums start from 0.0.  ``accumulate`` starts from the
        # first row instead; adding 0.0 last gives the same bits, the sign
        # of a zero included.
        g_alpha, g_beta, g_lipschitz = (np.add.accumulate(a)[-1] + 0.0
                                        for a in per_step)
        g_y = np.add.reduce(g_ys, axis=0, initial=0.0)
        return g_y, g_alpha, g_beta - g_lipschitz * (op.n - 1) / (beta * beta)

    w = ad.custom((rec.y, rec.alpha, rec.beta), ws[-1], vjp)
    return UnrollResult(tape=rec.tape, w=w, param_leaves=rec.param_leaves,
                        y=rec.y, alpha=rec.alpha, beta=rec.beta,
                        dual_next=dual)


def unrolled_identify(X: np.ndarray, params: EncoderParams,
                      unroll_steps: int, solver_seed: int = 0,
                      dual: DualState | None = None) -> UnrollResult:
    """Record encoder plus ``unroll_steps`` solver iterations on one tape,
    starting from ``dual`` or, when it is None, from a dual state seeded by
    ``solver_seed``."""
    n = X.shape[0]
    if dual is None:
        dual = init_dual_state(n, solver_seed)
    return unroll(record_encoder(X, params), DegreeOperator(n), unroll_steps,
                  dual)


# --- Adam ----------------------------------------------------------------------


def _flat(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.reshape(-1) for a in arrays])


def _split(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Views of ``flat`` shaped as the arrays of ``like``, in order."""
    views, lo = [], 0
    for a in like:
        views.append(flat[lo:lo + a.size].reshape(a.shape))
        lo += a.size
    return views


def adam_update(state: TrainState, grads: list[np.ndarray],
                cfg: TrainConfig) -> TrainState:
    """Bias-corrected Adam step.  Non-finite gradients reject the step: the
    state (including the counter) is returned unchanged.

    The step runs once over the state's flat vectors and the gradients laid
    end to end, elementwise as a loop over the arrays would, so with the
    same bits."""
    g = _flat(grads)
    if not np.isfinite(g).all():
        log.warning("step %d rejected: non-finite gradient", state.step)
        return state
    if [a.shape for a in grads] != [a.shape for a in
                                   params_to_arrays(state.params)]:
        raise DimensionError("gradient list does not match parameter layout")
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    theta = state.theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat)
                                                       + ADAM_EPS)
    return TrainState(state.layout, theta, m, v, step=t, dual=state.dual,
                      sample_id=state.sample_id)


def clip_gradients(grads: list[np.ndarray], max_norm: float | None
                   ) -> list[np.ndarray]:
    """Scale ``grads`` to a global norm of at most ``max_norm``.  The norm
    adds up each array's own sum of squares, taken over the array's shape:
    a sum over the squares laid end to end adds in another order.  The
    squaring and the scaling run once over the arrays laid end to end."""
    if max_norm is None:
        return grads
    flat = _flat(grads)
    squares = _split(flat * flat, grads)
    total = math.sqrt(sum(float(s.sum()) for s in squares))
    if total <= max_norm or total == 0.0:
        return grads
    return _split(flat * (max_norm / total), grads)


# --- training loop -------------------------------------------------------------


def _step_rng(seed: int, step: int, stream: int) -> np.random.Generator:
    """Per-step generator; resume-safe because it depends only on indices."""
    return np.random.default_rng([seed, step, stream])


def _fresh_dual(n: int, seed: int, step: int, stream: int) -> DualState:
    """A dual start re-seeded from one of the step's streams."""
    return init_dual_state(n, int(_step_rng(seed, step, stream)
                                  .integers(2 ** 62)))


def _presolve(rec: EncoderRecording, op: DegreeOperator, dual: DualState,
              cfg: TrainConfig) -> DualState:
    """Advance the persistent dual state, untaped, with ``solver.advance``
    on the step's one encoder recording, so that the taped unroll
    differentiates the tail of an (almost) converged solve, as evaluation
    runs it.  A non-finite iterate raises ``TrainStepError`` for a retry."""
    # The presolve's momentum restarts cannot make the loss jump: its output
    # is a constant start for the unroll, whose plain ``dual_step`` iterations
    # are all that the gradient differentiates.
    try:
        _, dual, _, _ = advance(rec.y.value, op, float(rec.alpha.value),
                                float(rec.beta.value), dual,
                                cfg.presolve_iters, PRESOLVE_TOL)
    except NumericalFailure as exc:
        raise TrainStepError("non-finite dual state during presolve") from exc
    return dual


def train(records: list[SampleRecord], cfg: TrainConfig,
          params: EncoderParams | None = None,
          state: TrainState | None = None,
          metrics_path=None) -> tuple[TrainState, list[dict]]:
    """Run the loop from ``state.step`` to ``cfg.total_steps``.

    Formation datasets hold one fixed graph; every step draws a fresh signal
    window on it (or reuses the stored window when ``resample_windows`` is
    off; the two measure equivalently) and the dual state persists across
    steps.  Flocking datasets hold many
    windows: one is re-picked uniformly every ``sample_refresh_period``
    steps and the solver state is re-initialized each time.  Metrics rows
    are appended to ``metrics_path`` when given.
    """
    if not records:
        raise SchemaError("training needs a non-empty dataset")
    if state is None:
        if params is None:
            raise SchemaError("provide initial parameters or a resume state")
        state = init_train_state(params)
    kind = records[0].meta.get("kind", "formation")
    n = records[0].X.shape[0]
    op = DegreeOperator(n)

    formation_root = None
    if kind == "formation" and cfg.resample_windows:
        sigma = float(records[0].meta.get("sigma", 0.1))
        window = int(records[0].X.shape[2])
        formation_root = smooth_signal_root(records[0].W, sigma)

    metrics: list[dict] = []
    target = w_hat = None
    writer = None
    fh = None
    if metrics_path is not None:
        fresh = state.step == 0
        fh = open(metrics_path, "a" if not fresh else "w",
                  encoding="utf-8", newline="")
        writer = csv.DictWriter(fh, fieldnames=METRICS_COLUMNS)
        if fresh:
            writer.writeheader()

    try:
        while state.step < cfg.total_steps:
            step = state.step
            started = time.perf_counter()

            if kind == "flocking":
                if state.dual is None or step % cfg.sample_refresh_period == 0:
                    pick = _step_rng(cfg.seed, step, 1)
                    state.sample_id = int(pick.integers(len(records)))
                    state.dual = _fresh_dual(n, cfg.seed, step, 3)
                record = records[state.sample_id]
                X = record.X
            else:
                record = records[0]
                state.sample_id = 0
                if cfg.resample_windows:
                    X = sample_smooth_signals(record.W, sigma, window,
                                              _step_rng(cfg.seed, step, 2),
                                              root=formation_root)
                else:
                    X = record.X
                if state.dual is None:
                    state.dual = _fresh_dual(n, cfg.seed, step, 3)

            if record is not target:
                # The target changes only when a window is picked.
                target, w_hat = record, half_vectorize(record.W)
            rec = record_encoder(X, state.params)
            result = None
            for attempt in range(RETRY_BUDGET + 1):
                try:
                    state.dual = _presolve(rec, op, state.dual, cfg)
                    result = unroll(rec, op, cfg.unroll_steps, state.dual)
                    break
                except TrainStepError as exc:
                    log.warning("step %d attempt %d failed: %s",
                                step, attempt, exc)
                    # The retry reuses the encoder recording: a failed
                    # attempt records no node.
                    state.dual = _fresh_dual(n, cfg.seed, step, 4 + attempt)
            if result is None:
                raise TrainStepError(
                    f"step {step} failed after {RETRY_BUDGET} retries",
                    step=step)

            loss_var = loss_on_tape(result.w, w_hat)
            grads_all = ad.backward(result.tape, loss_var)
            grads = clip_gradients([grads_all[leaf]
                                    for leaf in result.param_leaves],
                                   cfg.grad_clip)

            new_state = adam_update(state, grads, cfg)
            if new_state.step == state.step:
                # Rejected step: skip the dual-state advance too, but do not
                # spin forever on one step.
                new_state = dataclasses.replace(state, step=step + 1)
                new_state.dual = _fresh_dual(n, cfg.seed, step, 9)
            else:
                new_state.dual = result.dual_next
            state = new_state

            row = {
                "step": step,
                "loss": float(loss_var.value),
                "mae": mae(devectorize(result.w.value, n), record.W),
                "alpha": float(result.alpha.value),
                "beta": float(result.beta.value),
                "sample_id": state.sample_id,
                "wallclock_ms": (time.perf_counter() - started) * 1e3,
            }
            metrics.append(row)
            if writer is not None:
                writer.writerow(row)
            # Free this step's tape before the next recording, so that the
            # encoder's pooled arrays can be reused (``autodiff._pooled``).
            del rec, result, loss_var, grads_all
    finally:
        if fh is not None:
            fh.close()
    return state, metrics


# --- checkpointing -------------------------------------------------------------


def save_train_state(state: TrainState, cfg: TrainConfig, path) -> None:
    """Write the checkpoint document: the format tag and version, the
    encoder's widths and settings, its arrays and Adam's two moments in
    ``params_to_arrays`` order, the step counter and ``cfg``.  Floats
    round-trip bit-exactly through repr-based JSON serialization."""
    params = state.params
    doc = {"format": _CHECKPOINT_FORMAT, "version": _CHECKPOINT_VERSION,
           "fc1_widths": list(params.fc1_widths),
           "fc2_widths": list(params.fc2_widths),
           "head_widths": list(params.head_widths), "scale": params.scale,
           "seed": params.seed, "scale_free": params.scale_free}
    for key, arrays in (("arrays", params_to_arrays(params)),
                        ("adam_m", state.adam_m), ("adam_v", state.adam_v)):
        doc[key] = [a.reshape(-1).tolist() for a in arrays]
    doc.update(step=state.step, train_config=dataclasses.asdict(cfg))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_train_state(path) -> tuple[TrainState, dict]:
    """The state in a checkpoint that ``save_train_state`` wrote, after
    checking its format tag, version and layout, and its train config."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != _CHECKPOINT_FORMAT:
        raise SchemaError(f"not a {_CHECKPOINT_FORMAT} checkpoint: {path}")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise SchemaError(
            f"unsupported checkpoint version {doc.get('version')}")
    layout = init_params(tuple(doc["fc1_widths"]), tuple(doc["fc2_widths"]),
                         tuple(doc["head_widths"]), doc["scale"],
                         seed=doc["seed"], scale_free=doc["scale_free"])
    sizes = [a.size for a in params_to_arrays(layout)]
    flats = []
    for key in ("arrays", "adam_m", "adam_v"):
        arrays = [np.asarray(a, dtype=np.float64).reshape(-1)
                  for a in doc[key]]
        if [a.size for a in arrays] != sizes:
            raise SchemaError(f"checkpoint {key} does not match layout")
        flats.append(np.concatenate(arrays))
    return (TrainState(layout, *flats, step=int(doc["step"])),
            doc.get("train_config", {}))
