"""Differentiable unrolled solve, training loss, Adam, and the training loop.

Each training step records the encoder forward pass once, on a fresh tape.
An untaped presolve advances the solver's dual state from that recording's
values; a truncated number of solver iterations is then recorded on the
same tape, the loss is applied to the resulting edge weights, and the
gradient flows back into the encoder parameters.  The dual state persists
across steps while the active sample stays the same (truncated unrolling)
and is re-seeded whenever the sample changes.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .datagen import SampleRecord, sample_smooth_signals, smooth_signal_root
from .encoder import (EncoderParams, arrays_to_params, encode_on_tape,
                      init_params, lift_params, params_to_arrays)
from .errors import DimensionError, SchemaError, TrainStepError
from .graphcore import (DegreeOperator, adjoint, devectorize,
                        half_vectorize, mae, nodes_from_edge_count)
from .solver import DualState, dual_step, init_dual_state

log = logging.getLogger("graphident.training")

_CHECKPOINT_FORMAT = "graphident-train"
_CHECKPOINT_VERSION = 2

METRICS_COLUMNS = ("step", "loss", "mae", "alpha", "beta", "sample_id",
                   "wallclock_ms")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    unroll_steps: int = 30
    total_steps: int = 10000
    sample_refresh_period: int = 500
    grad_clip: float | None = 10.0
    retry_budget: int = 3
    presolve_iters: int = 300
    presolve_tol: float = 1e-4
    resample_windows: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise DimensionError("learning rate must be nonnegative")
        if self.unroll_steps < 1:
            raise DimensionError("need at least one unrolled iteration")
        if self.presolve_iters < 0:
            raise DimensionError("presolve iteration budget cannot be negative")

    def to_dict(self) -> dict:
        return {"learning_rate": self.learning_rate, "beta1": self.beta1,
                "beta2": self.beta2, "adam_eps": self.adam_eps,
                "unroll_steps": self.unroll_steps,
                "total_steps": self.total_steps,
                "sample_refresh_period": self.sample_refresh_period,
                "grad_clip": self.grad_clip,
                "retry_budget": self.retry_budget,
                "presolve_iters": self.presolve_iters,
                "presolve_tol": self.presolve_tol,
                "resample_windows": self.resample_windows, "seed": self.seed}


@dataclass
class TrainState:
    params: EncoderParams
    adam_m: list[np.ndarray]
    adam_v: list[np.ndarray]
    step: int = 0
    dual: DualState | None = None
    sample_id: int = 0


def init_train_state(params: EncoderParams) -> TrainState:
    arrays = params_to_arrays(params)
    return TrainState(params=params,
                      adam_m=[np.zeros_like(a) for a in arrays],
                      adam_v=[np.zeros_like(a) for a in arrays])


# --- loss --------------------------------------------------------------------


def identification_loss(w: np.ndarray, w_hat: np.ndarray) -> float:
    """Sum of absolute weight errors plus the same for the symmetrized
    complement-redistribution graphs, which penalizes degenerate all-zero
    solutions on sparse targets."""
    w = np.asarray(w, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    if w.shape != w_hat.shape:
        raise DimensionError(f"length mismatch: {w.shape} vs {w_hat.shape}")
    n = nodes_from_edge_count(w.shape[0])
    term = float(np.abs(w - w_hat).sum())
    adj = half_vectorize(adjoint(devectorize(w, n)))
    adj_hat = half_vectorize(adjoint(devectorize(w_hat, n)))
    return term + float(np.abs(adj - adj_hat).sum())


def _adjoint_vech_on_tape(w: ad.Var, op: DegreeOperator) -> ad.Var:
    """Half-vectorized symmetrized complement graph of the identified weights.

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
    """``identification_loss`` recorded on the tape of ``w``.  ``S`` and
    ``St``, the dense degree operator and its transpose, are accepted for
    callers that still pass them and are not read: the degrees come from
    the index form of ``DegreeOperator``."""
    op = DegreeOperator(nodes_from_edge_count(w.shape[0]))
    adj_hat = half_vectorize(adjoint(devectorize(w_hat, op.n)))
    weight_term = ad.asum(ad.absolute(ad.sub(w, w_hat)))
    adjoint_term = ad.asum(ad.absolute(
        ad.sub(_adjoint_vech_on_tape(w, op), adj_hat)))
    return ad.add(weight_term, adjoint_term)


# --- unrolled solve ----------------------------------------------------------


@dataclass
class EncoderRecording:
    """The encoder forward pass recorded on ``tape``; ``mark`` is the tape
    length right after it, where every unroll starts."""
    tape: ad.Tape
    param_leaves: list[ad.Var]
    y: ad.Var
    alpha: ad.Var
    beta: ad.Var
    mark: int


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
                            beta=beta, mark=len(tape.nodes))


def unroll(rec: EncoderRecording, op: DegreeOperator, unroll_steps: int,
           dual: DualState) -> UnrollResult:
    """Record ``unroll_steps`` solver iterations from ``dual`` on the tape
    of ``rec``, continuing after the encoder.

    The iteration body mirrors ``solver.dual_step`` operation for operation,
    so the forward values match a plain solve bit-for-bit given the same
    starting state.
    """
    tape, y, alpha, beta = rec.tape, rec.y, rec.alpha, rec.beta
    lipschitz = ad.div(float(op.n - 1), beta)
    omega = tape.leaf(dual.omega)
    lam_prev = tape.leaf(dual.lam)
    tau = dual.tau

    w = None
    for k in range(unroll_steps):
        w = ad.relu(ad.div(ad.sub(ad.pair_sum(omega, op), ad.scale(y, 2.0)),
                           ad.scale(beta, 2.0)))
        Sw = ad.degree(w, op)
        z = ad.sub(Sw, ad.mul(lipschitz, omega))
        u = ad.scale(ad.add(z, ad.sqrt(ad.add(ad.mul(z, z),
                                              ad.mul(ad.scale(alpha, 4.0),
                                                     lipschitz)))), 0.5)
        lam = ad.sub(omega, ad.div(ad.sub(Sw, u), lipschitz))
        tau_next = (1.0 + np.sqrt(1.0 + 4.0 * tau * tau)) / 2.0
        omega = ad.add(lam, ad.scale(ad.sub(lam, lam_prev),
                                     (tau - 1.0) / tau_next))
        if not (np.all(np.isfinite(lam.value)) and np.all(np.isfinite(w.value))):
            raise TrainStepError(
                f"non-finite solver iterate at unroll step {k}",
                diagnostics={"unroll_step": k,
                             "alpha": float(alpha.value),
                             "beta": float(beta.value)})
        lam_prev, tau = lam, tau_next

    dual_next = DualState(lam=lam_prev.value.copy(),
                          lam_prev=dual.lam.copy(),
                          omega=omega.value.copy(),
                          tau=tau,
                          iteration=dual.iteration + unroll_steps)
    return UnrollResult(tape=tape, w=w, param_leaves=rec.param_leaves, y=y,
                        alpha=alpha, beta=beta, dual_next=dual_next)


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


def adam_update(state: TrainState, grads: list[np.ndarray],
                cfg: TrainConfig) -> TrainState:
    """Bias-corrected Adam step.  Non-finite gradients reject the step: the
    state (including the counter) is returned unchanged."""
    if any(not np.all(np.isfinite(g)) for g in grads):
        log.warning("step %d rejected: non-finite gradient", state.step)
        return state
    arrays = params_to_arrays(state.params)
    if len(grads) != len(arrays):
        raise DimensionError("gradient list does not match parameter layout")
    t = state.step + 1
    new_arrays, new_m, new_v = [], [], []
    for a, g, m, v in zip(arrays, grads, state.adam_m, state.adam_v):
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = v / (1.0 - cfg.beta2 ** t)
        new_arrays.append(a - cfg.learning_rate * m_hat
                          / (np.sqrt(v_hat) + cfg.adam_eps))
        new_m.append(m)
        new_v.append(v)
    return TrainState(params=arrays_to_params(new_arrays, state.params),
                      adam_m=new_m, adam_v=new_v, step=t,
                      dual=state.dual, sample_id=state.sample_id)


def clip_gradients(grads: list[np.ndarray], max_norm: float | None
                   ) -> list[np.ndarray]:
    if max_norm is None:
        return grads
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total <= max_norm or total == 0.0:
        return grads
    factor = max_norm / total
    return [g * factor for g in grads]


# --- training loop -------------------------------------------------------------


def _step_rng(seed: int, step: int, stream: int) -> np.random.Generator:
    """Per-step generator; resume-safe because it depends only on indices."""
    return np.random.default_rng([seed, step, stream])


def _presolve(rec: EncoderRecording, op: DegreeOperator, dual: DualState,
              cfg: TrainConfig) -> DualState:
    """Advance the persistent dual state, untaped, until it tracks the
    current window's solution; the taped unroll then differentiates the tail
    of an (almost) converged solve, matching what evaluation runs.  The
    solver input and regularizers are read from the step's one encoder
    recording, so the encoder does not run again."""
    y = rec.y.value
    alpha, beta = float(rec.alpha.value), float(rec.beta.value)
    lipschitz = (op.n - 1) / beta
    for _ in range(cfg.presolve_iters):
        _, dual = dual_step(y, op, alpha, beta, lipschitz, dual)
        if not np.all(np.isfinite(dual.lam)):
            raise TrainStepError("non-finite dual state during presolve")
        denom = np.linalg.norm(dual.lam_prev)
        if denom > 0 and (np.linalg.norm(dual.lam - dual.lam_prev) / denom
                          < cfg.presolve_tol):
            break
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
                    seed = int(_step_rng(cfg.seed, step, 3).integers(2 ** 62))
                    state.dual = init_dual_state(n, seed)
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
                    seed = int(_step_rng(cfg.seed, step, 3).integers(2 ** 62))
                    state.dual = init_dual_state(n, seed)

            w_hat = half_vectorize(record.W)
            rec = record_encoder(X, state.params)
            result = None
            for attempt in range(cfg.retry_budget + 1):
                try:
                    if cfg.presolve_iters > 0:
                        state.dual = _presolve(rec, op, state.dual, cfg)
                    result = unroll(rec, op, cfg.unroll_steps, state.dual)
                    break
                except TrainStepError as exc:
                    log.warning("step %d attempt %d failed: %s",
                                step, attempt, exc)
                    # The retry reuses the encoder recording; drop the
                    # failed attempt's nodes after it.
                    rec.tape.truncate(rec.mark)
                    seed = int(_step_rng(cfg.seed, step, 4 + attempt)
                               .integers(2 ** 62))
                    state.dual = init_dual_state(n, seed)
            if result is None:
                raise TrainStepError(
                    f"step {step} failed after {cfg.retry_budget} retries",
                    step=step)

            loss_var = loss_on_tape(result.w, w_hat)
            grads_all = ad.backward(result.tape, loss_var)
            grads = clip_gradients([grads_all[leaf].copy()
                                    for leaf in result.param_leaves],
                                   cfg.grad_clip)

            new_state = adam_update(state, grads, cfg)
            if new_state.step == state.step:
                # Rejected step: skip the dual-state advance too, but do not
                # spin forever on one step.
                seed = int(_step_rng(cfg.seed, step, 9).integers(2 ** 62))
                new_state = replace_state_step(state, step + 1)
                new_state.dual = init_dual_state(n, seed)
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
    finally:
        if fh is not None:
            fh.close()
    return state, metrics


def replace_state_step(state: TrainState, step: int) -> TrainState:
    return TrainState(params=state.params, adam_m=state.adam_m,
                      adam_v=state.adam_v, step=step, dual=state.dual,
                      sample_id=state.sample_id)


# --- checkpointing -------------------------------------------------------------


def save_train_state(state: TrainState, cfg: TrainConfig, path) -> None:
    """Encoder checkpoint plus Adam buffers and the step counter."""
    params = state.params
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "fc1_widths": list(params.fc1_widths),
        "fc2_widths": list(params.fc2_widths),
        "head_widths": list(params.head_widths),
        "scale": params.scale,
        "seed": params.seed,
        "scale_free": params.scale_free,
        "arrays": [a.reshape(-1).tolist() for a in params_to_arrays(params)],
        "adam_m": [a.reshape(-1).tolist() for a in state.adam_m],
        "adam_v": [a.reshape(-1).tolist() for a in state.adam_v],
        "step": state.step,
        "train_config": cfg.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_train_state(path) -> tuple[TrainState, dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != _CHECKPOINT_FORMAT:
        raise SchemaError(f"not a training checkpoint: {path}")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise SchemaError(f"unsupported checkpoint version {doc.get('version')}")
    template = init_params(tuple(doc["fc1_widths"]), tuple(doc["fc2_widths"]),
                           tuple(doc["head_widths"]), doc["scale"],
                           seed=doc["seed"], scale_free=doc["scale_free"])
    shapes = [a.shape for a in params_to_arrays(template)]

    def unflatten(key):
        flats = [np.asarray(a, dtype=np.float64) for a in doc[key]]
        if len(flats) != len(shapes):
            raise SchemaError(f"checkpoint {key} does not match layout")
        return [f.reshape(s) for f, s in zip(flats, shapes)]

    params = arrays_to_params(unflatten("arrays"), template)
    state = TrainState(params=params, adam_m=unflatten("adam_m"),
                       adam_v=unflatten("adam_v"), step=int(doc["step"]))
    return state, doc.get("train_config", {})
