"""Accelerated dual proximal gradient solver for weighted graph identification.

Given the half-vectorized pairwise distance vector ``y`` of the node
trajectories, the solver minimizes

    2 w'y + beta ||w||^2 - alpha 1'log(S w)    subject to  w >= 0,

over edge weights ``w``, where ``S`` maps edge weights to node degrees.
The log barrier keeps every node connected and the quadratic term shrinks
weights toward zero.  The dual iteration is the fast dual proximal
gradient method of Saboksayr & Mateos (IEEE SPL 2021): a fixed step 1/L
with L = (n-1)/beta and Nesterov-style momentum.  Each dual step has a
closed form, which is what makes the iteration unrollable and
differentiable, and needs S only through ``S w`` and ``S' lambda``.  Both
run in index form (``graphcore.DegreeOperator``), O(n^2) per iteration.

``advance`` is the one loop that runs the iteration under a stop rule; it
serves ``identify_graph`` and training's presolve alike.  It restarts the
momentum whenever a step opposes it (the gradient restart of O'Donoghue &
Candes, FoCM 2015, arXiv:1204.3982), which about halves the iterations of a
cold solve, cuts those of a warm one further, and lets the stop rule fire
close to the optimum.  Training's taped unroll runs ``dual_step`` alone:
a restart test inside it would make the loss jump wherever a parameter
change flips the test.  ``dual_step_vjp`` is the step's reverse, which
training sweeps back over an unrolled run.  It reads the values the forward
step computed and saved (``z``, ``r``, ``Sw - u`` and the momentum factor),
so the sweep recomputes none of them.  Both steps can write into rows that
the caller allocated once for a whole run.  The reverse step's adjoints of
``y``, ``alpha``, ``beta`` and L feed nothing else in it, so
``reverse_sums`` can form them for many steps at once, one step per row,
with the bits that each step gets alone.

``reference_solve`` is a deliberately independent check: projected gradient
descent with Armijo backtracking on the primal, sharing no code with the
dual iteration; it multiplies by the dense ``build_sum_operator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, NumericalFailure, OracleFailure,
                     require_finite)
from .graphcore import (DegreeOperator, build_sum_operator,
                        nodes_from_edge_count, num_edges)


@dataclass(frozen=True)
class SolverConfig:
    """Regularizer weights and iteration budget for one solve."""
    alpha: float = 0.2
    beta: float = 1e-4
    max_iters: int = 2000
    tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        require_finite(self, ("alpha", "beta", "tol"), DimensionError)
        if self.alpha <= 0 or self.beta <= 0:
            raise DimensionError("alpha and beta must be positive")
        if self.max_iters < 1:
            raise DimensionError("max_iters must be at least 1")
        if self.tol <= 0:
            raise DimensionError("tol must be positive")


@dataclass
class DualState:
    """Multipliers and momentum of the dual iteration.

    ``lam_prev`` is the multiplier one step behind ``lam``; both equal the
    seeded start before the first iteration.
    """
    lam: np.ndarray
    lam_prev: np.ndarray
    omega: np.ndarray
    tau: float = 1.0
    iteration: int = 0

    def copy(self) -> "DualState":
        return DualState(self.lam.copy(), self.lam_prev.copy(),
                         self.omega.copy(), self.tau, self.iteration)


@dataclass(frozen=True)
class SolveResult:
    """``objective`` is +inf and ``isolated_nodes`` positive when the
    returned weights leave some node with zero degree, outside the log
    barrier's domain: such a point is not a solution of the program."""
    w: np.ndarray
    iters_run: int
    converged: bool
    final_relative_step: float
    objective: float
    isolated_nodes: int


def init_dual_state(n: int, seed: int) -> DualState:
    """Seeded uniform multiplier start shared by plain and unrolled solves."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 1.0, size=n)
    return DualState(lam=lam.copy(), lam_prev=lam.copy(), omega=lam.copy())


def dual_step(y: np.ndarray, op: DegreeOperator, alpha: float, beta: float,
              lipschitz: float, state: DualState, saved: list | None = None,
              out: tuple | None = None) -> tuple[np.ndarray, DualState]:
    """One iteration of the dual method; returns the primal iterate and the
    advanced state.  The training unroll runs it and differentiates it with
    ``dual_step_vjp``: given a list ``saved``, the step appends to it the
    values that its reverse step reads, ``(z, r, Sw - u, c)``.  Given
    ``out``, rows ``(w, lam, omega, z, r, Sw - u)`` of the right lengths,
    the step writes those values into them instead of new arrays; the
    returned iterate and state then hold the rows."""
    w, lam, omega, z, r, d = (None,) * 6 if out is None else out
    w = op.pair_sum(state.omega, w)
    w -= 2.0 * y
    w /= 2.0 * beta
    np.maximum(0.0, w, out=w)
    Sw = op.degree(w)
    z = np.multiply(lipschitz, state.omega, z)
    np.subtract(Sw, z, z)
    r = np.multiply(z, z, r)
    r += 4.0 * alpha * lipschitz
    np.sqrt(r, r)
    u = np.add(z, r, d)
    u *= 0.5
    # Sw - u, kept for the reverse step, then the multiplier step.
    d = np.subtract(Sw, u, u)
    lam = np.divide(d, lipschitz, lam)
    np.subtract(state.omega, lam, lam)
    tau_next = (1.0 + math.sqrt(1.0 + 4.0 * state.tau * state.tau)) / 2.0
    c = (state.tau - 1.0) / tau_next
    omega = np.subtract(lam, state.lam, omega)
    omega *= c
    omega += lam
    if saved is not None:
        saved.append((z, r, d, c))
    return w, DualState(lam=lam, lam_prev=state.lam, omega=omega,
                        tau=tau_next, iteration=state.iteration + 1)


def dual_step_vjp(y: np.ndarray, op: DegreeOperator, alpha: float,
                  beta: float, lipschitz: float, state: DualState,
                  w: np.ndarray, g_w, g_lam, g_omega, saved: tuple,
                  out: tuple | None = None) -> tuple:
    """Reverse of ``dual_step`` from ``state``, whose primal iterate was
    ``w``.  Given the adjoints of the step's outputs ``w``, ``lam`` and
    ``omega`` (0.0 for none), returns the adjoints of its inputs ``y``,
    ``alpha``, ``beta``, ``lipschitz``, ``state.omega`` and ``state.lam``.
    The adjoint of ``beta`` covers its direct use only: the caller adds the
    path through ``lipschitz`` = (n-1)/beta.

    Besides ``w``, the reverse step reads what the forward step computed:
    ``z`` = Sw - L omega, ``r`` = sqrt(z^2 + 4 alpha L), ``Sw - u`` and the
    momentum factor ``c``: ``saved``, the tuple that ``dual_step`` appends
    to its ``saved`` list.

    The first four adjoints feed nothing else in the step; ``reverse_sums``
    forms them from the step's vectors: the adjoints of ``lam``, of
    ``q`` = z^2 + 4 alpha L, of ``z`` and of ``v``, masked (see the
    comments).  Given ``out``, rows of lengths (n, n, n, m), the step
    writes those four vectors to them and returns None for the four
    adjoints, so that a caller can form them for many steps at once."""
    z, r, d, c = saved
    g_lam_out, g_q, g_z, g_v = (None,) * 4 if out is None else out
    # omega' = lam + c (lam - lam_prev)
    g_lam = np.add(g_lam, (1.0 + c) * g_omega, g_lam_out)
    g_lam_prev = -c * g_omega
    # lam = omega - (Sw - u) / L, u = (z + r) / 2, r = sqrt(q)
    g_u = g_lam / lipschitz
    g_q = np.multiply(4.0, r, g_q)
    np.divide(g_u, g_q, g_q)
    g_z = np.multiply(2.0, z, g_z)
    g_z *= g_q
    g_z += 0.5 * g_u
    # z = Sw - L omega
    g_omega_in = lipschitz * g_z
    np.subtract(g_lam, g_omega_in, g_omega_in)
    g_v = op.pair_sum(g_z - g_u, g_v)
    g_v += g_w
    # w = max(0, v) with v = (S' omega - 2 y) / (2 beta), v = w where w > 0
    g_v *= w > 0
    g_omega_in += op.degree(g_v / (2.0 * beta))
    if out is not None:
        return None, None, None, None, g_omega_in, g_lam_prev
    return (*reverse_sums(alpha, beta, lipschitz, state.omega, w, d, g_lam,
                          g_q, g_z, g_v), g_omega_in, g_lam_prev)


def reverse_sums(alpha: float, beta: float, lipschitz: float, omega, w, d,
                 g_lam, g_q, g_z, g_v) -> tuple:
    """The adjoints of ``y``, ``alpha``, ``beta`` and ``lipschitz`` of a
    reverse step, from the step's input ``omega``, iterate ``w`` and saved
    ``Sw - u``, and the vectors that ``dual_step_vjp`` writes to its
    ``out`` rows.  Given blocks with one step per row, it returns one
    adjoint of ``y`` and one of each scalar per row, each with the bits
    that it has for that row alone."""
    sum_q = g_q.sum(axis=-1)
    g_alpha = 4.0 * lipschitz * sum_q
    g_lipschitz = ((g_lam * d).sum(axis=-1) / (lipschitz * lipschitz)
                   + 4.0 * alpha * sum_q - (g_z * omega).sum(axis=-1))
    g_beta = -(g_v * w).sum(axis=-1) / beta
    return g_v / -beta, g_alpha, g_beta, g_lipschitz


def advance(y: np.ndarray, op: DegreeOperator, alpha: float, beta: float,
            state: DualState, max_iters: int, tol: float
            ) -> tuple[np.ndarray, DualState, float, bool]:
    """Run ``dual_step`` from ``state`` until the relative multiplier step
    drops below ``tol`` at a primal iterate that leaves no node isolated, or
    for ``max_iters`` iterations; returns that iterate, the state, the last
    relative step and whether the rule was met.  A non-finite ``w`` makes
    the same step's ``lam`` non-finite, which raises ``NumericalFailure``.

    A step that opposes the momentum resets it: when
    ``(omega_in - lam) @ (lam - lam_prev) > 0``, where ``omega_in`` is the
    extrapolated point the step started from, the iteration continues from
    ``lam`` with no momentum and ``tau`` = 1.  That is the gradient restart
    of O'Donoghue & Candes (FoCM 2015, arXiv:1204.3982); ``omega_in - lam``
    is the step's gradient mapping times 1/L.  ``state.iteration`` counts
    every step, across restarts."""
    lipschitz = (op.n - 1) / beta
    w = np.zeros(num_edges(op.n))
    rel_step = np.inf
    for k in range(max_iters):
        omega_in = state.omega
        w, state = dual_step(y, op, alpha, beta, lipschitz, state)
        lam, lam_prev = state.lam, state.lam_prev
        if not np.isfinite(lam).all():
            raise NumericalFailure(
                f"non-finite iterate at iteration {k}", iteration=k)
        # The 2-norms as ``np.linalg.norm`` takes them, bit for bit.
        denom = math.sqrt(lam_prev @ lam_prev)
        diff = lam - lam_prev
        rel_step = math.sqrt(diff @ diff) / denom if denom > 0 else np.inf
        # A small step alone is no convergence: with L = (n-1)/beta large,
        # the first steps of a solve that sits at w = 0 are already small.
        if rel_step < tol and op.degree(w).min() > 0:
            return w, state, float(rel_step), True
        if (omega_in - lam) @ diff > 0:
            state = DualState(lam, lam_prev, lam.copy(), 1.0, state.iteration)
    return w, state, float(rel_step), False


def identify_graph(y: np.ndarray, n: int, cfg: SolverConfig) -> SolveResult:
    """Solve with ``advance`` from the seeded start.  The result carries the
    primal objective and the isolated-node count of the returned weights, so
    an infeasible point is flagged rather than passed off as a solution."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (num_edges(n),):
        raise DimensionError(
            f"distance vector has shape {y.shape}, expected ({num_edges(n)},)")
    if not np.all(np.isfinite(y)) or np.min(y) < 0:
        raise DimensionError("distances must be finite and nonnegative")

    op = DegreeOperator(n)
    w, state, rel_step, converged = advance(
        y, op, cfg.alpha, cfg.beta, init_dual_state(n, cfg.seed),
        cfg.max_iters, cfg.tol)
    degrees = op.degree(w)
    return SolveResult(w=w, iters_run=state.iteration, converged=converged,
                       final_relative_step=rel_step,
                       objective=_objective(w, y, cfg, degrees),
                       isolated_nodes=int(np.count_nonzero(degrees <= 0)))


def objective(w: np.ndarray, y: np.ndarray, cfg: SolverConfig) -> float:
    """Primal objective value; +inf sentinel when any node degree is
    nonpositive (outside the log barrier's domain)."""
    w = np.asarray(w, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if w.shape != y.shape:
        raise DimensionError(f"length mismatch: {w.shape} vs {y.shape}")
    n = nodes_from_edge_count(w.shape[0])
    return _objective(w, y, cfg, DegreeOperator(n).degree(w))


def _objective(w: np.ndarray, y: np.ndarray, cfg: SolverConfig,
               degrees: np.ndarray) -> float:
    if np.min(degrees) <= 0:
        return np.inf
    return float(2.0 * w @ y + cfg.beta * w @ w
                 - cfg.alpha * np.sum(np.log(degrees)))


def reference_solve(y: np.ndarray, n: int, cfg: SolverConfig,
                    max_iters: int = 200_000, grad_tol: float = 1e-8
                    ) -> np.ndarray:
    """Independent primal oracle: projected gradient descent with Armijo
    backtracking.  Slow but simple; used to cross-check the dual method."""
    y = np.asarray(y, dtype=np.float64)
    m = num_edges(n)
    if y.shape != (m,):
        raise DimensionError(f"distance vector has shape {y.shape}, expected ({m},)")
    S = build_sum_operator(n)
    St = S.T

    def f(w):
        deg = S @ w
        if np.min(deg) <= 0:
            return np.inf
        return 2.0 * w @ y + cfg.beta * w @ w - cfg.alpha * np.sum(np.log(deg))

    def grad(w):
        deg = S @ w
        return 2.0 * y + 2.0 * cfg.beta * w - cfg.alpha * (St @ (1.0 / deg))

    # Uniform feasible start at the zero-distance stationary scale.
    w = np.full(m, np.sqrt(cfg.alpha / (cfg.beta * (n - 1))))
    fw = f(w)
    step = 1.0
    for _ in range(max_iters):
        g = grad(w)
        # Halve the step until the local descent-lemma bound holds.
        t = step
        for _ in range(300):
            w_new = np.maximum(0.0, w - t * g)
            delta = w_new - w
            f_new = f(w_new)
            if np.isfinite(f_new) and f_new <= fw + g @ delta + delta @ delta / (2.0 * t):
                break
            t *= 0.5
        else:
            raise OracleFailure("backtracking line search stalled")
        gradient_map = np.linalg.norm(w_new - w) / t
        w, fw = w_new, f_new
        step = t * 2.0
        if gradient_map < grad_tol * (1.0 + np.linalg.norm(g)):
            return w
    raise OracleFailure(f"no convergence within {max_iters} iterations")
