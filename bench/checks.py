"""Correctness checks on the program's outputs.

Each check is computed apart from the program, or tests a property the
method must have, and returns a list of problems (empty when the output
passes).  ``test_checks.py`` shows that each one rejects a wrong output.
"""

from __future__ import annotations

import numpy as np

# Relative gap to the reference optimum allowed for a converged solve.  The
# solver stops on a relative dual step of 1e-5, which leaves gaps up to
# about 1e-4 (n=50 in CHANGES.md); 1e-3 keeps that and still rejects a
# graph scaled 10% away from the optimum.
OBJECTIVE_GAP_TOL = 1e-3
# Autodiff against a central finite difference along one unit direction,
# relative to the gradient's norm: a directional derivative far below the
# norm (0.026 on one trained formation encoder) leaves the finite
# difference's own error of about 1e-6 of it.
GRADIENT_REL_TOL = 1e-5
# The mean loss of the last tenth of a training window must be at most this
# share of its first tenth's.  Formation falls to about 0.13; flocking,
# from the desk encoder, to 0.11-0.66 depending on the window.
LOSS_FALL_RATIO = 0.8


def upper(W: np.ndarray) -> np.ndarray:
    """Strict upper triangle, row-major: the solver's edge ordering."""
    return W[np.triu_indices(W.shape[0], k=1)]


def graph_problems(W: np.ndarray) -> list[str]:
    """An identified graph is a weighted adjacency matrix inside the log
    barrier's domain: symmetric, nonnegative, zero diagonal, and no node
    of zero degree."""
    W = np.asarray(W, dtype=np.float64)
    problems = []
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        return [f"not a square matrix: shape {W.shape}"]
    if not np.all(np.isfinite(W)):
        problems.append("non-finite weights")
    if not np.array_equal(W, W.T):
        problems.append("not symmetric")
    if np.any(W < 0):
        problems.append(f"{int(np.sum(W < 0))} negative weights")
    if np.any(np.diag(W) != 0):
        problems.append("nonzero diagonal")
    isolated = int(np.sum(W.sum(axis=1) <= 0))
    if isolated:
        problems.append(f"{isolated} nodes of zero degree")
    return problems


def objective(W: np.ndarray, y: np.ndarray, alpha: float,
              beta: float) -> float:
    """2 w'y + beta |w|^2 - alpha sum(log(degree)), with degrees from the
    rows of the adjacency matrix; +inf outside the barrier's domain."""
    w = upper(W)
    degrees = W.sum(axis=1)
    if np.any(degrees <= 0):
        return np.inf
    return float(2.0 * w @ y + beta * w @ w - alpha * np.log(degrees).sum())


def objective_gap(W: np.ndarray, W_ref: np.ndarray, y: np.ndarray,
                  alpha: float, beta: float) -> float:
    """Relative gap of ``W`` above the reference optimum ``W_ref``."""
    f, f_ref = objective(W, y, alpha, beta), objective(W_ref, y, alpha, beta)
    return (f - f_ref) / max(abs(f_ref), 1e-300)


def gap_problems(gap: float) -> list[str]:
    if not gap <= OBJECTIVE_GAP_TOL:
        return [f"objective {gap:.3g} above the reference optimum "
                f"(allowed {OBJECTIVE_GAP_TOL:g})"]
    return []


def directional(grads: list[np.ndarray], direction: list[np.ndarray]) -> float:
    return float(sum(np.sum(g * v) for g, v in zip(grads, direction)))


def gradient_error(grads: list[np.ndarray], direction: list[np.ndarray],
                   finite_difference: float) -> float:
    """Gap between the autodiff and finite-difference derivatives along
    ``direction``, which has unit norm, as a share of the gradient's norm."""
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    return abs(directional(grads, direction) - finite_difference) / max(
        norm, 1e-12)


def gradient_problems(err: float) -> list[str]:
    if not err <= GRADIENT_REL_TOL:
        return [f"autodiff and finite-difference derivatives differ by "
                f"{err:.3g} of the gradient norm (allowed "
                f"{GRADIENT_REL_TOL:g})"]
    return []


def loss_problems(losses: list[float]) -> list[str]:
    losses = np.asarray(losses, dtype=np.float64)
    tenth = max(1, len(losses) // 10)
    first, last = losses[:tenth].mean(), losses[-tenth:].mean()
    if not np.all(np.isfinite(losses)):
        return ["non-finite loss"]
    if not last <= LOSS_FALL_RATIO * first:
        return [f"loss fell from {first:.4g} to {last:.4g} over the run; "
                f"needs at most {LOSS_FALL_RATIO:g}x"]
    return []


def empty_graph_problems(W_hat: np.ndarray, W: np.ndarray) -> list[str]:
    """The identified graph must score a lower mean absolute error than
    predicting no edges at all."""
    err = float(np.abs(W_hat - W).mean())
    empty = float(np.abs(W).mean())
    if not err < empty:
        return [f"MAE {err:.4g} does not beat the empty graph's {empty:.4g}"]
    return []
