"""Core graph machinery.

Adjacency matrices are dense symmetric nonnegative arrays with a zero
diagonal.  Edge weights travel through the rest of the package as the
strict-upper-triangle row-major vector ``w`` of length ``n*(n-1)//2``;
every module shares that single ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, InvariantError

SYM_ATOL = 1e-9


def num_edges(n: int) -> int:
    """Number of unordered node pairs for ``n`` nodes."""
    return n * (n - 1) // 2


def nodes_from_edge_count(m: int) -> int:
    """Invert ``num_edges``; raises if ``m`` is not a valid pair count."""
    n = int(round((1 + np.sqrt(1 + 8 * m)) / 2))
    if num_edges(n) != m:
        raise DimensionError(f"{m} is not n*(n-1)/2 for any integer n")
    return n


@lru_cache(maxsize=8)
def upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, the edge ordering, as read-only arrays
    cached for the last eight node counts (230 us to build at n=200)."""
    iu = np.triu_indices(n, k=1)
    for a in iu:
        a.setflags(write=False)
    return iu


def half_vectorize(W: np.ndarray, atol: float = SYM_ATOL) -> np.ndarray:
    """Stack the strict upper triangle of a symmetric zero-diagonal matrix.

    Ordering is row-major: (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {W.shape}")
    # np.allclose(W, W.T, atol=atol, rtol=0.0)'s verdict at a third of its
    # cost on small graphs: NaN fails, and equal infinities pass although
    # their difference is NaN.
    with np.errstate(invalid="ignore"):
        symmetric = ((np.abs(W - W.T) <= atol) | (W == W.T)).all()
    if not symmetric:
        raise InvariantError("cannot half-vectorize a non-symmetric matrix")
    if np.max(np.abs(np.diag(W))) > atol:
        raise InvariantError("cannot half-vectorize a matrix with nonzero diagonal")
    return W[upper_indices(W.shape[0])]


def devectorize(w: np.ndarray, n: int | None = None) -> np.ndarray:
    """Rebuild the symmetric zero-diagonal matrix from its edge vector."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise DimensionError("edge vector must be one-dimensional")
    if n is None:
        n = nodes_from_edge_count(w.shape[0])
    elif w.shape[0] != num_edges(n):
        raise DimensionError(
            f"edge vector has length {w.shape[0]}, expected {num_edges(n)} for n={n}")
    W = np.zeros((n, n))
    W[upper_indices(n)] = w
    return W + W.T


class DegreeOperator:
    """The degree map S and its adjoint over the edges of ``n`` nodes, in
    index form.

    ``degree(w)`` equals ``build_sum_operator(n) @ w``: each edge adds its
    weight to both of its end nodes.  ``pair_sum(lam)`` equals
    ``build_sum_operator(n).T @ lam``: each edge reads the sum of its end
    nodes' values.  Both cost O(n*(n-1)/2); the dense S holds n times as
    many entries.
    """

    def __init__(self, n: int):
        if n < 2:
            raise DimensionError(f"need at least 2 nodes, got n={n}")
        self.n = n
        self.rows, self.cols = upper_indices(n)

    def degree(self, w: np.ndarray) -> np.ndarray:
        d = np.bincount(self.rows, w, self.n)
        d += np.bincount(self.cols, w, self.n)
        return d

    def pair_sum(self, lam: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        """``S' lam``, into ``out`` when given."""
        return np.add(lam[self.rows], lam[self.cols], out)


def build_sum_operator(n: int) -> np.ndarray:
    """Dense 0/1 matrix S of shape (n, n*(n-1)/2) mapping edge weights to
    node degrees: the reference form of ``DegreeOperator``, which the solver
    and training use.  ``reference_solve`` multiplies by it, so the oracle
    shares no degree code with the dual iteration.

    Satisfies ``S @ half_vectorize(W) == W @ ones(n)`` for every valid W.
    """
    if n < 2:
        raise DimensionError(f"need at least 2 nodes, got n={n}")
    rows, cols = upper_indices(n)
    S = np.zeros((n, rows.size))
    e = np.arange(rows.size)
    S[rows, e] = 1.0
    S[cols, e] = 1.0
    return S


def laplacian(W: np.ndarray) -> np.ndarray:
    """Weighted graph Laplacian diag(W 1) - W."""
    W = np.asarray(W, dtype=np.float64)
    return np.diag(W.sum(axis=1)) - W


def _as_node_by_feature(X: np.ndarray) -> np.ndarray:
    """Flatten an (n, s, d) or (n, d) trajectory array to (n, s*d)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 2:
        return X
    if X.ndim == 3:
        return X.reshape(X.shape[0], -1)
    raise DimensionError(f"expected (n, d) or (n, s, d) array, got shape {X.shape}")


def distance_matrix(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between node trajectories.

    Trajectories are flattened over both the state and time axes before the
    pairwise distances are taken, so an (n, s, d) tensor and its (n, s*d)
    reshape produce the same matrix.
    """
    F = _as_node_by_feature(X)
    sq = np.einsum("ij,ij->i", F, F)
    Y = sq[:, None] + sq[None, :] - 2.0 * (F @ F.T)
    np.maximum(Y, 0.0, out=Y)
    np.fill_diagonal(Y, 0.0)
    return (Y + Y.T) / 2.0


def total_variation(X: np.ndarray, W: np.ndarray) -> float:
    """trace(X^T L X) for scalar node signals (one state dimension).

    ``X`` may be (n, d) or (n, 1, d).  Equals half the weighted sum of
    pairwise squared signal distances.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 3:
        if X.shape[1] != 1:
            raise DimensionError(
                f"scalar-signal form needs s=1, got s={X.shape[1]}")
        X = X[:, 0, :]
    if X.ndim != 2:
        raise DimensionError(f"expected (n, d) signals, got shape {X.shape}")
    L = laplacian(W)
    return float(np.trace(X.T @ L @ X))


def mae(W_hat: np.ndarray, W: np.ndarray) -> float:
    """Mean absolute entrywise error, normalized by n^2 (diagonal included)."""
    W_hat = np.asarray(W_hat, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if W_hat.shape != W.shape:
        raise DimensionError(
            f"shape mismatch: {W_hat.shape} vs {W.shape}")
    n = W.shape[0]
    return float(np.abs(W_hat - W).sum() / (n * n))


@dataclass(frozen=True)
class EdgeRecovery:
    """Confusion counts over strict-upper-triangle positions."""
    true_pos: int
    false_pos: int
    false_neg: int
    true_neg: int

    @property
    def recovery_rate(self) -> float:
        present = self.true_pos + self.false_neg
        return self.true_pos / present if present else 1.0


def edge_recovery(W_hat: np.ndarray, W: np.ndarray, threshold: float) -> EdgeRecovery:
    """Edge detection counts after thresholding the identified weights.

    An upper-triangle position counts as detected when the identified weight
    is at least ``threshold``; detections are scored against the nonzero
    pattern of the ground truth.
    """
    if threshold <= 0:
        raise InvariantError("threshold must be positive")
    W_hat = np.asarray(W_hat, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if W_hat.shape != W.shape:
        raise DimensionError(f"shape mismatch: {W_hat.shape} vs {W.shape}")
    iu = upper_indices(W.shape[0])
    detected = np.abs(W_hat[iu]) >= threshold
    present = W[iu] != 0.0
    return EdgeRecovery(
        true_pos=int(np.sum(detected & present)),
        false_pos=int(np.sum(detected & ~present)),
        false_neg=int(np.sum(~detected & present)),
        true_neg=int(np.sum(~detected & ~present)),
    )


def edge_density(W: np.ndarray) -> float:
    """Nonzero entry count over n^2; both (i,j) and (j,i) count."""
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    return float(np.count_nonzero(W) / (n * n))
