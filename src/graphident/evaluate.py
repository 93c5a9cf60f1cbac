"""Evaluation sweeps for trained encoders and fixed-parameter identification.

Each sweep runs its cases (one per configuration and repetition, or per
window) one after another in the caller's thread, so its rows come out in
case order and are deterministic for a given config.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass

import numpy as np

from .datagen import (FlockingSpec, SampleRecord, generate_flocking_windows,
                      sample_er_graph, sample_smooth_signals)
from .encoder import EncoderParams, encode
from .errors import DimensionError, InvariantError, require_finite
from .graphcore import (devectorize, distance_matrix, edge_density,
                        edge_recovery, half_vectorize, mae)
from .solver import SolverConfig, identify_graph

RECOVERY_THRESHOLD = 1e-5

FORMATION_SUMMARY_COLUMNS = ("method", "n", "p", "repetitions", "mae_mean",
                             "mae_std", "recovery_rate_mean")
FORMATION_DETAIL_COLUMNS = ("method", "n", "p", "rep", "mae", "true_pos",
                            "false_pos", "false_neg", "true_neg", "alpha",
                            "beta")
FLOCKING_SUMMARY_COLUMNS = ("method", "config", "windows", "mae_mean",
                            "mae_std", "density_min", "density_max")
FLOCKING_DETAIL_COLUMNS = ("method", "config", "window", "density", "mae",
                           "alpha", "beta")


def identify_with_encoder(X: np.ndarray, params: EncoderParams,
                          max_iters: int = SolverConfig.max_iters,
                          tol: float = SolverConfig.tol,
                          seed: int = 0) -> tuple[np.ndarray, float, float]:
    """Encoder-driven identification: the encoder gives the solver's
    distances (already scaled by theta) and its regularizers
    (alpha, beta) = (delta, 1 / delta), then the solver runs to
    convergence."""
    out = encode(X, params)
    y = half_vectorize(out.distances)
    cfg = SolverConfig(alpha=out.alpha, beta=out.beta, max_iters=max_iters,
                       tol=tol, seed=seed)
    res = identify_graph(y, X.shape[0], cfg)
    return devectorize(res.w, X.shape[0]), out.alpha, out.beta


def identify_fixed(X: np.ndarray, alpha: float, beta: float,
                   max_iters: int = SolverConfig.max_iters,
                   tol: float = SolverConfig.tol,
                   seed: int = 0) -> np.ndarray:
    """Fixed-parameter identification on raw distances, run once per state
    dimension and averaged."""
    if X.ndim != 3:
        raise DimensionError(f"expected an (n, s, d) tensor, got {X.shape}")
    n, s, _ = X.shape
    cfg = SolverConfig(alpha=alpha, beta=beta, max_iters=max_iters, tol=tol,
                       seed=seed)
    identified = []
    for dim in range(s):
        y = half_vectorize(distance_matrix(X[:, dim:dim + 1, :]))
        res = identify_graph(y, n, cfg)
        identified.append(devectorize(res.w, n))
    return np.mean(identified, axis=0)


@dataclass(frozen=True)
class FormationGrid:
    """Sweep over node counts and edge probabilities."""
    n_values: tuple[int, ...] = (10, 20, 30)
    p_values: tuple[float, ...] = (0.2,)
    repetitions: int = 20
    d: int = 2000
    sigma: float = 0.1
    seed: int = 0
    max_iters: int = SolverConfig.max_iters
    tol: float = SolverConfig.tol
    threshold: float = RECOVERY_THRESHOLD

    def __post_init__(self):
        # Checked here, before a sweep starts, so that a bad grid is a
        # config error that names its field rather than a failure midway.
        require_finite(self, ("sigma", "tol", "threshold"), InvariantError)
        if not all(_is_int(n) and n >= 2 for n in self.n_values):
            raise InvariantError("n_values must be integers of at least 2")
        if not all(_is_real(p) and 0 < p < 1 for p in self.p_values):
            raise InvariantError("p_values must lie strictly in (0, 1)")
        if self.repetitions < 1:
            raise InvariantError("repetitions must be at least 1")
        if self.d < 1:
            raise InvariantError("d must be at least 1")
        if self.sigma <= 0:
            raise InvariantError("sigma must be positive")
        if self.max_iters < 1:
            raise InvariantError("max_iters must be at least 1")
        if self.tol <= 0:
            raise InvariantError("tol must be positive")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _formation_case(grid: FormationGrid, n: int, p: float, rep: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic test instance for one (n, p, rep) cell."""
    root = np.random.default_rng([grid.seed, n, int(round(p * 1000)), rep])
    graph_seed, signal_seed = (int(s) for s in root.integers(2 ** 62, size=2))
    W = sample_er_graph(n, p, graph_seed)
    X = sample_smooth_signals(W, grid.sigma, grid.d, signal_seed)
    return W, X


def _identifier(params: EncoderParams | None,
                fixed: tuple[float, float] | None, max_iters: int, tol: float):
    """The sweep's method name and its ``identify(X, seed)``, which returns
    (W_hat, alpha, beta) from the trained encoder or the fixed
    (alpha, beta) baseline."""
    if (params is None) == (fixed is None):
        raise DimensionError("pass exactly one of params or fixed (alpha, beta)")
    if params is not None:
        def identify(X, seed):
            return identify_with_encoder(X, params, max_iters, tol, seed=seed)
        return "trained", identify
    alpha, beta = fixed

    def identify(X, seed):
        return (identify_fixed(X, alpha, beta, max_iters, tol, seed=seed),
                alpha, beta)
    return "baseline", identify


def formation_sweep(grid: FormationGrid, params: EncoderParams | None = None,
                    fixed: tuple[float, float] | None = None,
                    workers: int = 1):
    """Run the grid with either a trained encoder or fixed regularizers.

    Returns (summary_rows, detail_rows, matrices) where ``matrices`` maps
    (n, p) to the first repetition's (ground truth, identified) pair for
    qualitative dumps.  ``workers`` is accepted and ignored: the cases run
    one after another in the caller's thread.
    """
    method, identify = _identifier(params, fixed, grid.max_iters, grid.tol)
    summary, detail, matrices = [], [], {}
    for n in grid.n_values:
        for p in grid.p_values:
            maes, rates = [], []
            for rep in range(grid.repetitions):
                W, X = _formation_case(grid, n, p, rep)
                W_hat, alpha, beta = identify(X, rep)
                if rep == 0:
                    matrices[(n, p)] = (W, W_hat)
                err = mae(W_hat, W)
                counts = edge_recovery(W_hat, W, grid.threshold)
                maes.append(err)
                rates.append(counts.recovery_rate)
                detail.append({
                    "method": method, "n": n, "p": p, "rep": rep, "mae": err,
                    "true_pos": counts.true_pos, "false_pos": counts.false_pos,
                    "false_neg": counts.false_neg, "true_neg": counts.true_neg,
                    "alpha": alpha, "beta": beta,
                })
            summary.append({
                "method": method, "n": n, "p": p,
                "repetitions": grid.repetitions,
                "mae_mean": float(np.mean(maes)),
                "mae_std": float(np.std(maes)),
                "recovery_rate_mean": float(np.mean(rates)),
            })
    return summary, detail, matrices


def flocking_sweep(specs: list[FlockingSpec] | None = None,
                   params: EncoderParams | None = None,
                   fixed: tuple[float, float] | None = None,
                   max_iters: int = SolverConfig.max_iters,
                   tol: float = SolverConfig.tol, workers: int = 1,
                   records_by_config: list[list[SampleRecord]] | None = None):
    """Evaluate every window of each configuration.

    ``records_by_config`` short-circuits simulation when the windows are
    already available (re-used between trained and baseline runs, or loaded
    from a stored dataset); otherwise each spec is simulated.  ``workers``
    is accepted and ignored: the windows run one after another in the
    caller's thread.
    """
    method, identify = _identifier(params, fixed, max_iters, tol)
    if records_by_config is None:
        if specs is None:
            raise DimensionError("pass flocking specs or prebuilt records")
        records_by_config = [generate_flocking_windows(s) for s in specs]

    summary, detail = [], []
    for cfg_idx, records in enumerate(records_by_config):
        maes, densities = [], []
        for window, record in enumerate(records):
            W_hat, alpha, beta = identify(record.X, window)
            err = mae(W_hat, record.W)
            density = edge_density(record.W)
            maes.append(err)
            densities.append(density)
            detail.append({
                "method": method, "config": cfg_idx, "window": window,
                "density": density, "mae": err, "alpha": alpha, "beta": beta,
            })
        summary.append({
            "method": method, "config": cfg_idx, "windows": len(records),
            "mae_mean": float(np.mean(maes)), "mae_std": float(np.std(maes)),
            "density_min": float(np.min(densities)),
            "density_max": float(np.max(densities)),
        })
    return summary, detail


def write_csv(rows: list[dict], path, columns) -> None:
    """Fixed-column CSV writer; full-precision floats via repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])


def _cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


def write_matrix_csv(M: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(M):
            writer.writerow([repr(float(x)) for x in row])
