"""Synthetic data generators for the two experiment families.

Formation: a fixed random graph whose node positions are drawn from a
Gaussian process built on the pseudoinverse Laplacian, so neighboring nodes
move together (smooth graph signals).

Flocking: a point-robot swarm under a gradient-based interaction controller
with a smoothed distance norm, a finite-support bump weighting, and linear
position/velocity feedback toward a goal.  The bump weights double as the
time-varying ground-truth adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, InvariantError, SimulationError,
                     require_finite)
from .graphcore import laplacian, upper_indices

_EIG_ZERO = 1e-10
_SPEED_LIMIT = 1e3


@dataclass(frozen=True)
class FormationSpec:
    """Erdos-Renyi graph with Gaussian smooth position signals."""
    n: int = 20
    p: float = 0.2
    sigma: float = 0.1
    d: int = 2000
    seed: int = 0

    def __post_init__(self):
        require_finite(self, ("p", "sigma"), InvariantError)
        if not 0 < self.p < 1:
            raise InvariantError("edge probability must lie strictly in (0, 1)")
        if self.sigma <= 0:
            raise InvariantError("noise level must be positive")
        if self.n < 2:
            raise InvariantError("need at least 2 nodes")
        if self.d < 1:
            raise InvariantError("need at least one sample")

    def to_dict(self) -> dict:
        return {"kind": "formation", "n": self.n, "p": self.p,
                "sigma": self.sigma, "d": self.d, "seed": self.seed}


@dataclass(frozen=True)
class FlockingSpec:
    """Swarm simulation parameters; lengths in meters, times in seconds."""
    n: int = 20
    rho: float = 0.7
    r_comm: float = 1.2
    duration: float = 6.0
    dt: float = 0.04
    spawn_side: float = 5.0
    goal: tuple[float, float] = (0.0, 0.0)
    eps: float = 0.1
    a: float = 5.0
    b: float = 5.0
    h: float = 0.2
    c1: float = 0.4
    c2: float = 0.8
    d: int = 10
    seed: int = 0

    def __post_init__(self):
        # A float pair whatever sequence of numbers came in, so that
        # [1, 2] and (1.0, 2.0) write the same dataset header.
        try:
            gx, gy = (float(g) for g in self.goal)
        except (TypeError, ValueError) as exc:
            raise InvariantError("goal must be an [x, y] pair") from exc
        object.__setattr__(self, "goal", (gx, gy))
        require_finite(self, ("rho", "r_comm", "duration", "dt", "spawn_side",
                              "goal", "eps", "a", "b", "h", "c1", "c2"),
                       InvariantError)
        if self.rho >= self.r_comm:
            raise InvariantError("desired spacing must be below the comm radius")
        if self.dt <= 0:
            raise InvariantError("time step must be positive")
        if self.n < 1:
            raise InvariantError("need at least one robot")

    def to_dict(self) -> dict:
        return {"kind": "flocking", "n": self.n, "rho": self.rho,
                "r_comm": self.r_comm, "duration": self.duration,
                "dt": self.dt, "spawn_side": self.spawn_side,
                "goal_x": self.goal[0], "goal_y": self.goal[1],
                "eps": self.eps, "a": self.a, "b": self.b, "h": self.h,
                "c1": self.c1, "c2": self.c2, "d": self.d, "seed": self.seed}


@dataclass
class SampleRecord:
    """One trajectory window paired with its ground-truth graph."""
    X: np.ndarray            # (n, s, d)
    W: np.ndarray            # (n, n)
    meta: dict = field(default_factory=dict)


def sample_er_graph(n: int, p: float, seed: int) -> np.ndarray:
    """Unit-weight Erdos-Renyi adjacency: each unordered pair is an edge
    independently with probability p."""
    rng = np.random.default_rng(seed)
    iu = upper_indices(n)
    edges = (rng.uniform(size=len(iu[0])) < p).astype(np.float64)
    W = np.zeros((n, n))
    W[iu] = edges
    return W + W.T


def smooth_signal_root(W: np.ndarray, sigma: float) -> np.ndarray:
    """Symmetric square root of (pinv(L) + sigma I) via eigendecomposition.

    Laplacian eigenvalues below 1e-10 are treated as zero when inverting.
    """
    try:
        evals, evecs = np.linalg.eigh(laplacian(W))
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"eigendecomposition failed: {exc}") from exc
    inv = np.where(evals > _EIG_ZERO, 1.0 / np.maximum(evals, _EIG_ZERO), 0.0)
    return (evecs * np.sqrt(inv + sigma)) @ evecs.T


def sample_smooth_signals(W: np.ndarray, sigma: float, d: int,
                          seed: int | np.random.Generator,
                          root: np.ndarray | None = None) -> np.ndarray:
    """(n, 2, d) positions: each time sample of each coordinate is an
    independent zero-mean Gaussian with covariance pinv(L) + sigma I."""
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    if root is None:
        root = smooth_signal_root(W, sigma)
    n = W.shape[0]
    draws = rng.standard_normal(size=(2, d, n))
    return np.einsum("mn,cdn->mcd", root, draws).reshape(n, 2, d)


def generate_formation_sample(spec: FormationSpec) -> SampleRecord:
    """One graph plus one window of smooth signals, both from the spec seed."""
    W = sample_er_graph(spec.n, spec.p, spec.seed)
    X = sample_smooth_signals(W, spec.sigma, spec.d, spec.seed + 1)
    return SampleRecord(X=X, W=W, meta=dict(spec.to_dict(), window=0))


# --- flocking controller ----------------------------------------------------

def _sigma_norm(sq_dist, eps):
    """Smoothed norm of a squared distance: differentiable at zero."""
    return (np.sqrt(1.0 + eps * sq_dist) - 1.0) / eps


def _bump(z, h):
    """Smooth cutoff: 1 on [0, h), cosine taper on [h, 1], 0 beyond."""
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros_like(z)
    out[z < h] = 1.0
    taper = (z >= h) & (z <= 1.0)
    out[taper] = 0.5 * (1.0 + np.cos(np.pi * (z[taper] - h) / (1.0 - h)))
    out[z < 0] = 0.0
    return out


def _soft_sign(z):
    return z / np.sqrt(1.0 + z * z)


def _pair_forces(positions, velocities, spec: FlockingSpec
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-based spacing force plus velocity consensus over the
    bump-weighted neighborhood, and that neighborhood: the instantaneous
    ground-truth graph, bump weights in [0, 1] for pairs inside the
    communication radius, zero diagonal."""
    diff = positions[None, :, :] - positions[:, None, :]   # diff[i,j] = q_j - q_i
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    sig = _sigma_norm(sq, spec.eps)
    r_sig = _sigma_norm(spec.r_comm ** 2, spec.eps)
    d_sig = _sigma_norm(spec.rho ** 2, spec.eps)

    gate = _bump(sig / r_sig, spec.h)
    np.fill_diagonal(gate, 0.0)

    # Action profile: zero at the desired spacing, asymmetry set by (a, b).
    shift = abs(spec.a - spec.b) / np.sqrt(4.0 * spec.a * spec.b)
    z = sig - d_sig
    action = 0.5 * ((spec.a + spec.b) * _soft_sign(z + shift)
                    + (spec.a - spec.b))
    magnitude = gate * action

    # Smoothed unit vectors q_j - q_i scaled by 1/sqrt(1 + eps |q_j - q_i|^2).
    direction = diff / np.sqrt(1.0 + spec.eps * sq)[:, :, None]
    spacing = np.einsum("ij,ijk->ik", magnitude, direction)

    vel_diff = velocities[None, :, :] - velocities[:, None, :]
    consensus = np.einsum("ij,ijk->ik", gate, vel_diff)
    return spacing + consensus, gate


def simulate_flocking(spec: FlockingSpec,
                      initial_positions: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the swarm; returns positions (n, 2, T) and the adjacency
    sequence (T, n, n) sampled at every step.

    Robots spawn at rest, uniformly on [-spawn_side, spawn_side]^2 around the
    goal; the square matches the sparse early graphs the task expects.
    ``initial_positions`` overrides the random spawn (shape (n, 2)).
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    steps = int(round(spec.duration / spec.dt))
    goal = np.asarray(spec.goal, dtype=np.float64)

    if initial_positions is None:
        positions = rng.uniform(-spec.spawn_side, spec.spawn_side, size=(n, 2))
    else:
        positions = np.array(initial_positions, dtype=np.float64)
        if positions.shape != (n, 2):
            raise DimensionError(
                f"initial positions must be ({n}, 2), got {positions.shape}")
    velocities = np.zeros((n, 2))

    traj = np.zeros((n, 2, steps))
    graphs = np.zeros((steps, n, n))
    for t in range(steps):
        traj[:, :, t] = positions
        force, graphs[t] = _pair_forces(positions, velocities, spec)
        accel = force - spec.c1 * (positions - goal) - spec.c2 * velocities
        velocities = velocities + spec.dt * accel
        positions = positions + spec.dt * velocities
        speed = np.linalg.norm(velocities, axis=1).max() if n else 0.0
        if not np.isfinite(speed) or speed > _SPEED_LIMIT:
            raise SimulationError(
                f"speed {speed:.3g} exceeded the sanity bound at step {t}")
    return traj, graphs


def window_trajectories(traj: np.ndarray, graphs: np.ndarray, d: int,
                        meta: dict | None = None) -> list[SampleRecord]:
    """Split into non-overlapping windows of length d; each window's ground
    truth is the elementwise mean of its instantaneous graphs.  A trailing
    remainder shorter than d is dropped."""
    T = traj.shape[2]
    if d > T:
        raise DimensionError(f"window length {d} exceeds trajectory length {T}")
    count = T // d
    records = []
    for k in range(count):
        sl = slice(k * d, (k + 1) * d)
        records.append(SampleRecord(
            X=traj[:, :, sl].copy(),
            W=graphs[sl].mean(axis=0),
            meta=dict(meta or {}, window=k)))
    return records


def generate_flocking_windows(spec: FlockingSpec) -> list[SampleRecord]:
    traj, graphs = simulate_flocking(spec)
    return window_trajectories(traj, graphs, spec.d, meta=spec.to_dict())
