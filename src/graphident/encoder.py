"""Self-attention trajectory encoder.

Maps an (n, s, d) trajectory tensor to an (n, d) feature matrix whose row
distances feed the graph solver, plus the two regularization weights the
solver needs.  The pipeline:

1. a small fully connected stack turns every individual state vector
   (length s) into one scalar feature, giving an n x d feature matrix;
2. single-head self-attention mixes the per-node feature rows;
3. an optional per-feature stack refines each scalar (identity when empty);
4. pairwise squared distances of the refined rows are taken.  The
   formation encoder is scale-free: it divides them by their off-diagonal
   mean (leaving them as they are when that mean is at round-off level, as
   for identical trajectories).  Their scale is a nuisance there, and one
   that follows n: the generator's covariance pinv(L) shrinks with the
   degree, and attention averages over more rows as n grows.  The flocking
   encoder keeps the raw distances, whose scale is physical (robots
   interact inside a fixed radius) and carries the window's edge density;
5. two sigmoid-capped heads read one statistic of the distances and
   predict the solver's regularizers in the (theta, delta) form of
   Kalofolias & Perraudin (ICLR 2019).  The scale-free encoder reads the
   variance of the normalized distances (the squared coefficient of
   variation), so the heads' input, and with it their output, stays in
   place across node counts.  The flocking encoder reads the raw mean
   distance.  The solver objective obeys

       w*(y; alpha, beta) = delta * w*(theta * y; 1, 1),
       theta = 1 / sqrt(alpha * beta),   delta = sqrt(alpha / beta),

   so theta alone sets sparsity and delta only scales the weights.  The
   theta head emits log(theta) in (-b, b); theta multiplies the distances
   of step 4, and the result is the ``distances`` the solver consumes.  The
   delta head emits a per-pair scale g in (0, 1) and delta = (n - 1) * g,
   whose log is smoothly clipped into (0, b) (exact away from the bounds,
   see ``_soft_clip``).  The solver then runs with alpha = delta and
   beta = 1 / delta, so alpha lies in (1, e^b) and beta in (e^-b, 1).

Why delta grows with n - 1: the log barrier gives every node a degree of
order delta whatever its true degree, so a delta that ignores n fixes the
mean degree.  Scaling delta with n - 1 fixes the edge density instead.  The
evaluation graphs are Erdos-Renyi at a fixed edge probability, whose mean
degree p (n - 1) grows with n while the density stays put, so the density
is the quantity to hold.  Neither the paper nor the README settles this
choice; a family whose mean degree stays fixed as n grows would want delta
held fixed instead.

The forward pass is written once, on the autodiff tape.  Training records
it (``encode_on_tape``) and differentiates through it; plain evaluation
(``encode``) runs the same operations on an unrecorded tape, which computes
the same values bit for bit and keeps no intermediates.  Each fully
connected stack (fc1, fc2 and the two heads) is one ``ad.mlp`` node, which
on an unrecorded tape holds one block of rows per layer, not the n * d
rows of every layer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError

FORMATION_FC1 = (2, 5, 10, 5, 1)
FORMATION_FC2 = (1, 2, 1)
HEAD_WIDTHS = (1, 2, 1)
FORMATION_SCALE = 5.0
FORMATION_SCALE_FREE = True

FLOCKING_FC1 = (2, 4, 4, 1)
FLOCKING_FC2 = ()
FLOCKING_SCALE = 3.0
FLOCKING_SCALE_FREE = False

_ZERO_DISTANCE = 1e-9
_CLIP_KNEE = 0.1

Layer = tuple[np.ndarray, np.ndarray]
# The stacks of ``EncoderParams`` in the canonical order.
STACKS = ("fc1", "fc2", "head_theta", "head_delta")


@dataclass
class EncoderParams:
    """Weights of the four stacks, the fixed head output scale, and whether
    the distances are normalized to a scale-free form (module docstring,
    steps 4 and 5)."""
    fc1: list[Layer]
    fc2: list[Layer]
    head_theta: list[Layer]
    head_delta: list[Layer]
    scale: float
    seed: int
    scale_free: bool

    @property
    def fc1_widths(self) -> tuple[int, ...]:
        return _stack_widths(self.fc1)

    @property
    def fc2_widths(self) -> tuple[int, ...]:
        return _stack_widths(self.fc2)

    @property
    def head_widths(self) -> tuple[int, ...]:
        return _stack_widths(self.head_theta)

    def num_parameters(self) -> int:
        return sum(a.size for a in params_to_arrays(self))


@dataclass(frozen=True)
class EncoderOutput:
    """``distances`` is the solver input: the distances of the module
    docstring's step 4 times ``theta``.  ``alpha`` and ``beta`` are the
    solver's regularizers for it."""
    features: np.ndarray
    distances: np.ndarray
    alpha: float
    beta: float
    theta: float


def _stack_widths(stack: list[Layer]) -> tuple[int, ...]:
    if not stack:
        return ()
    return tuple([stack[0][0].shape[0]] + [w.shape[1] for w, _ in stack])


def _validate_widths(fc1, fc2, head, scale):
    for name, widths in (("fc1", fc1), ("fc2", fc2), ("head", head)):
        if any(int(w) != w or w < 1 for w in widths):
            raise DimensionError(f"{name} widths must be positive integers")
    if len(fc1) < 2 or fc1[-1] != 1:
        raise DimensionError("per-state stack must end in a single feature")
    if fc2 and (len(fc2) < 2 or fc2[0] != 1 or fc2[-1] != 1):
        raise DimensionError("per-feature stack must map one scalar to one scalar")
    if len(head) < 2 or head[0] != 1 or head[-1] != 1:
        raise DimensionError("head stacks must map one scalar to one scalar")
    if scale <= 0:
        raise DimensionError("head output scale must be positive")


def _init_stack(widths, rng) -> list[Layer]:
    stack = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        stack.append((W, np.zeros(fan_out)))
    return stack


def init_params(fc1_widths=FORMATION_FC1, fc2_widths=FORMATION_FC2,
                head_widths=HEAD_WIDTHS, scale=FORMATION_SCALE,
                seed: int = 0,
                scale_free: bool = FORMATION_SCALE_FREE) -> EncoderParams:
    """Seeded uniform initialization: weights on [-1/sqrt(fan_in),
    +1/sqrt(fan_in)], biases zero."""
    _validate_widths(fc1_widths, fc2_widths, head_widths, scale)
    rng = np.random.default_rng(seed)
    return EncoderParams(
        fc1=_init_stack(fc1_widths, rng),
        fc2=_init_stack(fc2_widths, rng) if fc2_widths else [],
        head_theta=_init_stack(head_widths, rng),
        head_delta=_init_stack(head_widths, rng),
        scale=float(scale),
        seed=int(seed),
        scale_free=bool(scale_free),
    )


def formation_params(seed: int = 0) -> EncoderParams:
    return init_params(FORMATION_FC1, FORMATION_FC2, HEAD_WIDTHS,
                       FORMATION_SCALE, seed)


def flocking_params(seed: int = 0) -> EncoderParams:
    return init_params(FLOCKING_FC1, FLOCKING_FC2, HEAD_WIDTHS,
                       FLOCKING_SCALE, seed, FLOCKING_SCALE_FREE)


def params_to_arrays(params: EncoderParams) -> list[np.ndarray]:
    """Flatten to the canonical order: the stacks of ``STACKS`` in turn,
    each layer contributing weight then bias."""
    return [a for name in STACKS for layer in getattr(params, name)
            for a in layer]


def _regroup(flat: list, template: EncoderParams) -> dict[str, list]:
    """``flat``, in ``params_to_arrays`` order, cut into (weight, bias)
    pairs by stack name, as many per stack as ``template`` has layers."""
    pairs = zip(flat[::2], flat[1::2])
    return {name: [next(pairs) for _ in getattr(template, name)]
            for name in STACKS}


def arrays_to_params(arrays: list[np.ndarray],
                     template: EncoderParams) -> EncoderParams:
    """Rebuild an EncoderParams from the canonical flat array list."""
    like = params_to_arrays(template)
    if len(arrays) != len(like):
        raise DimensionError(f"{len(arrays)} arrays for an encoder layout "
                             f"of {len(like)}")
    return dataclasses.replace(template, **_regroup(
        [a.reshape(t.shape) for a, t in zip(arrays, like)], template))


def _softplus(x: ad.Var) -> ad.Var:
    return ad.log(ad.add(ad.exp(x), 1.0))


def _soft_clip(x: ad.Var, upper: float) -> ad.Var:
    """Smooth clip of ``x`` into the open interval (0, upper): within
    rounding of ``x`` more than a few ``_CLIP_KNEE`` inside the interval,
    and never flat, so a head pushed past a bound still gets a gradient
    back."""
    inv = 1.0 / _CLIP_KNEE
    return ad.scale(ad.sub(_softplus(ad.scale(x, inv)),
                           _softplus(ad.scale(ad.sub(x, upper), inv))),
                    _CLIP_KNEE)


def lift_params(tape: ad.Tape, params: EncoderParams):
    """Register every parameter array as a leaf on the tape; returns the same
    stack structure holding Vars, plus the flat leaf list in canonical order."""
    flat = [tape.leaf(a) for a in params_to_arrays(params)]
    return _regroup(flat, params), flat


def encode_on_tape(tape: ad.Tape, X: np.ndarray, stacks: dict,
                   params: EncoderParams):
    """Record the full encoder forward pass.

    Returns (features, distances, y, alpha, beta, theta) as Vars, where
    ``distances`` is the solver's input matrix (see the module docstring)
    and ``y`` its half-vectorization in the solver's edge ordering.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise DimensionError(f"expected an (n, s, d) tensor, got {X.shape}")
    n, s, d = X.shape
    if n < 2:
        raise DimensionError("need at least two nodes")
    if s != stacks["fc1"][0][0].shape[0]:
        raise DimensionError(
            f"state dimension {s} does not match encoder input width "
            f"{stacks['fc1'][0][0].shape[0]}")

    # One row per (node, time) state vector, node-major.
    batch = tape.leaf(X.transpose(0, 2, 1).reshape(n * d, s))
    h = ad.mlp(batch, stacks["fc1"], "tanh")
    feats = ad.reshape(h, (n, d))

    attention = ad.softmax_rows(
        ad.scale(ad.matmul(feats, ad.transpose(feats)), 1.0 / np.sqrt(d)))
    mixed = ad.matmul(attention, feats)

    if stacks["fc2"]:
        h2 = ad.reshape(mixed, (n * d, 1))
        h2 = ad.mlp(h2, stacks["fc2"], "linear")
        features = ad.reshape(h2, (n, d))
    else:
        features = mixed

    distances = ad.pairwise_sqdist(features)
    mean = ad.amean(ad.vech_upper(distances))  # the diagonal is zero
    if params.scale_free:
        # Distances at the round-off level of the feature norms count as zero.
        floor = _ZERO_DISTANCE * float(
            np.mean(np.sum(features.value ** 2, axis=1)))
        if mean.value > floor:
            distances = ad.div(distances, mean)
        centered = ad.sub(ad.vech_upper(distances),
                          ad.amean(ad.vech_upper(distances)))
        stat = ad.amean(ad.mul(centered, centered))
    else:
        stat = mean
    stat = ad.reshape(stat, (1, 1))

    gate_theta = ad.mlp(stat, stacks["head_theta"], "sigmoid")
    gate_delta = ad.mlp(stat, stacks["head_delta"], "sigmoid")
    theta = ad.exp(ad.reshape(
        ad.scale(ad.sub(ad.scale(gate_theta, 2.0), 1.0), params.scale), ()))
    log_delta = _soft_clip(
        ad.log(ad.reshape(ad.scale(gate_delta, float(n - 1)), ())),
        params.scale)
    alpha = ad.exp(log_delta)
    beta = ad.exp(ad.scale(log_delta, -1.0))

    distances = ad.mul(distances, theta)
    y = ad.vech_upper(distances)
    return features, distances, y, alpha, beta, theta


def encode(X: np.ndarray, params: EncoderParams) -> EncoderOutput:
    """Plain forward pass, on an unrecorded tape: the values of
    ``encode_on_tape`` without its record."""
    tape = ad.Tape(record=False)
    stacks, _ = lift_params(tape, params)
    features, distances, _, alpha, beta, theta = encode_on_tape(
        tape, X, stacks, params)
    return EncoderOutput(features=features.value,
                         distances=distances.value,
                         alpha=float(alpha.value),
                         beta=float(beta.value),
                         theta=float(theta.value))
