"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records every operation in construction order; ``backward`` walks
the record in reverse, accumulating vector-Jacobian products.  Every ``Var``
carries its own value, so a tape may also run unrecorded
(``Tape(record=False)``): its operations compute the same values and keep no
nodes, and an intermediate is freed as soon as nothing refers to it.  Such
a tape serves plain forward passes; ``backward`` refuses it.  The primitive
set is exactly what the encoder forward pass, the unrolled solver iterations,
and the training loss need; there is no fusion, no checkpointing, and no
GPU path.  Everything is float64: downstream thresholds at 1e-5 make single
precision risky.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError

_SQRT_GUARD = 1e-12


@dataclass
class _Node:
    value: np.ndarray
    parents: tuple[int, ...]
    vjp: Callable[[np.ndarray], tuple] | None


class Tape:
    """Operation record in construction order; single-owner during
    recording/backward.

    With ``record=False`` nothing is appended to ``nodes`` and the returned
    Vars have no index: they carry values only.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[_Node] = []

    def _push(self, value, parents=(), vjp=None) -> "Var":
        value = np.asarray(value, dtype=np.float64)
        if not self.record:
            return Var(self, None, value)
        self.nodes.append(_Node(value, parents, vjp))
        return Var(self, len(self.nodes) - 1, value)

    def leaf(self, value) -> "Var":
        """Register an input (parameter or constant) on the tape."""
        return self._push(value)

    def truncate(self, length: int) -> None:
        """Drop every node after the first ``length``; Vars recorded after
        them must not be used again."""
        del self.nodes[length:]


class Var:
    """A value computed on a tape, with its node index when recorded."""

    __slots__ = ("tape", "index", "value")

    def __init__(self, tape: Tape, index: int | None, value: np.ndarray):
        self.tape = tape
        self.index = index
        self.value = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Var(index={self.index}, shape={self.shape})"

    def __add__(self, other):
        return add(self, _wrap(self.tape, other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(self.tape, other))

    def __rsub__(self, other):
        return sub(_wrap(self.tape, other), self)

    def __mul__(self, other):
        return mul(self, _wrap(self.tape, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(self.tape, other))

    def __rtruediv__(self, other):
        return div(_wrap(self.tape, other), self)

    def __matmul__(self, other):
        return matmul(self, _wrap(self.tape, other))

    def __neg__(self):
        return scale(self, -1.0)

    @property
    def T(self):
        return transpose(self)

    def sum(self):
        return asum(self)

    def mean(self):
        return amean(self)


def _wrap(tape: Tape, x) -> Var:
    if isinstance(x, Var):
        if x.tape is not tape:
            raise DimensionError("cannot mix variables from different tapes")
        return x
    return tape.leaf(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to an operand's shape after numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _coerce(a, b) -> tuple[Var, Var]:
    if isinstance(a, Var):
        return a, _wrap(a.tape, b)
    if isinstance(b, Var):
        return _wrap(b.tape, a), b
    raise DimensionError("at least one operand must be a Var")


def _binary(a: Var, b: Var, op, vjp_a, vjp_b) -> Var:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise DimensionError(
            f"incompatible shapes {a.shape} and {b.shape}") from exc
    sa, sb = a.shape, b.shape

    def vjp(g):
        return (_unbroadcast(vjp_a(g), sa), _unbroadcast(vjp_b(g), sb))

    return a.tape._push(op(a.value, b.value), (a.index, b.index), vjp)


def add(a, b) -> Var:
    a, b = _coerce(a, b)
    return _binary(a, b, np.add, lambda g: g, lambda g: g)


def sub(a, b) -> Var:
    a, b = _coerce(a, b)
    return _binary(a, b, np.subtract, lambda g: g, lambda g: -g)


def mul(a, b) -> Var:
    a, b = _coerce(a, b)
    av, bv = a.value, b.value
    return _binary(a, b, np.multiply, lambda g: g * bv, lambda g: g * av)


def div(a, b) -> Var:
    a, b = _coerce(a, b)
    av, bv = a.value, b.value
    return _binary(a, b, np.divide,
                   lambda g: g / bv,
                   lambda g: -g * av / (bv * bv))


def matmul(a, b) -> Var:
    a, b = _coerce(a, b)
    av, bv = a.value, b.value
    if av.ndim == 2 and bv.ndim == 2:
        if av.shape[1] != bv.shape[0]:
            raise DimensionError(f"matmul mismatch {av.shape} @ {bv.shape}")

        def vjp(g):
            return (g @ bv.T, av.T @ g)
    elif av.ndim == 2 and bv.ndim == 1:
        if av.shape[1] != bv.shape[0]:
            raise DimensionError(f"matmul mismatch {av.shape} @ {bv.shape}")

        def vjp(g):
            return (np.outer(g, bv), av.T @ g)
    elif av.ndim == 1 and bv.ndim == 2:
        if av.shape[0] != bv.shape[0]:
            raise DimensionError(f"matmul mismatch {av.shape} @ {bv.shape}")

        def vjp(g):
            return (bv @ g, np.outer(av, g))
    else:
        raise DimensionError(
            f"matmul supports 2D/2D, 2D/1D and 1D/2D, got {av.shape} @ {bv.shape}")
    return a.tape._push(av @ bv, (a.index, b.index), vjp)


def transpose(a: Var) -> Var:
    if a.value.ndim != 2:
        raise DimensionError("transpose expects a 2D array")
    return a.tape._push(a.value.T.copy(), (a.index,), lambda g: (g.T,))


def scale(a: Var, c: float) -> Var:
    c = float(c)
    return a.tape._push(a.value * c, (a.index,), lambda g: (g * c,))


def asum(a: Var) -> Var:
    shape = a.shape
    return a.tape._push(np.sum(a.value), (a.index,),
                        lambda g: (np.broadcast_to(g, shape).copy(),))


def amean(a: Var) -> Var:
    shape = a.shape
    size = a.value.size
    return a.tape._push(np.mean(a.value), (a.index,),
                        lambda g: (np.broadcast_to(g / size, shape).copy(),))


def relu(a: Var) -> Var:
    mask = (a.value > 0).astype(np.float64)
    return a.tape._push(np.maximum(a.value, 0.0), (a.index,),
                        lambda g: (g * mask,))


def absolute(a: Var) -> Var:
    sign = np.sign(a.value)
    return a.tape._push(np.abs(a.value), (a.index,), lambda g: (g * sign,))


def sqrt(a: Var) -> Var:
    out = np.sqrt(a.value)
    guarded = np.sqrt(np.maximum(a.value, _SQRT_GUARD))
    return a.tape._push(out, (a.index,), lambda g: (g / (2.0 * guarded),))


def log(a: Var) -> Var:
    av = a.value
    return a.tape._push(np.log(av), (a.index,), lambda g: (g / av,))


def exp(a: Var) -> Var:
    out = np.exp(a.value)
    return a.tape._push(out, (a.index,), lambda g: (g * out,))


def tanh(a: Var) -> Var:
    out = np.tanh(a.value)
    return a.tape._push(out, (a.index,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Var) -> Var:
    av = a.value
    out = np.where(av >= 0, 1.0 / (1.0 + np.exp(-np.abs(av))),
                   np.exp(-np.abs(av)) / (1.0 + np.exp(-np.abs(av))))
    return a.tape._push(out, (a.index,), lambda g: (g * out * (1.0 - out),))


def softmax_rows(a: Var) -> Var:
    if a.value.ndim != 2:
        raise DimensionError("softmax_rows expects a 2D array")
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = np.sum(g * out, axis=1, keepdims=True)
        return (out * (g - dot),)

    return a.tape._push(out, (a.index,), vjp)


def concat(parts: Sequence[Var]) -> Var:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat needs at least one input")
    tape = parts[0].tape
    values = [p.value for p in parts]
    if any(v.ndim != values[0].ndim for v in values):
        raise DimensionError("concat inputs must share dimensionality")
    sizes = [v.shape[0] for v in values]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return tape._push(np.concatenate(values, axis=0),
                      tuple(p.index for p in parts), vjp)


def slice_rows(a: Var, start: int, stop: int) -> Var:
    av = a.value
    if not (0 <= start <= stop <= av.shape[0]):
        raise DimensionError(
            f"slice [{start}:{stop}] out of range for axis of size {av.shape[0]}")

    def vjp(g):
        full = np.zeros_like(av)
        full[start:stop] = g
        return (full,)

    return a.tape._push(av[start:stop].copy(), (a.index,), vjp)


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    old = a.shape
    return a.tape._push(a.value.reshape(shape), (a.index,),
                        lambda g: (g.reshape(old),))


def degree(w: Var, op) -> Var:
    """Node degrees ``S w`` of an edge-weight vector, with S in the index
    form of ``op`` (a ``graphcore.DegreeOperator``).  The VJP is
    ``S' g = op.pair_sum(g)``, O(n^2) like the forward pass."""
    return w.tape._push(op.degree(w.value), (w.index,),
                        lambda g: (op.pair_sum(g),))


def pair_sum(lam: Var, op) -> Var:
    """Per-edge sums ``S' lam`` of a node vector, the adjoint of ``degree``;
    its VJP is ``S g = op.degree(g)``."""
    return lam.tape._push(op.pair_sum(lam.value), (lam.index,),
                          lambda g: (op.degree(g),))


def pairwise_sqdist(a: Var) -> Var:
    """Squared Euclidean distances between the rows of a 2D array.

    The diagonal is identically zero, so no gradient flows through it.
    Rows are centered first: distances do not change, and the Gram-matrix
    expansion below then cancels far less when the rows sit close together.
    """
    X = a.value
    if X.ndim != 2:
        raise DimensionError("pairwise_sqdist expects a 2D array")
    X = X - X.mean(axis=0)
    sq = np.einsum("ij,ij->i", X, X)
    Y = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(Y, 0.0, out=Y)
    np.fill_diagonal(Y, 0.0)
    Y = (Y + Y.T) / 2.0

    def vjp(g):
        G = g.copy()
        np.fill_diagonal(G, 0.0)
        sym = G + G.T
        return (2.0 * (np.diag(sym.sum(axis=1)) - sym) @ X,)

    return a.tape._push(Y, (a.index,), vjp)


def vech_upper(a: Var) -> Var:
    """Strict upper triangle of a square matrix, row-major, as a vector."""
    M = a.value
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError("vech_upper expects a square matrix")
    n = M.shape[0]
    iu = np.triu_indices(n, k=1)

    def vjp(g):
        full = np.zeros_like(M)
        full[iu] = g
        return (full,)

    return a.tape._push(M[iu].copy(), (a.index,), vjp)


class Gradients:
    """Gradient lookup for every leaf recorded on a tape."""

    def __init__(self, tape: Tape, grads: list):
        self._tape = tape
        self._grads = grads

    def __getitem__(self, var: Var) -> np.ndarray:
        g = self._grads[var.index]
        if g is None:
            return np.zeros_like(var.value)
        return g


def backward(tape: Tape, output: Var) -> Gradients:
    """Reverse sweep from a scalar output; returns gradients for all nodes."""
    if not tape.record or output.tape is not tape:
        raise DimensionError(
            "backward needs an output recorded on the tape it sweeps")
    if output.value.size != 1:
        raise DimensionError(
            f"backward needs a scalar output, got shape {output.shape}")
    grads: list = [None] * len(tape.nodes)
    grads[output.index] = np.ones_like(output.value)
    for i in range(output.index, -1, -1):
        g = grads[i]
        node = tape.nodes[i]
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if grads[parent] is None:
                grads[parent] = np.zeros_like(tape.nodes[parent].value)
            grads[parent] += pg
    return Gradients(tape, grads)


@dataclass
class GradientCheckReport:
    max_rel_error: float
    rel_errors: list[np.ndarray]
    passed: bool


def gradient_check(build: Callable[[list[Var]], Var],
                   arrays: Sequence[np.ndarray],
                   step: float = 1e-5,
                   tolerance: float = 1e-4) -> GradientCheckReport:
    """Compare recorded gradients against central finite differences.

    ``build`` receives one leaf Var per input array on a fresh tape and must
    return a scalar Var.  Relative error per coordinate uses the symmetric
    denominator |fd| + |analytic| + 1e-10.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    def evaluate(inputs):
        tape = Tape()
        leaves = [tape.leaf(a) for a in inputs]
        out = build(leaves)
        return tape, leaves, out

    tape, leaves, out = evaluate(arrays)
    grads = backward(tape, out)
    analytic = [grads[leaf].copy() for leaf in leaves]

    rel_errors = []
    worst = 0.0
    for idx, base in enumerate(arrays):
        err = np.zeros_like(base)
        flat = base.reshape(-1)
        for j in range(flat.size):
            bumped = [a.copy() for a in arrays]
            bumped[idx].reshape(-1)[j] = flat[j] + step
            _, _, hi = evaluate(bumped)
            bumped[idx].reshape(-1)[j] = flat[j] - step
            _, _, lo = evaluate(bumped)
            fd = (float(hi.value) - float(lo.value)) / (2.0 * step)
            an = analytic[idx].reshape(-1)[j]
            err.reshape(-1)[j] = abs(an - fd) / (abs(fd) + abs(an) + 1e-10)
        rel_errors.append(err)
        if err.size:
            worst = max(worst, float(err.max()))
    return GradientCheckReport(max_rel_error=worst, rel_errors=rel_errors,
                               passed=worst <= tolerance)
