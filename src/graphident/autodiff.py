"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records every operation in construction order; ``backward`` walks
the record in reverse, accumulating vector-Jacobian products.  Every ``Var``
carries its own value, so a tape may also run unrecorded
(``Tape(record=False)``): its operations compute the same values and keep no
nodes, and an intermediate is freed as soon as nothing refers to it.  Such
a tape serves plain forward passes; ``backward`` refuses it.  The primitive
set covers the encoder forward pass and the training loss.  Two hot
chains are single nodes with hand-written VJPs: ``mlp``, one fully
connected stack, which runs its rows through every layer in cache-sized
blocks, and the unrolled solve, which training records through ``custom``
with the solver's own reverse step.  ``mlp`` routes its narrow products,
outer products and ``G @ W.T``, around OpenBLAS's slow paths for them,
with the same bits (see its docstring).  There is no checkpointing and
no GPU path.  Everything is float64: downstream thresholds at 1e-5 make
single precision risky.

A recorded ``mlp`` takes its layer outputs, its input's adjoint and its
reverse sweep's block-sized scratch from a small pool keyed by shape, so a
training step reuses the previous step's pages instead of faulting fresh
ones in.  A pooled array goes out again only when nothing refers to it: a
numpy view refers to the array that owns its memory, so every value, view,
gradient and node built on it counts.  Unrecorded tapes do not pool: plain
encoding shows no fault churn, and a pool would keep identification's
largest arrays resident.

A recorded ``mlp`` of two or more row blocks, with BLAS on one thread,
runs them on two threads, forward and back: the caller, and one worker
thread that the first such call starts and that lives as long as the
process (``_in_two``).  numpy releases the GIL inside BLAS products and
inside ufunc loops over blocks this large, so the two share the cores.
Each block writes only its own rows and its own gradient shares, and the
shares are summed in block order once both threads are done, so the bits
do not depend on the schedule.  The caller takes the worker's scratch from
the pool too: scratch that the worker allocated itself came from another
malloc arena, whose pages were faulted in afresh at every step.  Where
BLAS runs on more threads (``_blas_threads``), as it does by default,
every stack stays in the caller's thread: after each product on two BLAS
threads, OpenBLAS's own worker spins on the second core for about 130 ms,
so a second thread of ours only contends with it, and desk formation
training measured no faster with one.  Unrecorded tapes (plain encoding,
identification, the sweeps) and stacks of one block stay in the caller's
thread too.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError
from .graphcore import distance_matrix, upper_indices

_SQRT_GUARD = 1e-12
# Rows per block of ``mlp``.  The widest encoder block, 8192 x 10 float64
# values (640 KiB), stays in a 2 MiB L2 cache through every layer.
_BLOCK_ROWS = 8192
# Full-size arrays that ``mlp`` reuses across recordings, by shape: a few
# arrays for each of the most recently used shapes (see ``_pooled``).
_POOL_SHAPES = 8
_POOL_PER_SHAPE = 4
_pool: OrderedDict[tuple[int, ...], list[np.ndarray]] = OrderedDict()
_pool_lock = threading.Lock()


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


def _pooled(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of ``shape``: a pooled one that nothing
    else refers to, if any.  ``mlp`` takes its recorded layer outputs,
    its input's adjoint and its VJP's scratch from here.  Arrays shorter
    than a block come from malloc's heap without page faults and are not
    pooled."""
    if shape[0] < _BLOCK_ROWS:
        return np.empty(shape)
    with _pool_lock:
        free = _pool.setdefault(shape, [])
        _pool.move_to_end(shape)
        if len(_pool) > _POOL_SHAPES:
            _pool.popitem(last=False)
        for a in free:
            # Three references: the list, ``a`` and getrefcount's argument.
            if sys.getrefcount(a) == 3:
                return a
        a = np.empty(shape)
        if len(free) < _POOL_PER_SHAPE:
            free.append(a)
        return a


def _row_blocks(begin: int, end: int, size: int) -> list[tuple[int, int]]:
    """(start, stop) of the row blocks of ``begin:end``, at most ``size``
    rows each.  No block has one row unless ``end - begin`` is 1: numpy
    multiplies a single row through another BLAS routine, whose sums may
    round differently."""
    starts = list(range(begin, end, size))
    if end - begin > 1 and (end - begin) % size == 1:
        starts[-1] -= 1
    return list(zip(starts, starts[1:] + [end]))


class _Worker:
    """A daemon thread that runs the tasks handed to it, in order."""

    def __init__(self):
        # Imported here: importing the package starts and loads no more
        # than it needs.
        from queue import SimpleQueue

        self._tasks = SimpleQueue()
        threading.Thread(target=self._serve, name="graphident-mlp",
                         daemon=True).start()

    def _serve(self) -> None:
        while True:
            task, done, errors = self._tasks.get()
            try:
                task()
            except BaseException as exc:
                errors.append(exc)
            # The task's arrays must be free again once the caller goes
            # on: ``_pooled`` counts their references.
            del task
            done.release()

    def run(self, mine: Callable[[], None],
            theirs: Callable[[], None]) -> None:
        """``mine()`` here while ``theirs()`` runs on the worker; raises
        the first error only after both have stopped.  Each call waits on
        a lock of its own: if an interrupt ends the wait early, the worker
        finishes the task, keeping its arrays, and no later call takes its
        signal."""
        done, errors = threading.Lock(), []
        done.acquire()
        self._tasks.put((theirs, done, errors))
        try:
            mine()
        finally:
            done.acquire()
        if errors:
            raise errors[0]


_worker: _Worker | None = None
_worker_lock = threading.Lock()


def _after_fork_in_child() -> None:
    """A forked child has none of its parent's threads, so no worker, and a
    lock that another thread held at the fork stays held: start afresh."""
    global _worker, _worker_lock, _pool_lock
    _worker, _worker_lock, _pool_lock = None, threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _in_two(mine: Callable[[], None], theirs: Callable[[], None]) -> None:
    """Run ``mine()`` in this thread and ``theirs()`` on the worker at
    once, starting the worker on first use.  Calls from several threads
    queue their halves on the one worker."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = _Worker()
        worker = _worker
    worker.run(mine, theirs)


@functools.cache
def _blas_thread_query() -> Callable[[], int]:
    """OpenBLAS's own thread-count function from the library numpy loaded,
    or one that returns 0 where there is none to find."""
    import ctypes

    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        # The names in numpy 2's wheels and in numpy 1's.
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_"):
            if hasattr(lib, name):
                return getattr(lib, name)
    return lambda: 0


def _blas_threads() -> int:
    """The number of threads numpy's BLAS runs a product on, or 0 where
    that cannot be read."""
    return _blas_thread_query()()


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


def mlp(h: Var, layers: Sequence[tuple[Var, Var]], last: str = "tanh") -> Var:
    """One node for a fully connected stack: ``h @ W + b`` per layer, then
    tanh, or ``last`` ("tanh", "linear" or "sigmoid") after the last layer.

    Rows run through every layer in cache-sized blocks; the bias is added
    from a copy tiled to the block, one contiguous loop where a broadcast
    add loops row by row.  Unrecorded, only the output is a full array.
    The values match the per-layer chain's numpy operations bit for bit.
    The VJP sweeps the same blocks back, and each block does all of its
    gradient work while in cache: the activation factor, its shares
    ``x.T @ G`` and ``G``'s column sums of each layer's weight and bias
    gradients, and ``G @ W.T`` for the layer below.  The input's adjoint
    matches the chain bit for bit.  The weight and bias gradients add up
    the blocks' shares, so their last bits may differ from the chain's
    sums over all rows.

    Products take the path that OpenBLAS runs fastest with the chain's
    bits.  One with a single column in its left factor, forward (fc2's
    1-to-2 layer) or back (``G`` of a layer with one output, the top of
    fc1 and fc2), is an outer product: one strided ``np.multiply`` per
    output column (``_product``).  ``G @ W.T`` with wider ``G`` multiplies
    a contiguous copy of ``W.T``, made once per sweep: the same sums as
    the transposed view, at up to three times its speed.  A 1-row block
    keeps the view, whose gemv rounds differently from the copy's.

    On a recorded tape, each layer's output and the input's adjoint come
    from ``_pooled``: the next recording of the same shapes reuses them
    once this one's values and gradients are gone.  So does the VJP's
    scratch, two block-sized buffers per thread: one holds each layer's
    ``G``, its activation factor formed in place, and the other the copy
    of ``G.T`` and then the layer below's adjoint.  An unrecorded tape
    keeps ``np.empty``: plain encoding makes only its output full size and
    shows no fault churn, and pooling would keep its largest arrays
    resident between calls.

    With BLAS on one thread, a recorded stack of two or more blocks shares
    them between the caller and the worker thread (``_in_two``).  Forward,
    each takes half of the rows, blocked by the same rule, since a row's
    values do not depend on its block.  Back, the caller takes the first
    half of the blocks, rounded up, and the worker the rest; the blocks
    stay those of one thread, since each block's gradient shares depend on
    its rows.  Every block writes only its rows of the outputs and of the
    input's adjoint and its own slot of the shares, which are summed in
    block order after both halves are done: the bits are those of one
    thread.  The caller allocates both threads' scratch, and an error in
    either half is raised once both have stopped.  A stack of one block,
    on an unrecorded tape, or with BLAS on more threads runs in the caller
    alone."""
    hv = h.value
    Ws, bs = [W.value for W, _ in layers], [b.value for _, b in layers]
    width = hv.shape[1] if hv.ndim == 2 else -1
    for W, b in zip(Ws, bs):
        if W.ndim != 2 or W.shape[0] != width or b.shape != (W.shape[1],):
            raise DimensionError(
                f"dense layer mismatch {hv.shape} @ {W.shape} + {b.shape}")
        width = W.shape[1]
    if not Ws:
        raise DimensionError("mlp needs at least one layer")
    if last not in ("tanh", "linear", "sigmoid"):
        raise ValueError(f"unknown activation {last!r}")
    acts, rows = ["tanh"] * (len(Ws) - 1) + [last], hv.shape[0]
    block = max(1, min(rows, _BLOCK_ROWS))
    blocks = _row_blocks(0, rows, block)
    tiles = [np.full((block, b.size), b) for b in bs]
    # Below the top layer, a recorded tape keeps a full array per layer, an
    # unrecorded one a block buffer.  Outputs go as the ufuncs' positional
    # third argument, which numpy parses faster than ``out=``.
    record = h.tape.record
    new = _pooled if record else np.empty
    outs = [new((rows if record else block, W.shape[1]))
            for W in Ws[:-1]] + [new((rows, width))]
    split = record and len(blocks) > 1 and _blas_threads() == 1

    def forward(begin, end):
        for start, stop in _row_blocks(begin, end, block):
            x = hv[start:stop]
            for i, (W, act, buf) in enumerate(zip(Ws, acts, outs)):
                at = start if len(buf) == rows else 0
                z = buf[at:at + stop - start]
                _product(x, W, z)
                z += tiles[i][:stop - start]
                if act == "tanh":
                    np.tanh(z, z)
                elif act == "sigmoid":
                    z[...] = _sigmoid(z)
                x = z

    if split:
        _in_two(lambda: forward(0, rows // 2),
                lambda: forward(rows // 2, rows))
    else:
        forward(0, rows)

    def vjp(g):
        # Contiguous copies of each ``W.T``, for blocks of 2 or more rows.
        WTs = [np.ascontiguousarray(W.T) for W in Ws]
        # Each block's share of every weight and bias gradient.  With one
        # block, the share is the gradient: no sum over blocks follows.
        part_Ws = [np.empty((len(blocks),) + W.shape) for W in Ws]
        part_bs = [np.empty((len(blocks),) + b.shape) for b in bs]
        g_h = _pooled(hv.shape)

        def sweep(ks, a, b):
            # Two flat block-sized buffers: ``a`` holds each layer's ``G``,
            # its activation factor formed in place; ``b`` holds a
            # contiguous copy of ``G.T``, whose rows numpy sums pairwise
            # (summed over axis 0 in place, ``G`` is added row by row:
            # slower, and less accurate), then the layer below's adjoint.
            for k in ks:
                start, stop = blocks[k]
                m = stop - start
                src = g[start:stop]   # the gradient of the top layer's output
                for i in range(len(Ws) - 1, -1, -1):
                    o, (fan_in, fan_out) = outs[i][start:stop], Ws[i].shape
                    G = (src if acts[i] == "linear"
                         else a[:m * fan_out].reshape(m, fan_out))
                    if acts[i] == "tanh":
                        np.multiply(o, o, G)
                        np.subtract(1.0, G, G)
                        np.multiply(src, G, G)
                    elif acts[i] == "sigmoid":
                        # Only the top layer, so ``src`` is ``g`` and ``b``
                        # is free for the factor.
                        t = b[:m * fan_out].reshape(m, fan_out)
                        np.multiply(src, o, G)
                        np.subtract(1.0, o, t)
                        G *= t
                    x = (outs[i - 1] if i else hv)[start:stop]
                    np.matmul(x.T, G, part_Ws[i][k])
                    cT = b[:G.size].reshape(fan_out, m)
                    np.copyto(cT, G.T)
                    np.add.reduce(cT, axis=1, out=part_bs[i][k])
                    src = (b[:m * fan_in].reshape(m, fan_in) if i
                           else g_h[start:stop])
                    _product(G, WTs[i] if m > 1 else Ws[i].T, src)

        # The caller takes every thread's scratch from the pool.
        shape = (block, max(W.shape[1] for W in Ws))
        bufs = [_pooled(shape).reshape(-1) for _ in range(4 if split else 2)]
        if split:
            half = (len(blocks) + 1) // 2
            _in_two(lambda: sweep(range(half), *bufs[:2]),
                    lambda: sweep(range(half, len(blocks)), *bufs[2:]))
        else:
            sweep(range(len(blocks)), *bufs)
        one = len(blocks) == 1
        return (g_h, *(p[0] if one else p.sum(axis=0)
                       for pair in zip(part_Ws, part_bs) for p in pair))

    parents = [h.index] + [v.index for pair in layers for v in pair]
    return h.tape._push(outs[-1], tuple(parents), vjp)


def _product(x: np.ndarray, W: np.ndarray, out: np.ndarray) -> None:
    """``x @ W`` into ``out``.  With one column in ``x`` the product is an
    outer product, which OpenBLAS runs at about half the speed of one
    strided ``np.multiply`` per output column.  Each entry is then one
    rounded product, as in BLAS, so the values are the same; only a zero
    product may carry a sign that BLAS drops."""
    if W.shape[0] == 1:
        for j in range(W.shape[1]):
            np.multiply(x[:, 0], W[0, j], out[:, j])
    else:
        np.matmul(x, W, out)


def custom(parents: Sequence[Var], value, vjp) -> Var:
    """Record ``value``, computed off the tape from ``parents``, as one
    node; ``vjp(g)`` returns one gradient per parent."""
    tape = parents[0].tape
    return tape._push(value, tuple(_wrap(tape, p).index for p in parents),
                      vjp)


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Var) -> Var:
    out = _sigmoid(a.value)
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
    expansion in ``graphcore.distance_matrix`` then cancels far less when
    the rows sit close together.
    """
    X = a.value
    if X.ndim != 2:
        raise DimensionError("pairwise_sqdist expects a 2D array")
    X = X - X.mean(axis=0)
    Y = distance_matrix(X)

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
    iu = upper_indices(M.shape[0])

    def vjp(g):
        full = np.zeros_like(M)
        full[iu] = g
        return (full,)

    return a.tape._push(M[iu], (a.index,), vjp)


class Gradients:
    """Gradient lookup for every node recorded on ``tape``."""

    def __init__(self, tape: Tape, grads: list):
        self._tape = tape
        self._grads = grads

    def __getitem__(self, var: Var) -> np.ndarray:
        if var.tape is not self._tape or var.index is None:
            raise DimensionError("variable not recorded on the swept tape")
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
            # Never add in place: a VJP may hand one array to two parents,
            # and += on a numpy scalar rebinds instead of updating.
            old = grads[parent]
            grads[parent] = pg if old is None else old + pg
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
