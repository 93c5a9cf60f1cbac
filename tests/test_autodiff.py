"""Autodiff engine tests: every primitive against central finite differences,
plus the backward-pass contracts."""

import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from collections import OrderedDict

import numpy as np
import pytest

from graphident import autodiff as ad
from graphident.errors import DimensionError
from graphident.graphcore import DegreeOperator

RNG = np.random.default_rng(123)


def check(build, arrays, tolerance=1e-4, step=1e-5):
    report = ad.gradient_check(build, arrays, step=step, tolerance=tolerance)
    assert report.passed, f"max rel error {report.max_rel_error}"
    return report


class TestPrimitiveGradients:
    def test_add(self):
        check(lambda v: ad.asum(ad.add(v[0], v[1])),
              [RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))])

    def test_sub(self):
        check(lambda v: ad.asum(ad.sub(v[0], v[1])),
              [RNG.normal(size=5), RNG.normal(size=5)])

    def test_mul(self):
        check(lambda v: ad.asum(ad.mul(v[0], v[1])),
              [RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3))])

    def test_div(self):
        check(lambda v: ad.asum(ad.div(v[0], v[1])),
              [RNG.normal(size=4), RNG.uniform(1.0, 2.0, size=4)])

    def test_matmul_2d(self):
        check(lambda v: ad.asum(ad.matmul(v[0], v[1])),
              [RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))])

    def test_matmul_matrix_vector(self):
        check(lambda v: ad.asum(ad.matmul(v[0], v[1])),
              [RNG.normal(size=(3, 4)), RNG.normal(size=4)])

    def test_matmul_vector_matrix(self):
        check(lambda v: ad.asum(ad.matmul(v[0], v[1])),
              [RNG.normal(size=3), RNG.normal(size=(3, 4))])

    def test_transpose(self):
        check(lambda v: ad.asum(ad.mul(ad.transpose(v[0]), v[1])),
              [RNG.normal(size=(2, 5)), RNG.normal(size=(5, 2))])

    def test_sum_and_mean(self):
        check(lambda v: ad.mul(ad.asum(v[0]), ad.amean(v[0])),
              [RNG.normal(size=(3, 3))])

    def test_relu_away_from_kink(self):
        x = RNG.normal(size=10)
        x[np.abs(x) < 1e-2] = 0.5
        check(lambda v: ad.asum(ad.relu(v[0])), [x])

    def test_sqrt(self):
        check(lambda v: ad.asum(ad.sqrt(v[0])), [RNG.uniform(0.5, 2.0, size=6)])

    def test_log(self):
        check(lambda v: ad.asum(ad.log(v[0])), [RNG.uniform(0.5, 3.0, size=6)])

    def test_exp(self):
        check(lambda v: ad.asum(ad.exp(v[0])), [RNG.normal(size=6)])

    def test_tanh(self):
        check(lambda v: ad.asum(ad.tanh(v[0])), [RNG.normal(size=6)])

    def test_sigmoid(self):
        check(lambda v: ad.asum(ad.sigmoid(v[0])), [RNG.normal(size=6)])

    def test_softmax_rows(self):
        check(lambda v: ad.asum(ad.mul(ad.softmax_rows(v[0]), v[1])),
              [RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3))])

    def test_scale(self):
        check(lambda v: ad.asum(ad.scale(v[0], 2.5)), [RNG.normal(size=4)])

    def test_concat(self):
        check(lambda v: ad.asum(ad.mul(ad.concat([v[0], v[1]]), v[2])),
              [RNG.normal(size=3), RNG.normal(size=2), RNG.normal(size=5)])

    def test_slice_rows(self):
        check(lambda v: ad.asum(ad.slice_rows(v[0], 1, 3)),
              [RNG.normal(size=(4, 2))])

    def test_abs_away_from_kink(self):
        x = RNG.normal(size=8)
        x[np.abs(x) < 1e-2] = -0.7
        check(lambda v: ad.asum(ad.absolute(v[0])), [x])

    def test_reshape(self):
        check(lambda v: ad.asum(ad.mul(ad.reshape(v[0], (6,)), v[1])),
              [RNG.normal(size=(2, 3)), RNG.normal(size=6)])

    def test_pairwise_sqdist(self):
        check(lambda v: ad.asum(ad.mul(ad.pairwise_sqdist(v[0]), v[1])),
              [RNG.normal(size=(4, 3)), RNG.normal(size=(4, 4))])

    def test_vech_upper(self):
        check(lambda v: ad.asum(ad.mul(ad.vech_upper(ad.pairwise_sqdist(v[0])),
                                       v[1])),
              [RNG.normal(size=(4, 2)), RNG.normal(size=6)])

    def test_scalar_broadcast(self):
        check(lambda v: ad.asum(ad.add(ad.mul(v[0], v[1]), v[1])),
              [RNG.normal(size=(3, 2)), np.array(0.7)])

    def test_row_broadcast_bias(self):
        check(lambda v: ad.asum(ad.tanh(ad.add(v[0], v[1]))),
              [RNG.normal(size=(4, 3)), RNG.normal(size=3)])

    def test_degree(self):
        op = DegreeOperator(5)
        rng = np.random.default_rng(7)
        check(lambda v: ad.asum(ad.mul(ad.degree(v[0], op), v[1])),
              [rng.normal(size=10), rng.normal(size=5)])

    def test_pair_sum(self):
        op = DegreeOperator(5)
        rng = np.random.default_rng(8)
        check(lambda v: ad.asum(ad.mul(ad.pair_sum(v[0], op), v[1])),
              [rng.normal(size=5), rng.normal(size=10)])


def chain_mlp(h, layers, last="tanh"):
    """The per-layer chain that ``ad.mlp`` fuses: matmul, add, then tanh
    (or ``last`` after the final layer) as separate primitives."""
    for i, (W, b) in enumerate(layers):
        h = ad.add(ad.matmul(h, W), b)
        act = last if i == len(layers) - 1 else "tanh"
        if act == "tanh":
            h = ad.tanh(h)
        elif act == "sigmoid":
            h = ad.sigmoid(h)
    return h


def stack_arrays(rows, widths, rng):
    arrays = [rng.normal(size=(rows, widths[0]))]
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        arrays += [rng.normal(size=(fan_in, fan_out)), rng.normal(size=fan_out)]
    return arrays


def value_and_grads(stack, arrays, last, r):
    """The stack's value and the gradients of sum(out * r) in every input."""
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = stack(leaves[0], list(zip(leaves[1::2], leaves[2::2])), last)
    grads = ad.backward(tape, ad.asum(ad.mul(out, r)))
    return [out.value] + [grads[leaf] for leaf in leaves]


def assert_gradients_near(grads, ref_grads):
    """Every gradient within 1e-12 of the largest reference gradient, the
    bound of the unroll node's op-by-op check.  ``ad.mlp`` sums its weight
    and bias gradients block by block, the chain over all rows at once, so
    their last bits may differ."""
    scale = max(np.abs(g).max() for g in ref_grads)
    assert scale > 0
    for a, b in zip(grads, ref_grads):
        assert np.abs(a - b).max() <= 1e-12 * scale


class TestDense:
    """``ad.mlp`` with one layer is the dense layer ``act(h @ W + b)``."""

    @pytest.mark.parametrize("act", ["tanh", "linear"])
    def test_gradient(self, act):
        check(lambda v: ad.asum(ad.mul(ad.mlp(v[0], [(v[1], v[2])], act),
                                       v[3])),
              [RNG.normal(size=(6, 3)), RNG.normal(size=(3, 4)),
               RNG.normal(size=4), RNG.normal(size=(6, 4))])

    @staticmethod
    def fused_and_chain(act):
        rng = np.random.default_rng(50)
        arrays = stack_arrays(50, (3, 5), rng)
        r = rng.normal(size=(50, 5))
        return (value_and_grads(ad.mlp, arrays, act, r),
                value_and_grads(chain_mlp, arrays, act, r))

    @pytest.mark.parametrize("act", ["tanh", "linear"])
    def test_bit_identical_to_the_chain(self, act):
        # The value and the input's adjoint; the weight and bias gradients
        # are summed block by block and checked just below.
        fused, chain = self.fused_and_chain(act)
        for a, c in zip(fused[:2], chain[:2]):
            assert np.array_equal(a, c)

    @pytest.mark.parametrize("act", ["tanh", "linear"])
    def test_gradients_near_the_chain(self, act):
        fused, chain = self.fused_and_chain(act)
        assert_gradients_near(fused[2:], chain[2:])

    def test_rejects_bad_shapes_and_activation(self):
        tape = ad.Tape()
        h, W = tape.leaf(np.ones((4, 3))), tape.leaf(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            ad.mlp(h, [(W, tape.leaf(np.ones(3)))])
        with pytest.raises(DimensionError):
            ad.mlp(h, [(tape.leaf(np.ones((2, 2))), tape.leaf(np.ones(2)))])
        with pytest.raises(DimensionError):
            ad.mlp(h, [])
        with pytest.raises(ValueError):
            ad.mlp(h, [(W, tape.leaf(np.ones(2)))], "relu")


class TestMlp:
    BLOCK = ad._BLOCK_ROWS

    ROWS = [1, 300, 2 * BLOCK, 2 * BLOCK + 1, 2 * BLOCK + 777]

    @staticmethod
    def fused_and_chain(rows, last, widths=(2, 5, 10, 5, 1)):
        # One row, less than a block, a multiple of the block, a one-row
        # tail and a longer ragged tail, by default through the formation
        # fc1 widths.
        rng = np.random.default_rng(rows)
        arrays = stack_arrays(rows, widths, rng)
        r = rng.normal(size=(rows, widths[-1]))
        return (value_and_grads(ad.mlp, arrays, last, r),
                value_and_grads(chain_mlp, arrays, last, r))

    @pytest.mark.parametrize("last", ["tanh", "linear", "sigmoid"])
    @pytest.mark.parametrize("rows", ROWS)
    def test_bit_identical_to_the_chain(self, rows, last):
        # The value and the input's adjoint; the weight and bias gradients
        # are summed block by block and checked just below.
        fused, chain = self.fused_and_chain(rows, last)
        for a, c in zip(fused[:2], chain[:2]):
            assert np.array_equal(a, c)

    @pytest.mark.parametrize("last", ["tanh", "linear", "sigmoid"])
    @pytest.mark.parametrize("rows", ROWS)
    def test_gradients_near_the_chain(self, rows, last):
        fused, chain = self.fused_and_chain(rows, last)
        assert_gradients_near(fused[2:], chain[2:])

    @pytest.mark.parametrize("last", ["tanh", "linear", "sigmoid"])
    @pytest.mark.parametrize("widths", [(1, 2, 1), (2, 4, 4, 1)])
    @pytest.mark.parametrize("rows", ROWS)
    def test_narrow_stacks_bit_identical_to_the_chain(self, rows, widths,
                                                      last):
        # The widths of fc2 and the heads, whose products are outer
        # products forward and back, and of the flocking fc1.  The value
        # and the input's adjoint keep every bit of the chain's, the sign
        # of each value included.
        fused, chain = self.fused_and_chain(rows, last, widths)
        for a, c in zip(fused[:2], chain[:2]):
            assert a.shape == c.shape and a.tobytes() == c.tobytes()

    @pytest.mark.parametrize("last", ["tanh", "linear", "sigmoid"])
    def test_gradient(self, last):
        def build(v):
            out = ad.mlp(v[0], [(v[1], v[2]), (v[3], v[4])], last)
            return ad.asum(ad.mul(out, v[5]))
        rng = np.random.default_rng(5)
        check(build, stack_arrays(7, (3, 4, 2), rng)
              + [rng.normal(size=(7, 2))])

    @pytest.mark.parametrize("last", ["tanh", "linear", "sigmoid"])
    @pytest.mark.parametrize("rows", [2 * BLOCK + 777, 2 * BLOCK + 1])
    def test_gradient_across_blocks(self, rows, last):
        # The weight and bias gradients add up one share per block.  Only
        # they are bumped; the input stays a constant.
        rng = np.random.default_rng(rows)
        h, *params = stack_arrays(rows, (2, 4, 3, 2), rng)
        r = rng.normal(size=(rows, 2))

        def build(v):
            out = ad.mlp(v[0].tape.leaf(h), list(zip(v[0::2], v[1::2])),
                         last)
            return ad.asum(ad.mul(out, r))
        check(build, params)

    def test_unrecorded_tape_keeps_no_node(self):
        rng = np.random.default_rng(6)
        arrays = stack_arrays(self.BLOCK + 100, (2, 5, 1), rng)

        def run(tape):
            leaves = [tape.leaf(a) for a in arrays]
            return ad.mlp(leaves[0], [(leaves[1], leaves[2]),
                                      (leaves[3], leaves[4])])

        plain = ad.Tape(record=False)
        out = run(plain)
        assert plain.nodes == []
        assert np.array_equal(out.value, run(ad.Tape()).value)

    def test_formation_training_tape_matches_the_chain(self, monkeypatch):
        # One formation training step (n=20, d=2000: 40,000 rows through
        # fc1 and fc2) recorded through the per-layer chain: the same
        # identified weights bit for bit, and encoder gradients within
        # the bound of ``assert_gradients_near``.
        from graphident import training
        from graphident.datagen import sample_er_graph, sample_smooth_signals
        from graphident.encoder import formation_params
        from graphident.graphcore import half_vectorize

        W = sample_er_graph(20, 0.2, 12)
        X = sample_smooth_signals(W, 0.1, 2000, 13)

        def grads():
            res = training.unrolled_identify(X, formation_params(0), 30,
                                             solver_seed=7)
            loss = training.loss_on_tape(res.w, half_vectorize(W))
            g = ad.backward(res.tape, loss)
            return res.w.value, [g[leaf] for leaf in res.param_leaves]

        w, fused = grads()
        monkeypatch.setattr(ad, "mlp", chain_mlp)
        ref_w, chain = grads()
        assert np.array_equal(w, ref_w)
        assert_gradients_near(fused, chain)


class TestArrayPool:
    """``mlp`` on a recorded tape reuses its full-size arrays across
    recordings, but never one that a value, view or gradient still uses."""

    ROWS = ad._BLOCK_ROWS + 100

    @pytest.fixture(autouse=True)
    def empty_pool(self, monkeypatch):
        monkeypatch.setattr(ad, "_pool", OrderedDict())

    def record(self, seed, rows=ROWS):
        rng = np.random.default_rng(seed)
        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in stack_arrays(rows, (2, 5, 1), rng)]
        out = ad.mlp(leaves[0], [(leaves[1], leaves[2]),
                                 (leaves[3], leaves[4])])
        loss = ad.asum(ad.mul(out, rng.normal(size=(rows, 1))))
        return tape, leaves, out, loss

    def test_older_values_views_and_gradients_survive(self):
        tape, leaves, out, loss = self.record(1)
        grads = ad.backward(tape, loss)
        value, view = out.value, out.value.reshape(-1)[::3]
        g_h = grads[leaves[0]]
        kept = [value.copy(), view.copy(), g_h.copy()]
        del tape, leaves, out, loss, grads
        tape, _, _, loss = self.record(2)
        ad.backward(tape, loss)
        for a, b in zip([value, view, g_h], kept):
            assert np.array_equal(a, b)

    def test_backward_twice_gives_the_same_gradients(self):
        tape, leaves, _, loss = self.record(3)
        first = ad.backward(tape, loss)
        first = [first[leaf] for leaf in leaves]
        kept = [g.copy() for g in first]
        second = ad.backward(tape, loss)
        for a, b, c in zip(first, kept, (second[leaf] for leaf in leaves)):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)

    def test_a_dropped_recording_is_reused(self):
        # The formation encoder's fc1 node is the first (n*d, 1) node.
        from graphident import training
        from graphident.datagen import sample_er_graph, sample_smooth_signals
        from graphident.encoder import formation_params

        X = sample_smooth_signals(sample_er_graph(20, 0.2, 12), 0.1, 2000, 13)

        def fc1_value():
            rec = training.record_encoder(X, formation_params(0))
            return next(node.value for node in rec.tape.nodes
                        if node.value.shape == (20 * 2000, 1))

        first = weakref.ref(fc1_value())
        second = fc1_value()
        assert first() is not None  # kept by the pool, not by the tape
        assert np.shares_memory(first(), second)

    def test_bounded_over_many_row_counts(self):
        def within_bounds():
            return (len(ad._pool) <= ad._POOL_SHAPES
                    and all(len(free) <= ad._POOL_PER_SHAPE
                            for free in ad._pool.values()))

        for k in range(2 * ad._POOL_SHAPES):
            tape, _, _, loss = self.record(k, self.ROWS + k)
            ad.backward(tape, loss)
        assert within_bounds()
        # More recordings of one shape alive at once than the pool keeps.
        alive = [self.record(k) for k in range(ad._POOL_PER_SHAPE + 2)]
        assert within_bounds()
        assert len(alive) == ad._POOL_PER_SHAPE + 2

    def test_threads_never_share_an_array(self):
        # Four threads (two cores here) record and sweep at once, each
        # keeping its last two recordings; a pooled array handed to two
        # of them would change one's values or gradients.
        def run(seed, results):
            kept = []
            for k in range(6):
                tape, leaves, out, loss = self.record(10 * seed + k)
                grads = ad.backward(tape, loss)
                kept = kept[-1:] + [(out.value, grads[leaves[0]])]
                results.append([a.copy() for a in kept[-1]])
            results.append(kept)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = [[] for _ in range(4)]
            threads = [threading.Thread(target=run, args=(s, results[s]))
                       for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for seed, res in enumerate(results):
            *copies, kept = res
            assert len(copies) == 6
            for live, copied in zip(kept, copies[-2:]):
                for a, b in zip(live, copied):
                    assert np.array_equal(a, b)
            tape, leaves, out, loss = self.record(10 * seed + 5)
            assert np.array_equal(out.value, copies[-1][0])
            assert np.array_equal(ad.backward(tape, loss)[leaves[0]],
                                  copies[-1][1])

    def test_unrecorded_encode_takes_nothing(self):
        from graphident.datagen import sample_er_graph, sample_smooth_signals
        from graphident.encoder import encode, formation_params

        X = sample_smooth_signals(sample_er_graph(20, 0.2, 12), 0.1, 2000, 13)
        encode(X, formation_params(0))
        assert len(ad._pool) == 0


class TestWorker:
    """On one BLAS thread, a recorded ``mlp`` of two or more blocks shares
    them between the caller and one worker thread; everything else runs in
    the caller."""

    ROWS = 2 * ad._BLOCK_ROWS + 777
    WIDTHS = (2, 5, 10, 5, 1)

    @pytest.fixture(autouse=True)
    def one_blas_thread(self, monkeypatch):
        # The tests may run with BLAS on any number of threads.
        monkeypatch.setattr(ad, "_blas_threads", lambda: 1)

    def arrays(self, seed):
        rng = np.random.default_rng(seed)
        return (stack_arrays(self.ROWS, self.WIDTHS, rng),
                rng.normal(size=(self.ROWS, self.WIDTHS[-1])))

    def assert_matches_the_chain(self, arrays, r):
        fused = value_and_grads(ad.mlp, arrays, "tanh", r)
        chain = value_and_grads(chain_mlp, arrays, "tanh", r)
        for a, c in zip(fused[:2], chain[:2]):
            assert a.tobytes() == c.tobytes()
        assert_gradients_near(fused[2:], chain[2:])

    def test_recordings_start_one_thread(self, monkeypatch):
        # The worker of an earlier test, if any, stays idle.
        monkeypatch.setattr(ad, "_worker", None)
        before = threading.active_count()
        arrays, r = self.arrays(1)
        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in arrays]
        ad.mlp(leaves[0], list(zip(leaves[1::2], leaves[2::2])))
        assert threading.active_count() == before + 1
        for _ in range(5):
            value_and_grads(ad.mlp, arrays, "tanh", r)
        assert threading.active_count() == before + 1

    @pytest.mark.parametrize("last", ["tanh", "linear", "sigmoid"])
    def test_threads_keep_every_bit(self, monkeypatch, last):
        # Against the same blocks run one after another in the caller,
        # the weight and bias gradients included.
        arrays, r = self.arrays(2)
        shared = value_and_grads(ad.mlp, arrays, last, r)
        monkeypatch.setattr(ad, "_in_two",
                            lambda mine, theirs: (mine(), theirs()))
        serial = value_and_grads(ad.mlp, arrays, last, r)
        for a, b in zip(shared, serial):
            assert a.tobytes() == b.tobytes()

    def test_the_worker_keeps_no_array(self, monkeypatch):
        # Once a recording and its gradients are dropped, the next one
        # takes the same pooled arrays, the worker's scratch included.
        monkeypatch.setattr(ad, "_pool", OrderedDict())
        arrays, r = self.arrays(5)

        def pooled():
            value_and_grads(ad.mlp, arrays, "tanh", r)
            return [id(a) for free in ad._pool.values() for a in free]

        first = pooled()
        assert len(first) >= 4 + len(self.WIDTHS)
        assert pooled() == first

    def test_import_starts_no_thread(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, threading, graphident, graphident.training; "
             "print(threading.active_count(), "
             "'concurrent.futures' in sys.modules, 'queue' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ,
                 "PYTHONPATH": os.path.dirname(os.path.dirname(ad.__file__))})
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1 False False\n"

    def test_plain_encoding_and_identification_start_no_thread(
            self, monkeypatch):
        from graphident.datagen import sample_er_graph, sample_smooth_signals
        from graphident.encoder import encode, formation_params
        from graphident.evaluate import identify_with_encoder

        def refuse(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(ad, "_worker", None)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        # n=5 and d=2000: 10,000 rows, two blocks through fc1 and fc2.
        X = sample_smooth_signals(sample_er_graph(5, 0.5, 3), 0.1, 2000, 4)
        encode(X, formation_params(0))
        identify_with_encoder(X, formation_params(0), max_iters=50)
        # A recording of two blocks would start the worker.
        arrays, r = self.arrays(3)
        with pytest.raises(AssertionError, match="graphident-mlp"):
            value_and_grads(ad.mlp, arrays, "tanh", r)

    def test_blas_threads_keep_a_recording_serial(self, monkeypatch):
        # With BLAS on two threads, its own threads already share the
        # cores: the recording runs in the caller, with the same bits.
        arrays, r = self.arrays(6)
        shared = value_and_grads(ad.mlp, arrays, "sigmoid", r)

        def refuse(mine, theirs):
            raise AssertionError("split the blocks")

        monkeypatch.setattr(ad, "_blas_threads", lambda: 2)
        monkeypatch.setattr(ad, "_in_two", refuse)
        serial = value_and_grads(ad.mlp, arrays, "sigmoid", r)
        for a, b in zip(shared, serial):
            assert a.tobytes() == b.tobytes()

    def test_blas_thread_count_is_read(self):
        if ad._blas_threads() == 0:
            pytest.skip("numpy's BLAS has no OpenBLAS thread count to read")
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c",
                 "from graphident import autodiff; "
                 "print(autodiff._blas_threads())"],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                     "PYTHONPATH": os.path.dirname(
                         os.path.dirname(ad.__file__))})
            assert done.returncode == 0, done.stderr
            assert done.stdout == f"{threads}\n"

    def test_a_forked_child_records_with_its_own_worker(self):
        # The parent's worker has run before the fork; the child has no
        # thread to run its half.  The child ends itself if it hangs.
        script = (
            "import os, signal, numpy as np\n"
            "from graphident import autodiff as ad\n"
            "ad._blas_threads = lambda: 1\n"
            "rng = np.random.default_rng(8)\n"
            "arrays = [rng.normal(size=(2 * ad._BLOCK_ROWS + 777, 2)),\n"
            "          rng.normal(size=(2, 3)), rng.normal(size=3)]\n"
            "def record():\n"
            "    tape = ad.Tape()\n"
            "    x, W, b = [tape.leaf(a) for a in arrays]\n"
            "    out = ad.mlp(x, [(W, b)])\n"
            "    g = ad.backward(tape, ad.asum(ad.mul(out, out)))[x]\n"
            "    return out.value.tobytes() + g.tobytes()\n"
            "parent = record()\n"
            "read, write = os.pipe()\n"
            "if os.fork() == 0:\n"
            "    signal.alarm(30)\n"
            "    os.write(write, b'same' if record() == parent else b'diff')\n"
            "    os._exit(0)\n"
            "os.close(write)\n"
            "print(os.read(read, 4).decode(), os.wait()[1])\n")
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                 "PYTHONPATH": os.path.dirname(os.path.dirname(ad.__file__))})
        assert done.returncode == 0, done.stderr
        assert done.stdout == "same 0\n"

    def test_a_worker_error_reaches_the_caller(self, monkeypatch):
        arrays, r = self.arrays(4)
        product, caller, failed = ad._product, threading.current_thread(), []

        def fail_on_the_worker(x, W, out):
            if threading.current_thread() is not caller and not failed:
                failed.append(threading.current_thread().name)
                raise RuntimeError("the worker's block")
            product(x, W, out)

        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in arrays]
        layers = list(zip(leaves[1::2], leaves[2::2]))
        monkeypatch.setattr(ad, "_product", fail_on_the_worker)
        with pytest.raises(RuntimeError, match="the worker's block"):
            ad.mlp(leaves[0], layers)
        assert failed == ["graphident-mlp"]

        monkeypatch.setattr(ad, "_product", product)
        loss = ad.asum(ad.mul(ad.mlp(leaves[0], layers), r))
        failed.clear()
        monkeypatch.setattr(ad, "_product", fail_on_the_worker)
        with pytest.raises(RuntimeError, match="the worker's block"):
            ad.backward(tape, loss)
        assert failed == ["graphident-mlp"]

        monkeypatch.setattr(ad, "_product", product)
        self.assert_matches_the_chain(arrays, r)

    def test_an_interrupted_wait_leaves_the_worker_in_step(self, monkeypatch):
        # An interrupt while the caller waits for the worker's half: the
        # worker is still on that half when the next recording starts.
        class Interrupt(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupt

        arrays, r = self.arrays(7)
        product, caller, slowed = ad._product, threading.current_thread(), []

        def slow_on_the_worker(x, W, out):
            if threading.current_thread() is not caller and not slowed:
                slowed.append(True)
                # The caller's own half takes milliseconds; by now it waits.
                time.sleep(0.2)
                signal.pthread_kill(caller.ident, signal.SIGUSR1)
                time.sleep(0.2)
            product(x, W, out)

        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in arrays]
        monkeypatch.setattr(ad, "_product", slow_on_the_worker)
        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(Interrupt):
                ad.mlp(leaves[0], list(zip(leaves[1::2], leaves[2::2])))
        finally:
            signal.signal(signal.SIGUSR1, previous)
        self.assert_matches_the_chain(arrays, r)
        assert slowed == [True]


class TestSubgradientConventions:
    def test_relu_at_kink_and_sides(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([-1.0, 0.0, 2.0]))
        out = ad.asum(ad.relu(x))
        g = ad.backward(tape, out)[x]
        assert g.tolist() == [0.0, 0.0, 1.0]

    def test_abs_sign_convention(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([-2.0, 0.0, 3.0]))
        g = ad.backward(tape, ad.asum(ad.absolute(x)))[x]
        assert g.tolist() == [-1.0, 0.0, 1.0]

    def test_log_derivative_value(self):
        tape = ad.Tape()
        x = tape.leaf(2.0)
        g = ad.backward(tape, ad.log(x))[x]
        assert np.isclose(g, 0.5)

    def test_sqrt_guard_near_zero(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([0.0, 1e-15]))
        g = ad.backward(tape, ad.asum(ad.sqrt(x)))[x]
        assert np.all(np.isfinite(g))


class TestBackward:
    def test_square_at_three(self):
        tape = ad.Tape()
        x = tape.leaf(3.0)
        assert float(ad.backward(tape, ad.mul(x, x))[x]) == 6.0

    def test_attention_composite(self):
        def f(v):
            X, W = v
            return ad.asum(ad.matmul(ad.softmax_rows(
                ad.matmul(X, ad.transpose(W))), X))
        check(f, [RNG.normal(size=(4, 3)), RNG.normal(size=(4, 3))])

    def test_requires_scalar_output(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(DimensionError):
            ad.backward(tape, x)

    def test_unused_leaf_gets_zero(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones(3))
        b = tape.leaf(np.ones(3))
        grads = ad.backward(tape, ad.asum(a))
        assert np.array_equal(grads[b], np.zeros(3))
        assert np.array_equal(grads[a], np.ones(3))

    def test_fanout_accumulates(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([2.0]))
        out = ad.asum(ad.add(ad.mul(x, x), ad.scale(x, 3.0)))
        assert ad.backward(tape, out)[x].tolist() == [7.0]

    def test_scalar_fan_in_of_three(self):
        # Each use of the 0-d leaf hands back a 0-d gradient; all three
        # must reach it, and the one g that add passes to both of its
        # parents must not be changed by a later sum.
        tape = ad.Tape()
        x = tape.leaf(np.array(2.0))
        y = ad.add(x, x)
        out = ad.add(ad.mul(y, ad.exp(x)), ad.asum(ad.scale(x, 3.0)))
        grads = ad.backward(tape, out)
        expected = 2.0 * np.exp(2.0) + 4.0 * np.exp(2.0) + 3.0
        assert float(grads[x]) == pytest.approx(expected, rel=1e-15)
        assert float(grads[y]) == pytest.approx(np.exp(2.0), rel=1e-15)

    def test_shape_mismatch_raises(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((4, 5)))
        with pytest.raises(DimensionError):
            ad.add(a, b)
        with pytest.raises(DimensionError):
            ad.matmul(a, b)

    def test_mixing_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(DimensionError):
            ad.add(t1.leaf(1.0), t2.leaf(1.0))

    def test_unrecorded_tape_keeps_values_not_nodes(self):
        x = RNG.normal(size=(4, 3))

        def run(tape):
            v = tape.leaf(x)
            return ad.asum(ad.softmax_rows(ad.matmul(v, ad.transpose(v))))

        plain = ad.Tape(record=False)
        out = run(plain)
        assert plain.nodes == []
        assert np.array_equal(out.value, run(ad.Tape()).value)

    def test_gradient_lookup_rejects_unrecorded_var(self):
        tape = ad.Tape()
        grads = ad.backward(tape, ad.asum(tape.leaf(np.ones(3))))
        with pytest.raises(DimensionError):
            grads[ad.Tape(record=False).leaf(np.ones(3))]

    def test_gradient_lookup_rejects_var_of_another_tape(self):
        tape, other = ad.Tape(), ad.Tape()
        x = tape.leaf(np.ones(3))
        grads = ad.backward(tape, ad.asum(x))
        with pytest.raises(DimensionError):
            grads[other.leaf(np.ones(3))]

    def test_backward_rejects_unrecorded_output(self):
        plain = ad.Tape(record=False)
        out = ad.asum(ad.mul(plain.leaf(np.ones(3)), 2.0))
        with pytest.raises(DimensionError):
            ad.backward(plain, out)
        recorded = ad.Tape()
        recorded.leaf(1.0)
        with pytest.raises(DimensionError):
            ad.backward(recorded, out)

    def test_recording_is_deterministic(self):
        x = RNG.normal(size=(5, 5))

        def run():
            tape = ad.Tape()
            v = tape.leaf(x)
            out = ad.asum(ad.softmax_rows(ad.matmul(v, ad.transpose(v))))
            return out.value.copy(), ad.backward(tape, out)[v]

        v1, g1 = run()
        v2, g2 = run()
        assert np.array_equal(v1, v2)
        assert np.array_equal(g1, g2)


class TestGradientCheckReports:
    def test_linear_function_is_exact(self):
        report = ad.gradient_check(
            lambda v: ad.asum(ad.scale(v[0], 4.0)), [RNG.normal(size=5)])
        assert report.max_rel_error < 1e-9

    def test_tanh_chain_depth_five(self):
        def f(v):
            h = v[0]
            for _ in range(5):
                h = ad.tanh(h)
            return ad.asum(h)
        report = ad.gradient_check(f, [RNG.uniform(-1, 1, size=4)], step=1e-6)
        assert report.max_rel_error < 1e-6

    def test_relu_chain_away_from_kinks(self):
        x = RNG.normal(size=6)
        x[np.abs(x) < 1e-3] = 0.4

        def f(v):
            return ad.asum(ad.relu(ad.sub(ad.relu(v[0]), 0.01)))
        report = ad.gradient_check(f, [x])
        assert report.max_rel_error < 1e-4

    def test_report_flags_failure(self):
        # A deliberately wrong "gradient" scenario cannot be produced through
        # the public API, so exercise the tolerance path instead.
        report = ad.gradient_check(
            lambda v: ad.asum(ad.mul(v[0], v[0])), [RNG.normal(size=3)],
            tolerance=1e-12)
        assert report.max_rel_error > 0.0
        assert not report.passed or report.max_rel_error <= 1e-12
