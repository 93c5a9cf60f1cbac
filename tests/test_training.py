"""Trainer tests: loss values, unroll/solver consistency, Adam behavior,
and loop determinism."""

import json

import numpy as np
import pytest

from graphident import autodiff as ad
from graphident import encoder as enc
from graphident import solver
from graphident import training as tr
from graphident.datagen import (FlockingSpec, FormationSpec, SampleRecord,
                                generate_flocking_windows,
                                generate_formation_sample, sample_er_graph,
                                sample_smooth_signals)
from graphident.encoder import (arrays_to_params, encode, flocking_params,
                                formation_params, params_to_arrays)
from graphident.errors import (DimensionError, InvariantError, SchemaError,
                               TrainStepError)
from graphident.graphcore import (DegreeOperator, build_sum_operator,
                                  distance_matrix, half_vectorize, num_edges)
from graphident.solver import (DualState, dual_step, dual_step_vjp,
                               init_dual_state)


def small_record(n=6, d=12, seed=0, p=0.4):
    W = sample_er_graph(n, p, seed)
    X = sample_smooth_signals(W, 0.1, d, seed + 1)
    return SampleRecord(X=X, W=W, meta={"kind": "formation", "sigma": 0.1})


def plain_loss(w, w_hat):
    """``loss_on_tape`` on an unrecorded tape, as a float."""
    leaf = ad.Tape(record=False).leaf(w)
    return float(tr.loss_on_tape(leaf, w_hat).value)


class TestIdentificationLoss:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(size=num_edges(5))
        assert plain_loss(w, w) == 0.0

    def test_zero_at_sparse_truth(self):
        # The target's complement runs the prediction's own code, so a
        # perfect prediction scores exactly 0 on graphs with free slots,
        # and the |.| terms' subgradients vanish there.
        targets = [half_vectorize(sample_er_graph(20, 0.2, seed))
                   for seed in range(10)]
        targets += [half_vectorize(r.W) for r in
                    generate_flocking_windows(FlockingSpec(n=20, seed=0))]
        for w_hat in targets:
            assert w_hat.any() and not w_hat.all()
            assert plain_loss(w_hat, w_hat) == 0.0

    def test_negative_target_rejected(self):
        w_hat = np.array([1.0, -1e-6, 0.5])
        with pytest.raises(InvariantError):
            plain_loss(np.zeros(3), w_hat)

    def test_single_edge_worked_example(self):
        # w places one unit edge between nodes 0 and 1; target is empty.
        # Weight term: 1.  Complement term: the symmetrized redistribution
        # of w has vech [0, 0.5, 0.5] and the empty graph's is zero.
        w = np.array([1.0, 0.0, 0.0])
        w_hat = np.zeros(3)
        assert plain_loss(w, w_hat) == pytest.approx(2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=num_edges(6)) * (rng.uniform(size=15) < 0.5)
        b = rng.uniform(size=num_edges(6)) * (rng.uniform(size=15) < 0.5)
        assert plain_loss(a, b) == pytest.approx(plain_loss(b, a))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            plain_loss(np.zeros(3), np.zeros(6))

    def test_tape_matches_plain(self):
        rng = np.random.default_rng(2)
        n = 6
        S = build_sum_operator(n)
        w_val = rng.uniform(size=num_edges(n)) * (rng.uniform(size=15) < 0.6)
        w_hat = rng.uniform(size=num_edges(n)) * (rng.uniform(size=15) < 0.4)
        tape = ad.Tape()
        w = tape.leaf(w_val)
        loss = tr.loss_on_tape(w, w_hat, S, S.T.copy())
        assert tape.nodes
        assert float(loss.value) == plain_loss(w_val, w_hat)


class TestUnrolledIdentify:
    def test_single_step_hand_trace(self):
        # Identical trajectories give zero distances, so the first primal
        # iterate is the clamped scaled degree lift of the seeded start.
        rng = np.random.default_rng(3)
        X = np.tile(rng.normal(size=(1, 2, 6)), (4, 1, 1))
        params = formation_params(seed=4)
        out = encode(X, params)
        res = tr.unrolled_identify(X, params, unroll_steps=1, solver_seed=21)
        state = init_dual_state(4, seed=21)
        S = build_sum_operator(4)
        expected = np.maximum(0.0, (S.T @ state.omega) / (2.0 * out.beta))
        assert np.allclose(res.w.value, expected, atol=1e-12)

    def test_forward_matches_plain_solver(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(5, 2, 8))
        params = formation_params(seed=6)
        res = tr.unrolled_identify(X, params, unroll_steps=60, solver_seed=9)
        # The unroll runs plain momentum: ``dual_step`` with no restart.
        alpha, beta = float(res.alpha.value), float(res.beta.value)
        state = init_dual_state(5, seed=9)
        for _ in range(60):
            w, state = dual_step(res.y.value, DegreeOperator(5), alpha, beta,
                                 4 / beta, state)
        assert np.abs(res.w.value - w).max() <= 1e-12

    def test_dual_state_persistence_continues_iteration(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(5, 2, 8))
        params = formation_params(seed=8)
        once = tr.unrolled_identify(X, params, unroll_steps=40, solver_seed=3)
        first = tr.unrolled_identify(X, params, unroll_steps=25, solver_seed=3)
        second = tr.unrolled_identify(X, params, unroll_steps=15,
                                      dual=first.dual_next)
        assert np.allclose(second.w.value, once.w.value, atol=1e-12)

    def test_end_to_end_gradient_matches_fd(self):
        # Warm dual state so the loss sits in a responsive region, then
        # check the five largest-magnitude parameter gradients.
        W_true = sample_er_graph(5, 0.4, 8)
        X = sample_smooth_signals(W_true, 0.1, 8, 9) * 3.0
        params = formation_params(seed=2)
        w_hat = half_vectorize(W_true)
        S = build_sum_operator(5)
        St = S.T.copy()
        dual = tr.unrolled_identify(X, params, 300, solver_seed=11).dual_next

        def loss_of(p):
            r = tr.unrolled_identify(X, p, 10, dual=dual.copy())
            return r, tr.loss_on_tape(r.w, w_hat, S, St)

        r0, l0 = loss_of(params)
        grads = ad.backward(r0.tape, l0)
        g = [grads[leaf].copy() for leaf in r0.param_leaves]
        arrays = params_to_arrays(params)
        flat = np.concatenate([x.reshape(-1) for x in g])
        order = np.argsort(-np.abs(flat))[:5]
        sizes = np.cumsum([0] + [a.size for a in arrays])
        h = 1e-5
        for pos in order:
            ai = int(np.searchsorted(sizes, pos, side="right") - 1)
            ci = int(pos - sizes[ai])
            pert = [a.copy() for a in arrays]
            pert[ai].reshape(-1)[ci] += h
            _, lp = loss_of(arrays_to_params(pert, params))
            pert[ai].reshape(-1)[ci] -= 2 * h
            _, lm = loss_of(arrays_to_params(pert, params))
            fd = (float(lp.value) - float(lm.value)) / (2 * h)
            an = flat[pos]
            assert abs(an - fd) / (abs(an) + abs(fd) + 1e-10) <= 1e-3


def unroll_op_by_op(rec, op, unroll_steps, dual):
    """The unroll recorded operation by operation, mirroring ``dual_step``:
    the reference for the gradients of the one-node unroll."""
    y, alpha, beta = rec.y, rec.alpha, rec.beta
    lipschitz = ad.div(float(op.n - 1), beta)
    omega = rec.tape.leaf(dual.omega)
    lam_prev = rec.tape.leaf(dual.lam)
    tau = dual.tau
    for _ in range(unroll_steps):
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
        lam_prev, tau = lam, tau_next
    return w


def dual_step_vjp_recomputing(y, op, alpha, beta, lipschitz, state, w, g_w,
                              g_lam, g_omega):
    """``solver.dual_step_vjp`` computing the forward step's values afresh
    from ``state`` and ``w``, in the same order: the bit-exact reference
    for the reverse sweep, which reads them from the forward step."""
    Sw = op.degree(w)
    z = Sw - lipschitz * state.omega
    r = np.sqrt(z * z + 4.0 * alpha * lipschitz)
    u = 0.5 * (z + r)
    tau_next = (1.0 + np.sqrt(1.0 + 4.0 * state.tau * state.tau)) / 2.0
    c = (state.tau - 1.0) / tau_next
    g_lam = g_lam + (1.0 + c) * g_omega
    g_lam_prev = -c * g_omega
    g_u = g_lam / lipschitz
    g_q = g_u / (4.0 * r)
    g_z = 0.5 * g_u + 2.0 * z * g_q
    g_alpha = 4.0 * lipschitz * np.sum(g_q)
    g_lipschitz = (np.sum(g_lam * (Sw - u)) / (lipschitz * lipschitz)
                   + 4.0 * alpha * np.sum(g_q) - np.sum(g_z * state.omega))
    g_omega_in = g_lam - lipschitz * g_z
    g_w = g_w + op.pair_sum(g_z - g_u)
    g_v = g_w * (w > 0)
    g_omega_in = g_omega_in + op.degree(g_v / (2.0 * beta))
    g_beta = -np.sum(g_v * w) / beta
    return (-g_v / beta, g_alpha, g_beta, g_lipschitz, g_omega_in,
            g_lam_prev)


def unroll_recomputing(rec, op, unroll_steps, dual):
    """The one-node unroll with its reverse sweep run by
    ``dual_step_vjp_recomputing``."""
    y, alpha, beta = rec.y.value, float(rec.alpha.value), float(rec.beta.value)
    lipschitz = (op.n - 1) / beta
    states, ws = [], []
    for _ in range(unroll_steps):
        states.append(dual)
        w, dual = dual_step(y, op, alpha, beta, lipschitz, dual)
        ws.append(w)

    def vjp(g):
        g_w, g_lam, g_omega = g, 0.0, 0.0
        g_y, g_alpha, g_beta, g_lipschitz = 0.0, 0.0, 0.0, 0.0
        for state, w in zip(reversed(states), reversed(ws)):
            gy, ga, gb, gl, g_omega, g_lam = dual_step_vjp_recomputing(
                y, op, alpha, beta, lipschitz, state, w, g_w, g_lam, g_omega)
            g_w = 0.0
            g_y, g_alpha = g_y + gy, g_alpha + ga
            g_beta, g_lipschitz = g_beta + gb, g_lipschitz + gl
        return g_y, g_alpha, g_beta - g_lipschitz * (op.n - 1) / (beta * beta)

    return ad.custom((rec.y, rec.alpha, rec.beta), ws[-1], vjp)


def unroll_vjp_chain(y, op, alpha, beta, dual, steps, g):
    """The unroll's adjoints of ``y``, ``alpha`` and ``beta`` for the
    adjoint ``g`` of its last iterate, from a plain per-step chain:
    ``steps`` calls of ``dual_step``, then ``dual_step_vjp`` swept back one
    step at a time, each step's adjoints added as the sweep goes.  The
    reference for the unroll node's batched sums."""
    lipschitz = (op.n - 1) / beta
    states, ws, saved = [], [], []
    for _ in range(steps):
        states.append(dual)
        w, dual = dual_step(y, op, alpha, beta, lipschitz, dual, saved)
        ws.append(w)
    g_w, g_lam, g_omega = g, 0.0, 0.0
    g_y, g_alpha, g_beta, g_lipschitz = 0.0, 0.0, 0.0, 0.0
    for k in reversed(range(steps)):
        gy, ga, gb, gl, g_omega, g_lam = dual_step_vjp(
            y, op, alpha, beta, lipschitz, states[k], ws[k], g_w, g_lam,
            g_omega, saved[k])
        g_w = 0.0
        g_y, g_alpha = g_y + gy, g_alpha + ga
        g_beta, g_lipschitz = g_beta + gb, g_lipschitz + gl
    return g_y, g_alpha, g_beta - g_lipschitz * (op.n - 1) / (beta * beta)


def reference_backward(tape, output):
    """The reverse sweep that adds every gradient into a zeroed buffer:
    the reference for ``ad.backward``'s accumulation."""
    grads = [None] * len(tape.nodes)
    grads[output.index] = np.ones_like(output.value)
    for i in range(output.index, -1, -1):
        node = tape.nodes[i]
        if grads[i] is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(grads[i])):
            if grads[parent] is None:
                grads[parent] = np.zeros_like(tape.nodes[parent].value)
            grads[parent] += pg
    return grads


def unroll_case(kind):
    if kind == "formation":
        record = small_record(n=8, d=40, seed=3)
        return record.X, record.W, formation_params(seed=5)
    record = flocking_records()[1]
    return record.X, record.W, flocking_params(seed=1)


def shift_roundoff_bound(grads, features, distances):
    """A bound on the round-off in the gradient of a bias that shifts every
    encoder feature alike, such as fc2's output bias: its exact gradient is
    0, because shifted features have the same pairwise distances.

    The gradient is the sum of the features' adjoint ``G_F``, which
    ``ad.pairwise_sqdist``'s VJP forms as ``2 (diag(sym 1) - sym) @ Xc``
    with ``sym`` = ``G + G'`` (exactly symmetric, zero diagonal) from the
    distances' adjoint ``G``, and ``Xc`` the centered features.  Summed
    over all entries, the exact product is 0.  What is left is the round-off
    of three steps, each at most ``gamma_k = k u / (1 - k u)`` times the sum
    of its terms' magnitudes (``u`` the unit round-off):
    - the row sums ``sym 1``: gamma_n times ``2 sum_i a_i x_i``, where
      ``a_i`` and ``x_i`` are the row sums of ``|G| + |G|'`` and ``|Xc|``;
    - the n-term products of the matrix product: gamma_n times
      ``4 sum_i a_i x_i``;
    - the sum of the N = n d entries of ``G_F``: gamma_N times their
      magnitudes.
    The ``(1 + u)`` factors of the terms' own rounding are covered by
    taking gamma_(n+1) for gamma_n."""
    G_F, G = grads[features], grads[distances]
    a = np.abs(G) + np.abs(G).T
    x = np.abs(features.value - features.value.mean(axis=0)).sum(axis=1)
    u = np.finfo(np.float64).eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    n = G.shape[0]
    return (6 * gamma(n + 1) * (a.sum(axis=1) @ x)
            + gamma(G_F.size) * np.abs(G_F).sum())


def unroll_against(reference, kind, warm):
    """The unroll node's edge weights, loss and parameter gradients, and
    the same from ``reference(rec, op, 30, dual)``, which records the 30
    steps on the encoder recording ``rec`` and returns the weights.  Each
    side also gives its ``shift_roundoff_bound``."""
    X, W, params = unroll_case(kind)
    n = X.shape[0]
    op = DegreeOperator(n)
    dual = None
    if warm:
        dual = tr._presolve(tr.record_encoder(X, params), op,
                            init_dual_state(n, 7), tr.TrainConfig())
    S = build_sum_operator(n)
    w_hat = half_vectorize(W)
    # Each side's features and their pairwise distances, as recorded.
    sqdist = []

    def pairwise_sqdist(a, real=ad.pairwise_sqdist):
        sqdist.append((a, real(a)))
        return sqdist[-1][1]

    def gradients(res, w, side):
        loss = tr.loss_on_tape(w, w_hat, S, S.T.copy())
        grads = ad.backward(res.tape, loss)
        return (w.value, loss.value,
                [grads[leaf] for leaf in res.param_leaves],
                shift_roundoff_bound(grads, *sqdist[side]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "pairwise_sqdist", pairwise_sqdist)
        res = tr.unrolled_identify(X, params, 30, solver_seed=7, dual=dual)
        rec = tr.record_encoder(X, params)
    return gradients(res, res.w, 0), gradients(rec, reference(
        rec, op, 30, dual or init_dual_state(n, 7)), 1)


class TestUnrollNode:
    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("kind", ["formation", "flocking"])
    def test_gradients_match_op_by_op(self, kind, warm):
        (w, loss, grads, bound), (ref_w, ref_loss, ref_grads, ref_bound) = (
            unroll_against(unroll_op_by_op, kind, warm))
        assert np.array_equal(w, ref_w) and loss == ref_loss
        scale = max(np.abs(g).max() for g in ref_grads)
        assert scale > 0
        # fc2's output bias shifts every feature alike, so its exact
        # gradient is 0 and both sides hold round-off alone: each is checked
        # against its derived bound, not against the other.
        params = unroll_case(kind)[2]
        shift = 2 * (len(params.fc1) + len(params.fc2)) - 1
        for i, (a, b) in enumerate(zip(grads, ref_grads)):
            if params.fc2 and i == shift:
                assert np.abs(a).max() <= bound
                assert np.abs(b).max() <= ref_bound
            else:
                assert np.abs(a - b).max() <= 1e-12 * scale

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("kind", ["formation", "flocking"])
    def test_gradients_equal_the_recomputing_sweep(self, kind, warm):
        # The reverse sweep reads the forward step's values instead of
        # recomputing them, and gets the same gradients bit for bit.
        (w, loss, grads, _), (ref_w, ref_loss, ref_grads, _) = (
            unroll_against(unroll_recomputing, kind, warm))
        assert np.array_equal(w, ref_w) and loss == ref_loss
        assert max(np.abs(g).max() for g in ref_grads) > 0
        for a, b in zip(grads, ref_grads):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["formation", "flocking"])
    def test_backward_matches_accumulating_sweep(self, kind):
        X, W, params = unroll_case(kind)
        n = X.shape[0]
        op = DegreeOperator(n)
        rec = tr.record_encoder(X, params)
        dual = tr._presolve(rec, op, init_dual_state(n, 2), tr.TrainConfig())
        res = tr.unroll(rec, op, 30, dual)
        loss = tr.loss_on_tape(res.w, half_vectorize(W))
        grads = ad.backward(rec.tape, loss)
        ref = reference_backward(rec.tape, loss)
        for i, node in enumerate(rec.tape.nodes):
            g = grads[ad.Var(rec.tape, i, node.value)]
            assert g.shape == node.value.shape
            assert np.array_equal(
                g, np.zeros_like(node.value) if ref[i] is None else ref[i])

    @pytest.mark.parametrize("steps", [1, 30])
    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("kind", ["formation", "flocking"])
    def test_sweep_sums_equal_the_per_step_chain(self, kind, warm, steps):
        X, W, params = unroll_case(kind)
        n = X.shape[0]
        op = DegreeOperator(n)
        rec = tr.record_encoder(X, params)
        dual = init_dual_state(n, 7)
        if warm:
            dual = tr._presolve(rec, op, dual, tr.TrainConfig())
        res = tr.unroll(rec, op, steps, dual)
        loss = tr.loss_on_tape(res.w, half_vectorize(W))
        g = ad.backward(rec.tape, loss)[res.w]
        vjp = rec.tape.nodes[res.w.index].vjp
        got = vjp(g)
        # One step's iterate does not depend on alpha.
        assert np.any(got[0] != 0) and got[2] != 0
        assert (got[1] != 0) == (steps > 1)
        # A zero adjoint makes every step's adjoints of y and beta -0.0,
        # which the chain's sums, started from 0.0, turn into 0.0.
        for g, got in ((g, got), (np.zeros_like(g), vjp(np.zeros_like(g)))):
            ref = unroll_vjp_chain(rec.y.value, op, float(rec.alpha.value),
                                   float(rec.beta.value), dual, steps, g)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)
                # Bit for bit, the sign of a zero included.
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_dual_next_is_k_plain_steps(self):
        X, _, params = unroll_case("formation")
        n = X.shape[0]
        op = DegreeOperator(n)
        rec = tr.record_encoder(X, params)
        alpha, beta = float(rec.alpha.value), float(rec.beta.value)
        start = init_dual_state(n, 4)
        res = tr.unroll(rec, op, 12, start)
        state = start
        for _ in range(12):
            w, state = dual_step(rec.y.value, op, alpha, beta, (n - 1) / beta,
                                 state)
        assert np.array_equal(res.w.value, w)
        nxt = res.dual_next
        for a, b in ((nxt.lam, state.lam), (nxt.lam_prev, state.lam_prev),
                     (nxt.omega, state.omega)):
            assert np.array_equal(a, b)
        assert (nxt.tau, nxt.iteration) == (state.tau, state.iteration)
        assert nxt.iteration == 12
        assert not np.array_equal(nxt.lam_prev, start.lam)

    def test_non_finite_iterate_raises_from_the_node(self, monkeypatch):
        X, _, params = unroll_case("formation")
        n = X.shape[0]
        rec = tr.record_encoder(X, params)
        recorded = len(rec.tape.nodes)
        calls = []

        def failing_third(*args):
            w, dual = dual_step(*args)
            calls.append(1)
            if len(calls) == 3:
                # In place: the unroll reads the step's output rows.
                w.fill(np.inf)
            return w, dual

        monkeypatch.setattr(tr, "dual_step", failing_third)
        with pytest.raises(TrainStepError) as info:
            tr.unroll(rec, DegreeOperator(n), 10, init_dual_state(n, 0))
        assert info.value.diagnostics == {
            "unroll_step": 2, "alpha": float(rec.alpha.value),
            "beta": float(rec.beta.value)}
        assert len(rec.tape.nodes) == recorded

    @pytest.mark.parametrize("bad_step", [0, 3, 9])
    def test_nan_multiplier_names_its_first_step(self, monkeypatch,
                                                 bad_step):
        X, _, params = unroll_case("formation")
        n = X.shape[0]
        rec = tr.record_encoder(X, params)
        recorded = len(rec.tape.nodes)
        calls = []

        def nan_multiplier_at(*args):
            w, dual = dual_step(*args)
            if len(calls) == bad_step:
                # In place: the unroll reads the step's output rows.  The
                # NaN spreads to every later step's iterate.
                dual.lam[2] = np.nan
            calls.append(1)
            return w, dual

        monkeypatch.setattr(tr, "dual_step", nan_multiplier_at)
        with pytest.raises(TrainStepError) as info:
            tr.unroll(rec, DegreeOperator(n), 10, init_dual_state(n, 0))
        assert info.value.diagnostics["unroll_step"] == bad_step
        assert len(rec.tape.nodes) == recorded

    def test_needs_one_step(self):
        X, _, params = unroll_case("formation")
        with pytest.raises(DimensionError):
            tr.unrolled_identify(X, params, 0)

    @pytest.mark.parametrize("steps", [1, 4])
    def test_unroll_gradient_check(self, steps):
        n = 5
        op = DegreeOperator(n)
        rng = np.random.default_rng(12)
        dual = init_dual_state(n, 3)
        weights = rng.normal(size=num_edges(n))

        def build(leaves):
            y, alpha, beta = leaves
            rec = tr.EncoderRecording(tape=y.tape, param_leaves=[], y=y,
                                      alpha=alpha, beta=beta)
            return ad.asum(ad.mul(tr.unroll(rec, op, steps, dual).w, weights))

        report = ad.gradient_check(
            build, [rng.uniform(0.0, 0.5, size=num_edges(n)), np.array(0.8),
                    np.array(0.6)])
        assert report.passed, f"max rel error {report.max_rel_error}"

    def test_dual_step_vjp_gradient_check(self):
        # One dual step as a node of (w, lam, omega), differentiated by
        # dual_step_vjp in every input, L = (n-1)/beta included.
        n = 5
        op = DegreeOperator(n)
        rng = np.random.default_rng(13)
        weights = rng.normal(size=num_edges(n) + 2 * n)
        tau = 1.7

        def build(leaves):
            y, alpha, beta, omega, lam = leaves
            a, b = float(alpha.value), float(beta.value)
            lipschitz = (n - 1) / b
            state = DualState(lam.value, lam.value, omega.value, tau)
            saved = []
            w, nxt = dual_step(y.value, op, a, b, lipschitz, state, saved)
            m = w.size

            def vjp(g):
                gy, ga, gb, gl, g_omega, g_lam = dual_step_vjp(
                    y.value, op, a, b, lipschitz, state, w, g[:m],
                    g[m:m + n], g[m + n:], saved[0])
                return gy, ga, gb - gl * (n - 1) / (b * b), g_omega, g_lam

            out = ad.custom(leaves, np.concatenate([w, nxt.lam, nxt.omega]),
                            vjp)
            return ad.asum(ad.mul(out, weights))

        report = ad.gradient_check(
            build, [rng.uniform(0.0, 0.3, size=num_edges(n)), np.array(0.8),
                    np.array(0.6), rng.uniform(0.5, 1.5, size=n),
                    rng.uniform(0.5, 1.5, size=n)])
        assert report.passed, f"max rel error {report.max_rel_error}"


class TestAdam:
    def make_state(self):
        return tr.init_train_state(formation_params(seed=1))

    def test_zero_gradient_keeps_params(self):
        state = self.make_state()
        zeros = [np.zeros_like(a) for a in params_to_arrays(state.params)]
        new = tr.adam_update(state, zeros, tr.TrainConfig())
        for a, b in zip(params_to_arrays(state.params),
                        params_to_arrays(new.params)):
            assert np.array_equal(a, b)
        assert new.step == 1

    def test_first_step_closed_form(self):
        state = self.make_state()
        cfg = tr.TrainConfig(learning_rate=0.01)
        arrays = params_to_arrays(state.params)
        grads = [np.full_like(a, 0.5) for a in arrays]
        new = tr.adam_update(state, grads, cfg)
        expected_delta = -cfg.learning_rate * 0.5 / (0.5 + tr.ADAM_EPS)
        for a, b in zip(arrays, params_to_arrays(new.params)):
            assert np.allclose(b - a, expected_delta, atol=1e-12)

    def test_constant_gradient_limit(self):
        state = self.make_state()
        cfg = tr.TrainConfig(learning_rate=1e-3)
        arrays = params_to_arrays(state.params)
        grads = [np.full_like(a, -2.0) for a in arrays]
        before = None
        for _ in range(10000):
            before = params_to_arrays(state.params)
            state = tr.adam_update(state, grads, cfg)
        delta = params_to_arrays(state.params)[0] - before[0]
        # Update magnitude approaches lr * sign(g).
        assert np.allclose(delta, cfg.learning_rate, rtol=1e-3)

    def test_nonfinite_gradient_rejected(self):
        state = self.make_state()
        grads = [np.zeros_like(a) for a in params_to_arrays(state.params)]
        grads[0][0, 0] = np.nan
        new = tr.adam_update(state, grads, tr.TrainConfig())
        assert new.step == state.step
        for a, b in zip(params_to_arrays(state.params),
                        params_to_arrays(new.params)):
            assert np.array_equal(a, b)

    def test_clipping(self):
        grads = [np.full(4, 3.0), np.full(3, -4.0)]
        clipped = tr.clip_gradients(grads, 1.0)
        total = np.sqrt(sum(np.sum(g * g) for g in clipped))
        assert total == pytest.approx(1.0)
        assert tr.clip_gradients(grads, None) is grads


class TestClipNorm:
    @pytest.mark.parametrize("params", [flocking_params(0),
                                        formation_params(0)],
                             ids=["flocking", "formation"])
    def test_norm_adds_each_arrays_own_sum_of_squares(self, params):
        # np.sum adds a 2-D array's elements in another order than a sum
        # over the same squares laid end to end, so a flat reduce would
        # move the norm's last bit on some draws, and with it every
        # clipped gradient.
        rng = np.random.default_rng(5)
        shapes = [a.shape for a in params_to_arrays(params)]
        for _ in range(2000):
            scales = 10.0 ** rng.uniform(-3, 3, size=len(shapes))
            grads = [rng.normal(size=s) * c for s, c in zip(shapes, scales)]
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
            clipped = tr.clip_gradients(grads, 1e-9)
            assert [c.shape for c in clipped] == shapes
            for c, g in zip(clipped, grads):
                assert np.array_equal(c, g * (1e-9 / total))


def reference_adam_step(arrays, m, v, step, grads, cfg):
    """``clip_gradients`` and ``adam_update`` written out array by array:
    the new arrays, moments and step count, unchanged on a non-finite
    gradient."""
    if any(not np.all(np.isfinite(g)) for g in grads):
        return arrays, m, v, step
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > cfg.grad_clip:
        grads = [g * (cfg.grad_clip / total) for g in grads]
    t = step + 1
    out = [], [], []
    for a, g, mk, vk in zip(arrays, grads, m, v):
        mk = tr.ADAM_BETA1 * mk + (1.0 - tr.ADAM_BETA1) * g
        vk = tr.ADAM_BETA2 * vk + (1.0 - tr.ADAM_BETA2) * g * g
        m_hat = mk / (1.0 - tr.ADAM_BETA1 ** t)
        v_hat = vk / (1.0 - tr.ADAM_BETA2 ** t)
        out[0].append(a - cfg.learning_rate * m_hat
                      / (np.sqrt(v_hat) + tr.ADAM_EPS))
        out[1].append(mk)
        out[2].append(vk)
    return (*out, t)


class TestFlatAdam:
    """Adam and clipping run over all parameters laid end to end, with the
    bits of a loop over the arrays."""

    def test_matches_the_per_array_loop(self):
        cfg = tr.TrainConfig(learning_rate=0.01, grad_clip=5.0)
        rng = np.random.default_rng(21)
        state = tr.init_train_state(formation_params(seed=4))
        ref = (params_to_arrays(state.params), state.adam_m, state.adam_v, 0)
        norms = []
        for k in range(8):
            # Step 3 is clipped, step 5 rejected.
            grads = [rng.normal(scale=0.1, size=a.shape)
                     for a in params_to_arrays(state.params)]
            if k == 3:
                grads = [g * 100.0 for g in grads]
            if k == 5:
                grads[7][0] = np.inf
            norms.append(np.sqrt(sum(np.sum(g * g) for g in grads)))
            # Clipping scales an infinite gradient by 0, to NaN.
            with np.errstate(invalid="ignore"):
                grads_in = tr.clip_gradients(grads, 5.0)
            state = tr.adam_update(state, grads_in, cfg)
            ref = reference_adam_step(*ref, grads, cfg)
            assert state.step == ref[3]
            for new, old in zip((params_to_arrays(state.params),
                                 state.adam_m, state.adam_v), ref[:3]):
                assert [a.shape for a in new] == [a.shape for a in old]
                assert all(np.array_equal(a, b) for a, b in zip(new, old))
        assert state.step == 7
        assert [k for k, x in enumerate(norms) if x > 5.0] == [3, 5]

    def test_rejects_a_gradient_of_another_layout(self):
        state = tr.init_train_state(formation_params(seed=4))
        grads = [np.zeros(a.size) for a in params_to_arrays(state.params)]
        with pytest.raises(DimensionError):
            tr.adam_update(state, grads, tr.TrainConfig())


class TestPresolve:
    def test_spends_its_budget_rather_than_stop_at_an_isolating_iterate(self):
        # On these raw distances at n=200 the first relative dual step is
        # already below the tolerance while the iterate is still w = 0
        # (test_solver's test_small_first_step_is_not_convergence).
        W = sample_er_graph(200, 0.2, 1)
        X = sample_smooth_signals(W, 0.1, 2000, 2)
        tape = ad.Tape()
        y, alpha, beta = (tape.leaf(v) for v in (
            half_vectorize(distance_matrix(X[:, 0:1, :])), np.array(0.2),
            np.array(1e-4)))
        rec = tr.EncoderRecording(tape=tape, param_leaves=[], y=y,
                                  alpha=alpha, beta=beta)
        cfg = tr.TrainConfig()
        dual = tr._presolve(rec, DegreeOperator(200), init_dual_state(200, 0),
                            cfg)
        assert dual.iteration == cfg.presolve_iters

    def test_restart_reaches_tol_in_fewer_iterations_on_a_warm_dual(
            self, monkeypatch):
        # The dual persists across formation steps, and its momentum with
        # it; a cold start barely shows the gap, so take it after 3 steps.
        record = small_record(n=8, d=40, seed=3)
        cfg = tr.TrainConfig(total_steps=3, unroll_steps=8, seed=2)
        state, _ = tr.train([record], cfg, params=formation_params(seed=5))
        start = state.dual
        op = DegreeOperator(8)
        rec = tr.record_encoder(record.X, state.params)
        y, alpha = rec.y.value, float(rec.alpha.value)
        beta = float(rec.beta.value)

        def rel_step(dual):
            return (np.linalg.norm(dual.lam - dual.lam_prev)
                    / np.linalg.norm(dual.lam_prev))

        plain, dual = 0, start
        while plain < cfg.presolve_iters:
            w, dual = dual_step(y, op, alpha, beta, (op.n - 1) / beta, dual)
            plain += 1
            if rel_step(dual) < tr.PRESOLVE_TOL and op.degree(w).min() > 0:
                break
        assert rel_step(dual) < tr.PRESOLVE_TOL

        calls = []

        def counted(*args, real=solver.dual_step):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(solver, "dual_step", counted)
        dual = tr._presolve(rec, op, start, cfg)
        assert rel_step(dual) < tr.PRESOLVE_TOL
        assert dual.iteration - start.iteration == len(calls)
        assert len(calls) <= 0.5 * plain


class TestTrainLoop:
    def test_zero_learning_rate_freezes_params(self):
        rec = small_record()
        cfg = tr.TrainConfig(learning_rate=0.0, total_steps=3, unroll_steps=5,
                             seed=1)
        params = formation_params(seed=2)
        state, _ = tr.train([rec], cfg, params=params)
        for a, b in zip(params_to_arrays(params),
                        params_to_arrays(state.params)):
            assert np.array_equal(a, b)

    def test_determinism(self):
        rec = small_record()
        cfg = tr.TrainConfig(total_steps=6, unroll_steps=5, seed=3)
        _, m1 = tr.train([rec], cfg, params=formation_params(seed=2))
        _, m2 = tr.train([rec], cfg, params=formation_params(seed=2))
        for a, b in zip(m1, m2):
            for key in ("step", "loss", "mae", "alpha", "beta", "sample_id"):
                assert a[key] == b[key]

    def test_empty_dataset_rejected(self):
        with pytest.raises(SchemaError):
            tr.train([], tr.TrainConfig(total_steps=1),
                     params=formation_params(0))

    @pytest.mark.parametrize("period", [0, -3])
    def test_sample_refresh_period_below_one_rejected(self, period):
        # Flocking step 0 would otherwise divide by it.
        with pytest.raises(DimensionError):
            tr.TrainConfig(sample_refresh_period=period)
        tr.TrainConfig(sample_refresh_period=1)

    @pytest.mark.parametrize("clip", [-1.0, 0.0, float("nan")])
    def test_grad_clip_not_positive_rejected(self, clip):
        # A negative bound would flip every clipped gradient, so training
        # climbs the loss, and 0 would zero them.
        with pytest.raises(DimensionError, match="grad_clip"):
            tr.TrainConfig(grad_clip=clip)
        tr.TrainConfig(grad_clip=None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["learning_rate", "grad_clip"])
    def test_non_finite_value_names_field(self, name, value):
        with pytest.raises(DimensionError, match=f"{name} must be finite"):
            tr.TrainConfig(**{name: value})
        tr.TrainConfig(grad_clip=1e-9)

    def test_flocking_sample_refresh(self):
        rng = np.random.default_rng(11)
        records = []
        for k in range(4):
            W = sample_er_graph(5, 0.5, k)
            records.append(SampleRecord(X=rng.normal(size=(5, 2, 6)), W=W,
                                        meta={"kind": "flocking"}))
        cfg = tr.TrainConfig(total_steps=9, unroll_steps=4,
                             sample_refresh_period=3, seed=5)
        _, metrics = tr.train(records, cfg, params=formation_params(seed=3))
        picks = [m["sample_id"] for m in metrics]
        assert picks[0] == picks[1] == picks[2]
        assert picks[3] == picks[4] == picks[5]
        assert len(set(picks)) >= 2

    def test_metrics_csv_written(self, tmp_path):
        rec = small_record()
        cfg = tr.TrainConfig(total_steps=4, unroll_steps=4, seed=7)
        path = tmp_path / "metrics.csv"
        tr.train([rec], cfg, params=formation_params(seed=1),
                 metrics_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(tr.METRICS_COLUMNS)
        assert len(lines) == 5

    def test_learning_progress_smoke(self):
        # Training on one small graph cuts the identification error by at
        # least half relative to the first steps.
        spec = FormationSpec(n=10, p=0.2, sigma=0.1, d=500, seed=42)
        rec = generate_formation_sample(spec)
        cfg = tr.TrainConfig(total_steps=2000, unroll_steps=30, seed=0)
        _, metrics = tr.train([rec], cfg, params=formation_params(seed=0))
        start = np.mean([m["mae"] for m in metrics[:20]])
        end = np.mean([m["mae"] for m in metrics[-20:]])
        assert end <= 0.5 * start


def reference_train(records, cfg, params):
    """``train`` written out with the encoder run twice per step: a plain
    pass feeds the presolve, then ``unrolled_identify`` records encoder and
    unroll afresh.  The presolve restarts the momentum when a step opposes
    it.  Retries and rejected steps are not handled."""
    n = records[0].X.shape[0]
    op = DegreeOperator(n)
    flocking = records[0].meta["kind"] == "flocking"
    state = tr.init_train_state(params)
    sample_id, losses = 0, []
    for step in range(cfg.total_steps):
        if flocking and step % cfg.sample_refresh_period == 0:
            sample_id = int(tr._step_rng(cfg.seed, step, 1)
                            .integers(len(records)))
            state.dual = None
        if state.dual is None:
            seed = int(tr._step_rng(cfg.seed, step, 3).integers(2 ** 62))
            state.dual = init_dual_state(n, seed)
        record = records[sample_id]
        out = encode(record.X, state.params)
        y = half_vectorize(out.distances)
        dual = state.dual
        for _ in range(cfg.presolve_iters):
            omega_in = dual.omega
            w, dual = dual_step(y, op, out.alpha, out.beta,
                                (n - 1) / out.beta, dual)
            denom = np.linalg.norm(dual.lam_prev)
            if (denom > 0 and np.linalg.norm(dual.lam - dual.lam_prev)
                    / denom < tr.PRESOLVE_TOL
                    and np.min(op.degree(w)) > 0):
                break
            if (omega_in - dual.lam) @ (dual.lam - dual.lam_prev) > 0:
                dual = DualState(dual.lam, dual.lam_prev, dual.lam.copy(),
                                 1.0, dual.iteration)
        res = tr.unrolled_identify(record.X, state.params, cfg.unroll_steps,
                                   dual=dual)
        loss = tr.loss_on_tape(res.w, half_vectorize(record.W))
        grads = ad.backward(res.tape, loss)
        grads = tr.clip_gradients([grads[leaf].copy()
                                   for leaf in res.param_leaves],
                                  cfg.grad_clip)
        state = tr.adam_update(state, grads, cfg)
        assert state.step == step + 1
        state.dual = res.dual_next
        losses.append(float(loss.value))
    return state, losses


def flocking_records(count=4, n=6, d=8, seed=11):
    rng = np.random.default_rng(seed)
    return [SampleRecord(X=rng.normal(size=(n, 2, d)),
                         W=sample_er_graph(n, 0.5, seed + k),
                         meta={"kind": "flocking"}) for k in range(count)]


class TestOneEncoderPassPerStep:
    @pytest.mark.parametrize("records, cfg, params", [
        ([small_record(n=8, d=40, seed=3)],
         tr.TrainConfig(total_steps=5, unroll_steps=8,
                        resample_windows=False, seed=2),
         formation_params(seed=5)),
        (flocking_records(),
         tr.TrainConfig(total_steps=6, unroll_steps=6,
                        sample_refresh_period=4, seed=4),
         flocking_params(seed=1)),
    ], ids=["formation", "flocking-refresh"])
    def test_bit_identical_to_two_pass_steps(self, records, cfg, params):
        state, metrics = tr.train(records, cfg, params=params)
        ref_state, ref_losses = reference_train(records, cfg, params)
        assert [m["loss"] for m in metrics] == ref_losses
        for a, b in zip(params_to_arrays(state.params),
                        params_to_arrays(ref_state.params)):
            assert np.array_equal(a, b)
        assert np.array_equal(state.dual.lam, ref_state.dual.lam)

    @staticmethod
    def one_step(monkeypatch, record, cfg, dual):
        """One training step from ``dual``: counts of encoder calls, the
        tape length at ``backward``, the gradients and the new state."""
        seen = {"encode_on_tape": 0, "encode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def backward(tape, out, real=ad.backward):
            seen["nodes"] = len(tape.nodes)
            return real(tape, out)

        def adam_update(state, grads, cfg, real=tr.adam_update):
            seen["grads"] = grads
            return real(state, grads, cfg)

        monkeypatch.setattr(tr, "encode_on_tape",
                            counted("encode_on_tape", tr.encode_on_tape))
        monkeypatch.setattr(enc, "encode", counted("encode", enc.encode))
        monkeypatch.setattr(tr, "encode", counted("encode", enc.encode),
                            raising=False)
        monkeypatch.setattr(ad, "backward", backward)
        monkeypatch.setattr(tr, "adam_update", adam_update)
        state = tr.init_train_state(formation_params(seed=2))
        state.dual = dual
        state, _ = tr.train([record], cfg, state=state)
        monkeypatch.undo()
        return state, seen

    @pytest.mark.parametrize("failing", ["presolve", "unroll"])
    def test_retry_reuses_the_recording(self, monkeypatch, caplog, failing):
        record = small_record(n=6, d=12, seed=4)
        n = record.X.shape[0]
        if failing == "presolve":
            # The first presolve iteration returns a non-finite state.
            cfg = tr.TrainConfig(total_steps=1, unroll_steps=5, seed=6)
            real_step = solver.dual_step
            calls = []

            def dual_step_failing_once(*args):
                w, dual = real_step(*args)
                if not calls:
                    dual = DualState(np.full(n, np.nan), dual.lam_prev,
                                     dual.omega, dual.tau, dual.iteration)
                calls.append(1)
                return w, dual

            monkeypatch.setattr(solver, "dual_step", dual_step_failing_once)
            start = init_dual_state(n, 1)
        else:
            # No presolve: the unroll itself starts from a non-finite state.
            cfg = tr.TrainConfig(total_steps=1, unroll_steps=5,
                                 presolve_iters=0, seed=6)
            nan = np.full(n, np.nan)
            start = DualState(nan, nan.copy(), nan.copy())
        state, seen = self.one_step(monkeypatch, record, cfg, start)
        assert caplog.text.count("failed") == 1
        assert ("during presolve" in caplog.text) == (failing == "presolve")
        assert state.step == 1
        assert seen["encode_on_tape"] == 1 and seen["encode"] == 0

        reseeded = init_dual_state(
            n, int(tr._step_rng(cfg.seed, 0, 4).integers(2 ** 62)))
        clean, clean_seen = self.one_step(monkeypatch, record, cfg, reseeded)
        assert caplog.text.count("failed") == 1
        assert seen["nodes"] == clean_seen["nodes"]
        for a, b in zip(seen["grads"], clean_seen["grads"]):
            assert np.array_equal(a, b)
        for a, b in zip(params_to_arrays(state.params),
                        params_to_arrays(clean.params)):
            assert np.array_equal(a, b)

    def test_a_step_whose_every_attempt_fails_is_named(self, monkeypatch,
                                                       caplog):
        # Step 0 succeeds; every attempt at step 1 fails.
        record = small_record(n=6, d=12, seed=4)
        cfg = tr.TrainConfig(total_steps=3, unroll_steps=3, seed=6)
        presolve, calls = tr._presolve, []

        def failing_after_one(*args):
            calls.append(1)
            if len(calls) > 1:
                raise TrainStepError("non-finite dual state during presolve")
            return presolve(*args)

        monkeypatch.setattr(tr, "_presolve", failing_after_one)
        with pytest.raises(TrainStepError,
                           match="step 1 failed after 3 retries") as info:
            tr.train([record], cfg, params=formation_params(seed=2))
        assert info.value.step == 1
        assert len(calls) == 1 + tr.RETRY_BUDGET + 1
        assert caplog.text.count("step 1 attempt") == tr.RETRY_BUDGET + 1

    def test_rejected_step_restarts_the_dual_from_stream_nine(
            self, monkeypatch):
        record = small_record(n=6, d=12, seed=4)
        cfg = tr.TrainConfig(total_steps=2, unroll_steps=3, seed=6)
        monkeypatch.setattr(tr, "adam_update", lambda state, grads, cfg: state)
        state, _ = tr.train([record], cfg, params=formation_params(seed=2))
        assert state.step == 2
        restart = init_dual_state(
            6, int(tr._step_rng(cfg.seed, 1, 9).integers(2 ** 62)))
        for field in ("lam", "lam_prev", "omega", "tau", "iteration"):
            assert np.array_equal(getattr(state.dual, field),
                                  getattr(restart, field))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rec = small_record()
        cfg = tr.TrainConfig(total_steps=3, unroll_steps=4, seed=9)
        state, _ = tr.train([rec], cfg, params=formation_params(seed=4))
        path = tmp_path / "ck.json"
        tr.save_train_state(state, cfg, path)
        loaded, cfg_dict = tr.load_train_state(path)
        assert loaded.step == state.step == 3
        assert cfg_dict["total_steps"] == 3
        for a, b in zip(params_to_arrays(state.params),
                        params_to_arrays(loaded.params)):
            assert np.array_equal(a, b)
        for a, b in zip(state.adam_m, loaded.adam_m):
            assert np.array_equal(a, b)

    def test_document_keys_in_order(self, tmp_path):
        state = tr.init_train_state(flocking_params(seed=4))
        path = tmp_path / "ck.json"
        tr.save_train_state(state, tr.TrainConfig(), path)
        doc = json.loads(path.read_text())
        assert list(doc) == [
            "format", "version", "fc1_widths", "fc2_widths", "head_widths",
            "scale", "seed", "scale_free", "arrays", "adam_m", "adam_v",
            "step", "train_config"]
        assert (doc["fc1_widths"], doc["fc2_widths"]) == ([2, 4, 4, 1], [])
        assert path.read_text().endswith("}\n")

    @pytest.mark.parametrize("key", ["arrays", "adam_m", "adam_v"])
    def test_rejects_arrays_of_another_layout(self, tmp_path, key):
        state = tr.init_train_state(formation_params(seed=4))
        path = tmp_path / "ck.json"
        tr.save_train_state(state, tr.TrainConfig(), path)
        doc = json.loads(path.read_text())
        doc[key][2].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=key):
            tr.load_train_state(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 2}')
        with pytest.raises(SchemaError):
            tr.load_train_state(path)

    def test_rejects_wrong_version(self, tmp_path):
        rec = small_record()
        cfg = tr.TrainConfig(total_steps=1, unroll_steps=2, seed=9)
        state, _ = tr.train([rec], cfg, params=formation_params(seed=4))
        path = tmp_path / "ck.json"
        tr.save_train_state(state, cfg, path)
        doc = json.loads(path.read_text())
        doc["version"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            tr.load_train_state(path)

    def test_resume_continues_step_counter(self, tmp_path):
        rec = small_record()
        cfg = tr.TrainConfig(total_steps=3, unroll_steps=4, seed=9)
        state, _ = tr.train([rec], cfg, params=formation_params(seed=4))
        path = tmp_path / "ck.json"
        tr.save_train_state(state, cfg, path)
        loaded, _ = tr.load_train_state(path)
        longer = tr.TrainConfig(total_steps=5, unroll_steps=4, seed=9)
        resumed, metrics = tr.train([rec], longer, state=loaded)
        assert resumed.step == 5
        assert [m["step"] for m in metrics] == [3, 4]
