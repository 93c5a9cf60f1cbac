"""Trainer tests: loss values, unroll/solver consistency, Adam behavior,
and loop determinism."""

import json

import numpy as np
import pytest

from graphident import autodiff as ad
from graphident import encoder as enc
from graphident import training as tr
from graphident.datagen import (FormationSpec, SampleRecord,
                                generate_formation_sample, sample_er_graph,
                                sample_smooth_signals)
from graphident.encoder import (arrays_to_params, encode, flocking_params,
                                formation_params, params_to_arrays)
from graphident.errors import DimensionError, SchemaError
from graphident.graphcore import (DegreeOperator, build_sum_operator,
                                  half_vectorize, num_edges)
from graphident.solver import (DualState, SolverConfig, dual_step,
                               identify_graph, init_dual_state)


def small_record(n=6, d=12, seed=0, p=0.4):
    W = sample_er_graph(n, p, seed)
    X = sample_smooth_signals(W, 0.1, d, seed + 1)
    return SampleRecord(X=X, W=W, meta={"kind": "formation", "sigma": 0.1})


class TestIdentificationLoss:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(size=num_edges(5))
        assert tr.identification_loss(w, w) == 0.0

    def test_single_edge_worked_example(self):
        # w places one unit edge between nodes 0 and 1; target is empty.
        # Weight term: 1.  Complement term: the symmetrized redistribution
        # of w has vech [0, 0.5, 0.5] and the empty graph's is zero.
        w = np.array([1.0, 0.0, 0.0])
        w_hat = np.zeros(3)
        assert tr.identification_loss(w, w_hat) == pytest.approx(2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=num_edges(6)) * (rng.uniform(size=15) < 0.5)
        b = rng.uniform(size=num_edges(6)) * (rng.uniform(size=15) < 0.5)
        assert tr.identification_loss(a, b) == pytest.approx(
            tr.identification_loss(b, a))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            tr.identification_loss(np.zeros(3), np.zeros(6))

    def test_tape_matches_plain(self):
        rng = np.random.default_rng(2)
        n = 6
        S = build_sum_operator(n)
        w_val = rng.uniform(size=num_edges(n)) * (rng.uniform(size=15) < 0.6)
        w_hat = rng.uniform(size=num_edges(n)) * (rng.uniform(size=15) < 0.4)
        tape = ad.Tape()
        w = tape.leaf(w_val)
        loss = tr.loss_on_tape(w, w_hat, S, S.T.copy())
        assert float(loss.value) == pytest.approx(
            tr.identification_loss(w_val, w_hat))


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
        cfg = SolverConfig(alpha=float(res.alpha.value),
                           beta=float(res.beta.value),
                           max_iters=60, tol=1e-300, seed=9)
        plain = identify_graph(res.y.value, 5, cfg)
        assert np.abs(res.w.value - plain.w).max() <= 1e-12

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
        expected_delta = -cfg.learning_rate * 0.5 / (0.5 + cfg.adam_eps)
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
    unroll afresh.  Retries and rejected steps are not handled."""
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
            _, dual = dual_step(y, op, out.alpha, out.beta,
                                (n - 1) / out.beta, dual)
            denom = np.linalg.norm(dual.lam_prev)
            if denom > 0 and (np.linalg.norm(dual.lam - dual.lam_prev)
                              / denom < cfg.presolve_tol):
                break
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
            real_step = tr.dual_step
            calls = []

            def dual_step_failing_once(*args):
                w, dual = real_step(*args)
                if not calls:
                    dual = DualState(np.full(n, np.nan), dual.lam_prev,
                                     dual.omega, dual.tau, dual.iteration)
                calls.append(1)
                return w, dual

            monkeypatch.setattr(tr, "dual_step", dual_step_failing_once)
            start = init_dual_state(n, 1)
        else:
            # No presolve: the unroll itself starts from a non-finite state.
            cfg = tr.TrainConfig(total_steps=1, unroll_steps=5,
                                 presolve_iters=0, seed=6)
            nan = np.full(n, np.nan)
            start = DualState(nan, nan.copy(), nan.copy())
        state, seen = self.one_step(monkeypatch, record, cfg, start)
        assert caplog.text.count("failed") == 1
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
