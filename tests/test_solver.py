"""Solver tests: closed-form stationary points, oracle agreement, and the
contracts around feasibility and convergence."""

import numpy as np
import pytest

from graphident.datagen import (FormationSpec, generate_formation_sample,
                                sample_er_graph, sample_smooth_signals)
from graphident.encoder import encode, formation_params
from graphident.errors import DimensionError, NumericalFailure
from graphident.graphcore import (DegreeOperator, devectorize,
                                  distance_matrix, half_vectorize, num_edges)
from graphident.solver import (SolverConfig, advance, dual_step,
                               identify_graph, init_dual_state, objective,
                               reference_solve)


def tight(alpha, beta, iters=20000, seed=0):
    return SolverConfig(alpha=alpha, beta=beta, max_iters=iters, tol=1e-12,
                        seed=seed)


class TestClosedForms:
    def test_zero_distance_uniform(self):
        # With no distance signal every edge settles at the same weight,
        # fixed by stationarity of the quadratic plus barrier.
        res = identify_graph(np.zeros(6), 4, tight(1.0, 1.0))
        assert np.allclose(res.w, np.sqrt(1.0 / 3.0), atol=1e-8)

    def test_two_node_scalar(self):
        # Single edge: minimize 2w + w^2 - 2 log w  =>  w^2 + w - 1 = 0.
        res = identify_graph(np.array([1.0]), 2, tight(1.0, 1.0))
        assert np.allclose(res.w, (np.sqrt(5) - 1) / 2, atol=1e-9)

    def test_oracle_matches_both(self):
        w1 = reference_solve(np.zeros(6), 4, tight(1.0, 1.0))
        assert np.allclose(w1, np.sqrt(1.0 / 3.0), atol=1e-6)
        w2 = reference_solve(np.array([1.0]), 2, tight(1.0, 1.0))
        assert np.allclose(w2, (np.sqrt(5) - 1) / 2, atol=1e-6)


class TestIdentifyGraph:
    def test_huge_distance_clamps_to_zero(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0.5, 1.5, num_edges(5))
        y[2] = 1e6
        res = identify_graph(y, 5, tight(0.5, 1e-2))
        assert res.w[2] == 0.0

    def test_output_nonnegative(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            y = rng.uniform(0, 2, num_edges(6))
            res = identify_graph(y, 6, SolverConfig(0.3, 1e-3, 2000, 1e-5, seed))
            assert res.w.min() >= 0.0

    def test_converged_flag_and_step(self):
        res = identify_graph(np.zeros(6), 4, SolverConfig(1, 1, 5000, 1e-10, 0))
        assert res.converged
        assert res.final_relative_step < 1e-10
        assert res.iters_run <= 5000

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            identify_graph(np.zeros(5), 4, tight(1, 1))
        with pytest.raises(DimensionError):
            identify_graph(-np.ones(6), 4, tight(1, 1))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_distances_rejected(self, bad):
        y = np.ones(num_edges(5))
        y[3] = bad
        with pytest.raises(DimensionError):
            identify_graph(y, 5, SolverConfig())

    def test_beta_monotonicity(self):
        # Doubling the quadratic weight strictly shrinks total edge mass.
        rng = np.random.default_rng(2)
        y = rng.uniform(0.1, 1.0, num_edges(7))
        norms = []
        for beta in (1e-3, 2e-3, 4e-3):
            res = identify_graph(y, 7, tight(0.5, beta, seed=3))
            norms.append(res.w.sum())
        assert norms[0] > norms[1] > norms[2]

    def test_dual_step_matches_recurrence(self):
        # One hand-stepped iteration of the update equations.
        n, beta, alpha = 3, 0.5, 0.7
        y = np.array([0.1, 0.2, 0.3])
        state = init_dual_state(n, seed=5)
        S = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        lip = (n - 1) / beta
        w_manual = np.maximum(0.0, (S.T @ state.omega - 2 * y) / (2 * beta))
        Sw = S @ w_manual
        z = Sw - lip * state.omega
        u = 0.5 * (z + np.sqrt(z * z + 4.0 * (alpha * lip)))
        lam_manual = state.omega - (Sw - u) / lip
        w, new_state = dual_step(y, DegreeOperator(n), alpha, beta, lip, state)
        assert np.allclose(w, w_manual, atol=1e-15)
        assert np.allclose(new_state.lam, lam_manual, atol=1e-15)
        assert new_state.tau == (1 + np.sqrt(5)) / 2


class TestAdvance:
    def test_non_finite_w_raises_at_its_iteration(self):
        # An inf multiplier start makes the first primal iterate infinite;
        # the same step's multiplier is then NaN, which ``advance`` checks.
        n = 5
        y = np.ones(num_edges(n))
        state = init_dual_state(n, 0)
        state.omega[2] = np.inf
        with np.errstate(invalid="ignore"):
            w, _ = dual_step(y, DegreeOperator(n), 0.2, 1e-4,
                             (n - 1) / 1e-4, state)
            assert not np.all(np.isfinite(w))
            with pytest.raises(NumericalFailure) as info:
                advance(y, DegreeOperator(n), 0.2, 1e-4, state, 10, 1e-5)
        assert info.value.iteration == 0


def plain_solve(y, n, cfg):
    """The loop ``identify_graph`` runs, with its stop rule but plain
    momentum throughout: ``dual_step`` and no restart.  Returns the last
    iterate, the state, the last relative step and whether the rule held."""
    op = DegreeOperator(n)
    state = init_dual_state(n, cfg.seed)
    rel_step = np.inf
    for _ in range(cfg.max_iters):
        w, state = dual_step(y, op, cfg.alpha, cfg.beta, (n - 1) / cfg.beta,
                             state)
        denom = np.sqrt(state.lam_prev @ state.lam_prev)
        diff = state.lam - state.lam_prev
        rel_step = np.sqrt(diff @ diff) / denom if denom > 0 else np.inf
        if rel_step < cfg.tol and op.degree(w).min() > 0:
            return w, state, rel_step, True
    return w, state, rel_step, False


class TestMomentumRestart:
    def test_restart_stops_near_the_optimum_in_fewer_iterations(self):
        # Plain momentum meets the relative-step rule here after 227
        # iterations, 7.7e-5 (relative) above the optimum.
        W = sample_er_graph(50, 0.2, 103)
        out = encode(sample_smooth_signals(W, 0.1, 2000, 203),
                     formation_params(0))
        y = half_vectorize(out.distances)
        cfg = SolverConfig(alpha=out.alpha, beta=out.beta, seed=3)
        res = identify_graph(y, 50, cfg)
        _, plain, _, _ = plain_solve(y, 50, cfg)
        assert res.converged
        assert res.iters_run <= 0.6 * plain.iteration
        best = objective(reference_solve(y, 50, cfg, grad_tol=1e-6), y, cfg)
        assert abs(res.objective - best) <= 1e-6 * abs(best)

    def test_no_restart_while_the_iterate_sits_at_zero(self):
        # At w = 0 the multipliers rise monotonically, so every step agrees
        # with the momentum and the restarted solve is the plain one.
        X = generate_formation_sample(FormationSpec(n=20, seed=12)).X
        y = half_vectorize(distance_matrix(X[:, :1, :]))
        cfg = SolverConfig(0.2, 1e-4, 2000, 1e-5, 0)
        res = identify_graph(y, 20, cfg)
        w, plain, rel_step, _ = plain_solve(y, 20, cfg)
        assert np.array_equal(res.w, w)
        assert res.iters_run == plain.iteration
        assert res.final_relative_step == rel_step


class TestSolveDiagnostics:
    def test_feasible_solve_reports_its_objective(self):
        rng = np.random.default_rng(6)
        y = rng.uniform(0, 1, num_edges(6))
        cfg = tight(0.5, 1e-2)
        res = identify_graph(y, 6, cfg)
        assert res.isolated_nodes == 0
        assert res.objective == objective(res.w, y, cfg)
        assert np.isfinite(res.objective)

    def test_raw_distance_solve_is_flagged(self):
        # Raw trajectory distances are large against the barrier weight, and
        # the iteration returns the empty graph here.  That point leaves
        # every node isolated, so it must come back flagged, not as a graph.
        X = generate_formation_sample(FormationSpec(n=20, seed=12)).X
        y = half_vectorize(distance_matrix(X[:, :1, :]))
        res = identify_graph(y, 20, SolverConfig(0.2, 1e-4, 2000, 1e-5, 0))
        degrees = devectorize(res.w, 20).sum(axis=1)
        assert res.isolated_nodes == np.count_nonzero(degrees <= 0)
        assert res.isolated_nodes > 0
        assert res.objective == np.inf

    def test_small_first_step_is_not_convergence(self):
        # At n=200, L = (n-1)/beta is about 2e6, so the very first relative
        # dual step (4.9e-6) is below tol while the iterate is still w = 0.
        W = sample_er_graph(200, 0.2, 1)
        X = sample_smooth_signals(W, 0.1, 2000, 2)
        y = half_vectorize(distance_matrix(X[:, 0:1, :]))
        res = identify_graph(y, 200, SolverConfig(0.2, 1e-4))
        assert res.isolated_nodes > 0
        assert not res.converged


class TestScaleReparametrization:
    """w*(y; alpha, beta) = delta * w*(theta * y; 1, 1) with
    theta = 1 / sqrt(alpha beta) and delta = sqrt(alpha / beta)."""

    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_identity_against_oracle(self, n):
        rng = np.random.default_rng(30 + n)
        y = rng.uniform(0.0, 1.0, num_edges(n))
        for alpha, beta in ((0.3, 1e-2), (2.0, 0.5), (4.0, 0.05)):
            theta = 1.0 / np.sqrt(alpha * beta)
            delta = np.sqrt(alpha / beta)
            direct = reference_solve(y, n, tight(alpha, beta))
            unit = reference_solve(theta * y, n, tight(1.0, 1.0))
            assert np.abs(direct - delta * unit).max() <= 1e-6 * delta


class TestNodePermutation:
    def test_permuting_nodes_permutes_weights(self):
        # Relabelling the nodes relabels the optimal graph.  The dual solve
        # of the permuted distances must match both the permuted solve of
        # the original and the dense-operator oracle on the permuted problem.
        n = 12
        rng = np.random.default_rng(50)
        y = rng.uniform(0.0, 1.0, num_edges(n))
        perm = rng.permutation(n)
        y_perm = half_vectorize(devectorize(y, n)[np.ix_(perm, perm)])
        cfg = tight(2.0, 0.5)
        w = identify_graph(y, n, cfg).w
        w_perm = identify_graph(y_perm, n, cfg).w
        expected = half_vectorize(devectorize(w, n)[np.ix_(perm, perm)])
        scale = np.abs(w).max()
        assert np.abs(w_perm - expected).max() <= 1e-9 * scale
        w_ref = reference_solve(y_perm, n, cfg)
        assert np.abs(w_perm - w_ref).max() <= 1e-6 * scale


class TestObjective:
    def test_uniform_formula(self):
        # Six edges at weight c on four nodes: beta c^2 per edge plus the
        # barrier over four degrees of 3c.
        c = 0.8
        w = np.full(6, c)
        val = objective(w, np.zeros(6), SolverConfig(1.0, 1.0, 10, 1e-5, 0))
        assert np.isclose(val, 6 * c * c - 4 * np.log(3 * c))

    def test_isolated_node_is_infeasible(self):
        w = np.zeros(6)
        w[5] = 1.0  # nodes 0 and 1 keep zero degree
        assert objective(w, np.zeros(6),
                         SolverConfig(1.0, 1.0, 10, 1e-5, 0)) == np.inf

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            objective(np.ones(6), np.ones(3), SolverConfig(1, 1, 10, 1e-5, 0))

    def test_solution_is_local_minimum(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(0, 1, num_edges(5))
        cfg = tight(0.4, 1e-2)
        res = identify_graph(y, 5, cfg)
        base = objective(res.w, y, cfg)
        for k in range(num_edges(5)):
            bumped = res.w.copy()
            bumped[k] += 1e-3
            assert objective(bumped, y, cfg) > base


class TestSolverOracleAgreement:
    def test_random_instances(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            n = int(rng.integers(4, 9))
            y = rng.uniform(0, 1, num_edges(n))
            cfg = SolverConfig(alpha=float(rng.uniform(0.05, 1.0)),
                               beta=float(10 ** rng.uniform(-5, -2)),
                               max_iters=30000, tol=1e-12, seed=trial)
            res = identify_graph(y, n, cfg)
            w_ref = reference_solve(y, n, cfg)
            fo, fr = objective(res.w, y, cfg), objective(w_ref, y, cfg)
            assert abs(fo - fr) <= 1e-5 * abs(fr)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(DimensionError):
            SolverConfig(alpha=0.0)
        with pytest.raises(DimensionError):
            SolverConfig(beta=-1.0)
        with pytest.raises(DimensionError):
            SolverConfig(max_iters=0)
        with pytest.raises(DimensionError):
            SolverConfig(tol=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["alpha", "beta", "tol"])
    def test_non_finite_value_names_field(self, name, value):
        with pytest.raises(DimensionError, match=f"{name} must be finite"):
            SolverConfig(**{name: value})

    def test_seeded_init_reproducible(self):
        a = init_dual_state(6, seed=9)
        b = init_dual_state(6, seed=9)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.lam, a.lam_prev)
        assert a.tau == 1.0
