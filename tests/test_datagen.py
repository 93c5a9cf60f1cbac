"""Generator tests: distributional checks on fixed seeds plus the flocking
controller's qualitative behavior."""

import numpy as np
import pytest

from graphident import datagen as dg
from graphident.errors import DimensionError, InvariantError, SimulationError
from graphident.graphcore import edge_density, laplacian, total_variation


class TestErGraph:
    def test_vanishing_probability(self):
        W = dg.sample_er_graph(10, 1e-9, seed=0)
        assert np.count_nonzero(W) == 0

    def test_certain_edges(self):
        W = dg.sample_er_graph(6, 1.0 - 1e-12, seed=1)
        assert np.array_equal(W, np.ones((6, 6)) - np.eye(6))

    def test_density_concentration(self):
        densities = [edge_density(dg.sample_er_graph(50, 0.2, seed))
                     for seed in range(20)]
        assert abs(np.mean(densities) - 0.2) < 0.02

    def test_valid_adjacency(self):
        W = dg.sample_er_graph(12, 0.4, seed=3)
        assert np.array_equal(W, W.T)
        assert np.abs(np.diag(W)).max() == 0.0
        assert set(np.unique(W)) <= {0.0, 1.0}

    def test_edge_marginals_chi_square(self):
        # Pooled edge indicators over fixed seeds against Bernoulli(p);
        # one-degree-of-freedom chi-square, 1% critical value 6.635.
        p, n = 0.2, 142
        W = dg.sample_er_graph(n, p, seed=4)
        m = n * (n - 1) // 2
        k = int(W.sum() / 2)
        chi2 = ((k - m * p) ** 2 / (m * p)
                + ((m - k) - m * (1 - p)) ** 2 / (m * (1 - p)))
        assert chi2 < 6.635


class TestSmoothSignals:
    def test_empty_graph_marginal_variance(self):
        X = dg.sample_smooth_signals(np.zeros((5, 5)), 0.1, 50000, seed=5)
        variances = X.reshape(5, -1).var(axis=1)
        assert np.abs(variances - 0.1).max() < 0.01

    def test_covariance_matches_target(self):
        W = dg.sample_er_graph(8, 0.4, seed=6)
        X = dg.sample_smooth_signals(W, 0.1, 50000, seed=7)
        draws = X.reshape(8, -1)  # both coordinates are i.i.d. draws
        empirical = draws @ draws.T / draws.shape[1]
        evals, evecs = np.linalg.eigh(laplacian(W))
        inv = np.where(evals > 1e-10, 1.0 / np.maximum(evals, 1e-10), 0.0)
        target = (evecs * inv) @ evecs.T + 0.1 * np.eye(8)
        rel = np.linalg.norm(empirical - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_smoother_than_matched_white_noise(self):
        # Path graph: strong neighbor correlation, so the graph total
        # variation sits clearly below white noise with the same marginals.
        n = 10
        W = np.zeros((n, n))
        for i in range(n - 1):
            W[i, i + 1] = W[i + 1, i] = 1.0
        X = dg.sample_smooth_signals(W, 0.1, 4000, seed=8)
        evals, evecs = np.linalg.eigh(laplacian(W))
        inv = np.where(evals > 1e-10, 1.0 / np.maximum(evals, 1e-10), 0.0)
        marginal = np.sqrt(np.diag((evecs * inv) @ evecs.T) + 0.1)
        rng = np.random.default_rng(9)
        X_white = rng.standard_normal((n, 2, 4000)) * marginal[:, None, None]
        assert (total_variation(X.reshape(n, -1), W)
                < 0.5 * total_variation(X_white.reshape(n, -1), W))

    def test_deterministic_given_seed(self):
        W = dg.sample_er_graph(6, 0.3, seed=10)
        a = dg.sample_smooth_signals(W, 0.1, 50, seed=11)
        b = dg.sample_smooth_signals(W, 0.1, 50, seed=11)
        assert np.array_equal(a, b)


class TestFormationSpec:
    def test_validation(self):
        with pytest.raises(InvariantError):
            dg.FormationSpec(p=1.5)
        with pytest.raises(InvariantError):
            dg.FormationSpec(sigma=0.0)
        with pytest.raises(InvariantError):
            dg.FormationSpec(n=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sigma_names_field(self, value):
        with pytest.raises(InvariantError, match="sigma must be finite"):
            dg.FormationSpec(sigma=value)

    def test_sample_generation(self):
        rec = dg.generate_formation_sample(dg.FormationSpec(n=8, d=40, seed=12))
        assert rec.X.shape == (8, 2, 40)
        assert rec.W.shape == (8, 8)
        assert rec.meta["kind"] == "formation"


class TestFlocking:
    def test_single_robot_converges_to_goal(self):
        spec = dg.FlockingSpec(n=1, seed=13)
        traj, graphs = dg.simulate_flocking(
            spec, initial_positions=np.array([[3.0, -2.0]]))
        start = np.linalg.norm(traj[0, :, 0])
        end = np.linalg.norm(traj[0, :, -1])
        assert end < 0.3 * start
        assert np.abs(graphs).max() == 0.0

    def test_pair_holds_desired_spacing(self):
        spec = dg.FlockingSpec(n=2, seed=14, goal=(0.0, 0.0))
        init = np.array([[-0.35, 0.0], [0.35, 0.0]])
        traj, _ = dg.simulate_flocking(spec, initial_positions=init)
        dist = np.linalg.norm(traj[0] - traj[1], axis=0)
        assert dist.min() > 0.7 * 0.9
        assert dist.max() < 0.7 * 1.1

    def test_graph_invariants_every_step(self):
        _, graphs = dg.simulate_flocking(dg.FlockingSpec(n=8, seed=15))
        for A in graphs[::10]:
            assert np.allclose(A, A.T)
            assert np.abs(np.diag(A)).max() == 0.0
            assert A.min() >= 0.0 and A.max() <= 1.0

    def test_default_density_span(self):
        records = dg.generate_flocking_windows(dg.FlockingSpec(n=20, seed=16))
        densities = [edge_density(r.W) for r in records]
        assert min(densities) <= 0.1
        assert max(densities) >= 0.8

    def test_blowup_detection(self):
        spec = dg.FlockingSpec(n=5, dt=5.0, duration=100.0, seed=17)
        with pytest.raises(SimulationError):
            dg.simulate_flocking(spec)

    def test_spec_validation(self):
        with pytest.raises(InvariantError):
            dg.FlockingSpec(rho=1.5, r_comm=1.2)
        with pytest.raises(InvariantError):
            dg.FlockingSpec(dt=0.0)
        for goal in ([0.0, 1.0, 2.0], [1.0], ["x", 1.0], 3.0):
            with pytest.raises(InvariantError):
                dg.FlockingSpec(goal=goal)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", [
        "rho", "r_comm", "duration", "dt", "spawn_side", "eps", "a", "b",
        "h", "c1", "c2"])
    def test_non_finite_value_names_field(self, name, value):
        with pytest.raises(InvariantError, match=f"{name} must be finite"):
            dg.FlockingSpec(**{name: value})

    def test_non_finite_goal_rejected(self):
        with pytest.raises(InvariantError, match="goal must be finite"):
            dg.FlockingSpec(goal=(0.0, float("nan")))

    def test_goal_is_a_float_pair(self):
        spec = dg.FlockingSpec(goal=[1, 2])
        assert spec.goal == (1.0, 2.0)
        assert all(type(g) is float for g in spec.goal)


class TestWindowing:
    def test_constant_graphs(self):
        traj = np.random.default_rng(18).normal(size=(4, 2, 30))
        W = dg.sample_er_graph(4, 0.5, seed=19)
        graphs = np.repeat(W[None], 30, axis=0)
        records = dg.window_trajectories(traj, graphs, 10)
        assert len(records) == 3
        for r in records:
            assert np.array_equal(r.W, W)

    def test_remainder_dropped(self):
        traj = np.zeros((3, 2, 25))
        graphs = np.zeros((25, 3, 3))
        records = dg.window_trajectories(traj, graphs, 10)
        assert len(records) == 2

    def test_window_mean_matches_loop(self):
        rng = np.random.default_rng(20)
        graphs = rng.uniform(size=(20, 5, 5))
        graphs = (graphs + graphs.transpose(0, 2, 1)) / 2
        for g in graphs:
            np.fill_diagonal(g, 0.0)
        traj = rng.normal(size=(5, 2, 20))
        records = dg.window_trajectories(traj, graphs, 10)
        manual = sum(graphs[k] for k in range(10)) / 10
        assert np.abs(records[0].W - manual).max() < 1e-12

    def test_window_too_long(self):
        with pytest.raises(DimensionError):
            dg.window_trajectories(np.zeros((3, 2, 5)), np.zeros((5, 3, 3)), 10)

    def test_count_preservation(self):
        traj = np.zeros((3, 2, 47))
        graphs = np.zeros((47, 3, 3))
        records = dg.window_trajectories(traj, graphs, 10)
        dropped = 47 - len(records) * 10
        assert len(records) * 10 + dropped == 47
        assert dropped == 7
