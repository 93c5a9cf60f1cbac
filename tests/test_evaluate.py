"""Evaluation harness tests on desk-size instances."""

import threading

import numpy as np
import pytest

from graphident import evaluate as ev
from graphident.datagen import FlockingSpec
from graphident.encoder import flocking_params, formation_params
from graphident.errors import DimensionError, InvariantError
from graphident.graphcore import distance_matrix, half_vectorize, devectorize, mae
from graphident.solver import SolverConfig, identify_graph


def tiny_grid(**kw):
    base = dict(n_values=(6,), p_values=(0.3,), repetitions=2, d=40,
                sigma=0.1, seed=3, max_iters=300, tol=1e-5)
    base.update(kw)
    return ev.FormationGrid(**base)


class TestIdentifyHelpers:
    def test_scalar_signal_baseline_equals_direct_solve(self):
        # With one state dimension the per-dimension average is a no-op.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 1, 30))
        W_avg = ev.identify_fixed(X, 0.2, 1e-2, max_iters=500, seed=4)
        y = half_vectorize(distance_matrix(X[:, 0:1, :]))
        res = identify_graph(y, 6, SolverConfig(0.2, 1e-2, 500, 1e-5, 4))
        assert np.array_equal(W_avg, devectorize(res.w, 6))

    def test_fixed_averages_dimensions(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 2, 20))
        W_avg = ev.identify_fixed(X, 0.3, 1e-2, max_iters=400, seed=5)
        parts = []
        for dim in range(2):
            y = half_vectorize(distance_matrix(X[:, dim:dim + 1, :]))
            parts.append(devectorize(
                identify_graph(y, 5, SolverConfig(0.3, 1e-2, 400, 1e-5, 5)).w, 5))
        assert np.allclose(W_avg, np.mean(parts, axis=0))

    def test_huge_beta_shrinks_weights(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 2, 20))
        W_hat = ev.identify_fixed(X, 0.2, 1e3, max_iters=500, seed=6)
        assert W_hat.max() < 1e-2

    def test_encoder_identify_shapes(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 2, 16))
        W_hat, alpha, beta = ev.identify_with_encoder(
            X, formation_params(seed=1), max_iters=200, seed=7)
        assert W_hat.shape == (7, 7)
        assert W_hat.min() >= 0
        assert 1 < alpha < np.exp(5) and np.exp(-5) < beta < 1


class TestFormationSweep:
    def test_grid_shape_and_rows(self):
        grid = tiny_grid(n_values=(6, 8), p_values=(0.3,))
        summary, detail, matrices = ev.formation_sweep(
            grid, fixed=(0.2, 1e-3))
        assert len(summary) == 2
        assert len(detail) == 4
        assert set(matrices) == {(6, 0.3), (8, 0.3)}
        assert all(r["method"] == "baseline" for r in summary)

    def test_single_repetition_zero_std(self):
        summary, _, _ = ev.formation_sweep(tiny_grid(repetitions=1),
                                           fixed=(0.2, 1e-3))
        assert summary[0]["mae_std"] == 0.0

    def test_deterministic_across_workers(self):
        grid = tiny_grid(repetitions=3)
        s1, d1, _ = ev.formation_sweep(grid, fixed=(0.2, 1e-3), workers=1)
        s2, d2, _ = ev.formation_sweep(grid, fixed=(0.2, 1e-3), workers=3)
        assert s1 == s2
        assert d1 == d2

    def test_trained_params_path(self):
        summary, detail, _ = ev.formation_sweep(
            tiny_grid(repetitions=1), params=formation_params(seed=2))
        assert summary[0]["method"] == "trained"
        assert detail[0]["alpha"] > 1.0

    def test_requires_exactly_one_mode(self):
        with pytest.raises(DimensionError):
            ev.formation_sweep(tiny_grid())
        with pytest.raises(DimensionError):
            ev.formation_sweep(tiny_grid(), params=formation_params(0),
                               fixed=(0.1, 0.1))

    @pytest.mark.parametrize("field, value", [
        ("n_values", (1,)), ("n_values", (6.5,)), ("n_values", (True,)),
        ("p_values", (1.0,)), ("p_values", ("a",)), ("repetitions", 0),
        ("d", 0), ("sigma", 0.0), ("max_iters", 0), ("tol", 0.0),
        ("sigma", float("nan")), ("sigma", float("inf")),
        ("tol", float("nan")), ("threshold", float("nan"))])
    def test_grid_validation_names_field(self, field, value):
        with pytest.raises(InvariantError, match=field):
            tiny_grid(**{field: value})


class TestFlockingSweep:
    def test_rows_per_window(self):
        specs = [FlockingSpec(n=6, duration=1.2, d=10, seed=8)]
        summary, detail = ev.flocking_sweep(specs, fixed=(0.1, 1e-5),
                                            max_iters=200)
        assert summary[0]["windows"] == 3
        assert len(detail) == 3
        assert summary[0]["density_max"] <= 1.0

    def test_reuses_prebuilt_records(self):
        from graphident.datagen import generate_flocking_windows
        specs = [FlockingSpec(n=5, duration=0.8, d=10, seed=9)]
        records = [generate_flocking_windows(specs[0])]
        s1, d1 = ev.flocking_sweep(specs, fixed=(0.1, 1e-4), max_iters=200,
                                   records_by_config=records)
        s2, d2 = ev.flocking_sweep(specs, fixed=(0.1, 1e-4), max_iters=200)
        assert s1 == s2 and d1 == d2


def test_sweeps_start_no_thread(monkeypatch):
    # ``workers`` is accepted and ignored: every case runs in the caller's
    # thread.
    def refuse(thread):
        raise AssertionError(f"a sweep started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    grid = tiny_grid()
    _, detail, _ = ev.formation_sweep(grid, fixed=(0.2, 1e-3), workers=4)
    assert len(detail) == 2
    ev.formation_sweep(grid, params=formation_params(2), workers=4)
    specs = [FlockingSpec(n=6, duration=1.2, d=10, seed=8)]
    for mode in ({"fixed": (0.1, 1e-5)}, {"params": flocking_params(0)}):
        _, detail = ev.flocking_sweep(specs, max_iters=200, workers=4, **mode)
        assert len(detail) == 3


class TestCsv:
    def test_write_csv_full_precision(self, tmp_path):
        rows = [{"a": 1, "b": 0.1 + 0.2}]
        path = tmp_path / "x.csv"
        ev.write_csv(rows, path, ("a", "b"))
        text = path.read_text().splitlines()
        assert text[0] == "a,b"
        assert float(text[1].split(",")[1]) == 0.1 + 0.2

    def test_write_matrix(self, tmp_path):
        M = np.arange(6, dtype=float).reshape(2, 3)
        path = tmp_path / "m.csv"
        ev.write_matrix_csv(M, path)
        back = np.array([[float(v) for v in line.split(",")]
                         for line in path.read_text().splitlines()])
        assert np.array_equal(back, M)
