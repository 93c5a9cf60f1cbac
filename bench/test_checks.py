"""Each correctness check of the benchmark rejects a wrong output.

Run from the repository root:  python3 -m pytest -q bench
"""

import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from graphident import solver  # noqa: E402
from graphident.datagen import (sample_er_graph,  # noqa: E402
                                sample_smooth_signals)
from graphident.encoder import encode, formation_params  # noqa: E402


@pytest.fixture(scope="module")
def small_graph():
    W = sample_er_graph(8, 0.4, 3)
    X = sample_smooth_signals(W, 0.1, 40, 4)
    return W, X


def test_gradient_check_rejects_one_perturbed_coordinate(small_graph):
    W, X = small_graph
    grads, direction, fd = workloads.gradient_pair(
        X, W, formation_params(0), None, 10, seed=5)
    assert checks.gradient_problems(
        checks.gradient_error(grads, direction, fd)) == []
    k = max(range(len(direction)), key=lambda i: np.abs(direction[i]).max())
    j = int(np.argmax(np.abs(direction[k])))
    wrong = [g.copy() for g in grads]
    wrong[k].reshape(-1)[j] += 1e-3 * np.sqrt(sum(float(np.sum(g * g))
                                                  for g in grads))
    assert checks.gradient_problems(
        checks.gradient_error(wrong, direction, fd))


def test_graph_check_rejects_the_empty_graph():
    assert checks.graph_problems(np.zeros((5, 5))) == [
        "5 nodes of zero degree"]


@pytest.mark.parametrize("edit, message", [
    (lambda W: W.__setitem__((0, 1), W[0, 1] + 0.5), "not symmetric"),
    (lambda W: W.__setitem__((2, 2), 0.1), "nonzero diagonal"),
    (lambda W: (W.__setitem__((0, 1), -0.2), W.__setitem__((1, 0), -0.2)),
     "2 negative weights"),
    (lambda W: W.__setitem__((1, 2), np.nan), "non-finite weights"),
])
def test_graph_check_rejects_broken_adjacency(edit, message):
    W = np.ones((4, 4)) - np.eye(4)
    assert checks.graph_problems(W) == []
    edit(W)
    assert message in checks.graph_problems(W)


def test_gap_check_rejects_a_graph_scaled_from_the_optimum(small_graph):
    _, X = small_graph
    params = formation_params(0)
    W_hat, gap, _ = workloads.identify_and_compare(X, params, 0)
    assert checks.gap_problems(gap) == []
    out = encode(X, params)
    y = checks.upper(out.distances)
    w_ref = solver.reference_solve(
        y, 8, solver.SolverConfig(alpha=out.alpha, beta=out.beta))
    W_ref = np.zeros((8, 8))
    W_ref[np.triu_indices(8, k=1)] = w_ref
    W_ref += W_ref.T
    for factor in (0.8, 1.25):
        scaled = checks.objective_gap(factor * W_hat, W_ref, y, out.alpha,
                                      out.beta)
        assert checks.gap_problems(scaled)


def test_objective_is_infinite_outside_the_barrier():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0
    assert checks.objective(W, np.ones(3), 1.0, 1.0) == np.inf


def test_loss_check_rejects_a_loss_that_does_not_fall():
    falling = list(np.linspace(100.0, 10.0, 50))
    assert checks.loss_problems(falling) == []
    assert checks.loss_problems([50.0] * 50)
    assert checks.loss_problems(falling[::-1])
    assert checks.loss_problems(list(np.linspace(100.0, 85.0, 50)))
    assert checks.loss_problems(falling[:-1] + [np.nan])


def test_empty_graph_predictor_check():
    W = np.ones((4, 4)) - np.eye(4)
    assert checks.empty_graph_problems(0.9 * W, W) == []
    assert checks.empty_graph_problems(np.zeros((4, 4)), W)
    assert checks.empty_graph_problems(3.0 * W, W)


def test_tracer_records_self_time_and_restores_attributes():
    module = types.ModuleType("fake")
    module.inner = lambda: 7
    module.outer = lambda: module.inner() + 1

    tracer = Tracer()
    original = module.inner
    tracer.wrap(module, "inner", "inner", lambda a, k, r: {"value": r})
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "absent", "absent")
    with tracer.span("op"):
        assert module.outer() == 8
    tracer.unwrap_all()
    assert module.inner is original
    assert tracer.missing == ["fake.absent"]
    assert [s.name for s in tracer.spans] == ["op", "outer", "inner"]
    op, outer, inner = tracer.spans
    assert (op.parent, outer.parent, inner.parent) == (-1, 0, 1)
    assert inner.counts == {"value": 7}
    assert tracer.self_ms(1, "inner", tracer.tree()) == pytest.approx(
        outer.ms - inner.ms)
