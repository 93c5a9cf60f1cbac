"""Core graph machinery tests; expected values frozen from hand derivations
or brute-force oracles."""

import numpy as np
import pytest

from graphident import autodiff as ad
from graphident.errors import DimensionError, InvariantError
from graphident.graphcore import (SYM_ATOL, DegreeOperator, EdgeRecovery,
                                  build_sum_operator, devectorize,
                                  distance_matrix, edge_density,
                                  edge_recovery, half_vectorize, laplacian,
                                  mae, num_edges, total_variation,
                                  upper_indices)
from graphident.training import _complement


def random_adjacency(n, rng, density=0.5):
    W = rng.uniform(0.1, 2.0, size=(n, n)) * (rng.uniform(size=(n, n)) < density)
    W = np.triu(W, k=1)
    return W + W.T


class TestHalfVectorize:
    def test_single_edge(self):
        w = half_vectorize(np.array([[0.0, 3.0], [3.0, 0.0]]))
        assert w.tolist() == [3.0]

    def test_ordering(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        W[0, 2] = W[2, 0] = 2.0
        assert half_vectorize(W).tolist() == [1.0, 2.0, 0.0]

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            W = random_adjacency(6, rng)
            assert np.array_equal(devectorize(half_vectorize(W)), W)

    def test_rejects_asymmetric(self):
        W = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvariantError):
            half_vectorize(W)

    def test_rejects_nonzero_diagonal(self):
        W = np.array([[1.0, 2.0], [2.0, 0.0]])
        with pytest.raises(InvariantError):
            half_vectorize(W)

    @pytest.mark.parametrize("upper, lower, symmetric", [
        (np.nan, np.nan, False),
        (1.0, np.nan, False),
        (np.inf, np.inf, True),
        (-np.inf, -np.inf, True),
        (np.inf, 1.0, False),
        (np.inf, -np.inf, False),
        (0.0, SYM_ATOL, True),
        (0.0, np.nextafter(SYM_ATOL, 1.0), False),
        (1.0, 1.0 + SYM_ATOL / 2, True),
        (1.0, 1.0 + 2 * SYM_ATOL, False)])
    def test_symmetry_verdict_is_allclose_with_zero_rtol(self, upper, lower,
                                                         symmetric):
        W = np.zeros((3, 3))
        W[0, 2], W[2, 0] = upper, lower
        assert np.allclose(W, W.T, atol=SYM_ATOL, rtol=0.0) == symmetric
        if symmetric:
            assert half_vectorize(W)[1] == upper
        else:
            with pytest.raises(InvariantError, match="non-symmetric"):
                half_vectorize(W)

    def test_devectorize_length_check(self):
        with pytest.raises(DimensionError):
            devectorize(np.ones(4))


class TestSumOperator:
    def test_two_nodes(self):
        assert build_sum_operator(2).tolist() == [[1.0], [1.0]]

    def test_three_node_degrees(self):
        S = build_sum_operator(3)
        assert (S @ np.array([1.0, 2.0, 0.0])).tolist() == [3.0, 1.0, 2.0]

    def test_degree_property_random(self):
        rng = np.random.default_rng(1)
        S = build_sum_operator(7)
        for _ in range(5):
            W = random_adjacency(7, rng)
            assert np.allclose(S @ half_vectorize(W), W @ np.ones(7),
                               atol=1e-12)

    def test_structure(self):
        S = build_sum_operator(5)
        assert np.array_equal(np.sort(np.unique(S)), [0.0, 1.0])
        assert (S.sum(axis=0) == 2).all()
        assert (S.sum(axis=1) == 4).all()

    def test_rejects_small_n(self):
        with pytest.raises(DimensionError):
            build_sum_operator(1)


class TestUpperIndices:
    @pytest.mark.parametrize("n", [1, 2, 5, 200])
    def test_equal_triu_indices_and_read_only(self, n):
        rows, cols = upper_indices(n)
        expected = np.triu_indices(n, k=1)
        assert np.array_equal(rows, expected[0])
        assert np.array_equal(cols, expected[1])
        assert upper_indices(n)[0] is rows
        with pytest.raises(ValueError):
            rows[...] = 0
        with pytest.raises(ValueError):
            cols[...] = 0

    def test_cache_is_bounded(self):
        assert upper_indices.cache_info().maxsize is not None


class TestDegreeOperator:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_index_forms_match_dense(self, n):
        rng = np.random.default_rng(40 + n)
        S = build_sum_operator(n)
        op = DegreeOperator(n)
        w = rng.uniform(-1.0, 2.0, size=num_edges(n))
        lam = rng.normal(size=n)
        assert np.allclose(op.degree(w), S @ w, rtol=0.0, atol=1e-13)
        assert np.array_equal(op.pair_sum(lam), S.T @ lam)

    def test_rejects_small_n(self):
        with pytest.raises(DimensionError):
            DegreeOperator(1)


class TestTotalVariation:
    def test_no_edges(self):
        X = np.random.default_rng(2).normal(size=(4, 6))
        assert total_variation(X, np.zeros((4, 4))) == 0.0

    def test_identical_signals(self):
        rng = np.random.default_rng(3)
        W = random_adjacency(5, rng)
        X = np.tile(rng.normal(size=6), (5, 1))
        assert abs(total_variation(X, W)) < 1e-9

    def test_weighted_distance_identity(self):
        # trace form equals half the weighted sum of pairwise squared
        # distances, both sides computed independently.
        rng = np.random.default_rng(4)
        W = random_adjacency(5, rng)
        X = rng.normal(size=(5, 4))
        lhs = total_variation(X, W)
        Y = np.array([[np.sum((X[i] - X[j]) ** 2) for j in range(5)]
                      for i in range(5)])
        rhs = 0.5 * np.sum(W * Y)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))

    def test_rejects_multidim(self):
        with pytest.raises(DimensionError):
            total_variation(np.zeros((4, 2, 6)), np.zeros((4, 4)))


class TestDistanceMatrix:
    def test_identical_rows(self):
        X = np.ones((4, 2, 3))
        assert np.array_equal(distance_matrix(X), np.zeros((4, 4)))

    def test_scalar_pair(self):
        X = np.array([0.0, 3.0]).reshape(2, 1, 1)
        assert distance_matrix(X)[0, 1] == 9.0

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(4, 2, 5))
        Y = distance_matrix(X)
        flat = X.reshape(4, -1)
        for i in range(4):
            for j in range(4):
                assert np.isclose(Y[i, j], np.sum((flat[i] - flat[j]) ** 2))

    def test_metric_properties(self):
        rng = np.random.default_rng(7)
        Y = distance_matrix(rng.normal(size=(4, 3, 2)))
        assert np.allclose(Y, Y.T)
        assert np.allclose(np.diag(Y), 0.0)
        D = np.sqrt(Y)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert D[i, j] <= D[i, k] + D[k, j] + 1e-9


def complement(W):
    """The loss's complement graph of the adjacency ``W``, as a matrix."""
    n = W.shape[0]
    leaf = ad.Tape(record=False).leaf(half_vectorize(W))
    return devectorize(_complement(leaf, DegreeOperator(n)).value, n)


class TestAdjoint:
    """The complement (adjoint) graph, whose one implementation is the
    training loss's ``_complement``."""

    def test_worked_single_edge(self):
        # Nodes 0 and 1 each spread degree 2 over their one free slot, to
        # node 2; each free edge averages its ends' shares, 2 and 0.
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 2.0
        sym = complement(W)
        assert sym[0, 2] == sym[2, 0] == 1.0
        assert sym[1, 2] == sym[2, 1] == 1.0
        assert sym[0, 1] == 0.0

    def test_empty_graph(self):
        assert np.array_equal(complement(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_complete_graph(self):
        W = np.ones((4, 4)) - np.eye(4)
        assert np.array_equal(complement(W), np.zeros((4, 4)))

    def test_preserves_total_weight(self):
        # Each node with an edge and a free slot spreads its whole degree
        # over its free edges, so the totals match.
        rng = np.random.default_rng(8)
        for _ in range(10):
            W = random_adjacency(6, rng, density=0.3)
            free = ((W == 0) & ~np.eye(6, dtype=bool)).sum(axis=1)
            assert np.all(free[W.sum(axis=1) > 0] > 0)
            assert (abs(complement(W).sum() - W.sum())
                    <= 1e-12 * W.sum())

    def test_symmetrized_is_valid_adjacency(self):
        rng = np.random.default_rng(9)
        W = random_adjacency(7, rng, density=0.3)
        A = complement(W)
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0.0)
        assert A.min() >= 0 and A.max() > 0


class TestMae:
    def test_identical(self):
        W = np.ones((3, 3)) - np.eye(3)
        assert mae(W, W) == 0.0

    def test_direct_formula(self):
        W_hat = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert mae(W_hat, np.zeros((2, 2))) == 0.5

    def test_matches_loop(self):
        rng = np.random.default_rng(10)
        A = random_adjacency(5, rng)
        B = random_adjacency(5, rng)
        manual = sum(abs(A[i, j] - B[i, j]) for i in range(5)
                     for j in range(5)) / 25
        assert np.isclose(mae(A, B), manual)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mae(np.zeros((3, 3)), np.zeros((4, 4)))


class TestEdgeRecovery:
    def test_perfect(self):
        rng = np.random.default_rng(11)
        W = random_adjacency(6, rng)
        counts = edge_recovery(W, W, 1e-5)
        assert counts.false_pos == 0 and counts.false_neg == 0

    def test_all_missed(self):
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        counts = edge_recovery(np.zeros((4, 4)), W, 1e-5)
        assert counts.false_neg == 2 and counts.true_pos == 0

    def test_perturbation_below_threshold(self):
        rng = np.random.default_rng(12)
        W = random_adjacency(6, rng, density=0.4)
        noise = rng.uniform(-4e-6, 4e-6, size=(6, 6))
        noise = np.triu(noise, 1) + np.triu(noise, 1).T
        before = edge_recovery(W, W, 1e-5)
        after = edge_recovery(W + noise, W, 1e-5)
        assert before == after

    def test_rejects_bad_threshold(self):
        with pytest.raises(InvariantError):
            edge_recovery(np.zeros((3, 3)), np.zeros((3, 3)), 0.0)

    def test_counts_type(self):
        counts = edge_recovery(np.zeros((3, 3)), np.zeros((3, 3)), 1e-5)
        assert isinstance(counts, EdgeRecovery)
        assert counts.true_neg == 3


class TestEdgeDensity:
    def test_empty(self):
        assert edge_density(np.zeros((5, 5))) == 0.0

    def test_single_edge_ordered_pairs(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        assert edge_density(W) == pytest.approx(2 / 9)


class TestLaplacian:
    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(13)
        L = laplacian(random_adjacency(8, rng))
        assert np.abs(L.sum(axis=1)).max() < 1e-12

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(14)
        L = laplacian(random_adjacency(8, rng))
        for _ in range(20):
            x = rng.normal(size=8)
            x /= np.linalg.norm(x)
            assert x @ L @ x >= -1e-9

    def test_smallest_eigenvalue(self):
        rng = np.random.default_rng(15)
        L = laplacian(random_adjacency(6, rng))
        assert np.linalg.eigvalsh(L)[0] >= -1e-9
