"""Encoder tests: architecture bookkeeping, output ranges, equivariance,
and the checkpoint contract."""

import numpy as np
import pytest

from graphident import autodiff as ad
from graphident import encoder as enc
from graphident.errors import DimensionError

RNG = np.random.default_rng(7)


class TestInitParams:
    def test_deterministic(self):
        a = enc.formation_params(seed=3)
        b = enc.formation_params(seed=3)
        for x, y in zip(enc.params_to_arrays(a), enc.params_to_arrays(b)):
            assert np.array_equal(x, y)

    def test_parameter_count(self):
        # Hand count over the four stacks: sum of (fan_in + 1) * fan_out.
        def stack_count(widths):
            return sum((i + 1) * o for i, o in zip(widths[:-1], widths[1:]))
        expected = (stack_count((2, 5, 10, 5, 1)) + stack_count((1, 2, 1))
                    + 2 * stack_count((1, 2, 1)))
        assert enc.formation_params(0).num_parameters() == expected == 157

    def test_head_scale_stored(self):
        assert enc.formation_params(0).scale == 5.0
        assert enc.flocking_params(0).scale == 3.0

    def test_weight_bounds_and_zero_bias(self):
        params = enc.formation_params(seed=11)
        for W, b in params.fc1 + params.fc2 + params.head_theta:
            assert np.abs(W).max() <= 1.0 / np.sqrt(W.shape[0])
            assert np.array_equal(b, np.zeros_like(b))

    def test_invalid_widths(self):
        with pytest.raises(DimensionError):
            enc.init_params(fc1_widths=(2, 5, 3))   # must end in one feature
        with pytest.raises(DimensionError):
            enc.init_params(fc2_widths=(2, 1))      # must start from a scalar
        with pytest.raises(DimensionError):
            enc.init_params(head_widths=(1, 2, 3))
        with pytest.raises(DimensionError):
            enc.init_params(scale=0.0)

    def test_flocking_variant_layout(self):
        params = enc.flocking_params(0)
        assert params.fc1_widths == (2, 4, 4, 1)
        assert params.fc2_widths == ()
        assert params.head_widths == (1, 2, 1)


class TestEncode:
    def test_shapes_and_ranges(self):
        params = enc.formation_params(seed=1)
        X = RNG.normal(size=(6, 2, 10))
        out = enc.encode(X, params)
        assert out.features.shape == (6, 10)
        assert out.distances.shape == (6, 6)
        assert 1.0 < out.alpha < np.exp(5.0)
        assert np.exp(-5.0) < out.beta < 1.0

    def test_identical_trajectories_collapse(self):
        params = enc.formation_params(seed=2)
        X = np.tile(RNG.normal(size=(1, 2, 8)), (5, 1, 1))
        out = enc.encode(X, params)
        assert np.allclose(out.distances, 0.0)
        assert np.allclose(out.features, out.features[0])

    def test_permutation_equivariance(self):
        params = enc.formation_params(seed=3)
        X = RNG.normal(size=(7, 2, 9))
        perm = RNG.permutation(7)
        base = enc.encode(X, params)
        permuted = enc.encode(X[perm], params)
        assert np.allclose(permuted.features, base.features[perm], atol=1e-12)
        assert abs(permuted.alpha - base.alpha) <= 1e-12 * base.alpha
        assert abs(permuted.beta - base.beta) <= 1e-12

    @pytest.mark.parametrize("n", [2, 10, 60])
    def test_node_count_agnostic(self, n):
        params = enc.formation_params(seed=4)
        out = enc.encode(RNG.normal(size=(n, 2, 6)), params)
        assert out.features.shape == (n, 6)
        assert out.distances.shape == (n, n)

    def test_distance_invariants(self):
        params = enc.formation_params(seed=5)
        out = enc.encode(RNG.normal(size=(5, 2, 12)), params)
        Y = out.distances
        assert np.allclose(Y, Y.T)
        assert np.allclose(np.diag(Y), 0.0)
        assert Y.min() >= 0.0

    def test_state_dim_mismatch(self):
        params = enc.formation_params(seed=6)
        with pytest.raises(DimensionError):
            enc.encode(RNG.normal(size=(4, 3, 5)), params)
        with pytest.raises(DimensionError):
            enc.encode(RNG.normal(size=(4, 5)), params)

    @pytest.mark.parametrize("make_params",
                             [enc.formation_params, enc.flocking_params])
    @pytest.mark.parametrize("n, d", [(2, 9), (7, 9), (30, 9), (30, 700)],
                             ids=["2", "7", "30", "30x700"])
    def test_matches_recorded_pass(self, make_params, n, d):
        # encode runs unrecorded; its values are the recorded pass's, bit
        # for bit.  30 x 700 rows span several row blocks of ``ad.mlp``
        # and a ragged tail.
        params = make_params(seed=n)
        X = RNG.normal(size=(n, 2, d))
        out = enc.encode(X, params)
        tape = ad.Tape()
        stacks, _ = enc.lift_params(tape, params)
        features, distances, _, alpha, beta, theta = enc.encode_on_tape(
            tape, X, stacks, params)
        assert np.array_equal(out.features, features.value)
        assert np.array_equal(out.distances, distances.value)
        assert (out.alpha, out.beta, out.theta) == (
            float(alpha.value), float(beta.value), float(theta.value))

    def test_flocking_range_uses_its_scale(self):
        params = enc.flocking_params(seed=7)
        out = enc.encode(RNG.normal(size=(5, 2, 10)), params)
        assert 1.0 < out.alpha < np.exp(3.0)
        assert np.exp(-3.0) < out.beta < 1.0


class TestCheckpoint:
    def test_arrays_to_params_length_check(self):
        params = enc.formation_params(seed=10)
        arrays = enc.params_to_arrays(params)
        for wrong in (arrays + [np.zeros(1)], arrays[:-1]):
            with pytest.raises(DimensionError):
                enc.arrays_to_params(wrong, params)
