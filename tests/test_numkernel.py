"""Linear algebra and seeded randomness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfldd.errors import DomainError, ShapeError, SingularMatrixError
from hfldd.numkernel import SeededRng, as_matrix, rbf_gamma, rbf_kernel, ridge_solve


class TestSeededRng:
    def test_same_pair_same_sequence(self):
        a = SeededRng(42, 3).generator().standard_normal(16)
        b = SeededRng(42, 3).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = SeededRng(42, 0).generator().standard_normal(16)
        b = SeededRng(42, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededRng(1, 0).generator().standard_normal(16)
        b = SeededRng(2, 0).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    @given(seed=st.integers(0, 2**63), stream=st.integers(0, 2**63))
    @settings(max_examples=25, deadline=None)
    def test_reproducible_for_any_pair(self, seed, stream):
        a = SeededRng(seed, stream).generator().integers(0, 1 << 30, size=4)
        b = SeededRng(seed, stream).generator().integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.flags["C_CONTIGUOUS"]

    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            as_matrix([[1.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(DomainError):
            as_matrix([[float("inf"), 0.0]])


class TestRidgeSolve:
    def test_hand_solution(self):
        # (k + I) alpha = y with k = [[2,1],[1,2]]: A = [[3,1],[1,3]],
        # A^-1 = [[3,-1],[-1,3]]/8, y = [1,1]^T -> alpha = [0.25, 0.25]^T.
        alpha = ridge_solve([[2.0, 1.0], [1.0, 2.0]], [[1.0], [1.0]], 1.0)
        assert np.allclose(alpha, [[0.25], [0.25]], atol=1e-14)

    def test_matches_reference_solver(self):
        gen = SeededRng(11, 0).generator()
        x = gen.standard_normal((6, 6))
        k = x @ x.T
        y = gen.standard_normal((6, 2))
        lam = 0.5
        expected = np.linalg.solve(k + lam * np.eye(6), y)
        assert np.allclose(ridge_solve(k, y, lam), expected, atol=1e-10)

    def test_zero_lambda_on_definite_kernel(self):
        k = np.array([[2.0, 0.0], [0.0, 3.0]])
        alpha = ridge_solve(k, [[2.0], [3.0]], 0.0)
        assert np.allclose(alpha, [[1.0], [1.0]], atol=1e-14)

    def test_indefinite_system_raises(self):
        with pytest.raises(SingularMatrixError):
            ridge_solve([[0.0, 1.0], [1.0, 0.0]], [[1.0], [1.0]], 0.0)

    def test_negative_lambda_rejected(self):
        for lam in (-1e-9, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                ridge_solve(np.eye(2), np.ones((2, 1)), lam)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            ridge_solve(np.ones((2, 3)), np.ones((2, 1)), 1.0)
        with pytest.raises(ShapeError):
            ridge_solve(np.eye(2), np.ones((3, 1)), 1.0)


class TestRbfKernel:
    def test_hand_entry(self):
        # ||(0,0)-(3,4)||^2 = 25, gamma 0.1 -> exp(-2.5)
        out = rbf_kernel([[0.0, 0.0]], [[3.0, 4.0]], 0.1)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - np.exp(-2.5)) < 1e-15

    def test_self_kernel_symmetric_unit_diagonal(self):
        x = SeededRng(3, 0).generator().standard_normal((7, 4))
        k = rbf_kernel(x, x, 0.7)
        assert np.array_equal(k, k.T)
        assert np.array_equal(np.diag(k), np.ones(7))

    def test_entries_stay_positive_under_underflow(self):
        k = rbf_kernel([[0.0]], [[1e6]], 1.0)
        assert k[0, 0] > 0.0

    def test_gamma_validation(self):
        for gamma in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                rbf_kernel([[0.0]], [[1.0]], gamma)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            rbf_kernel(np.ones((2, 3)), np.ones((2, 4)), 1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_range_is_unit_interval(self, seed):
        gen = SeededRng(seed, 1).generator()
        a = gen.standard_normal((5, 3)) * 3.0
        b = gen.standard_normal((4, 3)) * 3.0
        k = rbf_kernel(a, b, 0.5)
        assert np.all(k > 0.0) and np.all(k <= 1.0)


class TestRbfGamma:
    def test_hand_value(self):
        # per-feature variances are both 1 -> gamma = 1 / (2 * 2 * 1)
        assert rbf_gamma([[0.0, 0.0], [2.0, 2.0]]) == pytest.approx(0.25)

    def test_constant_features_still_positive(self):
        g = rbf_gamma(np.zeros((5, 3)))
        assert np.isfinite(g) and g > 0.0
