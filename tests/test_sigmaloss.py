"""Tests for the sigma-loss and its IRLS coefficient.

The loss (1+sigma)||a||^2/(||a||+sigma) interpolates between the l2,1 norm
(sigma -> 0) and the squared Frobenius norm (sigma -> inf); the coefficient
d(r) gives its gradient 2*d*a and a quadratic surrogate that majorizes it.
Both are checked on the kernels every fit evaluates, ``loss_kernel`` and
``coefficient_kernel`` of residual norms.  Limit behavior, the gradient
identity and the majorization inequality are checked against independent
computations.
"""

import numpy as np
import pytest

from epca import SigmaLossParams, ValidationError
from epca.sigmaloss import coefficient_kernel, loss_kernel


def _vector_loss(a, sigma):
    return loss_kernel(np.linalg.norm(a), sigma)


def _matrix_loss(A, sigma):
    return np.sum(loss_kernel(np.linalg.norm(A, axis=0), sigma))


class TestSigmaLossParams:
    def test_rejects_zero_sigma(self):
        with pytest.raises(ValidationError):
            SigmaLossParams(0.0)

    def test_rejects_negative_and_non_finite_sigma(self):
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValidationError):
                SigmaLossParams(bad)

    def test_rejects_an_integer_beyond_the_float_range(self):
        with pytest.raises(ValidationError, match="sigma must be a positive finite real"):
            SigmaLossParams(10**400)

    def test_accepts_extreme_positive_sigma(self):
        assert SigmaLossParams(1e-8).sigma == 1e-8
        assert SigmaLossParams(1e8).sigma == 1e8


class TestSigmaNormVector:
    def test_unit_norm_gives_one_for_any_sigma(self):
        for sigma in (1e-8, 0.1, 1.0, 50.0, 1e8):
            a = np.array([0.6, 0.8])  # norm exactly 1
            assert _vector_loss(a, sigma) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_zero_vector_gives_zero(self):
        assert _vector_loss(np.zeros(4), 1.0) == 0.0

    def test_norm_three_sigma_one(self):
        a = np.array([3.0, 0.0])
        assert _vector_loss(a, 1.0) == pytest.approx(4.5, rel=1e-14)


class TestSigmaNormMatrix:
    def test_identity_two_by_two(self):
        for sigma in (0.01, 1.0, 100.0):
            assert _matrix_loss(np.eye(2), sigma) == pytest.approx(
                2.0, rel=1e-12
            )

    def test_zero_matrix(self):
        assert _matrix_loss(np.zeros((3, 4)), 2.0) == 0.0

    def test_column_norms_one_and_three(self):
        A = np.array([[1.0, 0.0], [0.0, 3.0]])
        assert _matrix_loss(A, 1.0) == pytest.approx(5.5, rel=1e-14)

    def test_matches_sum_of_vector_losses(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((5, 8))
        expected = sum(_vector_loss(A[:, j], 0.7) for j in range(8))
        assert _matrix_loss(A, 0.7) == pytest.approx(expected, rel=1e-12)


class TestLimits:
    def test_small_sigma_approaches_l21(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.standard_normal((6, 10))
            A *= rng.uniform(0.1, 10.0, 10) / np.linalg.norm(A, axis=0)
            l21 = np.linalg.norm(A, axis=0).sum()
            assert abs(_matrix_loss(A, 1e-8) - l21) <= 1e-6 * l21

    def test_large_sigma_approaches_squared_frobenius(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            A = rng.standard_normal((6, 10))
            A *= rng.uniform(0.1, 10.0, 10) / np.linalg.norm(A, axis=0)
            fro2 = np.sum(A * A)
            assert _matrix_loss(A, 1e8) / fro2 == pytest.approx(1.0, abs=1e-6)

    def test_not_positively_homogeneous(self):
        """Scaling the argument by 2 does not scale the loss by 2 (not a norm)."""
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 6))
        assert abs(_matrix_loss(2.0 * A, 1.0) - 2.0 * _matrix_loss(A, 1.0)) > 0


class TestIrlsCoefficient:
    def test_unit_residual_sigma_one(self):
        assert coefficient_kernel(1.0, 1.0) == pytest.approx(0.75, rel=1e-14)

    def test_zero_residual_sigma_one(self):
        assert coefficient_kernel(0.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_zero_residual_sigma_half(self):
        assert coefficient_kernel(0.0, 0.5) == pytest.approx(3.0, rel=1e-14)

    def test_array_input_matches_scalar(self):
        r = np.array([0.0, 0.5, 2.0])
        out = coefficient_kernel(r, 0.3)
        for i, ri in enumerate(r):
            assert out[i] == pytest.approx(coefficient_kernel(float(ri), 0.3), rel=1e-15)

    def test_strictly_positive_and_finite(self):
        r = np.concatenate([[0.0], np.geomspace(1e-12, 1e6, 40)])
        d = coefficient_kernel(r, 1e-8)
        assert np.all(d > 0) and np.all(np.isfinite(d))

    def test_zero_residual_at_tiny_sigma_is_finite(self):
        # (r + sigma)**2 underflows here; the norms are clamped at 2**-500.
        with np.errstate(all="raise"):
            d = coefficient_kernel(0.0, 1e-200)
        assert np.isfinite(d) and d > 0

    def test_gradient_identity_against_finite_differences(self):
        """grad loss(||a||) = 2 * d(||a||) * a."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.standard_normal(5) * rng.uniform(0.2, 3.0)
            sigma = 10 ** rng.uniform(-2, 2)
            analytic = 2.0 * coefficient_kernel(np.linalg.norm(a), sigma) * a
            h = 1e-6
            numeric = np.empty_like(a)
            for i in range(a.size):
                e = np.zeros_like(a)
                e[i] = h
                numeric[i] = (
                    _vector_loss(a + e, sigma) - _vector_loss(a - e, sigma)
                ) / (2 * h)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


class TestMajorizationInequality:
    def test_surrogate_gap_never_negative(self):
        """sigma_loss(x) - d_y ||x||^2 <= sigma_loss(y) - d_y ||y||^2."""
        rng = np.random.default_rng(29)
        for _ in range(1000):
            dim = int(rng.integers(1, 8))
            x = rng.standard_normal(dim) * rng.uniform(0, 4)
            y = rng.standard_normal(dim) * rng.uniform(0, 4)
            sigma = 10 ** rng.uniform(-3, 3)
            rx, ry = np.linalg.norm(x), np.linalg.norm(y)
            dy = coefficient_kernel(ry, sigma)
            lhs = loss_kernel(rx, sigma) - dy * rx * rx
            rhs = loss_kernel(ry, sigma) - dy * ry * ry
            assert rhs - lhs >= -1e-12
