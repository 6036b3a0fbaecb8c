"""Tests for the sigma-loss, its IRLS coefficient, and the surrogate solver.

The loss (1+sigma)||a||^2/(||a||+sigma) interpolates between the l2,1 norm
(sigma -> 0) and the squared Frobenius norm (sigma -> inf); the IRLS solver
descends on weighted sums of it.  Limit behavior, the majorization
inequality, and the location-problem solutions are all checked against
independent oracles.
"""

import numpy as np
import pytest

from epca import (
    InternalInvariantError,
    IrlsResult,
    SigmaLossParams,
    ValidationError,
    irls_coefficient,
    irls_solve,
    sigma_norm_matrix,
    sigma_norm_vector,
)

from oracles import location_grid_oracle, location_objective


class TestSigmaLossParams:
    def test_rejects_zero_sigma(self):
        with pytest.raises(ValidationError):
            SigmaLossParams(0.0)

    def test_rejects_negative_and_non_finite_sigma(self):
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValidationError):
                SigmaLossParams(bad)

    def test_accepts_extreme_positive_sigma(self):
        assert SigmaLossParams(1e-8).sigma == 1e-8
        assert SigmaLossParams(1e8).sigma == 1e8


class TestSigmaNormVector:
    def test_unit_norm_gives_one_for_any_sigma(self):
        for sigma in (1e-8, 0.1, 1.0, 50.0, 1e8):
            a = np.array([0.6, 0.8])  # norm exactly 1
            assert sigma_norm_vector(a, SigmaLossParams(sigma)) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_zero_vector_gives_zero(self):
        assert sigma_norm_vector(np.zeros(4), SigmaLossParams(1.0)) == 0.0

    def test_norm_three_sigma_one(self):
        a = np.array([3.0, 0.0])
        assert sigma_norm_vector(a, SigmaLossParams(1.0)) == pytest.approx(4.5, rel=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            sigma_norm_vector(np.array([1.0, np.nan]), SigmaLossParams(1.0))


class TestSigmaNormMatrix:
    def test_identity_two_by_two(self):
        for sigma in (0.01, 1.0, 100.0):
            assert sigma_norm_matrix(np.eye(2), SigmaLossParams(sigma)) == pytest.approx(
                2.0, rel=1e-12
            )

    def test_zero_matrix(self):
        assert sigma_norm_matrix(np.zeros((3, 4)), SigmaLossParams(2.0)) == 0.0

    def test_column_norms_one_and_three(self):
        A = np.array([[1.0, 0.0], [0.0, 3.0]])
        assert sigma_norm_matrix(A, SigmaLossParams(1.0)) == pytest.approx(5.5, rel=1e-14)

    def test_matches_sum_of_vector_losses(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((5, 8))
        p = SigmaLossParams(0.7)
        expected = sum(sigma_norm_vector(A[:, j], p) for j in range(8))
        assert sigma_norm_matrix(A, p) == pytest.approx(expected, rel=1e-12)


class TestLimits:
    def test_small_sigma_approaches_l21(self):
        rng = np.random.default_rng(3)
        p = SigmaLossParams(1e-8)
        for _ in range(10):
            A = rng.standard_normal((6, 10))
            A *= rng.uniform(0.1, 10.0, 10) / np.linalg.norm(A, axis=0)
            l21 = np.linalg.norm(A, axis=0).sum()
            assert abs(sigma_norm_matrix(A, p) - l21) <= 1e-6 * l21

    def test_large_sigma_approaches_squared_frobenius(self):
        rng = np.random.default_rng(4)
        p = SigmaLossParams(1e8)
        for _ in range(10):
            A = rng.standard_normal((6, 10))
            A *= rng.uniform(0.1, 10.0, 10) / np.linalg.norm(A, axis=0)
            fro2 = np.sum(A * A)
            assert sigma_norm_matrix(A, p) / fro2 == pytest.approx(1.0, abs=1e-6)

    def test_not_positively_homogeneous(self):
        """Scaling the argument by 2 does not scale the loss by 2 (not a norm)."""
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 6))
        p = SigmaLossParams(1.0)
        assert abs(sigma_norm_matrix(2.0 * A, p) - 2.0 * sigma_norm_matrix(A, p)) > 0


class TestIrlsCoefficient:
    def test_unit_residual_sigma_one(self):
        assert irls_coefficient(1.0, SigmaLossParams(1.0)) == pytest.approx(0.75, rel=1e-14)

    def test_zero_residual_sigma_one(self):
        assert irls_coefficient(0.0, SigmaLossParams(1.0)) == pytest.approx(2.0, rel=1e-14)

    def test_zero_residual_sigma_half(self):
        assert irls_coefficient(0.0, SigmaLossParams(0.5)) == pytest.approx(3.0, rel=1e-14)

    def test_array_input_matches_scalar(self):
        p = SigmaLossParams(0.3)
        r = np.array([0.0, 0.5, 2.0])
        out = irls_coefficient(r, p)
        for i, ri in enumerate(r):
            assert out[i] == pytest.approx(irls_coefficient(float(ri), p), rel=1e-15)

    def test_strictly_positive_and_finite(self):
        p = SigmaLossParams(1e-8)
        r = np.concatenate([[0.0], np.geomspace(1e-12, 1e6, 40)])
        d = irls_coefficient(r, p)
        assert np.all(d > 0) and np.all(np.isfinite(d))

    def test_zero_residual_at_tiny_sigma_is_finite(self):
        # 1/sigma overflows here; the norms are clamped below sigma = 1e-12.
        with np.errstate(all="raise"):
            d = irls_coefficient(0.0, SigmaLossParams(1e-200))
        assert np.isfinite(d) and d > 0

    def test_rejects_negative_residual(self):
        with pytest.raises(ValidationError):
            irls_coefficient(-0.1, SigmaLossParams(1.0))

    def test_gradient_identity_against_finite_differences(self):
        """grad sigma_norm_vector(a) = 2 * d(||a||) * a."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.standard_normal(5) * rng.uniform(0.2, 3.0)
            p = SigmaLossParams(10 ** rng.uniform(-2, 2))
            analytic = 2.0 * irls_coefficient(float(np.linalg.norm(a)), p) * a
            h = 1e-6
            numeric = np.empty_like(a)
            for i in range(a.size):
                e = np.zeros_like(a)
                e[i] = h
                numeric[i] = (
                    sigma_norm_vector(a + e, p) - sigma_norm_vector(a - e, p)
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
            p = SigmaLossParams(10 ** rng.uniform(-3, 3))
            rx, ry = np.linalg.norm(x), np.linalg.norm(y)
            dy = irls_coefficient(float(ry), p)
            lhs = sigma_norm_vector(x, p) - dy * rx * rx
            rhs = sigma_norm_vector(y, p) - dy * ry * ry
            assert rhs - lhs >= -1e-12


def _location_setup(x, s):
    """1-D weighted location problem: find theta minimizing the sigma-loss sum."""

    def residual_fn(theta):
        return (x - theta)[None, :]

    def wls_solver(weights):
        return float(np.sum(weights * x) / np.sum(weights))

    return residual_fn, wls_solver


class TestIrlsSolve:
    def test_zero_residuals_converge_immediately(self):
        x = np.full(4, 2.5)
        residual_fn, wls_solver = _location_setup(x, np.ones(4))
        out = irls_solve(residual_fn, wls_solver, np.ones(4), SigmaLossParams(1.0), 2.5)
        assert isinstance(out, IrlsResult)
        assert out.iterations == 1
        assert out.objective_trace[0] == 0.0
        assert out.objective_trace[-1] == 0.0

    def test_location_sits_between_median_and_mean(self):
        """x = (0, 0, 10), sigma = 1: the optimum is pulled off the mean toward
        the median but not onto it; verified against a dense grid search."""
        x = np.array([0.0, 0.0, 10.0])
        s = np.ones(3)
        residual_fn, wls_solver = _location_setup(x, s)
        out = irls_solve(
            residual_fn, wls_solver, s, SigmaLossParams(1.0), float(x.mean()),
            tol=1e-14, max_iter=200,
        )
        theta = out.parameters
        assert 0.0 < theta < x.mean()
        grid_theta = location_grid_oracle(x, s, 1.0)
        assert theta == pytest.approx(grid_theta, abs=1e-4)

    def test_large_sigma_location_is_the_mean(self):
        x = np.array([0.0, 0.0, 10.0])
        s = np.ones(3)
        residual_fn, wls_solver = _location_setup(x, s)
        out = irls_solve(
            residual_fn, wls_solver, s, SigmaLossParams(1e8), 1.0,
            tol=1e-14, max_iter=200,
        )
        assert out.parameters == pytest.approx(x.mean(), abs=1e-3)

    def test_trace_non_increasing_and_matches_objective(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(20) * 3.0
        s = rng.uniform(0.5, 2.0, 20)
        p = SigmaLossParams(0.5)
        residual_fn, wls_solver = _location_setup(x, s)
        out = irls_solve(residual_fn, wls_solver, s, p, 0.0)
        trace = out.objective_trace
        assert np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1]) + 1e-15)
        assert trace[-1] == pytest.approx(
            location_objective(out.parameters, x, s, p.sigma), rel=1e-12
        )

    def test_broken_subproblem_solver_trips_the_descent_guard(self):
        x = np.array([0.0, 1.0, 2.0])

        def residual_fn(theta):
            return (x - theta)[None, :]

        def bad_wls_solver(weights):
            bad_wls_solver.theta += 5.0  # runs away from the optimum
            return bad_wls_solver.theta

        bad_wls_solver.theta = 1.0
        with pytest.raises(InternalInvariantError):
            irls_solve(residual_fn, bad_wls_solver, np.ones(3), SigmaLossParams(1.0), 1.0)

    def test_rejects_negative_multipliers(self):
        x = np.array([0.0, 1.0])
        residual_fn, wls_solver = _location_setup(x, np.ones(2))
        with pytest.raises(ValidationError):
            irls_solve(residual_fn, wls_solver, np.array([1.0, -1.0]),
                       SigmaLossParams(1.0), 0.5)

    def test_rejects_residual_count_mismatch(self):
        x = np.array([0.0, 1.0, 2.0])

        def residual_fn(theta):
            return (x[:2] - theta)[None, :]  # drops a sample

        def wls_solver(weights):
            return 0.0

        with pytest.raises(ValidationError):
            irls_solve(residual_fn, wls_solver, np.ones(3), SigmaLossParams(1.0), 0.0)
