"""Tests for the reference subspace methods (classical PCA and the
optimal-mean l2,1 variant) and their consistency with each other."""

import numpy as np
import pytest

from epca import (
    DataMatrix,
    DimensionError,
    SubspaceModel,
    ValidationError,
    fit_classical_pca,
    fit_pca_om,
)

from oracles import align_basis_signs, largest_principal_angle


def _l21_objective(X, model):
    """Independent descent oracle: sum of residual column norms."""
    Xc = X.values - model.translation[:, None]
    resid = Xc - model.basis @ (model.basis.T @ Xc)
    return float(np.linalg.norm(resid, axis=0).sum())


class TestClassicalPca:
    def test_x_axis_data_gives_first_standard_vector(self):
        X = DataMatrix(np.array([[-3.0, -1.0, 0.0, 1.0, 3.0],
                                 [0.0, 0.0, 0.0, 0.0, 0.0]]))
        model = fit_classical_pca(X, 1)
        np.testing.assert_allclose(model.basis[:, 0], [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(model.translation, [0.0, 0.0], atol=1e-14)

    def test_isotropic_cloud_captures_one_over_d_variance(self):
        rng = np.random.default_rng(15)
        d, n = 5, 20000
        X = DataMatrix(rng.standard_normal((d, n)))
        model = fit_classical_pca(X, 1)
        Xc = X.values - model.translation[:, None]
        ratio = np.sum((model.basis.T @ Xc) ** 2) / np.sum(Xc * Xc)
        assert ratio == pytest.approx(1.0 / d, rel=0.15)

    def test_duplicating_columns_leaves_model_unchanged(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((6, 40))
        a = fit_classical_pca(DataMatrix(X), 2)
        b = fit_classical_pca(DataMatrix(np.hstack([X, X])), 2)
        np.testing.assert_allclose(b.basis, a.basis, atol=1e-10)
        np.testing.assert_allclose(b.translation, a.translation, atol=1e-12)

    def test_no_iteration_trace(self):
        rng = np.random.default_rng(17)
        model = fit_classical_pca(DataMatrix(rng.standard_normal((4, 10))), 2)
        assert model.objective_trace.size == 0

    def test_rejects_bad_rank(self):
        rng = np.random.default_rng(18)
        X = DataMatrix(rng.standard_normal((4, 10)))
        for c in (0, 4, 9):
            with pytest.raises(DimensionError):
                fit_classical_pca(X, c)


class TestPcaOm:
    def test_clean_affine_data_matches_classical(self):
        rng = np.random.default_rng(19)
        d, n, c = 8, 50, 2
        B = np.linalg.qr(rng.standard_normal((d, c)))[0]
        X = DataMatrix(B @ (rng.standard_normal((c, n)) * 2.0)
                       + rng.standard_normal(d)[:, None])
        om = fit_pca_om(X, c)
        pca = fit_classical_pca(X, c)
        np.testing.assert_allclose(om.basis, pca.basis, atol=1e-6)
        resid = (X.values - om.translation[:, None]) - om.basis @ (
            om.basis.T @ (X.values - om.translation[:, None])
        )
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(X.values)

    def test_more_robust_than_classical_to_one_outlier(self):
        # One moderately wild column: big enough to tilt a squared-loss fit,
        # small enough that the column-norm loss can discount it.
        rng = np.random.default_rng(21)
        d, n = 8, 40
        u = np.linalg.qr(rng.standard_normal((d, 1)))[0]
        X = u @ (rng.standard_normal((1, n)) * 3.0)
        X[:, 0] += 5.0 * rng.standard_normal(d)
        om = fit_pca_om(DataMatrix(X), 1)
        pca = fit_classical_pca(DataMatrix(X), 1)
        angle_om = largest_principal_angle(om.basis, u)
        angle_pca = largest_principal_angle(pca.basis, u)
        assert angle_om < 0.02
        assert angle_pca > 0.2
        assert angle_om < angle_pca

    def test_objective_trace_non_increasing_on_random_instances(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            d = int(rng.integers(4, 12))
            n = int(rng.integers(10, 60))
            c = int(rng.integers(1, min(d, 4)))
            X = DataMatrix(rng.standard_normal((d, n)) * rng.uniform(0.5, 3.0))
            model = fit_pca_om(X, c)
            trace = model.objective_trace
            assert np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1]) + 1e-12)

    def test_iterates_descend_the_l21_objective(self):
        """Re-evaluated independently: truncating the fit at increasing
        iteration budgets yields non-increasing sums of residual norms."""
        rng = np.random.default_rng(26)
        for _ in range(5):
            X = DataMatrix(rng.standard_normal((6, 30)) * 2.0)
            objs = [
                _l21_objective(X, fit_pca_om(X, 2, max_iter=k)) for k in range(1, 6)
            ]
            diffs = np.diff(objs)
            assert np.all(diffs <= 1e-6 * np.abs(np.array(objs[:-1])))

    def test_huge_sigma_recovers_classical_pca(self):
        rng = np.random.default_rng(27)
        X = DataMatrix(rng.standard_normal((7, 60)) * 1.5)
        om = fit_pca_om(X, 3, sigma=1e8)
        pca = fit_classical_pca(X, 3)
        assert largest_principal_angle(om.basis, pca.basis) <= 1e-4
        assert np.linalg.norm(om.translation - pca.translation) <= 1e-6 * np.linalg.norm(
            pca.translation
        )

    def test_single_iteration_at_huge_sigma_reproduces_classical_update(self):
        """One outer pass with frozen weights and sigma = 1e8 is the classical
        mean/eigenbasis update, up to the Frobenius-limit gap."""
        rng = np.random.default_rng(28)
        X = DataMatrix(rng.standard_normal((9, 70)))
        om = fit_pca_om(X, 2, max_iter=1, sigma=1e8)
        pca = fit_classical_pca(X, 2)
        np.testing.assert_allclose(om.translation, pca.translation, atol=1e-6)
        np.testing.assert_allclose(
            align_basis_signs(pca.basis, om.basis), pca.basis, atol=1e-6
        )

    def test_rejects_bad_sigma(self):
        rng = np.random.default_rng(29)
        X = DataMatrix(rng.standard_normal((4, 10)))
        with pytest.raises(ValidationError):
            fit_pca_om(X, 2, sigma=0.0)


class TestRotationEquivariance:
    def test_bases_rotate_with_the_data(self):
        rng = np.random.default_rng(34)
        d, n, c = 7, 50, 2
        X = rng.standard_normal((d, n)) * rng.uniform(0.5, 2.0, d)[:, None]
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        R = q * np.sign(np.diag(r))
        for fitter in (
            lambda Y: fit_classical_pca(DataMatrix(Y), c),
            lambda Y: fit_pca_om(DataMatrix(Y), c),
        ):
            a = fitter(X)
            b = fitter(R @ X)
            np.testing.assert_allclose(
                align_basis_signs(R @ a.basis, b.basis), R @ a.basis, atol=1e-8
            )
            np.testing.assert_allclose(b.translation, R @ a.translation, atol=1e-8)


class TestSharedModelType:
    def test_both_baselines_return_a_subspace_model(self):
        X = DataMatrix(np.random.default_rng(35).standard_normal((5, 30)))
        pca = fit_classical_pca(X, 2)
        om = fit_pca_om(X, 2)
        assert type(pca) is SubspaceModel and type(om) is SubspaceModel
        assert pca.objective_trace.size == 0
        assert om.objective_trace.size >= 2
        for model in (pca, om):
            assert model.target_rank == 2
            assert model.coordinates.shape == (2, 30)
        Xc = X.values - pca.translation[:, None]
        np.testing.assert_array_equal(pca.coordinates, pca.basis.T @ Xc)
