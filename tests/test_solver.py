"""Tests for the weighted robust subspace fit and its model API.

Covers exact recovery on in-model data, outlier robustness, determinism,
the transform/reconstruct algebra, the objective's compositional definition,
and the structural invariants of the fitted state (simplex weights, exact
eta bookkeeping, projector idempotence).
"""

import dataclasses

import numpy as np
import pytest

from epca import (
    CorruptionSpec,
    DataMatrix,
    DimensionError,
    EpcaError,
    EpcaFitState,
    InternalInvariantError,
    LabelVector,
    RngHandle,
    SigmaLossParams,
    SubspaceModel,
    ValidationError,
    corrupt,
    epca_fit,
    epca_objective,
    fit_classical_pca,
    fit_pca_om,
    irls_coefficient,
    mean_clustering_accuracy,
    objective_value,
    reconstruct,
    reconstruction_error,
    sigma_norm_vector,
    top_eigenpairs,
    transform,
)
import epca.core
import epca.solver

from oracles import largest_principal_angle


def _affine_rank_c(rng, d=12, n=60, c=3, scale=2.0):
    """Data lying exactly on a c-dimensional affine plane."""
    B = np.linalg.qr(rng.standard_normal((d, c)))[0]
    X = B @ (rng.standard_normal((c, n)) * scale) + rng.standard_normal(d)[:, None]
    return DataMatrix(X), B


def _noisy_low_rank(rng, d=12, n=80, c=3):
    B = np.linalg.qr(rng.standard_normal((d, c + 1)))[0]
    X = B @ (rng.standard_normal((c + 1, n)) * 3.0) + rng.standard_normal(d)[:, None]
    X += 0.1 * rng.standard_normal((d, n))
    return DataMatrix(X)


def _degenerate_problem(gen):
    """A small fit whose losses can vanish: ``(X, c, sigma)``.

    d in [2, 5], n in [2, 7] and c in [1, d-1].  The data are integer
    entries, or an integer plane of rank at most c (exactly fitted, so every
    loss can reach zero), or integer centroids repeated across the columns
    (duplicate samples).  sigma is 10**U(-3, 2).
    """
    d, n = int(gen.integers(2, 6)), int(gen.integers(2, 8))
    c = int(gen.integers(1, d))
    kind = int(gen.integers(3))
    if kind == 0:
        X = gen.integers(-3, 4, (d, n))
    elif kind == 1:
        r = int(gen.integers(0, c + 1))
        X = gen.integers(-3, 4, (d, 1)) + gen.integers(-3, 4, (d, r)) @ gen.integers(-3, 4, (r, n))
    else:
        centroids = gen.integers(-3, 4, (d, int(gen.integers(1, n + 1))))
        X = centroids[:, gen.integers(0, centroids.shape[1], n)]
    return X.astype(float), c, 10.0 ** gen.uniform(-3, 2)


class TestFit:
    def test_exact_affine_data_is_fit_perfectly(self):
        rng = np.random.default_rng(900)
        X, _ = _affine_rank_c(rng)
        for sigma in (1e-8, 1.0, 1e8):
            state = epca_fit(X, 3, SigmaLossParams(sigma))
            assert state.objective_trace[-1] <= 1e-16 * np.linalg.norm(X.values) ** 2
            round_trip = reconstruct(state.model, transform(state.model, X))
            np.testing.assert_allclose(round_trip, X.values, atol=1e-8)

    def test_recovers_basis_under_occlusion(self):
        rng = np.random.default_rng(42)
        d, n, c = 10, 100, 2
        B = np.linalg.qr(rng.standard_normal((d, c)))[0]
        X = DataMatrix(B @ (rng.standard_normal((c, n)) * 3.0))
        X_occ, _, _ = corrupt(X, CorruptionSpec(0.2, 0.2, seed=7))
        state = epca_fit(X_occ, c, SigmaLossParams(1.0))
        assert largest_principal_angle(state.model.basis, B) <= 0.2

    def test_identical_inputs_give_bitwise_identical_states(self):
        rng = np.random.default_rng(1)
        X = _noisy_low_rank(rng)
        a = epca_fit(X, 3, SigmaLossParams(0.5))
        b = epca_fit(X, 3, SigmaLossParams(0.5))
        np.testing.assert_array_equal(a.model.basis, b.model.basis)
        np.testing.assert_array_equal(a.model.translation, b.model.translation)
        np.testing.assert_array_equal(a.model.coordinates, b.model.coordinates)
        np.testing.assert_array_equal(a.alpha.weights, b.alpha.weights)
        np.testing.assert_array_equal(a.eta, b.eta)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        assert a.iterations == b.iterations

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(60_001)
        X = _noisy_low_rank(rng)
        state = epca_fit(X, 3, SigmaLossParams(2.0))
        trace = state.objective_trace
        assert np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1]))

    def test_alpha_is_a_simplex_point_with_two_plus_active(self):
        rng = np.random.default_rng(8)
        X = _noisy_low_rank(rng)
        state = epca_fit(X, 2, SigmaLossParams(1.0))
        a = state.alpha.weights
        assert abs(a.sum() - 1.0) <= 1e-12 * a.size
        assert np.all(a >= 0) and np.all(a < 1)
        assert state.alpha.active_count >= 2
        assert np.all(state.active_count_trace >= 2)

    def test_eta_is_exactly_coeffs_over_complements(self):
        rng = np.random.default_rng(9)
        X = _noisy_low_rank(rng)
        state = epca_fit(X, 3, SigmaLossParams(0.1))
        np.testing.assert_array_equal(
            state.eta, state.irls_coeffs / state.alpha.complements
        )

    def test_projector_is_idempotent(self):
        rng = np.random.default_rng(10)
        X = _noisy_low_rank(rng)
        W = epca_fit(X, 3, SigmaLossParams(1.0)).model.basis
        P = np.eye(W.shape[0]) - W @ W.T
        assert np.linalg.norm(P @ P - P) <= 1e-10

    def test_rotating_the_input_rotates_the_basis(self):
        rng = np.random.default_rng(1000)
        d, n, c = 12, 80, 3
        B = np.linalg.qr(rng.standard_normal((d, 4)))[0]
        X = B @ (rng.standard_normal((4, n)) * 3.0)
        X += 0.05 * rng.standard_normal((d, n)) + rng.standard_normal(d)[:, None]
        for t in range(2):
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            R = q * np.sign(np.diag(r))
            s1 = epca_fit(DataMatrix(X), c, SigmaLossParams(1.0))
            s2 = epca_fit(DataMatrix(R @ X), c, SigmaLossParams(1.0))
            signs = np.sign(np.sum(s2.model.basis * (R @ s1.model.basis), axis=0))
            np.testing.assert_allclose(
                s2.model.basis, (R @ s1.model.basis) * signs, atol=1e-8
            )
            np.testing.assert_allclose(
                s2.model.coordinates, s1.model.coordinates * signs[:, None], atol=1e-8
            )

    def test_accepts_raw_arrays(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((6, 30))
        state = epca_fit(X, 2, SigmaLossParams(1.0))
        assert state.model.basis.shape == (6, 2)

    def test_rejects_bad_rank(self):
        rng = np.random.default_rng(13)
        X = DataMatrix(rng.standard_normal((5, 20)))
        for c in (0, 5, 6):
            with pytest.raises(DimensionError):
                epca_fit(X, c, SigmaLossParams(1.0))

    def test_rejects_non_finite_input(self):
        X = np.ones((4, 10))
        X[2, 3] = np.nan
        with pytest.raises(ValidationError):
            epca_fit(X, 2, SigmaLossParams(1.0))


_RANK_ENTRY_POINTS = {
    "epca_fit": lambda X, c: epca_fit(X, c, SigmaLossParams(1.0)),
    "fit_pca_om": fit_pca_om,
    "fit_classical_pca": fit_classical_pca,
    "top_eigenpairs": lambda X, c: top_eigenpairs(X, c, np.ones(X.shape[1])),
}


@pytest.mark.parametrize("entry", sorted(_RANK_ENTRY_POINTS))
def test_rank_must_be_an_integer(entry):
    X = np.random.default_rng(14).standard_normal((5, 20))
    fit = _RANK_ENTRY_POINTS[entry]
    with pytest.raises(EpcaError, match=r"rank c must be an integer, got 2\.5"):
        fit(X, 2.5)
    fit(X, np.int64(2))


@pytest.mark.parametrize("fit", [
    lambda X, max_iter: epca_fit(X, 2, SigmaLossParams(1.0), max_iter=max_iter),
    lambda X, max_iter: fit_pca_om(X, 2, max_iter=max_iter),
], ids=["epca_fit", "fit_pca_om"])
def test_max_iter_must_be_positive(fit):
    X = np.random.default_rng(15).standard_normal((5, 20))
    for bad in (0, -1, 2.0):
        with pytest.raises(ValidationError, match="max_iter"):
            fit(X, bad)
    fit(X, 1)


_BAD_SCALAR_CALLS = {
    "sigma-string": ("sigma", lambda X: SigmaLossParams("a")),
    "sigma-none": ("sigma", lambda X: SigmaLossParams(None)),
    "sigma-numeric-string": ("sigma", lambda X: SigmaLossParams("1.5")),
    "pca_om-sigma-string": ("sigma", lambda X: fit_pca_om(X, 2, sigma="a")),
    "epca-params-float": ("p must be a SigmaLossParams", lambda X: epca_fit(X, 2, 1.0)),
    "restarts-fraction": ("restarts", lambda X: mean_clustering_accuracy(
        X, LabelVector(np.arange(20) % 2, 2), 2.5, RngHandle(0))),
    **{f"{name}-tol-{bad!r}": ("tol", lambda X, fit=fit, bad=bad: fit(X, bad))
       for name, fit in (
           ("epca", lambda X, tol: epca_fit(X, 2, SigmaLossParams(1.0), tol=tol)),
           ("pca_om", lambda X, tol: fit_pca_om(X, 2, tol=tol)))
       for bad in (None, "a", -1.0, np.inf)},
}


@pytest.mark.parametrize("case", sorted(_BAD_SCALAR_CALLS))
def test_bad_scalar_argument_is_named(case):
    named, call = _BAD_SCALAR_CALLS[case]
    X = np.random.default_rng(15).standard_normal((5, 20))
    with pytest.raises(ValidationError, match=named):
        call(X)


def _model_arrays(model):
    return model.basis, model.translation, model.coordinates, model.objective_trace


_MEMORY_ORDER_ENTRY_POINTS = {
    "epca_fit": lambda X, clean, W, m: _model_arrays(epca_fit(X, 3, SigmaLossParams(1.0)).model),
    "fit_classical_pca": lambda X, clean, W, m: _model_arrays(fit_classical_pca(X, 3)),
    "fit_pca_om": lambda X, clean, W, m: _model_arrays(fit_pca_om(X, 3)),
    "reconstruction_error": lambda X, clean, W, m: [reconstruction_error(clean, X, W, m)],
}


@pytest.mark.parametrize("entry", sorted(_MEMORY_ORDER_ENTRY_POINTS))
def test_memory_order_does_not_change_the_bits(entry):
    # At this shape a C- and an F-ordered copy sum in different orders.
    rng = np.random.default_rng(24)
    X = _noisy_low_rank(rng, d=64, n=600, c=3).values
    clean = X + rng.standard_normal(X.shape)
    model = fit_classical_pca(X, 3)
    call = _MEMORY_ORDER_ENTRY_POINTS[entry]
    c_order = call(X, clean, model.basis, model.translation)
    f_order = call(np.asfortranarray(X), np.asfortranarray(clean), model.basis, model.translation)
    for a, b in zip(c_order, f_order, strict=True):
        np.testing.assert_array_equal(a, b)


def test_degenerate_fits_descend_without_tripping_the_guard():
    """Fits whose losses vanish or tie (exact planes, duplicate samples) run
    through the zero-loss rule of the weight step and still descend."""
    gen = np.random.default_rng(606)
    eps = np.finfo(float).eps
    for _ in range(300):
        X, c, sigma = _degenerate_problem(gen)
        state = epca_fit(X, c, SigmaLossParams(sigma), max_iter=50)
        assert isinstance(state, EpcaFitState)
        trace = state.objective_trace
        assert np.all(np.diff(trace) <= 4 * eps * max(1.0, abs(trace[0])))


def test_fit_whose_weight_step_rounds_away_a_loss():
    """Its first weight step sees losses (1, 6.5e-32, 1); the activation
    scan must still find a count there."""
    state = epca_fit([[1, -1, 1], [1, 0, 1], [0, -1, -2]], 1,
                     SigmaLossParams(20.424679362208725))
    assert state.iterations >= 2
    assert np.all(np.diff(state.objective_trace) <= 0)


def test_sabotaged_basis_step_trips_the_descent_guard(monkeypatch):
    X = _noisy_low_rank(np.random.default_rng(17), d=10, n=40, c=2)
    gen = np.random.default_rng(18)
    calls = []

    def sabotaged(A, c, weights):
        calls.append(c)
        if len(calls) == 1:  # the initial classical-PCA basis
            return epca.core.top_eigenpairs(A, c, weights)
        return None, np.linalg.qr(gen.standard_normal((A.shape[0], c)))[0]

    monkeypatch.setattr(epca.solver, "top_eigenpairs", sabotaged)
    with pytest.raises(InternalInvariantError, match="objective rose .* at iteration 1$"):
        epca_fit(X, 3, SigmaLossParams(1.0))
    assert len(calls) == 2


def _dense_top_eigenpairs(A, c, weights):
    """The weighted form computed through the d-by-d scatter only."""
    return epca.core._dense_top_eigenpairs((A * weights) @ A.T, c)


@pytest.mark.parametrize("fit", [
    lambda X: epca_fit(X, 3, SigmaLossParams(1.0)),
    lambda X: fit_pca_om(X, 3),
], ids=["epca_fit", "fit_pca_om"])
def test_wide_data_gram_route_matches_the_dense_eigensolve(fit, monkeypatch):
    rng = np.random.default_rng(16)
    d, n = 60, 40
    X = _noisy_low_rank(rng, d=d, n=n, c=3).values
    X[:, :4] += 5.0 * rng.standard_normal((d, 4))
    routed = fit(X)
    monkeypatch.setattr(epca.solver, "top_eigenpairs", _dense_top_eigenpairs)
    dense = fit(X)
    assert len(routed.objective_trace) == len(dense.objective_trace) > 2
    np.testing.assert_allclose(routed.objective_trace, dense.objective_trace, rtol=1e-9)
    # Only the weighted fit records these; pca_om's result has neither.
    for name in ("iterations", "active_count_trace"):
        np.testing.assert_array_equal(getattr(routed, name, None), getattr(dense, name, None))


def test_gram_route_fit_with_outlier_columns_matches_the_dense_fit(monkeypatch):
    rng = np.random.default_rng(24)
    d, n, c = 300, 60, 5
    X = _noisy_low_rank(rng, d=d, n=n, c=c).values
    X[:, :6] = 10.0 * rng.standard_normal((d, 6))  # 10% outlier columns

    def refuse(S, c):
        raise AssertionError("the Gram route fell through to the dense eigensolve")

    with monkeypatch.context() as m:
        m.setattr(epca.core, "_dense_top_eigenpairs", refuse)
        routed = epca_fit(X, c, SigmaLossParams(1.0))
    monkeypatch.setattr(epca.solver, "top_eigenpairs", _dense_top_eigenpairs)
    dense = epca_fit(X, c, SigmaLossParams(1.0))
    assert routed.iterations == dense.iterations > 1
    np.testing.assert_array_equal(routed.active_count_trace, dense.active_count_trace)
    W, W_dense = routed.model.basis, dense.model.basis
    assert np.linalg.norm(W @ W.T - W_dense @ W_dense.T, 2) <= 1e-10


class TestTransformReconstruct:
    @pytest.fixture()
    def model(self):
        rng = np.random.default_rng(20)
        X = _noisy_low_rank(rng)
        return epca_fit(X, 3, SigmaLossParams(1.0)).model

    def test_translation_columns_map_to_zero(self, model):
        Y = np.tile(model.translation[:, None], (1, 5))
        np.testing.assert_allclose(transform(model, Y), 0.0, atol=1e-12)

    def test_axis_projection(self):
        W = np.eye(5)[:, :2]
        model = SubspaceModel(W, np.zeros(5), np.zeros((2, 1)))
        y = np.array([3.0, 4.0, 5.0, 6.0, 7.0])[:, None]
        np.testing.assert_allclose(transform(model, y), [[3.0], [4.0]])

    def test_projection_idempotence(self, model):
        rng = np.random.default_rng(21)
        Y = rng.standard_normal((model.basis.shape[0], 7))
        V1 = transform(model, Y)
        V2 = transform(model, reconstruct(model, V1))
        np.testing.assert_allclose(V2, V1, atol=1e-10)

    def test_zero_coordinates_reconstruct_to_translation(self, model):
        out = reconstruct(model, np.zeros((3, 4)))
        np.testing.assert_allclose(out, model.translation[:, None] * np.ones((1, 4)))

    def test_in_subspace_round_trip_is_exact(self, model):
        rng = np.random.default_rng(22)
        V = rng.standard_normal((3, 6))
        Y = reconstruct(model, V)
        np.testing.assert_allclose(transform(model, Y), V, atol=1e-10)

    def test_residual_norms_feed_the_coefficients(self):
        """Column norms of X - reconstruct(fit) are the residual norms behind
        the stored IRLS coefficients."""
        rng = np.random.default_rng(23)
        X = _noisy_low_rank(rng)
        p = SigmaLossParams(0.7)
        state = epca_fit(X, 3, p)
        resid = X.values - reconstruct(state.model, state.model.coordinates)
        rn = np.linalg.norm(resid, axis=0)
        np.testing.assert_allclose(
            irls_coefficient(rn, p), state.irls_coeffs, rtol=1e-10, atol=1e-13
        )

    def test_transform_rejects_row_mismatch(self, model):
        with pytest.raises(DimensionError):
            transform(model, np.ones((model.basis.shape[0] + 1, 3)))

    def test_reconstruct_rejects_row_mismatch(self, model):
        with pytest.raises(DimensionError):
            reconstruct(model, np.ones((4, 3)))


class TestObjective:
    def test_perfect_fit_objective_is_zero(self):
        rng = np.random.default_rng(30)
        X, _ = _affine_rank_c(rng)
        p = SigmaLossParams(1.0)
        state = epca_fit(X, 3, p)
        assert epca_objective(X, state, p) == pytest.approx(0.0, abs=1e-12)

    def test_matches_composition_of_loss_and_weight_primitives(self):
        rng = np.random.default_rng(31)
        X = _noisy_low_rank(rng, d=8, n=25, c=2)
        p = SigmaLossParams(0.9)
        state = epca_fit(X, 2, p, max_iter=5)
        resid = (
            X.values
            - state.model.translation[:, None]
            - state.model.basis @ state.model.coordinates
        )
        losses = np.array([sigma_norm_vector(resid[:, i], p) for i in range(25)])
        expected = objective_value(losses, state.alpha)
        assert epca_objective(X, state, p) == pytest.approx(expected, rel=1e-12)

    def test_unchanged_along_the_translation_family(self):
        """Shifting m by W beta (and the coordinates by -beta) leaves the
        objective untouched: the family of optimal translations is a coset."""
        rng = np.random.default_rng(32)
        X = _noisy_low_rank(rng)
        p = SigmaLossParams(1.0)
        state = epca_fit(X, 3, p)
        base = epca_objective(X, state, p)
        for _ in range(2):
            beta = rng.standard_normal(3)
            shifted_model = SubspaceModel(
                state.model.basis,
                state.model.translation + state.model.basis @ beta,
                state.model.coordinates - beta[:, None],
            )
            shifted = dataclasses.replace(state, model=shifted_model)
            assert epca_objective(X, shifted, p) == pytest.approx(base, rel=1e-10)

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(33)
        X = _noisy_low_rank(rng)
        p = SigmaLossParams(1.0)
        state = epca_fit(X, 3, p)
        with pytest.raises(DimensionError):
            epca_objective(DataMatrix(np.ones((5, 80))), state, p)
        with pytest.raises(DimensionError):
            epca_objective(DataMatrix(np.ones((12, 7))), state, p)


class TestSubspaceModelInvariants:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(DimensionError):
            SubspaceModel(np.ones((4, 2)), np.zeros(4), np.zeros((2, 3)))

    def test_rejects_rank_equal_to_dimension(self):
        with pytest.raises(DimensionError):
            SubspaceModel(np.eye(3), np.zeros(3), np.zeros((3, 2)))

    def test_rejects_translation_shape(self):
        with pytest.raises(DimensionError):
            SubspaceModel(np.eye(4)[:, :2], np.zeros(3), np.zeros((2, 2)))

    def test_rejects_coordinate_rows(self):
        with pytest.raises(DimensionError):
            SubspaceModel(np.eye(4)[:, :2], np.zeros(4), np.zeros((3, 2)))

    @pytest.mark.parametrize("field", ["basis", "translation", "coordinates"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, field, bad):
        parts = {"basis": np.eye(4)[:, :2], "translation": np.zeros(4),
                 "coordinates": np.zeros((2, 3))}
        parts[field] = parts[field].copy()
        parts[field].flat[0] = bad
        with pytest.raises(ValidationError, match=field):
            SubspaceModel(**parts)
