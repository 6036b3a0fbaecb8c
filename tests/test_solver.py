"""Tests for the weighted robust subspace fit and its model API.

Covers exact recovery on in-model data, outlier robustness, determinism,
the transform/reconstruct algebra, the objective's compositional definition,
and the structural invariants of the fitted state (simplex weights, exact
eta bookkeeping, projector idempotence).
"""

import os
import subprocess
import sys
from pathlib import Path

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
    fit_classical_pca,
    fit_method,
    fit_pca_om,
    grid_search_sigma,
    mean_clustering_accuracy,
    reconstruct,
    reconstruction_error,
    run_experiment,
    top_eigenpairs,
    transform,
)
import epca.core
import epca.solver
from epca.sigmaloss import loss_kernel

from oracles import largest_principal_angle, sweep_problem


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

    @pytest.mark.parametrize("c", [3, 5], ids=["c-at-rank", "c-above-rank"])
    def test_exact_wide_data_is_fit_perfectly(self, c):
        # On wide data the residual norms come from the Gram, where they
        # cancel to about sqrt(eps) |x_i|; the small ones are computed from
        # the data instead, so the fit stays exact.  Above the rank of the
        # data the Gram has no gap at c, and every basis step runs in
        # d-space.
        rng = np.random.default_rng(901)
        X, _ = _affine_rank_c(rng, d=80, n=30)
        for sigma in (1e-8, 1.0, 1e8):
            state = epca_fit(X, c, SigmaLossParams(sigma))
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
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        assert a.iterations == b.iterations

    def test_warm_started_wide_fits_are_bitwise_identical(self):
        X = _noisy_low_rank(np.random.default_rng(1), d=120, n=40)
        a = epca_fit(X, 3, SigmaLossParams(0.5))
        b = epca_fit(X, 3, SigmaLossParams(0.5))
        assert a.iterations == b.iterations > 1
        for name in ("basis", "translation", "coordinates", "objective_trace"):
            np.testing.assert_array_equal(getattr(a.model, name), getattr(b.model, name))
        np.testing.assert_array_equal(a.alpha.weights, b.alpha.weights)

    @pytest.mark.parametrize("max_iter, reason", [(1, "max_iter"), (100, "tol")])
    def test_state_records_why_the_fit_stopped(self, max_iter, reason):
        X = _noisy_low_rank(np.random.default_rng(3))
        state = epca_fit(X, 3, SigmaLossParams(1.0), max_iter=max_iter)
        assert state.stop_reason == reason
        assert (state.iterations == 1) == (max_iter == 1) and state.iterations < 100

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

    def test_wide_data_whose_gram_overflows_names_the_cause(self, monkeypatch):
        # The Gram and the scatter's top eigenvalue overflow while the data
        # stay finite; the first basis step names the cause, before any
        # step at the coefficients can meet an infinite objective.
        def refuse(*args):
            raise AssertionError("the fit took a step past its first")

        monkeypatch.setattr(epca.solver._GramSteps, "step", refuse)
        X = 1e160 * np.random.default_rng(3).standard_normal((40, 12))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="matrix entries must be finite"):
                epca_fit(X, 3, SigmaLossParams(1.0))


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
    lambda X, max_iter: fit_method("classical_pca", X, 2, 1.0, 1e-8, max_iter),
], ids=["epca_fit", "fit_pca_om", "fit_method-classical_pca"])
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
           ("pca_om", lambda X, tol: fit_pca_om(X, 2, tol=tol)),
           ("classical_pca", lambda X, tol: fit_method("classical_pca", X, 2, 1.0, tol, 100)))
       for bad in (None, "a", -1.0, np.inf)},
}


@pytest.mark.parametrize("case", sorted(_BAD_SCALAR_CALLS))
def test_bad_scalar_argument_is_named(case):
    named, call = _BAD_SCALAR_CALLS[case]
    X = np.random.default_rng(15).standard_normal((5, 20))
    with pytest.raises(ValidationError, match=named):
        call(X)


_BAD_OBJECT_CALLS = {
    "corrupt-spec": ("spec must be a CorruptionSpec, got None", lambda X: corrupt(X, None)),
    "accuracy-rng": ("rng must be an RngHandle, got None", lambda X: mean_clustering_accuracy(
        X[:2], LabelVector(np.arange(20) % 2, 2), 2, None)),
    "transform-model": ("model must be a SubspaceModel, got None", lambda X: transform(None, X)),
    "reconstruct-model": ("model must be a SubspaceModel, got None",
                          lambda X: reconstruct(None, X[:2])),
    "run_experiment-cfg": (r"cfg must be an ExperimentConfig, got \{\}",
                           lambda X: run_experiment({})),
    "grid_search_sigma-cfg": ("cfg must be an ExperimentConfig, got None",
                              lambda X: grid_search_sigma(None)),
}


@pytest.mark.parametrize("case", sorted(_BAD_OBJECT_CALLS))
def test_bad_object_argument_is_named(case):
    # An argument of the wrong type is a ValidationError that names it, not
    # the raw AttributeError of reading a field it does not have.
    message, call = _BAD_OBJECT_CALLS[case]
    X = np.random.default_rng(15).standard_normal((5, 20))
    with pytest.raises(ValidationError, match=message):
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


_RAW_ARRAY_ENTRY_POINTS = {
    "top_eigenpairs": ((200, 60), lambda A, model: top_eigenpairs(A, 3, np.ones(60))),
    "reconstruct": ((5, 300), lambda V, model: [reconstruct(model, V)]),
    "transform": ((40, 300), lambda Y, model: [transform(model, Y)]),
}


@pytest.mark.parametrize("entry", sorted(_RAW_ARRAY_ENTRY_POINTS))
def test_memory_order_of_a_raw_array_does_not_change_the_bits(entry):
    # Every array argument is read in C order.  At these shapes an
    # F-ordered copy of the Gram route's data or of reconstruct's
    # coordinates would give other last bits.
    shape, call = _RAW_ARRAY_ENTRY_POINTS[entry]
    A = np.random.default_rng(0).standard_normal(shape)
    model = fit_classical_pca(np.random.default_rng(1).standard_normal((40, 300)), 5)
    for a, b in zip(call(A, model), call(np.asfortranarray(A), model), strict=True):
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


def _use_the_dense_route(m):
    """Run every basis step of a fit in d-space through the dense eigensolve."""
    m.setattr(epca.solver, "gram_route", lambda d, n, c: False)
    m.setattr(epca.solver, "top_eigenpairs", _dense_top_eigenpairs)


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
    _use_the_dense_route(monkeypatch)
    dense = fit(X)
    assert len(routed.objective_trace) == len(dense.objective_trace) > 2
    np.testing.assert_allclose(routed.objective_trace, dense.objective_trace, rtol=1e-9)
    # Only the weighted fit records these; pca_om's result has neither.
    for name in ("iterations", "active_count_trace"):
        np.testing.assert_array_equal(getattr(routed, name, None), getattr(dense, name, None))


def _gram_and_dense_fits(X, c, monkeypatch):
    """The fit on the Gram route (a fall-through fails the test) and the
    fit on the dense route."""
    def refuse(*args):
        raise AssertionError("the Gram route fell through to a d-space step")

    with monkeypatch.context() as m:
        m.setattr(epca.core, "_dense_top_eigenpairs", refuse)
        m.setattr(epca.solver._GramSteps, "_scatter_step", refuse)
        routed = epca_fit(X, c, SigmaLossParams(1.0))
    with monkeypatch.context() as m:
        _use_the_dense_route(m)
        dense = epca_fit(X, c, SigmaLossParams(1.0))
    return routed, dense


def test_gram_route_fit_with_outlier_columns_matches_the_dense_fit(monkeypatch):
    # The Gram's order, 100, lies above _SMALL_GRAM: the first basis step
    # runs the filtered iteration from a range-finder block, every later
    # one from the previous coordinates, and each converges without the
    # subset eigh.
    rng = np.random.default_rng(24)
    d, n, c = 300, 100, 5
    assert n > epca.core._SMALL_GRAM
    X = _noisy_low_rank(rng, d=d, n=n, c=c).values
    X[:, :10] = rng.standard_normal((d, 10))  # 10% outlier columns
    direct, direct_calls = epca.core._direct_eigenpairs, []
    with monkeypatch.context() as m:
        m.setattr(epca.core, "_direct_eigenpairs",
                  lambda G, c: direct_calls.append(G.shape) or direct(G, c))
        routed, dense = _gram_and_dense_fits(X, c, monkeypatch)
    assert direct_calls == []
    assert routed.iterations == dense.iterations > 10
    np.testing.assert_array_equal(routed.active_count_trace, dense.active_count_trace)
    W, W_dense = routed.model.basis, dense.model.basis
    assert np.linalg.norm(W @ W.T - W_dense @ W_dense.T, 2) <= 1e-12


@pytest.mark.parametrize("seed", [31, 43, 113])
def test_fits_that_pin_a_sample_match_the_dense_fit(seed, monkeypatch):
    # The weights come to pin one sample (its 1 - alpha_i falls below
    # 1e-10), so the mean moves onto it and its centred Gram entry falls far
    # below the rounding error of an update from the Gram formed at the
    # sample mean; the Gram is formed again at the current mean.
    X, c = sweep_problem(seed)
    routed, dense = _gram_and_dense_fits(X, c, monkeypatch)
    assert routed.iterations == dense.iterations > 10
    assert np.min(routed.alpha.complements) < 1e-10
    np.testing.assert_array_equal(routed.active_count_trace, dense.active_count_trace)
    W, W_dense = routed.model.basis, dense.model.basis
    assert np.linalg.norm(W @ W.T - W_dense @ W_dense.T, 2) <= 1e-9
    np.testing.assert_allclose(routed.objective_trace[-1], dense.objective_trace[-1], rtol=1e-12)


def _count_d_space_steps(m):
    """The list that collects the basis steps wide fits take in d-space."""
    steps, scatter_step = [], epca.solver._GramSteps._scatter_step

    def counted(self, *args):
        steps.append(args)
        return scatter_step(self, *args)

    m.setattr(epca.solver._GramSteps, "_scatter_step", counted)
    return steps


@pytest.mark.parametrize("seed", [31, 72])
def test_drifting_gram_basis_is_orthonormalised_in_n_space(seed, monkeypatch):
    # lambda_1 / lambda_c passes 1e4, so the Gram basis W = Xc B misses
    # orthonormality by more than 1e-12 on almost every step; a Cholesky of
    # the c-by-c W'W = V B repairs it without leaving n-space.
    X, c = sweep_problem(seed)
    steps = _count_d_space_steps(monkeypatch)
    routed, dense = _gram_and_dense_fits(X, c, monkeypatch)
    assert steps == []
    assert routed.iterations == dense.iterations > 10
    np.testing.assert_array_equal(routed.active_count_trace, dense.active_count_trace)
    W, W_dense = routed.model.basis, dense.model.basis
    assert np.linalg.norm(W @ W.T - W_dense @ W_dense.T, 2) <= 1e-9
    np.testing.assert_allclose(routed.objective_trace[-1], dense.objective_trace[-1], rtol=1e-12)


def test_failed_n_space_repair_takes_the_d_space_step(monkeypatch):
    # A Cholesky that fails counts as no basis: the step runs in d-space.
    X, c = sweep_problem(31)
    calls = []

    def failing(M):
        calls.append(M)
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    steps = _count_d_space_steps(monkeypatch)
    monkeypatch.setattr(np.linalg, "cholesky", failing)
    state = epca_fit(X, c, SigmaLossParams(1.0))
    assert len(steps) == len(calls) > 10
    assert state.iterations > 10
    trace = state.objective_trace
    assert np.all(np.diff(trace) <= 4 * np.finfo(float).eps * trace[:-1])


def test_every_later_step_starts_from_the_previous_coordinates(monkeypatch):
    # Rank-10 data fitted at c = 5, at a Gram order above _SMALL_GRAM: the
    # gap at c is narrow.  The first basis step, from a range-finder block,
    # and the second, from the first step's coordinates, give up for the
    # subset eigh; a give-up does not drop the start block, and every later
    # step converges from its previous coordinates.
    n = 120
    assert n > epca.core._SMALL_GRAM
    X = _planted_wide(1, d=300, n=n, c=10)
    solve, starts = epca.solver._gram_eigenpairs, []
    monkeypatch.setattr(epca.solver, "_gram_eigenpairs", lambda G, c, w, d, start=None: (
        starts.append(start is not None) or solve(G, c, w, d, start)))
    iteration, results = epca.core._subspace_iteration, []
    monkeypatch.setattr(epca.core, "_subspace_iteration",
                        lambda *args: results.append(iteration(*args)) or results[-1])
    routed, dense = _gram_and_dense_fits(X, 5, monkeypatch)
    assert starts == [False] + [True] * routed.iterations
    assert [result is None for result in results] == [True, True] + [False] * (len(results) - 2)
    assert routed.iterations == dense.iterations > 10
    np.testing.assert_array_equal(routed.active_count_trace, dense.active_count_trace)
    W, W_dense = routed.model.basis, dense.model.basis
    assert np.linalg.norm(W @ W.T - W_dense @ W_dense.T, 2) <= 1e-12


@pytest.mark.parametrize("fit", [
    lambda X, c: epca_fit(X, c, SigmaLossParams(1.0)),
    lambda X, c: epca_fit(X, c, SigmaLossParams(1e-8)),
    fit_pca_om,
], ids=["epca_fit-sigma-1", "epca_fit-sigma-1e-8", "fit_pca_om"])
def test_wide_outlier_sweep_raises_on_no_new_seed(fit):
    # No fit of the wide outlier sweep raises "objective rose" at one BLAS
    # thread, not even those whose pinned sample leaves the Gram with no gap
    # above rounding (the pinned-sample entry of ROADMAP's Done list).
    raised, wide = set(), 0
    for seed in range(200):
        X, c = sweep_problem(seed)
        if not epca.core.gram_route(*X.shape, c):
            continue
        wide += 1
        try:
            fit(X, c)
        except InternalInvariantError:
            raised.add(seed)
    assert wide == 197
    assert raised == set()


# The sweep fits whose pinned sample made them raise "objective rose" while a
# Gram with no basis took its step from the eigh of the d-by-d scatter (at
# one BLAS thread; at two, fit_pca_om raised on seeds 32 and 85 only).
_PINNED_SWEEP_FITS = {"epca_fit": (16, 32, 44, 85, 193), "fit_pca_om": (32, 44, 85)}


def _check_pinned_sweep_fit(fit, seed):
    """Sweep fit ``fit`` (epca_fit at sigma = 1e-8, or fit_pca_om) on
    ``seed`` descends and stops at its tolerance or its iteration budget.

    fit_pca_om returns the model alone; the engine it runs, with alpha
    frozen at 0, gives the state that records why the fit stopped.
    """
    X, c = sweep_problem(seed)
    if fit == "epca_fit":
        state = epca_fit(X, c, SigmaLossParams(1e-8))
    else:
        state = epca.solver._alternate(X, c, 1e-8, 1e-8, 100, learn_alpha=False)
        np.testing.assert_array_equal(fit_pca_om(X, c).objective_trace, state.objective_trace)
    assert state.stop_reason in ("tol", "max_iter")
    assert np.all(np.diff(state.objective_trace) <= 0)


@pytest.mark.parametrize("fit, seed", [
    (fit, seed) for fit, seeds in _PINNED_SWEEP_FITS.items() for seed in seeds])
def test_sweep_fits_that_pin_a_sample_descend_and_stop(fit, seed):
    _check_pinned_sweep_fit(fit, seed)


_TWO_THREAD_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from test_solver import _PINNED_SWEEP_FITS, _check_pinned_sweep_fit
for fit, seeds in _PINNED_SWEEP_FITS.items():
    for seed in seeds:
        _check_pinned_sweep_fit(fit, seed)
"""


def test_sweep_fits_that_pin_a_sample_descend_at_two_blas_threads():
    # The BLAS reads its thread count when numpy loads, and this process is
    # pinned to one thread, so a fresh interpreter runs the fits at two.
    src = str(Path(epca.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _TWO_THREAD_RUN, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("fit, iterative", [
    (lambda X: epca_fit(X, 5, SigmaLossParams(1.0)).model, True),
    (lambda X: fit_pca_om(X, 5), True),
    (lambda X: fit_classical_pca(X, 5), False),
    (lambda X: top_eigenpairs(X.values - X.values.mean(axis=1)[:, None], 5, np.ones(30)), False),
], ids=["epca_fit", "fit_pca_om", "fit_classical_pca", "top_eigenpairs"])
def test_wide_fit_above_the_rank_forms_no_d_by_d_matrix(fit, iterative, monkeypatch):
    # Exact rank-3 data fitted at c = 5: the Gram has no gap at c, so every
    # basis step takes the thin SVD of the weighted data and none reaches
    # the eigh of the d-by-d scatter.  The iterative fits take it in their
    # own d-space step and never call top_eigenpairs; classical PCA and
    # top_eigenpairs itself take it in top_eigenpairs.
    X, _ = _affine_rank_c(np.random.default_rng(901), d=80, n=30)
    calls = []
    for module, name in ((epca.solver, "top_eigenpairs"), (epca.core, "_dense_top_eigenpairs")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _name=name, _original=original: (
            calls.append(_name) or _original(*args)))
    steps = _count_d_space_steps(monkeypatch)
    result = fit(X)
    if not iterative:
        assert "_dense_top_eigenpairs" not in calls
        return
    assert calls == []
    assert len(steps) == len(result.objective_trace) > 1


def _planted_wide(seed, d=200, n=50, c=4, drag=0.0):
    """Rank-c data around offset 5 with noise 0.05 and 10% outlier columns
    (+N(0,1) on every entry); ``drag`` also moves the outliers together by
    ``drag * N(0,1)`` per feature, which drags the sample mean away."""
    rng = np.random.default_rng(seed)
    B = np.linalg.qr(rng.standard_normal((d, c)))[0]
    X = 5.0 + B @ (3.0 * rng.standard_normal((c, n))) + 0.05 * rng.standard_normal((d, n))
    k = n // 10
    X[:, :k] += rng.standard_normal((d, k)) + drag * rng.standard_normal(d)[:, None]
    return X


@pytest.mark.parametrize("seed", range(10))
def test_once_per_fit_gram_matches_the_dense_fit_on_planted_wide_data(seed, monkeypatch):
    routed, dense = _gram_and_dense_fits(_planted_wide(seed), 4, monkeypatch)
    assert routed.iterations == dense.iterations > 1
    np.testing.assert_array_equal(routed.active_count_trace, dense.active_count_trace)
    W, W_dense = routed.model.basis, dense.model.basis
    assert np.linalg.norm(W @ W.T - W_dense @ W_dense.T, 2) <= 1e-12


def test_gram_update_holds_when_outliers_drag_the_initial_mean(monkeypatch):
    # The outliers sit ~1400 from the inliers, whose columns have norm ~6
    # about their mean; the Gram formed at the sample mean is updated by
    # rank-2 corrections over a shift of ~120 and still matches the dense
    # fit as closely as a Gram formed afresh each iteration does.  Seed 0
    # has one basis step, and seed 1 two, whose Gram basis drifts past
    # 1e-12 and is orthonormalised in n-space.
    for seed in range(3):
        X = _planted_wide(seed, drag=100.0)
        routed, dense = _gram_and_dense_fits(X, 4, monkeypatch)
        assert np.linalg.norm(routed.model.translation - X.mean(axis=1)) > 100.0
        assert routed.iterations == dense.iterations > 10
        np.testing.assert_array_equal(routed.active_count_trace, dense.active_count_trace)
        W, W_dense = routed.model.basis, dense.model.basis
        assert np.linalg.norm(W @ W.T - W_dense @ W_dense.T, 2) <= 1e-12


@pytest.mark.parametrize("scale", [1e-14, 1e-20, 1e-100])
def test_fit_is_equivariant_under_scaling_data_and_sigma(scale):
    """X -> sX, sigma -> s*sigma multiplies the loss by one constant, so the
    fit must not move: no constant in the coefficient or the descent guard
    may be absolute."""
    rng = np.random.default_rng(0)
    B = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    X = B @ rng.standard_normal((3, 40)) + 0.01 * rng.standard_normal((6, 40))
    X[:, :4] += 5.0 * rng.standard_normal((6, 4))  # outlier columns
    unit = epca_fit(X, 2, SigmaLossParams(1.0))
    scaled = epca_fit(scale * X, 2, SigmaLossParams(scale))
    assert scaled.iterations == unit.iterations > 5
    np.testing.assert_array_equal(scaled.active_count_trace, unit.active_count_trace)
    W, W_unit = scaled.model.basis, unit.model.basis
    assert np.linalg.norm(W @ W.T - W_unit @ W_unit.T, 2) <= 1e-12


def _offset_outlier_problem():
    """A 6×40 rank-3 matrix around offset 5 with 4 outlier columns."""
    rng = np.random.default_rng(0)
    B = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    X = 5.0 + B @ (3.0 * rng.standard_normal((3, 40)))
    X[:, :4] += 3.0 * rng.standard_normal((6, 4))
    return X


_SIGMA_FITS = {
    "epca_fit": lambda X, sigma: epca_fit(X, 2, SigmaLossParams(sigma)).model,
    "fit_pca_om": lambda X, sigma: fit_pca_om(X, 2, sigma=sigma),
}


@pytest.mark.parametrize("fit", sorted(_SIGMA_FITS))
@pytest.mark.parametrize("scale, sigma, cause", [
    (1e130, 1e130, "sigma-loss"),
    (1e140, 1e140, "sigma-loss"),
    (1.0, 1e300, "IRLS coefficient"),
])
def test_an_overflowing_sigma_loss_names_the_cause(fit, scale, sigma, cause):
    """The loss (1+σ)·r·r overflows past about 1e102 when σ scales with the
    data, and (r+σ)² past σ = 1e154.  Either fit raises one error that names
    it, with no overflow warning first (warnings are errors here)."""
    X = scale * _offset_outlier_problem()
    with pytest.raises(ValidationError, match=f"the {cause} overflows at sigma="):
        _SIGMA_FITS[fit](X, sigma)


@pytest.mark.parametrize("fit, iterations", [("epca_fit", 14), ("fit_pca_om", 13)])
def test_fit_scaled_below_the_overflow_keeps_its_iterations(fit, iterations):
    X = _offset_outlier_problem()
    unit = _SIGMA_FITS[fit](X, 1.0)
    scaled = _SIGMA_FITS[fit](1e100 * X, 1e100)
    assert len(scaled.objective_trace) == len(unit.objective_trace) == iterations + 1
    W, W_unit = scaled.basis, unit.basis
    assert np.linalg.norm(W @ W.T - W_unit @ W_unit.T, 2) <= 1e-12


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

    def test_residual_norms_give_the_final_objective(self):
        """Column norms of X - reconstruct(fit) are the residual norms behind
        the last objective entry."""
        rng = np.random.default_rng(23)
        X = _noisy_low_rank(rng)
        p = SigmaLossParams(0.7)
        state = epca_fit(X, 3, p)
        resid = X.values - reconstruct(state.model, state.model.coordinates)
        rn = np.linalg.norm(resid, axis=0)
        np.testing.assert_allclose(
            np.sum(loss_kernel(rn, p.sigma) / state.alpha.complements),
            state.objective_trace[-1], rtol=1e-10,
        )

    def test_transform_rejects_row_mismatch(self, model):
        with pytest.raises(DimensionError):
            transform(model, np.ones((model.basis.shape[0] + 1, 3)))

    def test_reconstruct_rejects_row_mismatch(self, model):
        with pytest.raises(DimensionError):
            reconstruct(model, np.ones((4, 3)))


def _objective(X, model, alpha, p):
    """sum_i loss(||x_i - m - W v_i||) / (1 - alpha_i) at a model and weights."""
    resid = X.values - model.translation[:, None] - model.basis @ model.coordinates
    return np.sum(loss_kernel(np.linalg.norm(resid, axis=0), p.sigma) / alpha.complements)


class TestObjective:
    def test_perfect_fit_objective_is_zero(self):
        rng = np.random.default_rng(30)
        X, _ = _affine_rank_c(rng)
        state = epca_fit(X, 3, SigmaLossParams(1.0))
        assert state.objective_trace[-1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_composition_of_loss_and_weight_primitives(self):
        """The last recorded objective is the loss of the returned model's
        residuals over the returned weights' complements."""
        rng = np.random.default_rng(31)
        X = _noisy_low_rank(rng, d=8, n=25, c=2)
        p = SigmaLossParams(0.9)
        state = epca_fit(X, 2, p, max_iter=5)
        expected = _objective(X, state.model, state.alpha, p)
        assert state.objective_trace[-1] == pytest.approx(expected, rel=1e-12)

    def test_unchanged_along_the_translation_family(self):
        """Shifting m by W beta (and the coordinates by -beta) leaves the
        objective untouched: the family of optimal translations is a coset."""
        rng = np.random.default_rng(32)
        X = _noisy_low_rank(rng)
        p = SigmaLossParams(1.0)
        state = epca_fit(X, 3, p)
        base = _objective(X, state.model, state.alpha, p)
        for _ in range(2):
            beta = rng.standard_normal(3)
            shifted_model = SubspaceModel(
                state.model.basis,
                state.model.translation + state.model.basis @ beta,
                state.model.coordinates - beta[:, None],
            )
            shifted = _objective(X, shifted_model, state.alpha, p)
            assert shifted == pytest.approx(base, rel=1e-10)


class TestSubspaceModelInvariants:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(DimensionError):
            SubspaceModel(np.ones((4, 2)), np.zeros(4), np.zeros((2, 3)))

    def test_rejects_rank_equal_to_dimension(self):
        with pytest.raises(DimensionError):
            SubspaceModel(np.eye(3), np.zeros(3), np.zeros((3, 2)))

    @pytest.mark.parametrize("basis", [np.ones(3), np.ones((3, 1, 1))], ids=["1-D", "3-D"])
    def test_rejects_basis_that_is_not_a_matrix(self, basis):
        with pytest.raises(DimensionError, match="basis must be a 2-D matrix"):
            SubspaceModel(basis, np.zeros(3), np.zeros((1, 2)))

    def test_rejects_translation_shape(self):
        with pytest.raises(DimensionError):
            SubspaceModel(np.eye(4)[:, :2], np.zeros(3), np.zeros((2, 2)))

    def test_rejects_coordinate_rows(self):
        with pytest.raises(DimensionError):
            SubspaceModel(np.eye(4)[:, :2], np.zeros(4), np.zeros((3, 2)))

    def test_objective_trace_must_be_a_vector(self):
        with pytest.raises(DimensionError, match="objective_trace must be a 1-D vector"):
            SubspaceModel(np.eye(3)[:, :1], np.zeros(3), np.zeros((1, 2)), objective_trace=5.0)

    @pytest.mark.parametrize("field", ["basis", "translation", "coordinates"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, field, bad):
        parts = {"basis": np.eye(4)[:, :2], "translation": np.zeros(4),
                 "coordinates": np.zeros((2, 3))}
        parts[field] = parts[field].copy()
        parts[field].flat[0] = bad
        with pytest.raises(ValidationError, match=field):
            SubspaceModel(**parts)
