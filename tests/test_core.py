"""Tests for the shared containers: DataMatrix, RngHandle, the deterministic
weighted-scatter eigendecomposition."""

import numpy as np
import pytest
import scipy.linalg

from epca import (
    DataMatrix,
    DimensionError,
    RngHandle,
    SigmaLossParams,
    ValidationError,
    epca_fit,
    top_eigenpairs,
)
import epca.core
import epca.solver
from epca.core import _apply_gauge, _dense_top_eigenpairs, _gram_eigenpairs, _svd_top_eigenpairs
from oracles import gauge_oracle


class TestDataMatrix:
    def test_shape_accessors(self):
        X = DataMatrix(np.arange(12.0).reshape(3, 4))
        assert X.feature_count == 3
        assert X.sample_count == 4

    def test_rejects_non_finite_entries(self):
        bad = np.ones((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ValidationError):
            DataMatrix(bad)
        bad[1, 2] = np.inf
        with pytest.raises(ValidationError):
            DataMatrix(bad)

    def test_rejects_single_sample(self):
        with pytest.raises(DimensionError):
            DataMatrix(np.ones((3, 1)))

    def test_rejects_a_matrix_without_feature_rows(self):
        with pytest.raises(DimensionError, match="need at least one feature row"):
            DataMatrix(np.zeros((0, 5)))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            DataMatrix(np.ones(5))

    @pytest.mark.parametrize("values, named", [
        ([[1 + 5j, 2], [3, 4j]], "real numbers, got complex128"),
        ([["1.5", "2"], ["3", "4"]], "real numbers, got <U3"),
        ([["a", "b"], ["c", "d"]], "real numbers, got <U1"),
        ([[1.0, 2.0], [3.0]], "same length"),
    ], ids=["complex", "numeric-strings", "strings", "ragged"])
    def test_rejects_entries_that_are_not_a_real_matrix(self, values, named):
        with pytest.raises(ValidationError, match=named):
            DataMatrix(values)


class TestRngHandle:
    def test_same_seed_same_draws(self):
        a = RngHandle(42).generator().standard_normal(16)
        b = RngHandle(42).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_derived_streams_differ_from_parent_and_each_other(self):
        root = RngHandle(7)
        draws = {
            "root": root.generator().standard_normal(8),
            "a": root.derive("a").generator().standard_normal(8),
            "b": root.derive("b").generator().standard_normal(8),
            "a0": root.derive("a", 0).generator().standard_normal(8),
        }
        keys = list(draws)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                assert not np.array_equal(draws[keys[i]], draws[keys[j]])

    def test_derivation_is_reproducible(self):
        a = RngHandle(3).derive("kmeans", 5).generator().integers(0, 1000, 10)
        b = RngHandle(3).derive("kmeans", 5).generator().integers(0, 1000, 10)
        np.testing.assert_array_equal(a, b)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValidationError):
            RngHandle(-1)
        with pytest.raises(ValidationError):
            RngHandle(2**64)

    def test_seeds_and_keys_must_be_integers(self):
        for bad in (1.5, "a", None):
            with pytest.raises(ValidationError, match="seed must be an integer"):
                RngHandle(bad)
        for bad in (1.5, None):
            with pytest.raises(ValidationError, match="derivation key must be an integer"):
                RngHandle(1).derive(bad)
        assert RngHandle(np.uint64(7)).derive(np.int64(3)) == RngHandle(7).derive(3)

    def test_path_must_be_a_tuple(self):
        with pytest.raises(ValidationError, match=r"path must be a tuple .*, got \[1, 2\]"):
            RngHandle(1, [1, 2])

    def test_path_words_are_checked_like_derivation_keys(self):
        # A word of 2**32 or more would be split into two 32-bit entropy
        # words, so these two paths used to draw the same stream.
        for path in ((2**40, 7), (0, 7 * 2**32 + 256), (-1,)):
            with pytest.raises(ValidationError, match="must fit in 32 bits"):
                RngHandle(1, path)
        with pytest.raises(ValidationError, match="derivation key must be an integer"):
            RngHandle(1, (1.5,)).generator()
        assert RngHandle(1, (np.uint32(5),)) == RngHandle(1).derive(5)


class TestTopEigenpairs:
    def test_identity_matrix(self):
        vals, vecs = top_eigenpairs(np.eye(3), 2, np.ones(3))
        np.testing.assert_allclose(vals, [1.0, 1.0])
        np.testing.assert_allclose(vecs, np.eye(3)[:, :2])

    def test_diagonal_matrix(self):
        vals, vecs = top_eigenpairs(np.eye(3), 2, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(vals, [3.0, 2.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, :2], atol=1e-14)
        # sign convention: largest-magnitude entry positive
        assert vecs[0, 0] > 0 and vecs[1, 1] > 0

    def test_residual_oracle_on_random_symmetric(self):
        rng = np.random.default_rng(11)
        for n in (4, 6, 9) * 20:  # the Gram route, square and tall data
            A, w = rng.standard_normal((6, n)), rng.uniform(0.1, 3.0, n)
            S = (A * w) @ A.T
            vals, vecs = top_eigenpairs(A, 3, w)
            for j in range(3):
                resid = np.linalg.norm(S @ vecs[:, j] - vals[j] * vecs[:, j])
                assert resid <= 1e-8 * (1.0 + np.linalg.norm(S))
            gram = vecs.T @ vecs
            np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)
            assert vals[0] >= vals[1] >= vals[2]

    def test_eigenvalues_invariant_under_rotation(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((7, 7))
        Q = np.linalg.qr(rng.standard_normal((7, 7)))[0]
        vals1, _ = top_eigenpairs(A, 7, np.ones(7))
        vals2, _ = top_eigenpairs(Q @ A, 7, np.ones(7))
        np.testing.assert_allclose(vals1, vals2, rtol=1e-9, atol=1e-9)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(2)
        A, w = rng.standard_normal((8, 8)), rng.uniform(0.1, 3.0, 8)
        vals1, vecs1 = top_eigenpairs(A, 4, w)
        vals2, vecs2 = top_eigenpairs(A, 4, w)
        np.testing.assert_array_equal(vals1, vals2)
        np.testing.assert_array_equal(vecs1, vecs2)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 6))
        _, vecs = top_eigenpairs(A, 6, np.ones(6))
        for j in range(6):
            pivot = np.argmax(np.abs(vecs[:, j]))
            assert vecs[pivot, j] > 0

    def test_tie_gauge_matches_the_reference(self):
        # Few distinct entries make long equal prefixes, and copied columns
        # make whole columns equal; the bytes also pin which zero is kept.
        rng = np.random.default_rng(31)
        for _ in range(300):
            d, k = rng.integers(1, 6), rng.integers(1, 9)
            evals = np.sort(rng.choice([2.0, 1.0, 0.0, -0.0, -1.0], size=k))[::-1]
            evecs = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(d, k))
            evecs[:, rng.integers(k, size=k // 2)] = evecs[:, rng.integers(k, size=k // 2)]
            got_vals, got_vecs = _apply_gauge(evals.copy(), evecs.copy())
            want_vals, want_vecs = gauge_oracle(evals.copy(), evecs.copy())
            assert got_vals.tobytes() == want_vals.tobytes()
            assert got_vecs.tobytes() == want_vecs.tobytes()

    def test_rejects_rank_beyond_dimension(self):
        with pytest.raises(DimensionError):
            top_eigenpairs(np.eye(3), 4, np.ones(3))
        with pytest.raises(DimensionError):
            top_eigenpairs(np.eye(3), 0, np.ones(3))



def _dense_weighted(A, c, w):
    B = A * np.sqrt(w)
    return _dense_top_eigenpairs(B @ B.T, c)


class TestTopEigenpairsWeighted:
    """The weighted-scatter form: the n-by-n Gram when c < n < d (the thin SVD of
    the weighted data when the Gram has no basis), dense otherwise."""

    @staticmethod
    def _wide(seed, d=40, n=15):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((d, n)), rng.uniform(0.1, 3.0, n)

    @staticmethod
    def _no_dense_route(monkeypatch):
        def refuse(S, c):
            raise AssertionError("the Gram route fell through to a d-space eigensolve")

        monkeypatch.setattr(epca.core, "_dense_top_eigenpairs", refuse)
        monkeypatch.setattr(epca.core, "_svd_top_eigenpairs", refuse)

    def test_gram_route_matches_dense_projector(self, monkeypatch):
        for seed in range(10):
            A, w = self._wide(seed)
            for c in (1, 4, 14):
                ref_vals, ref_vecs = _dense_weighted(A, c, w)
                with monkeypatch.context() as m:
                    self._no_dense_route(m)
                    vals, vecs = top_eigenpairs(A, c, w)
                np.testing.assert_allclose(vals, ref_vals, rtol=1e-10)
                assert np.max(np.abs(vecs @ vecs.T - ref_vecs @ ref_vecs.T)) <= 1e-10

    def test_gram_route_keeps_gauge_and_orthonormality(self):
        A, w = self._wide(3)
        vals, vecs = top_eigenpairs(A, 6, w)
        assert np.all(np.diff(vals) < 0)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(6))) <= 1e-10
        for j in range(6):
            assert vecs[np.argmax(np.abs(vecs[:, j])), j] > 0

    def test_gram_route_is_bitwise_deterministic(self):
        A, w = self._wide(4)
        vals1, vecs1 = top_eigenpairs(A, 5, w)
        vals2, vecs2 = top_eigenpairs(A.copy(), 5, w.copy())
        np.testing.assert_array_equal(vals1, vals2)
        np.testing.assert_array_equal(vecs1, vecs2)

    def test_ill_conditioned_wide_data_stays_orthonormal(self, monkeypatch):
        # The mapped basis B v / sqrt(lambda) loses orthogonality like
        # eps * lambda_1 / lambda_c.  At a singular-value spread of 1e2 that
        # is 6.7e-13 for this factor, so the mapped basis is kept; at 1e4 it
        # is ~1e-8, and one Rayleigh-Ritz step on its span restores it.
        # All stay on the Gram route.  The dense eigensolve of the scatter
        # is itself only accurate to eps * lambda_1 / gap, 7.9e-10 here at
        # 1e4, so the 1e-10 accuracy bound is checked against the SVD of B,
        # which is accurate to eps * sigma_1 / (sigma_c - sigma_c+1).  At
        # 1e5 and 1e6 the repaired basis is still closer to the SVD than the
        # dense eigensolve is (2.6e-9 against 1.0e-7, and 2.0e-7 against
        # 2.0e-5).
        rng = np.random.default_rng(12)
        U = np.linalg.qr(rng.standard_normal((80, 30)))[0]
        V = np.linalg.qr(rng.standard_normal((30, 30)))[0]
        tail = 0.1 * rng.uniform(0.1, 1.0, 25)
        w = rng.uniform(0.5, 2.0, 30)
        rayleigh_ritz = epca.core._rayleigh_ritz
        for spread, repairs in ((1e2, 0), (1e4, 1), (1e5, 1), (1e6, 1)):
            A = (U * np.concatenate([np.geomspace(spread, 1.0, 5), tail])) @ V.T
            calls = []
            with monkeypatch.context() as m:
                self._no_dense_route(m)
                m.setattr(epca.core, "_rayleigh_ritz",
                          lambda *args: calls.append(args) or rayleigh_ritz(*args))
                _, vecs = top_eigenpairs(A, 5, w)
            assert len(calls) == repairs
            ref_vals, ref_vecs = _dense_weighted(A, 6, w)
            ref_vecs = ref_vecs[:, :5]
            svd_vecs = np.linalg.svd(A * np.sqrt(w), full_matrices=False)[0][:, :5]
            assert np.max(np.abs(vecs.T @ vecs - np.eye(5))) <= 1e-12
            svd_error = np.max(np.abs(vecs @ vecs.T - svd_vecs @ svd_vecs.T))
            if spread > 1e4:
                assert svd_error <= np.max(np.abs(ref_vecs @ ref_vecs.T - svd_vecs @ svd_vecs.T))
                continue
            conditioning = np.finfo(float).eps * ref_vals[0] / (ref_vals[4] - ref_vals[5])
            dense_bound = min(1e-10, conditioning) if spread == 1e2 else conditioning
            assert svd_error <= 1e-10
            assert np.max(np.abs(vecs @ vecs.T - ref_vecs @ ref_vecs.T)) <= dense_bound

    def test_gram_overflow_reports_non_finite_entries(self):
        # A is finite, but A.T @ A overflows; the thin SVD's top eigenvalue
        # S[0]**2 overflows too, and its finiteness check names the cause.
        A, w = self._wide(9)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="matrix entries must be finite"):
                top_eigenpairs(1e160 * A, 3, w)

    def test_rank_at_or_above_sample_count_is_dense(self):
        A, w = self._wide(5, d=20, n=6)
        for c in (6, 7, 20):
            for got, ref in zip(top_eigenpairs(A, c, w), _dense_weighted(A, c, w)):
                np.testing.assert_array_equal(got, ref)

    def test_tall_and_square_data_are_dense(self):
        rng = np.random.default_rng(6)
        for d, n in ((8, 30), (12, 12)):
            A, w = rng.standard_normal((d, n)), rng.uniform(0.1, 3.0, n)
            for got, ref in zip(top_eigenpairs(A, 3, w), _dense_weighted(A, 3, w)):
                np.testing.assert_array_equal(got, ref)

    def test_unit_weights_decompose_the_plain_gram(self):
        # A * sqrt(1) has the bits of A, so unit weights run the same
        # symmetric rank-k update as A @ A.T.
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 40))
        for got, ref in zip(top_eigenpairs(A, 3, np.ones(40)), _dense_top_eigenpairs(A @ A.T, 3)):
            np.testing.assert_array_equal(got, ref)

    def test_weighted_scatter_is_exactly_symmetric(self, monkeypatch):
        # The general product (A * w) @ A.T rounds its two triangles
        # differently at this shape; B @ B.T writes one triangle and mirrors it.
        rng = np.random.default_rng(13)
        A, w = rng.standard_normal((64, 600)), rng.uniform(0.1, 3.0, 600)
        scatters = []
        dense = epca.core._dense_top_eigenpairs
        monkeypatch.setattr(epca.core, "_dense_top_eigenpairs",
                            lambda S, c: scatters.append(S) or dense(S, c))
        top_eigenpairs(A, 5, w)
        (S,) = scatters
        assert np.array_equal(S, S.T)

    def test_tie_across_the_boundary_takes_the_thin_svd(self):
        rng = np.random.default_rng(8)
        w = rng.uniform(0.1, 3.0, 6)
        # Duplicated columns, and exact rank-2 data: c above the rank puts
        # the boundary inside the zero eigenvalues.  The rank part spans the
        # dense route's subspace; the zero eigenvalues differ by rounding
        # (about 1e-30 from the SVD, 3.2e-15 and 8.6e-14 from the dense eigh).
        base = rng.standard_normal((10, 3))
        duplicated = np.hstack([base, base])
        rank2 = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 6))
        for A, c, rank in ((duplicated, 4, 3), (rank2, 3, 2)):
            vals, vecs = top_eigenpairs(A, c, w)
            for got, ref in zip((vals, vecs), _svd_top_eigenpairs(A * np.sqrt(w), c)):
                np.testing.assert_array_equal(got, ref)
            U = _dense_weighted(A, c, w)[1][:, :rank]
            assert np.max(np.abs(vecs[:, :rank] @ vecs[:, :rank].T - U @ U.T)) <= 1e-12
        # Orthogonal columns of equal weighted norm: an exact tie at every c,
        # ordered by the tie gauge.
        tied, w4 = np.eye(10, 6), np.full(6, 4.0)
        vals, vecs = top_eigenpairs(tied, 2, w4)
        for got, ref in zip((vals, vecs), _dense_weighted(tied, 2, w4)):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(vals, [4.0, 4.0])
        np.testing.assert_array_equal(vecs, np.eye(10, 2))

    def test_rejects_bad_weights(self):
        A = np.ones((6, 3))
        with pytest.raises(DimensionError):
            top_eigenpairs(A, 1, np.ones(4))
        with pytest.raises(ValidationError):
            top_eigenpairs(A, 1, [1.0, -1.0, 1.0])
        with pytest.raises(ValidationError):
            top_eigenpairs(A, 1, [1.0, np.nan, 1.0])

    @pytest.mark.parametrize("spectrum, c, steps, products", [
        ([10.0, 9.0, 8.0, 7.99, 7.98], 3, 6, 16),
        ([10.0, 9.0, 8.0, 7.99], 3, 10, 28),
        ([2.0] * 6, 2, 30, 45),
    ], ids=["slow", "rounding-floor", "tie"])
    def test_start_that_does_not_converge_gives_the_cold_result(self, spectrum, c, steps,
                                                                products, monkeypatch):
        # slow: lambda_5 / lambda_3 = 0.995, far too slow for the budget,
        # which the rate shows once the start has settled.  rounding-floor:
        # the gap at c (1.6e-3 of lambda_1) puts the tolerance below the
        # residuals' rounding floor; the filter damps lambda_4 with the
        # tail, so the top c converge only at the rate of that gap, and the
        # rate shows it too.  tie: lambda_3 = lambda_2, so the gap estimate
        # is never positive.  Each gives up within ``steps`` QRs (one per
        # Rayleigh-Ritz step) and ``products`` Gram products (1 + 3 per
        # filtered step, at most the budget of 45) and falls back to the
        # subset eigh (the tie then has no gap, and no pairs).  The cold
        # call, from the range-finder block, gives up too and takes the same
        # subset eigh.  The Gram's order lies above _SMALL_GRAM, so both
        # calls run the iteration.
        n = 100
        assert n > epca.core._SMALL_GRAM
        rng = np.random.default_rng(13)
        U = np.linalg.qr(rng.standard_normal((2 * n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = (U * np.concatenate([spectrum, np.full(n - len(spectrum), 0.5)])) @ V.T
        start = rng.standard_normal((c, n))
        cold = _gram_eigenpairs(A.T @ A, c, np.ones(n), 2 * n)
        iteration, results, qrs, gram_products = epca.core._subspace_iteration, [], [], []
        monkeypatch.setattr(epca.core, "_subspace_iteration", lambda G, B, c: results.append(
            iteration(_counted(G, gram_products), B, c)) or results[-1])
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *args: qrs.append(1) or qr(*args))
        warm = _gram_eigenpairs(A.T @ A, c, np.ones(n), 2 * n, start)
        assert (cold is None) == (warm is None) == (spectrum[c - 1] == spectrum[c])
        for got, ref in zip(warm or (), cold or ()):
            np.testing.assert_array_equal(got, ref)
        assert results == [None] and len(qrs) <= steps and len(gram_products) <= products

    @pytest.mark.parametrize("layout", ["array", "read-only"])
    def test_gram_is_only_read(self, layout):
        A, w = self._wide(10)
        K = A.T @ A
        gram = K.copy()
        if layout == "read-only":
            gram.flags.writeable = False
        evals, Y = _gram_eigenpairs(gram, 4, w, 40)
        np.testing.assert_array_equal(gram, K)
        for got_part, ref_part in zip(epca.core._mapped_basis(A, evals, Y, np.sqrt(w)),
                                      top_eigenpairs(A, 4, w)):
            np.testing.assert_array_equal(got_part, ref_part)


class _CountedGram(np.ndarray):
    """A Gram whose products with a block, ``G @ X``, append to ``log``."""

    def __matmul__(self, other):
        self.log.append(1)
        return np.asarray(self) @ other


def _counted(G, log):
    G = G.view(_CountedGram)
    G.log = log
    return G


def _subspace_projector(evals_and_block, w):
    """The projector onto the Gram eigenvectors ``v = Y / s`` of a pair block."""
    V = evals_and_block[1] / np.sqrt(w)[:, None]
    return V @ V.T


def _subset_eigh(G, c):
    """The top c eigenpairs of ``G``, descending, by scipy's subset eigh."""
    n = G.shape[0]
    evals, V = scipy.linalg.eigh(G, subset_by_index=[n - c - 1, n - 1])
    return evals[::-1][:c], V[:, ::-1][:, :c]


class TestWarmGramEigensolve:
    """The Chebyshev-filtered subspace iteration that the wide fit starts
    from its previous basis."""

    @staticmethod
    def _warm_calls(monkeypatch):
        """The warm ``_gram_eigenpairs`` calls of one fit of fit-wide-shaped
        data: rank-10 data in 600 features, 150 samples, 10% outlier
        columns, fitted at c = 10; each starts from the previous step's
        coordinates."""
        rng = np.random.default_rng(0)
        d, n, c = 600, 150, 10
        basis = np.linalg.qr(rng.standard_normal((d, c)))[0]
        X = 5.0 + basis @ (3.0 * rng.standard_normal((c, n))) + 0.05 * rng.standard_normal((d, n))
        X[:, :n // 10] += rng.standard_normal((d, n // 10))
        solve, calls = epca.solver._gram_eigenpairs, []

        def record(gram, c, weights, d, start=None):
            if start is not None:
                calls.append((gram.copy(), c, weights.copy(), d, start.copy()))
            return solve(gram, c, weights, d, start)

        with monkeypatch.context() as m:
            m.setattr(epca.solver, "_gram_eigenpairs", record)
            epca_fit(X, c, SigmaLossParams(1.0))
        return calls

    def test_matches_the_subset_eigh_in_few_rayleigh_ritz_steps(self, monkeypatch):
        # Each Rayleigh-Ritz step takes one QR.  The filtered solve takes 3
        # to 5 per call here, and the plain iteration G Q took 7 to 17; at
        # most 6 guards against sliding back to it.
        calls = self._warm_calls(monkeypatch)
        assert len(calls) >= 4
        qr, iteration = np.linalg.qr, epca.core._subspace_iteration
        for gram, c, w, d, start in calls:
            s = np.sqrt(w)
            evals, V = _subset_eigh(s[:, None] * gram * s, c)
            qrs, results = [], []
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "qr", lambda *args: qrs.append(1) or qr(*args))
                m.setattr(epca.core, "_subspace_iteration",
                          lambda *args: results.append(iteration(*args)) or results[-1])
                warm = _gram_eigenpairs(gram, c, w, d, start)
            assert results[0] is not None and len(qrs) <= 6
            np.testing.assert_allclose(warm[0], evals, rtol=1e-13, atol=0)
            assert np.max(np.abs(_subspace_projector(warm, w) - V @ V.T)) <= 1e-12

    def test_ill_conditioned_data_reach_the_subset_eigh_or_give_up(self, monkeypatch):
        # The spectrum of test_ill_conditioned_wide_data_stays_orthonormal,
        # at a Gram order above _SMALL_GRAM (100 samples in 200 features),
        # started from a basis near the top five directions.  The stopping
        # test's gap tolerance lies below the residuals' rounding floor
        # (eps * lambda_1) at every spread here, so each call gives up and
        # returns the subset eigh's pairs; a call that converged would have
        # to match them.  Neither may map to a basis farther from the SVD of
        # the weighted data than the subset eigh's.
        d, n = 200, 100
        rng = np.random.default_rng(12)
        U = np.linalg.qr(rng.standard_normal((d, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        tail = 0.1 * rng.uniform(0.1, 1.0, n - 5)
        w = rng.uniform(0.5, 2.0, n)
        s = np.sqrt(w)
        iteration, results = epca.core._subspace_iteration, []
        for spread in (1e2, 1e3, 1e4, 1e5, 1e6):
            A = (U * np.concatenate([np.geomspace(spread, 1.0, 5), tail])) @ V.T
            near = np.linalg.qr(U[:, :5] + 1e-3 * rng.standard_normal((d, 5)))[0]
            with monkeypatch.context() as m:
                m.setattr(epca.core, "_subspace_iteration", lambda *args: None)
                direct = _gram_eigenpairs(A.T @ A, 5, w, d)
            with monkeypatch.context() as m:
                m.setattr(epca.core, "_subspace_iteration",
                          lambda *args: results.append(iteration(*args)) or results[-1])
                warm = _gram_eigenpairs(A.T @ A, 5, w, d, near.T @ A)
            if results[-1] is None:
                for got, ref in zip(warm, direct):
                    np.testing.assert_array_equal(got, ref)
            else:
                gap = np.max(np.abs(_subspace_projector(warm, w) - _subspace_projector(direct, w)))
                assert gap <= 1e-12
            svd_vecs = np.linalg.svd(A * s, full_matrices=False)[0][:, :5]
            svd_projector = svd_vecs @ svd_vecs.T
            errors = [np.max(np.abs(vecs @ vecs.T - svd_projector))
                      for _, vecs in (epca.core._mapped_basis(A, *pairs, s) for pairs in (warm, direct))]
            assert errors[0] <= errors[1]


def _planted_gram(seed, d, n, r):
    """The Gram of rank-r data in d features and n samples around offset 5,
    with noise 0.05 and 10% outlier columns, centred at the sample mean."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((d, r)))[0]
    X = 5.0 + basis @ (3.0 * rng.standard_normal((r, n))) + 0.05 * rng.standard_normal((d, n))
    X[:, :n // 10] += rng.standard_normal((d, n // 10))
    X0 = X - X.mean(axis=1)[:, None]
    return X0.T @ X0


class TestColdGramEigensolve:
    """The Gram eigensolve with no start block: numpy's full eigh up to
    order ``_SMALL_GRAM``, above it the filtered iteration from a fixed
    range-finder block, and scipy's subset eigh only when that gives up."""

    @staticmethod
    def _iteration_results(monkeypatch):
        iteration, results = epca.core._subspace_iteration, []
        monkeypatch.setattr(epca.core, "_subspace_iteration",
                            lambda *args: results.append(iteration(*args)) or results[-1])
        return results

    @pytest.mark.parametrize("n", [40, 80, 100, 150, 300])
    def test_matches_the_subset_eigh(self, n, monkeypatch):
        c, d = 5, 2 * n
        gram = _planted_gram(n, d, n, c)
        w = np.random.default_rng(n).uniform(0.5, 2.0, n)
        s = np.sqrt(w)
        results = self._iteration_results(monkeypatch)
        pairs = _gram_eigenpairs(gram, c, w, d)
        # Only a Gram above the size threshold runs the iteration; here it
        # converges.
        assert len(results) == (n > epca.core._SMALL_GRAM)
        assert all(result is not None for result in results)
        evals, V = _subset_eigh(s[:, None] * gram * s, c)
        np.testing.assert_allclose(pairs[0], evals, rtol=1e-13, atol=0)
        projector = _subspace_projector(pairs, w)
        assert np.max(np.abs(projector - V @ V.T)) <= 1e-12

    def test_narrow_gap_gives_up_for_the_subset_eigh(self, monkeypatch):
        # c = 6 lies above the planted rank 5: lambda_6 / lambda_7 is 1.009,
        # too narrow for the iteration's budget.
        n, c = 150, 6
        assert n > epca.core._SMALL_GRAM
        gram = _planted_gram(0, 400, n, 5)
        results = self._iteration_results(monkeypatch)
        pairs = _gram_eigenpairs(gram, c, np.ones(n), 400)
        assert results == [None]
        for got, ref in zip(pairs, _subset_eigh(gram, c)):
            np.testing.assert_array_equal(got, ref)

    def test_is_bitwise_deterministic(self):
        n = 300
        gram = _planted_gram(1, 600, n, 5)
        w = np.random.default_rng(1).uniform(0.5, 2.0, n)
        evals1, Y1 = _gram_eigenpairs(gram, 5, w, 600)
        evals2, Y2 = _gram_eigenpairs(gram.copy(), 5, w.copy(), 600)
        np.testing.assert_array_equal(evals1, evals2)
        np.testing.assert_array_equal(Y1, Y2)
