"""Tests for the benchmark protocol pieces: occlusion corruption,
reconstruction error against clean data, k-means, and clustering accuracy."""

import numpy as np
import pytest

from epca import (
    CorruptionSpec,
    DataMatrix,
    DimensionError,
    LabelVector,
    RngHandle,
    ValidationError,
    clustering_accuracy,
    corrupt,
    mean_clustering_accuracy,
    reconstruction_error,
)
from epca.evaluation import _kmeans_once
from oracles import kmeans_oracle


class TestCorruptionSpec:
    def test_rejects_out_of_range_fractions(self):
        with pytest.raises(ValidationError):
            CorruptionSpec(-0.1, 0.2, seed=0)
        with pytest.raises(ValidationError):
            CorruptionSpec(0.2, 1.5, seed=0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValidationError):
            CorruptionSpec(0.2, 0.2, seed=-3)


class TestCorrupt:
    def test_zero_fractions_are_a_no_op(self):
        rng = np.random.default_rng(40)
        X = DataMatrix(rng.standard_normal((5, 12)))
        out, samples, features = corrupt(X, CorruptionSpec(0.0, 0.0, seed=1))
        np.testing.assert_array_equal(out.values, X.values)
        assert samples.size == 0 and features == []

    def test_exact_entry_counting(self):
        rng = np.random.default_rng(41)
        X = DataMatrix(rng.standard_normal((10, 10)))
        out, samples, features = corrupt(X, CorruptionSpec(0.2, 0.2, seed=5))
        assert samples.size == 2
        assert all(f.size == 2 for f in features)
        changed = np.sum(out.values != X.values)
        assert changed == 4

    def test_counts_are_floors_of_fraction_times_size(self):
        rng = np.random.default_rng(42)
        X = DataMatrix(rng.standard_normal((7, 9)))
        out, samples, features = corrupt(X, CorruptionSpec(0.2, 0.2, seed=5))
        assert samples.size == int(0.2 * 9) == 1
        assert features[0].size == int(0.2 * 7) == 1

    def test_same_seed_reproduces_the_draw(self):
        rng = np.random.default_rng(43)
        X = DataMatrix(rng.standard_normal((8, 20)))
        a, sa, fa = corrupt(X, CorruptionSpec(0.25, 0.25, seed=11))
        b, sb, fb = corrupt(X, CorruptionSpec(0.25, 0.25, seed=11))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(sa, sb)
        for x, y in zip(fa, fb):
            np.testing.assert_array_equal(x, y)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(44)
        X = DataMatrix(rng.standard_normal((8, 20)))
        a, _, _ = corrupt(X, CorruptionSpec(0.25, 0.25, seed=11))
        b, _, _ = corrupt(X, CorruptionSpec(0.25, 0.25, seed=12))
        assert np.any(a.values != b.values)

    def test_untouched_entries_are_bit_identical(self):
        rng = np.random.default_rng(45)
        X = DataMatrix(rng.standard_normal((6, 15)))
        out, samples, features = corrupt(X, CorruptionSpec(0.2, 0.5, seed=2))
        mask = np.zeros(X.values.shape, dtype=bool)
        for j, feats in zip(samples, features):
            mask[feats, j] = True
        np.testing.assert_array_equal(out.values[~mask], X.values[~mask])

    def test_replacements_stay_in_the_observed_feature_range(self):
        rng = np.random.default_rng(46)
        X = DataMatrix(rng.standard_normal((6, 30)) * 5.0)
        out, samples, features = corrupt(X, CorruptionSpec(0.5, 0.5, seed=3))
        lo, hi = X.values.min(axis=1), X.values.max(axis=1)
        for j, feats in zip(samples, features):
            vals = out.values[feats, j]
            assert np.all(vals >= lo[feats]) and np.all(vals <= hi[feats])

    def test_shared_features_flag_reuses_one_feature_subset(self):
        rng = np.random.default_rng(47)
        X = DataMatrix(rng.standard_normal((10, 20)))
        _, samples, features = corrupt(
            X, CorruptionSpec(0.5, 0.3, seed=4, shared_features=True)
        )
        assert samples.size == 10
        for f in features[1:]:
            np.testing.assert_array_equal(f, features[0])

    def test_default_draws_features_per_sample(self):
        rng = np.random.default_rng(48)
        X = DataMatrix(rng.standard_normal((20, 30)))
        _, samples, features = corrupt(X, CorruptionSpec(0.5, 0.2, seed=4))
        assert any(
            not np.array_equal(features[0], f) for f in features[1:]
        )


class TestReconstructionError:
    def test_full_basis_on_identical_matrices_is_zero(self):
        rng = np.random.default_rng(50)
        X = DataMatrix(rng.standard_normal((4, 9)))
        err = reconstruction_error(X, X, np.eye(4), np.zeros(4))
        assert err <= 1e-24

    def test_in_subspace_data_scores_zero(self):
        rng = np.random.default_rng(51)
        d, n = 6, 25
        u = np.linalg.qr(rng.standard_normal((d, 1)))[0]
        m = rng.standard_normal(d)
        X = DataMatrix(m[:, None] + u @ (rng.standard_normal((1, n)) * 3.0))
        Xc = X.values - m[:, None]
        err = reconstruction_error(X, X, u, m)
        assert err <= 1e-16 * np.sum(Xc * Xc)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(52)
        Xc = rng.standard_normal((5, 12))
        Xo = Xc + 0.1 * rng.standard_normal((5, 12))
        W = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        m = rng.standard_normal(5)
        expected = np.linalg.norm(
            (Xc - m[:, None]) - W @ W.T @ (Xo - m[:, None])
        ) ** 2
        got = reconstruction_error(DataMatrix(Xc), DataMatrix(Xo), W, m)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_rejects_empty_basis(self):
        X = DataMatrix(np.ones((3, 4)))
        with pytest.raises(DimensionError):
            reconstruction_error(X, X, np.empty((3, 0)), np.zeros(3))

    def test_rejects_non_orthonormal_basis(self):
        X = DataMatrix(np.ones((3, 4)))
        with pytest.raises(ValidationError):
            reconstruction_error(X, X, np.ones((3, 2)), np.zeros(3))

    def test_rejects_a_nan_basis(self):
        X = DataMatrix(np.ones((3, 4)))
        with pytest.raises(ValidationError, match="orthonormal"):
            reconstruction_error(X, X, np.full((3, 1), np.nan), np.zeros(3))

    def test_rejects_a_non_finite_translation(self):
        X = DataMatrix(np.ones((3, 4)))
        W = np.eye(3)[:, :1]
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="translation"):
                reconstruction_error(X, X, W, np.array([bad, 0.0, 0.0]))

    def test_rejects_non_finite_raw_data(self):
        X = np.ones((3, 4))
        bad = X.copy()
        bad[1, 2] = np.nan
        W = np.eye(3)[:, :1]
        with pytest.raises(ValidationError, match="finite"):
            reconstruction_error(bad, X, W, np.zeros(3))
        with pytest.raises(ValidationError, match="finite"):
            reconstruction_error(X, bad, W, np.zeros(3))

    def test_rejects_shape_mismatches(self):
        X = DataMatrix(np.ones((3, 4)))
        Y = DataMatrix(np.ones((3, 5)))
        W = np.eye(3)[:, :1]
        with pytest.raises(DimensionError):
            reconstruction_error(X, Y, W, np.zeros(3))
        with pytest.raises(DimensionError):
            reconstruction_error(X, X, W, np.zeros(2))


def _two_blobs(rng, n_per=30, gap=10.0):
    a = rng.standard_normal((2, n_per)) * 0.3
    b = rng.standard_normal((2, n_per)) * 0.3 + gap
    pts = np.hstack([a, b])
    truth = LabelVector(np.array([0] * n_per + [1] * n_per), 2)
    return pts, truth


class TestKmeans:
    """The k-means runs behind ``mean_clustering_accuracy``."""

    def test_identical_points_terminate(self):
        truth = LabelVector(np.array([0, 1] * 4), 2)
        acc = mean_clustering_accuracy(np.ones((3, 8)), truth, restarts=3, rng=RngHandle(2))
        assert 0.0 <= acc <= 1.0

    def test_rejects_more_clusters_than_points(self):
        truth = LabelVector(np.array([0, 1, 2]), 4)
        with pytest.raises(DimensionError):
            mean_clustering_accuracy(np.ones((2, 3)), truth, restarts=1, rng=RngHandle(0))

    def test_rejects_zero_restarts(self):
        truth = LabelVector(np.array([0, 1, 1]), 2)
        with pytest.raises(ValidationError):
            mean_clustering_accuracy(np.ones((2, 3)), truth, restarts=0, rng=RngHandle(0))

    def test_rejects_non_finite_coordinates(self):
        truth = LabelVector(np.array([0, 0, 1, 1, 1]), 2)
        with pytest.raises(ValidationError, match="finite"):
            mean_clustering_accuracy(np.full((2, 5), np.nan), truth, restarts=3, rng=RngHandle(0))

    def test_rejects_one_dimensional_coordinates(self):
        truth = LabelVector(np.array([0, 0, 0, 1, 1, 1]), 2)
        with pytest.raises(DimensionError, match="2-D"):
            mean_clustering_accuracy(np.arange(6.0), truth, restarts=1, rng=RngHandle(0))

    @pytest.mark.parametrize("seed", range(6))
    def test_lloyd_run_matches_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        centres = 4.0 * rng.standard_normal((3, 4))
        P = centres[:, rng.integers(4, size=60)] + rng.standard_normal((3, 60))
        stream = RngHandle(seed).derive("kmeans", 0)
        expected, _ = kmeans_oracle(P, 4, stream.generator())
        assert _kmeans_once(P, 4, stream.generator()).tolist() == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_empty_cluster_reseed_matches_the_reference(self, seed):
        # Four locations, each twice, and six clusters: k-means++ runs out of
        # distinct points, so clusters start empty and one stays empty.
        P = np.repeat(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [5.0, 5.0]]).T, 2, axis=1)
        stream = RngHandle(seed).derive("kmeans", 0)
        expected, reseeds = kmeans_oracle(P, 6, stream.generator())
        assert reseeds > 0
        assert _kmeans_once(P, 6, stream.generator()).tolist() == expected


class TestClusteringAccuracy:
    def test_exact_match_scores_one(self):
        truth = LabelVector(np.array([0, 0, 1, 1, 2]), 3)
        assert clustering_accuracy(truth.labels, truth) == 1.0

    def test_permuted_cluster_ids_score_one(self):
        truth = LabelVector(np.array([0, 0, 1, 1, 2, 2]), 3)
        permuted = np.array([2, 2, 0, 0, 1, 1])
        assert clustering_accuracy(permuted, truth) == 1.0

    def test_half_agreement_instance(self):
        truth = LabelVector(np.array([0, 0, 1, 1]), 2)
        assert clustering_accuracy(np.array([0, 1, 0, 1]), truth) == 0.5

    def test_invariant_to_relabeling_either_side(self):
        rng = np.random.default_rng(63)
        truth_raw = rng.integers(0, 4, 60)
        pred = rng.integers(0, 4, 60)
        base = clustering_accuracy(pred, LabelVector.from_raw(truth_raw))
        perm_p = rng.permutation(4)
        perm_t = rng.permutation(4)
        assert clustering_accuracy(
            perm_p[pred], LabelVector.from_raw(perm_t[truth_raw])
        ) == pytest.approx(base, abs=1e-15)

    def test_rejects_length_mismatch(self):
        truth = LabelVector(np.array([0, 1]), 2)
        with pytest.raises(DimensionError):
            clustering_accuracy(np.array([0, 1, 0]), truth)

    def test_predictions_must_be_whole_numbers(self):
        truth = LabelVector(np.array([0, 1]), 2)
        assert clustering_accuracy(np.array([1.0, 0.0]), truth) == 1.0
        with pytest.raises(ValidationError, match="whole numbers, got 0.5"):
            clustering_accuracy(np.array([0.5, 1.0]), truth)


class TestLabelVector:
    def test_from_raw_remaps_to_contiguous_ids(self):
        lv = LabelVector.from_raw([9, 5, 9, 7])
        assert lv.class_count == 3
        np.testing.assert_array_equal(lv.labels, [2, 0, 2, 1])

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValidationError):
            LabelVector(np.array([0, 3]), 2)

    def test_labels_must_be_whole_numbers(self):
        np.testing.assert_array_equal(LabelVector([0.0, 1.0], 2).labels, [0, 1])
        for bad in ([0.5, 1.7], [0.0, np.nan], ["0", "1"]):
            with pytest.raises(ValidationError, match="whole numbers"):
                LabelVector(bad, 2)
        with pytest.raises(ValidationError, match="whole numbers"):
            LabelVector.from_raw([1.5, 2.0])

    @pytest.mark.parametrize("count", [0, -1, 2.0, "2"])
    def test_class_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ValidationError, match="class_count"):
            LabelVector([0, 0], count)


class TestMeanClusteringAccuracy:
    def test_separable_blobs_average_to_one(self):
        rng = np.random.default_rng(64)
        pts, truth = _two_blobs(rng)
        acc = mean_clustering_accuracy(pts, truth, restarts=10, rng=RngHandle(3))
        assert acc == 1.0

    def test_deterministic_and_bounded(self):
        rng = np.random.default_rng(65)
        pts = rng.standard_normal((2, 30))
        truth = LabelVector.from_raw(rng.integers(0, 3, 30))
        a = mean_clustering_accuracy(pts, truth, restarts=8, rng=RngHandle(4))
        b = mean_clustering_accuracy(pts, truth, restarts=8, rng=RngHandle(4))
        assert a == b
        assert 0.0 <= a <= 1.0
