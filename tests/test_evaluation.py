"""Tests for the benchmark protocol pieces: occlusion corruption,
reconstruction error against clean data, k-means, and clustering accuracy."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import epca.evaluation
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
from epca.evaluation import _kmeans_lockstep, _max_assignment
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

    @pytest.mark.parametrize("value", ["no", "false", 1, None])
    def test_shared_features_must_be_a_bool(self, value):
        # A truthy string would otherwise share one feature subset.
        with pytest.raises(ValidationError, match=f"shared_features must be a bool, got {value!r}"):
            CorruptionSpec(0.1, 0.1, 0, shared_features=value)

    def test_a_numpy_bool_sets_shared_features(self):
        spec = CorruptionSpec(0.1, 0.1, 0, shared_features=np.True_)
        assert spec.shared_features is True

    @pytest.mark.parametrize("fraction", [np.float32(0.25), np.float64(0.25), 1, np.int8(0)])
    def test_fractions_are_stored_as_plain_floats(self, fraction):
        spec = CorruptionSpec(fraction, fraction, seed=np.uint32(3))
        assert type(spec.sample_fraction) is type(spec.feature_fraction) is float
        assert spec.sample_fraction == float(fraction)
        assert type(spec.seed) is int and spec.seed == 3


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
        with pytest.raises(ValidationError, match="finite"):
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

    def test_rejects_coordinates_of_another_length_before_any_restart(self, monkeypatch):
        def no_restart(P, k, gens):
            raise AssertionError("a restart ran")

        monkeypatch.setattr(epca.evaluation, "_kmeans_lockstep", no_restart)
        truth = LabelVector(np.array([0, 1, 1]), 2)
        with pytest.raises(DimensionError, match="coordinates have 5 columns, truth has 3"):
            mean_clustering_accuracy(np.ones((2, 5)), truth, restarts=3, rng=RngHandle(0))

    def test_rejects_coordinates_with_no_rows(self):
        truth = LabelVector(np.array([0, 1, 1]), 2)
        with pytest.raises(DimensionError, match="coordinates need at least one row"):
            mean_clustering_accuracy(np.ones((0, 3)), truth, restarts=3, rng=RngHandle(0))

    @pytest.mark.parametrize("seed", range(6))
    def test_lloyd_run_matches_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        centres = 4.0 * rng.standard_normal((3, 4))
        P = centres[:, rng.integers(4, size=60)] + rng.standard_normal((3, 60))
        stream = RngHandle(seed).derive("kmeans", 0)
        expected, _ = kmeans_oracle(P, 4, stream.generator())
        assert _kmeans_lockstep(P, 4, [stream.generator()])[0].tolist() == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_empty_cluster_reseed_matches_the_reference(self, seed):
        # Four locations, each twice, and six clusters: k-means++ runs out of
        # distinct points, so clusters start empty and one stays empty.
        P = np.repeat(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [5.0, 5.0]]).T, 2, axis=1)
        stream = RngHandle(seed).derive("kmeans", 0)
        expected, reseeds = kmeans_oracle(P, 6, stream.generator())
        assert reseeds > 0
        assert _kmeans_lockstep(P, 6, [stream.generator()])[0].tolist() == expected

    def test_runs_of_one_call_each_match_the_reference(self):
        # Twelve runs on a 2-D cloud with a few far points, k=5: they need one
        # to seven centre updates, and one of them re-seeds empty clusters.
        rng = np.random.default_rng(577)
        P = rng.standard_normal((2, 24)) * np.where(rng.random(24) < 0.2, 8.0, 1.0)
        streams = [RngHandle(577).derive("kmeans", r) for r in range(12)]
        labels = _kmeans_lockstep(P, 5, [s.generator() for s in streams])
        steps, reseeds = set(), []
        for run, stream in zip(labels, streams):
            expected, count = kmeans_oracle(P, 5, stream.generator())
            assert run.tolist() == expected
            steps.add(next(t for t in range(1, 300)
                           if kmeans_oracle(P, 5, stream.generator(), max_iter=t)[0] == expected))
            reseeds.append(count)
        assert len(steps) > 1
        assert 0 < sum(count > 0 for count in reseeds) < len(reseeds)

    def test_runs_with_more_coordinates_than_clusters_match_the_reference(self):
        # Nine runs on 12-D points with a few far columns, k=4: more
        # coordinate rows to sum than clusters, and a distance array smaller
        # than the seeding's differences.  The runs stop after 1 to 6 steps.
        rng = np.random.default_rng(31)
        P = rng.standard_normal((12, 40)) * np.where(rng.random(40) < 0.2, 6.0, 1.0)
        streams = [RngHandle(31).derive("kmeans", r) for r in range(9)]
        labels = _kmeans_lockstep(P, 4, [s.generator() for s in streams])
        steps = set()
        for run, stream in zip(labels, streams):
            expected, _ = kmeans_oracle(P, 4, stream.generator())
            assert run.tolist() == expected
            steps.add(next(t for t in range(1, 300)
                           if kmeans_oracle(P, 4, stream.generator(), max_iter=t)[0] == expected))
        assert steps == {1, 2, 4, 6}

    def test_runs_that_exhaust_the_distinct_points_match_the_reference(self):
        # Five distinct points in eleven columns and k=7: every run's cdf
        # total reaches 0 before its last two picks, which then come from
        # gen.integers, and every run re-seeds.  The coordinates are small
        # integers, so the distances to coinciding centres are exactly 0, as
        # in the reference.
        P = np.array([[0.0, 0, 3, 3, 3, 0, 5, 5, 1, 1, 1], [0, 0, 0, 0, 0, 4, 5, 5, 2, 2, 2]])
        streams = [RngHandle(9).derive("kmeans", r) for r in range(8)]
        labels = _kmeans_lockstep(P, 7, [s.generator() for s in streams])
        for run, stream in zip(labels, streams):
            expected, reseeds = kmeans_oracle(P, 7, stream.generator())
            assert reseeds > 0
            assert run.tolist() == expected

    def test_reseed_among_points_on_centres_matches_the_reference(self):
        # Nine distinct standard-normal points in fifteen columns and k=10:
        # every point ends on a centre, so all true distances to the
        # assigned centres are 0 and the re-seed takes the first point.  The
        # expanded distances are rounding noise here, not 0.
        P = np.random.default_rng(0).standard_normal((2, 9))[:, np.arange(15) % 9]
        streams = [RngHandle(0).derive("kmeans", r) for r in range(16)]
        labels = _kmeans_lockstep(P, 10, [s.generator() for s in streams])
        for run, stream in zip(labels, streams):
            assert run.tolist() == kmeans_oracle(P, 10, stream.generator())[0]


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

    def test_more_predicted_ids_than_classes(self):
        # Four clusters on two classes: the two largest matches count.
        truth = LabelVector(np.array([0, 0, 0, 1, 1, 1, 1]), 2)
        assert clustering_accuracy([5, 5, 7, 9, 9, 9, 2], truth) == 5 / 7

    def test_rejects_length_mismatch(self):
        truth = LabelVector(np.array([0, 1]), 2)
        with pytest.raises(DimensionError):
            clustering_accuracy(np.array([0, 1, 0]), truth)

    def test_rejects_empty_labels(self):
        truth = LabelVector(np.array([], dtype=int), 1)
        with pytest.raises(DimensionError, match="at least one label"):
            clustering_accuracy([], truth)

    def test_predictions_must_be_whole_numbers(self):
        truth = LabelVector(np.array([0, 1]), 2)
        assert clustering_accuracy(np.array([1.0, 0.0]), truth) == 1.0
        with pytest.raises(ValidationError, match="whole numbers, got 0.5"):
            clustering_accuracy(np.array([0.5, 1.0]), truth)

    @pytest.mark.parametrize("score", [
        lambda truth: clustering_accuracy(np.array([0, 1, 1]), truth),
        lambda truth: mean_clustering_accuracy(np.ones((2, 3)), truth, 1, RngHandle(0)),
    ], ids=["clustering_accuracy", "mean_clustering_accuracy"])
    def test_truth_must_be_a_label_vector(self, score):
        with pytest.raises(ValidationError, match="truth must be a LabelVector, got ndarray"):
            score(np.array([0, 1, 1]))


def _assignment_cases(seed, count, largest):
    """``count`` seeded square integer matrices of orders 1 to ``largest`` in
    turn: random, near-diagonal, all one value (every assignment ties) and
    all zero, each kind for one round of orders."""
    gen = np.random.default_rng(seed)
    for i in range(count):
        k = 1 + i % largest
        kind = i // largest % 4
        if kind == 0:
            yield gen.integers(0, 60, (k, k))
        elif kind == 1:
            yield np.diag(gen.integers(20, 80, k)) + gen.integers(0, 5, (k, k))
        elif kind == 2:
            yield np.full((k, k), gen.integers(0, 9))
        else:
            yield np.zeros((k, k), dtype=int)


class TestMaxAssignment:
    """The exact assignment solver behind ``clustering_accuracy``."""

    def test_matches_linear_sum_assignment(self):
        cases = list(_assignment_cases(68, 3000, 15))
        # Every order has tied cases, and every order above 1 untied ones.
        assert {(len(w), bool(w.max() == w.min())) for w in cases} == {
            (k, tie) for k in range(1, 16) for tie in (True, k == 1)}
        for w in cases:
            rows, cols = linear_sum_assignment(w, maximize=True)
            best = _max_assignment(w.tolist())
            assert type(best) is int
            assert best == w[rows, cols].sum(), w

    def test_matches_brute_force_up_to_seven(self):
        for w in map(np.ndarray.tolist, _assignment_cases(69, 7 * 4 * 3, 7)):
            best = max(sum(row[j] for row, j in zip(w, p))
                       for p in itertools.permutations(range(len(w))))
            assert _max_assignment(w) == best, w


class TestLabelVector:
    def test_from_raw_remaps_to_contiguous_ids(self):
        lv = LabelVector.from_raw([9, 5, 9, 7])
        assert lv.class_count == 3
        np.testing.assert_array_equal(lv.labels, [2, 0, 2, 1])

    def test_rejects_labels_that_are_not_a_vector(self):
        with pytest.raises(DimensionError, match="labels must be a 1-D vector"):
            LabelVector(np.zeros((2, 2), int), 2)

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

    def test_float_labels_must_lie_below_2_53(self):
        # Past 2**53 a float no longer holds every whole number, and past
        # 2**63 the int cast overflows.
        assert LabelVector.from_raw([2.0**53 - 1, 0.0]).class_count == 2
        with pytest.raises(ValidationError, match="whole numbers"):
            LabelVector([1e20, 1.0], 2)
        with pytest.raises(ValidationError, match="whole numbers"):
            LabelVector.from_raw([1e20, 2e20, 0.0])

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_integer_labels_must_lie_below_2_53(self, dtype):
        # Unsigned ids of 2**63 or more used to wrap to negative ints.
        assert LabelVector.from_raw(np.array([2**53 - 1, 5, 0], dtype=dtype)).class_count == 3
        big = 2**63 if dtype is np.uint64 else -(2**63)
        with pytest.raises(ValidationError, match=r"below 2\*\*53"):
            LabelVector.from_raw(np.array([big, 5, 0], dtype=dtype))
        with pytest.raises(ValidationError, match=r"below 2\*\*53"):
            LabelVector(np.array([2**53, 0], dtype=dtype), 2)

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

    def test_blocks_of_runs_give_the_labels_of_single_runs(self, monkeypatch):
        # 50 restarts at n=600 and k=10 run in three blocks; each restart's
        # labels are those of its generator run alone.
        rng = np.random.default_rng(66)
        ids = rng.integers(0, 10, 600)
        P = 4.0 * rng.standard_normal((3, 10))[:, ids] + rng.standard_normal((3, 600))
        blocks, scored = [], []
        lockstep, score = epca.evaluation._kmeans_lockstep, epca.evaluation.clustering_accuracy

        def recording_lockstep(P, k, gens):
            blocks.append(len(gens))
            return lockstep(P, k, gens)

        def recording_score(labels, truth):
            scored.append(labels.copy())
            return score(labels, truth)

        monkeypatch.setattr(epca.evaluation, "_kmeans_lockstep", recording_lockstep)
        monkeypatch.setattr(epca.evaluation, "clustering_accuracy", recording_score)
        handle = RngHandle(6)
        mean_clustering_accuracy(P, LabelVector(ids, 10), restarts=50, rng=handle)
        assert len(blocks) == 3 and sum(blocks) == 50
        for r, labels in enumerate(scored):
            alone = lockstep(P, 10, [handle.derive("kmeans", r).generator()])[0]
            np.testing.assert_array_equal(labels, alone)

    @pytest.mark.parametrize("exponent", [-900, -500, 100, 400, 900])
    def test_score_does_not_depend_on_the_scale(self, exponent):
        # Coordinates scaled by 2**exponent give the unit-scale score, with no
        # overflow or invalid operation on the way.
        rng = np.random.default_rng(67)
        ids = rng.integers(0, 4, 80)
        P = 3.0 * rng.standard_normal((2, 4))[:, ids] + rng.standard_normal((2, 80))
        truth = LabelVector(ids, 4)
        unit = mean_clustering_accuracy(P, truth, restarts=6, rng=RngHandle(8))
        with np.errstate(over="raise", invalid="raise"):
            scaled = mean_clustering_accuracy(P * 2.0**exponent, truth, restarts=6,
                                              rng=RngHandle(8))
        assert scaled == unit > 0.5
