"""Occlusion benchmark protocol: corruption, reconstruction error, clustering.

The protocol corrupts a fixed fraction of samples by resetting a fixed
fraction of their features to uniform draws from each feature's observed
range, fits every method on the corrupted matrix, and scores them by (a)
squared reconstruction error against the clean matrix and (b) k-means
clustering accuracy on the low-dimensional coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, RngHandle, as_count, as_seed, is_real, real_array
from .errors import DimensionError, ValidationError

# Size of each work array of one block of k-means runs, in doubles.
_BLOCK_DOUBLES = 2**17


@dataclass(frozen=True)
class CorruptionSpec:
    """How much to occlude and with which stream.

    ``sample_fraction`` of the samples get ``feature_fraction`` of their
    features reset; counts are exact floors of fraction times count.  Each
    corrupted sample draws its own feature subset unless ``shared_features``
    is set, in which case one subset is drawn and reused for all corrupted
    samples.  Replacement values are uniform over the observed [min, max] of
    the feature in the clean matrix.
    """

    sample_fraction: float
    feature_fraction: float
    seed: int
    shared_features: bool = False

    def __post_init__(self):
        for name in ("sample_fraction", "feature_fraction"):
            value = getattr(self, name)
            if not (is_real(value) and 0.0 <= value <= 1.0):
                raise ValidationError(f"{name} must be a real number in [0, 1], got {value!r}")
            # A plain float, as a numpy scalar would not dump to JSON.
            object.__setattr__(self, name, float(value))
        object.__setattr__(self, "seed", as_seed(self.seed))
        if not isinstance(self.shared_features, (bool, np.bool_)):
            raise ValidationError(f"shared_features must be a bool, got {self.shared_features!r}")
        object.__setattr__(self, "shared_features", bool(self.shared_features))


@dataclass
class LabelVector:
    """Ground-truth class ids in [0, class_count), read by ``_whole_numbers``."""

    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        lab = _whole_numbers(self.labels, "labels")
        if lab.ndim != 1:
            raise DimensionError("labels must be a 1-D vector")
        k = as_count(self.class_count, "class_count")
        if lab.size and (lab.min() < 0 or lab.max() >= k):
            raise ValidationError(
                f"labels must lie in [0, {k}), got range [{lab.min()}, {lab.max()}]"
            )
        self.labels, self.class_count = lab, k

    @classmethod
    def from_raw(cls, raw) -> "LabelVector":
        """Build from arbitrary integer ids, remapped to 0..K-1 in sorted order."""
        raw = _whole_numbers(raw, "labels")
        classes, remapped = np.unique(raw, return_inverse=True)
        return cls(remapped, len(classes))


def _whole_numbers(values, name):
    """``values`` as an int array; the one rule for class ids.  Every entry,
    of integer or float type, must be a whole number below 2**53 in
    magnitude: every such number is exact in a float, and none overflows the
    int cast."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be whole numbers, got {arr.dtype} entries")
    # The float copy is exact below 2**53, and at or above it either way.
    flt = arr.astype(float, copy=False)
    bad = arr[~((np.abs(flt) < 2**53) & (flt == np.round(flt)))]
    if bad.size:
        raise ValidationError(f"{name} must be whole numbers, got {bad[0]} "
                              "(an id must lie below 2**53 in magnitude)")
    return arr.astype(int, copy=False)


def corrupt(X: DataMatrix, spec: CorruptionSpec):
    """Occlude the matrix per the spec.

    Returns ``(corrupted, sample_indices, feature_indices)`` where
    ``feature_indices[j]`` lists the features reset in corrupted sample
    ``sample_indices[j]``.  Untouched entries are bit-identical to the input
    and the whole draw is reproducible from the spec's seed.
    """
    if not isinstance(spec, CorruptionSpec):
        raise ValidationError(f"spec must be a CorruptionSpec, got {spec!r}")
    X = X if isinstance(X, DataMatrix) else DataMatrix(X)
    d, n = X.feature_count, X.sample_count
    n_samples = int(spec.sample_fraction * n)
    n_features = int(spec.feature_fraction * d)

    out = X.values.copy()
    if n_samples == 0 or n_features == 0:
        return DataMatrix(out), np.array([], dtype=int), []

    gen = RngHandle(spec.seed).derive("corrupt").generator()
    sample_idx = np.sort(gen.choice(n, size=n_samples, replace=False))
    lo = X.values.min(axis=1)
    hi = X.values.max(axis=1)

    shared = np.sort(gen.choice(d, size=n_features, replace=False)) if spec.shared_features else None
    feature_idx = []
    for j in sample_idx:
        feats = shared if shared is not None else np.sort(gen.choice(d, size=n_features, replace=False))
        out[feats, j] = gen.uniform(lo[feats], hi[feats])
        feature_idx.append(feats.copy())
    return DataMatrix(out), sample_idx, feature_idx


def reconstruction_error(X_clean: DataMatrix, X_occ: DataMatrix, basis,
                         translation) -> float:
    """Squared error ||(X - m 1') - W W' (X_occ - m 1')||_F^2.

    The model (W, m) is fitted on the occluded matrix but the error is
    measured against the clean one, so it quantifies how well the subspace
    found under corruption explains the uncorrupted data.
    """
    # Raw arrays are checked and stored in C order by DataMatrix: the sums'
    # last bits depend on the order.
    Xc, Xo = (A.values if isinstance(A, DataMatrix) else DataMatrix(A).values
              for A in (X_clean, X_occ))
    W = real_array(basis, "basis", 2)
    m = real_array(translation, "translation", 1)
    if Xc.shape != Xo.shape:
        raise DimensionError(f"clean shape {Xc.shape} != occluded shape {Xo.shape}")
    if W.shape[0] != Xc.shape[0] or W.shape[1] < 1:
        raise DimensionError(f"basis shape {W.shape} incompatible with data {Xc.shape}")
    if m.shape != (Xc.shape[0],):
        raise DimensionError(f"translation shape {m.shape} != ({Xc.shape[0]},)")
    if not np.max(np.abs(W.T @ W - np.eye(W.shape[1]))) <= 1e-8:
        raise ValidationError("basis columns are not orthonormal")
    diff = (Xc - m[:, None]) - W @ (W.T @ (Xo - m[:, None]))
    return float(np.sum(diff * diff))


def _kmeans_pp(P, k, gens, work):
    """k-means++ centres on points P (columns), one set per generator.

    Centre j of the run that draws from ``gens[r]`` is ``centers[:, r, j]``.
    ``work`` is an ``(R, dim, n)`` scratch array.
    """
    dim, n = P.shape
    runs = len(gens)
    centers = np.empty((dim, runs, k))
    nearest = np.empty((runs, n))
    d2 = np.full((runs, n), np.inf)
    for j in range(k):
        # The first centre is drawn uniformly, the rest by squared distance,
        # from the cdf and the one uniform draw of gen.choice(n, p=d2 / total).
        total = d2.sum(axis=1) if j else np.zeros(runs)
        drawn = total > 0
        cdf = np.cumsum(d2[drawn] / total[drawn, None], axis=1)
        cdf /= cdf[:, -1:]
        draws = np.array([gen.random() if hit else gen.integers(n)
                          for gen, hit in zip(gens, drawn)])
        picks = draws.astype(int)
        picks[drawn] = np.count_nonzero(cdf <= draws[drawn, None], axis=1)
        centers[:, :, j] = P[:, picks]
        np.subtract(P, centers[:, :, j].T[:, :, None], out=work)
        np.square(work, out=work)
        np.minimum(d2, np.sum(work, axis=1, out=nearest), out=d2)
    return centers


def _kmeans_lockstep(P, k, gens):
    """k-means++ seeded Lloyd runs on points P (columns), one per generator.

    The runs advance together; row ``r`` of the returned ``(R, n)`` array
    holds the labels of the run that draws from ``gens[r]``, the same labels
    that run would give alone.  A run stops when its assignment repeats, or
    after 300 Lloyd steps.
    """
    dim, n = P.shape
    runs = len(gens)
    # One buffer holds the seeding's differences, then the Lloyd distances.
    buf = np.empty(runs * max(dim, k) * n)
    # Centre j of run r is centers[:, r, j], so one GEMM serves every run.
    centers = _kmeans_pp(P, k, gens, buf[:runs * dim * n].reshape(runs, dim, n))

    sq = np.sum(P * P, axis=0)
    weights = np.tile(P.ravel(), runs)
    # Bin (run, row, cluster) of every entry of P, in P's C order, so one
    # bincount sums each row's clusters in the same order as a per-row one.
    row_bins = (np.arange(runs * dim) * k).reshape(runs, dim, 1)
    bins = np.empty(runs * dim * n, dtype=np.intp)
    labels = np.full((runs, n), -1)
    active = np.arange(runs)
    for _ in range(300):
        m = active.size
        C = centers[:, active]
        # Row (r, j) of dists is sq - 2 c_rj'P + |c_rj|^2, rounded in that
        # order; the factor -2 is exact, so it goes on the centres.
        dists = buf[:m * k * n].reshape(m, k, n)
        np.matmul((-2.0 * C).reshape(dim, m * k).T, P, out=dists.reshape(m * k, n))
        dists += sq
        dists += np.sum(C * C, axis=0)[:, :, None]
        new_labels = _first_min(dists)
        counts = np.bincount((np.arange(m)[:, None] * k + new_labels).ravel(),
                             minlength=m * k).reshape(m, k)
        for a in np.flatnonzero(counts.min(axis=1) == 0):
            # Re-seed empty clusters at the point currently worst-served.  The
            # distances come from direct differences: the rounding of the
            # expanded form would pick among points that sit on a centre.
            run_labels = new_labels[a]
            served = np.sum(np.square(P[:, None, :] - centers[:, active[a], :, None]), axis=0)
            for j in range(k):
                if not np.any(run_labels == j):
                    worst = np.argmax(served[run_labels, np.arange(n)])
                    centers[:, active[a], j] = P[:, worst]
                    run_labels[worst] = j
            counts[a] = np.bincount(run_labels, minlength=k)
        moving = ~np.all(new_labels == labels[active], axis=1)
        active, new_labels, counts = active[moving], new_labels[moving], counts[moving]
        if not active.size:
            break
        labels[active] = new_labels
        m = active.size
        np.add(row_bins[:m], new_labels[:, None, :], out=bins[:m * dim * n].reshape(m, dim, n))
        sums = np.bincount(bins[:m * dim * n], weights=weights[:m * dim * n],
                           minlength=m * dim * k)
        # A cluster the re-seed emptied again keeps its centre.
        C = centers[:, active]
        np.divide(sums.reshape(m, dim, k).transpose(1, 0, 2), counts, out=C, where=counts > 0)
        centers[:, active] = C
    return labels


def _first_min(D):
    """``np.argmin(D, axis=1)`` for a 3-D ``D``, without numpy's per-row cost.

    The index of the first minimum is ``k - 1`` less the largest of
    ``k - 1 - j`` over the ``j`` that hold the minimum.
    """
    k = D.shape[1]
    descending = np.arange(k - 1, -1, -1, dtype=np.min_scalar_type(k))[:, None]
    at_min = D == D.min(axis=1, keepdims=True)
    return (k - 1) - np.max(at_min * descending, axis=1).astype(np.intp)


def clustering_accuracy(predicted, truth: LabelVector) -> float:
    """Best label-agreement fraction over one-to-one cluster/class mappings."""
    # At module level it would slow the start-up of every process that scores no clusters.
    from scipy.optimize import linear_sum_assignment

    if not isinstance(truth, LabelVector):
        raise ValidationError(f"truth must be a LabelVector, got {type(truth).__name__}")
    pred = _whole_numbers(predicted, "predicted labels")
    if pred.shape != truth.labels.shape:
        raise DimensionError(
            f"predicted length {pred.size} != truth length {truth.labels.size}"
        )
    if pred.size == 0:
        raise DimensionError("need at least one label to score")
    _, pred_ids = np.unique(pred, return_inverse=True)
    k = max(pred_ids.max() + 1, truth.class_count)
    confusion = np.bincount(pred_ids * k + truth.labels, minlength=k * k).reshape(k, k)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / pred.size)


def mean_clustering_accuracy(V, truth: LabelVector, restarts: int,
                             rng: RngHandle) -> float:
    """Mean accuracy over independent k-means restarts (the reporting protocol).

    Each restart is scored separately and the scores are averaged — this is
    deliberately not best-of-restarts, so the number reflects typical rather
    than best-case clustering behavior.  Restart ``r`` runs from its own
    stream ``rng.derive("kmeans", r)``, so the result is reproducible from
    ``rng`` alone.  The restarts run in lock-step blocks, and each gives the
    labels it would give run alone.
    """
    if not isinstance(truth, LabelVector):
        raise ValidationError(f"truth must be a LabelVector, got {type(truth).__name__}")
    if not isinstance(rng, RngHandle):
        raise ValidationError(f"rng must be an RngHandle, got {rng!r}")
    P = real_array(V, "coordinates", 2)
    k, n = truth.class_count, P.shape[1]
    if not (1 <= k <= n):
        raise DimensionError(f"need 1 <= class count <= {n} points, got {k} classes")
    restarts = as_count(restarts, "restarts")
    # Scaling by a power of two is exact, so the labels do not change, and
    # it keeps the squared distances in range whatever the data's scale.
    P = np.ldexp(P, -np.frexp(np.max(np.abs(P), initial=0.0))[1])
    # The runs go in blocks of about _BLOCK_DOUBLES doubles per work array.
    block = max(1, _BLOCK_DOUBLES // (n * max(P.shape[0], k)))
    accs = []
    for start in range(0, restarts, block):
        gens = [rng.derive("kmeans", r).generator()
                for r in range(start, min(start + block, restarts))]
        for labels in _kmeans_lockstep(P, k, gens):
            accs.append(clustering_accuracy(labels, truth))
    return float(np.mean(accs))
