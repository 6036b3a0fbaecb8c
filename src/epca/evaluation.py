"""Occlusion benchmark protocol: corruption, reconstruction error, clustering.

The protocol corrupts a fixed fraction of samples by resetting a fixed
fraction of their features to uniform draws from each feature's observed
range, fits every method on the corrupted matrix, and scores them by (a)
squared reconstruction error against the clean matrix and (b) k-means
clustering accuracy on the low-dimensional coordinates.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import DataMatrix, RngHandle, as_integer
from .errors import DimensionError, ValidationError


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
            if not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):
                raise ValidationError(f"{name} must be a real number in [0, 1], got {value!r}")
        if not (0 <= as_integer(self.seed, "seed") < 2**64):
            raise ValidationError("seed must fit in an unsigned 64-bit integer")


@dataclass
class LabelVector:
    """Ground-truth class ids in [0, class_count); a float id must be a whole number."""

    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        lab = _whole_numbers(self.labels, "labels")
        if lab.ndim != 1:
            raise DimensionError("labels must be a 1-D vector")
        k = as_integer(self.class_count, "class_count")
        if k < 1:
            raise ValidationError(f"class_count must be positive, got {k}")
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
    """``values`` as an int array; a float entry must be a whole number."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        bad = arr[~(np.isfinite(arr) & (arr == np.round(arr)))]
        if bad.size:
            raise ValidationError(f"{name} must be whole numbers, got {bad[0]}")
    elif arr.dtype.kind not in "biu":
        raise ValidationError(f"{name} must be whole numbers, got {arr.dtype} entries")
    return arr.astype(int, copy=False)


def corrupt(X: DataMatrix, spec: CorruptionSpec):
    """Occlude the matrix per the spec.

    Returns ``(corrupted, sample_indices, feature_indices)`` where
    ``feature_indices[j]`` lists the features reset in corrupted sample
    ``sample_indices[j]``.  Untouched entries are bit-identical to the input
    and the whole draw is reproducible from the spec's seed.
    """
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
    W = np.asarray(basis, dtype=float)
    m = np.asarray(translation, dtype=float)
    if Xc.shape != Xo.shape:
        raise DimensionError(f"clean shape {Xc.shape} != occluded shape {Xo.shape}")
    if W.ndim != 2 or W.shape[0] != Xc.shape[0] or W.shape[1] < 1:
        raise DimensionError(f"basis shape {W.shape} incompatible with data {Xc.shape}")
    if m.shape != (Xc.shape[0],):
        raise DimensionError(f"translation shape {m.shape} != ({Xc.shape[0]},)")
    if not np.all(np.isfinite(m)):
        raise ValidationError("translation entries must be finite (no NaN/Inf)")
    if not np.max(np.abs(W.T @ W - np.eye(W.shape[1]))) <= 1e-8:
        raise ValidationError("basis columns are not orthonormal")
    diff = (Xc - m[:, None]) - W @ (W.T @ (Xo - m[:, None]))
    return float(np.sum(diff * diff))


def _kmeans_once(P, k, gen):
    """One k-means++ seeded Lloyd run on points P (columns). Returns the labels."""
    dim, n = P.shape
    centers = np.empty((dim, k))
    d2 = np.full(n, np.inf)
    for j in range(k):
        # The first centre is drawn uniformly, the rest by squared distance.
        total = d2.sum() if j else 0.0
        pick = gen.choice(n, p=d2 / total) if total > 0 else gen.integers(n)
        centers[:, j] = P[:, pick]
        d2 = np.minimum(d2, np.sum((P - centers[:, [j]]) ** 2, axis=0))

    sq = np.sum(P * P, axis=0)
    labels = np.full(n, -1)
    for _ in range(300):
        dists = sq[None, :] - 2.0 * centers.T @ P + np.sum(centers * centers, axis=0)[:, None]
        new_labels = np.argmin(dists, axis=0)
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            # Re-seed empty clusters at the point currently worst-served.
            for j in range(k):
                if not np.any(new_labels == j):
                    worst = np.argmax(dists[new_labels, np.arange(n)])
                    centers[:, j] = P[:, worst]
                    new_labels[worst] = j
            counts = np.bincount(new_labels, minlength=k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # A cluster the re-seed emptied again keeps its centre.
        filled = counts > 0
        sums = np.array([np.bincount(labels, weights=row, minlength=k) for row in P])
        centers[:, filled] = sums[:, filled] / counts[filled]
    return labels


def clustering_accuracy(predicted, truth: LabelVector) -> float:
    """Best label-agreement fraction over one-to-one cluster/class mappings."""
    pred = _whole_numbers(predicted, "predicted labels")
    if pred.shape != truth.labels.shape:
        raise DimensionError(
            f"predicted length {pred.size} != truth length {truth.labels.size}"
        )
    _, pred_ids = np.unique(pred, return_inverse=True)
    k = max(pred_ids.max() + 1, truth.class_count)
    confusion = np.zeros((k, k))
    np.add.at(confusion, (pred_ids, truth.labels), 1.0)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / pred.size)


def mean_clustering_accuracy(V, truth: LabelVector, restarts: int,
                             rng: RngHandle) -> float:
    """Mean accuracy over independent k-means restarts (the reporting protocol).

    Each restart is scored separately and the scores are averaged — this is
    deliberately not best-of-restarts, so the number reflects typical rather
    than best-case clustering behavior.  Restart ``r`` runs from its own
    stream ``rng.derive("kmeans", r)``, so the result is reproducible from
    ``rng`` alone.
    """
    P = np.asarray(V, dtype=float)
    if P.ndim != 2:
        raise DimensionError("coordinates must be a 2-D matrix (columns = points)")
    if not np.all(np.isfinite(P)):
        raise ValidationError("coordinates must be finite (no NaN/Inf)")
    k, n = truth.class_count, P.shape[1]
    if not (1 <= k <= n):
        raise DimensionError(f"need 1 <= class count <= {n} points, got {k} classes")
    restarts = as_integer(restarts, "restarts")
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    accs = []
    for r in range(restarts):
        labels = _kmeans_once(P, k, rng.derive("kmeans", r).generator())
        accs.append(clustering_accuracy(labels, truth))
    return float(np.mean(accs))
