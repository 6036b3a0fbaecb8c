"""Collaborative-robust sample weighting.

Given per-sample losses f_i >= 0, find simplex weights w (sum w_i = 1,
0 <= w_i < 1) minimizing

    sum_i f_i / (1 - w_i).

At the optimum exactly k samples receive positive weight, where k is the
unique count in [2, n] for which the sorted losses satisfy

    sqrt(f_(k)) < sqrt(lambda) <= sqrt(f_(k+1)),
    sqrt(lambda) = (sum_{i<=k} sqrt(f_(i))) / (k - 1),

and the active weights are w_i = 1 - sqrt(f_i / lambda).  Small losses get
large weights, so the scheme concentrates attention on the samples a model
currently fits best while never collapsing onto a single sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InternalInvariantError, InvariantError, ValidationError

_EPS = np.finfo(float).eps

# Largest double strictly below 1; stored weights are clamped here so the
# open constraint w_i < 1 survives rounding when a weight approaches 1.
_WEIGHT_CAP = np.nextafter(1.0, 0.0)


@dataclass
class WeightVector:
    """Simplex-constrained sample weights with their activation count.

    ``complements`` stores 1 - w_i in its numerically exact form: for active
    samples this is the ratio sqrt(f_i / lambda) computed directly, never via
    the subtraction 1 - w_i.  When weights approach 1 the subtraction loses
    every significant digit (1 - (1 - 1e-17) == 0), and downstream updates
    divide by these complements, so the exact form is what keeps objective
    bookkeeping coherent.  ``weights`` is the rounded display form, clamped
    into [0, 1).

    ``lam`` is the squared multiplier lambda; it is 0 exactly when every loss
    is zero apart from rounding (the uniform-on-zero-losses case), which is
    also the stationarity multiplier there.

    ``floor_correction`` records the objective bookkeeping term introduced
    when a single exactly-zero loss had to be floored before solving (see
    :func:`solve_weights`); it is 0.0 in the regular case.
    """

    weights: np.ndarray
    active_count: int
    lam: float
    complements: np.ndarray = None
    floor_correction: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise DimensionError("weights must be a 1-D vector of length >= 2")
        if np.any(w < 0) or np.any(w >= 1) or not np.all(np.isfinite(w)):
            raise InvariantError("weights must lie in [0, 1)")
        if abs(w.sum() - 1.0) > 1e-12 * w.size:
            raise InvariantError(f"weights sum to {w.sum()!r}, expected 1")
        if int(np.count_nonzero(w > 0)) != int(self.active_count):
            raise InvariantError(
                f"{np.count_nonzero(w > 0)} positive weights but "
                f"active_count={self.active_count}"
            )
        self.weights = w
        if self.complements is None:
            self.complements = 1.0 - w
        else:
            self.complements = np.asarray(self.complements, dtype=float)
            if self.complements.shape != w.shape:
                raise DimensionError("complements shape must match weights")


def solve_weights(losses) -> WeightVector:
    """Minimize sum_i f_i / (1 - w_i) over the probability simplex.

    Degenerate losses follow the framework's own remedies:

    * several losses exactly zero -> uniform weights on the zero set (any
      split of the mass there is optimal and costs nothing);
    * exactly one loss zero -> that loss is floored to 1e-12 times the
      largest loss and the regular path runs, because the untouched problem
      has no attained minimum.

    A loss can also be *numerically* zero: so small that its square root is
    below the float resolution of the multiplier's partial sums, which makes
    the strict activation scan unsatisfiable.  Such losses are clamped to
    exact zero and the degenerate rules above apply.
    """
    f = np.asarray(losses, dtype=float)
    if f.ndim != 1:
        raise DimensionError("losses must be a 1-D vector")
    if f.size < 2:
        raise DimensionError(f"need at least two losses, got {f.size}")
    if not np.all(np.isfinite(f)):
        raise ValidationError("losses must be finite")
    if np.any(f < 0):
        raise ValidationError("losses must be nonnegative")

    for attempt in range(2):
        result = _solve_positive_or_degenerate(f)
        if result is not None:
            return result
        # Strict scan failed: clamp relatively-zero losses and retry once.
        tiny = f < (_EPS * np.sqrt(f.max())) ** 2
        if attempt == 1 or not np.any(tiny):
            break
        f = np.where(tiny, 0.0, f)
    raise InternalInvariantError(
        "no activation count satisfies the optimality conditions"
    )


def _solve_positive_or_degenerate(f):
    """One solve attempt; returns None when the strict k-scan finds nothing."""
    n = f.size
    zero = f == 0.0
    n_zero = int(zero.sum())
    if n_zero > 1:
        w = np.where(zero, 1.0 / n_zero, 0.0)
        return WeightVector(w, n_zero, 0.0, complements=1.0 - w)

    floor_idx = None
    if n_zero == 1:
        f = f.copy()
        floor_idx = int(np.nonzero(zero)[0][0])
        # The other losses are positive, so the floor is too.
        f[floor_idx] = 1e-12 * f.max()

    order = np.argsort(f, kind="stable")
    s = np.sqrt(f[order])
    prefix = np.cumsum(s)

    ks = np.arange(2, n + 1)
    lam_sqrts = prefix[ks - 1] / (ks - 1)
    lower_ok = s[ks - 1] < lam_sqrts
    upper_ok = np.ones(n - 1, dtype=bool)
    upper_ok[:-1] = lam_sqrts[:-1] <= s[ks[:-1]]
    hits = np.flatnonzero(lower_ok & upper_ok)
    if hits.size == 0:
        return None

    k = int(ks[hits[0]])
    lam_sqrt = lam_sqrts[hits[0]]
    idx = np.arange(n)
    ratio = s / lam_sqrt
    comp_sorted = np.where(idx < k, ratio, 1.0)
    w_sorted = np.where(idx < k, np.maximum(1.0 - ratio, 0.0), 0.0)
    w_sorted = np.minimum(w_sorted, _WEIGHT_CAP)
    w = np.empty(n)
    comp = np.empty(n)
    w[order] = w_sorted
    comp[order] = comp_sorted
    floor_corr = f[floor_idx] / comp[floor_idx] if floor_idx is not None else 0.0
    return WeightVector(w, k, float(lam_sqrt**2), complements=comp,
                        floor_correction=float(floor_corr))


def objective_value(losses, wv: WeightVector) -> float:
    """Evaluate sum_i f_i / (1 - w_i) at the given weights."""
    f = np.asarray(losses, dtype=float)
    if f.shape != wv.weights.shape:
        raise DimensionError(
            f"losses length {f.size} != weights length {wv.weights.size}"
        )
    return float(np.sum(f / wv.complements))
