"""Collaborative-robust sample weighting.

Given per-sample losses f_i >= 0, find simplex weights w (sum w_i = 1,
0 <= w_i < 1) minimizing

    sum_i f_i / (1 - w_i).

When every loss is positive, exactly k samples receive positive weight at
the optimum, where k is the unique count in [2, n] for which the sorted
losses satisfy

    sqrt(f_(k)) < sqrt(lambda) <= sqrt(f_(k+1)),
    sqrt(lambda) = (sum_{i<=k} sqrt(f_(i))) / (k - 1),

and the active weights are w_i = 1 - sqrt(f_i / lambda).  Small losses get
large weights, so the scheme concentrates attention on the samples a model
currently fits best.  When some losses are zero, the zero samples take all
the weight (see :func:`solve_weights`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvariantError, ValidationError

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

    ``lam`` is the squared multiplier lambda; it is 0 exactly when some loss
    counts as zero (the weight then sits on the zero losses, see
    :func:`solve_weights`), which is also the stationarity multiplier there.
    """

    weights: np.ndarray
    active_count: int
    lam: float
    complements: np.ndarray = None

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

    A loss counts as zero when f_i <= (eps * sqrt(max f))**2: its square root
    then vanishes next to the largest one at float resolution.  If any loss
    is zero, the zero samples share the mass uniformly (a single one takes
    the largest weight below 1) and every other sample gets weight 0; the
    objective then equals the sum of the nonzero losses, the infimum, which
    with a single zero loss is not attained.  Otherwise the closed form of
    the module docstring applies.
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

    zero = f <= (_EPS * np.sqrt(f.max())) ** 2
    if np.any(zero):
        m = int(zero.sum())
        w = np.where(zero, min(1.0 / m, _WEIGHT_CAP), 0.0)
        return WeightVector(w, m, 0.0, complements=1.0 - w)

    n = f.size
    order = np.argsort(f, kind="stable")
    s = np.sqrt(f[order])
    # sqrt(lambda_k) for k = 2..n; s_k < sqrt(lambda_k) holds for a leading
    # run of k (always k = 2, as no loss is zero) and k is where it ends.
    lam_sqrts = np.cumsum(s)[1:] / np.arange(1, n)
    k = int(np.cumprod(s[1:] < lam_sqrts).sum()) + 1
    lam_sqrt = lam_sqrts[k - 2]
    active = np.arange(n) < k
    ratio = s / lam_sqrt
    w = np.empty(n)
    comp = np.empty(n)
    w[order] = np.where(active, np.minimum(1.0 - ratio, _WEIGHT_CAP), 0.0)
    comp[order] = np.where(active, ratio, 1.0)
    return WeightVector(w, k, float(lam_sqrt**2), complements=comp)


def objective_value(losses, wv: WeightVector) -> float:
    """Evaluate sum_i f_i / (1 - w_i) at the given weights."""
    f = np.asarray(losses, dtype=float)
    if f.shape != wv.weights.shape:
        raise DimensionError(
            f"losses length {f.size} != weights length {wv.weights.size}"
        )
    return float(np.sum(f / wv.complements))
