"""The sigma-loss, its iteratively-reweighted least-squares coefficient, and
the descent guard every alternating fit shares.

For a vector a the loss is

    (1 + sigma) * ||a||^2 / (||a|| + sigma),

which behaves like the l2,1 norm as sigma -> 0 (robust, linear in large
residuals) and like the squared Frobenius norm as sigma -> infinity.  It is
smooth at zero for every sigma > 0, unlike the l2,1 norm, and it is not a
norm (it is not positively homogeneous).

Minimizing a sum of such losses is done by repeatedly solving weighted
least-squares surrogates: with r = ||a|| the coefficient

    d = (1 + sigma) * (r + 2*sigma) / (2 * (r + sigma)^2)

satisfies grad ||a||_sigma = 2*d*a, and the surrogate sum_i s_i d_i ||r_i||^2
majorizes the shifted objective, so alternating (compute d, minimize the
surrogate) descends monotonically.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, ValidationError

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SigmaLossParams:
    """Robustness knob sigma; must be strictly positive and finite.

    sigma = 0 is rejected because the IRLS coefficient is undefined at
    zero residual there; callers wanting l2,1 behavior use sigma = 1e-8.
    """

    sigma: float

    def __post_init__(self):
        if not (isinstance(self.sigma, numbers.Real) and 0 < self.sigma < np.inf):
            raise ValidationError(f"sigma must be a positive finite real, got {self.sigma!r}")
        object.__setattr__(self, "sigma", float(self.sigma))


def loss_kernel(r, sigma):
    """Point-wise loss of residual norms ``r`` (unchecked)."""
    return (1.0 + sigma) * r * r / (r + sigma)


def coefficient_kernel(r, sigma):
    """IRLS coefficient of residual norms ``r`` (unchecked).

    Below sigma = 1e-12 the formula tends to 0/0 at r = 0, so the norms are
    clamped there; for larger sigma it is already finite.
    """
    if sigma < 1e-12:
        r = np.maximum(r, 1e-14)
    return (1.0 + sigma) * (r + 2.0 * sigma) / (2.0 * (r + sigma) ** 2)


def descent_converged(trace, tol) -> bool:
    """Check the last step of an objective trace that must not increase.

    Raises :class:`InternalInvariantError` when ``trace[-1]`` exceeds
    ``trace[-2]`` by more than 1e-9 relative plus an absolute floor at the
    float resolution of ``trace[0]``; otherwise returns whether the relative
    decrease fell to ``tol`` or below.
    """
    prev, obj = trace[-2], trace[-1]
    noise_floor = _EPS * max(1.0, abs(trace[0]))
    if obj > prev + 1e-9 * abs(prev) + noise_floor:
        raise InternalInvariantError(
            f"objective rose from {prev!r} to {obj!r} at iteration {len(trace) - 1}"
        )
    return prev - obj <= tol * max(abs(prev), noise_floor)


def sigma_norm_vector(a, p: SigmaLossParams) -> float:
    """Point-wise loss (1+sigma)*||a||^2 / (||a|| + sigma); zero vector -> 0."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValidationError("vector entries must be finite")
    return loss_kernel(float(np.linalg.norm(a)), p.sigma)


def sigma_norm_matrix(A, p: SigmaLossParams) -> float:
    """Sum of the point-wise loss over the columns of A."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValidationError("matrix entries must be finite")
    return float(np.sum(loss_kernel(np.linalg.norm(np.atleast_2d(A), axis=0), p.sigma)))


def irls_coefficient(residual_norm, p: SigmaLossParams):
    """Surrogate weight d = (1+sigma)(r + 2 sigma) / (2 (r + sigma)^2).

    Accepts a scalar or an array of residual norms; strictly positive and
    finite for every r >= 0 when sigma > 0.
    """
    r = np.asarray(residual_norm, dtype=float)
    if not np.all(np.isfinite(r)) or np.any(r < 0):
        raise ValidationError("residual norms must be finite and nonnegative")
    d = coefficient_kernel(r, p.sigma)
    return float(d) if np.isscalar(residual_norm) else d
