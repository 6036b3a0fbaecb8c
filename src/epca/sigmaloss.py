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

from dataclasses import dataclass

import numpy as np

from .core import _EPS, is_real
from .errors import InternalInvariantError, ValidationError

# The smallest norm the coefficient works with: its square is a normal float.
_R_FLOOR = 2.0 ** -500


@dataclass(frozen=True)
class SigmaLossParams:
    """Robustness knob sigma; must be strictly positive and finite.

    sigma = 0 is rejected because the IRLS coefficient is undefined at
    zero residual there; callers wanting l2,1 behavior use sigma = 1e-8.
    """

    sigma: float

    def __post_init__(self):
        if not (is_real(self.sigma) and 0 < self.sigma < np.inf):
            raise ValidationError(f"sigma must be a positive finite real, got {self.sigma!r}")
        object.__setattr__(self, "sigma", float(self.sigma))


def loss_kernel(r, sigma):
    """Point-wise loss of residual norms ``r`` (unchecked)."""
    return (1.0 + sigma) * r * r / (r + sigma)


def coefficient_kernel(r, sigma):
    """IRLS coefficient of residual norms ``r`` (unchecked).

    When sigma is below 1e-12 of the largest norm, the formula tends to 0/0
    at r = 0 on the scale of the norms, so they are clamped at 1e-14 of the
    largest one.  Both constants are relative, so the coefficients of
    ``(s*r, s*sigma)`` are those of ``(r, sigma)`` times one common factor.
    Whatever the scale, a sigma below 2**-500 also clamps the norms at
    2**-500, so that ``(r + sigma)**2`` does not underflow.
    """
    r_max = np.max(r, initial=0.0)
    if sigma < 1e-12 * r_max or sigma < _R_FLOOR:
        r = np.maximum(r, max(1e-14 * r_max, _R_FLOOR))
    return (1.0 + sigma) * (r + 2.0 * sigma) / (2.0 * (r + sigma) ** 2)


def descent_converged(trace, tol, scale) -> bool:
    """Check the last step of an objective trace that must not increase.

    ``scale`` is the objective at the data's own scale; its float resolution
    ``eps * scale`` is the noise floor.  The floor scales with the data, so
    a problem scaled by any positive factor gives the same answers, and it
    stays above the rounding of a fit whose objective is itself rounding
    noise (exact data), which ``trace[0]`` would not.  Raises
    :class:`InternalInvariantError` when ``trace[-1]`` exceeds ``trace[-2]``
    by more than 1e-9 relative plus the floor; otherwise returns whether the
    relative decrease fell to ``tol`` or below.
    """
    prev, obj = trace[-2], trace[-1]
    noise_floor = _EPS * scale
    if obj > prev + 1e-9 * abs(prev) + noise_floor:
        raise InternalInvariantError(
            f"objective rose from {prev!r} to {obj!r} at iteration {len(trace) - 1}"
        )
    return prev - obj <= tol * max(abs(prev), noise_floor)

