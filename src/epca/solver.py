"""Enhanced PCA: alternating minimization of a weighted sigma-loss subspace fit.

The model approximates each sample x_i by W v_i + m with a column-orthonormal
basis W (d x c) and a translation m learned jointly.  The training objective

    sum_i 1/(1 - alpha_i) * sigma_loss(x_i - m - W v_i)

couples a robust per-sample loss with collaboratively learned simplex
weights alpha: the sigma-loss caps the influence of gross outliers while the
weights amplify the samples the current subspace explains best.

One outer iteration updates, in order: the IRLS coefficients d_i from the
current residual norms, the coordinates v_i = W^T (x_i - m), the translation
m = sum_i eta_i x_i / sum_i eta_i with eta_i = d_i / (1 - alpha_i), the basis
W as the top eigenvectors of the eta-weighted scatter, and finally alpha from
the per-sample losses of the refreshed residuals.  Each step minimizes the
(surrogate of the) objective in its own block, so the recorded objective
trace is non-increasing.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import DataMatrix, as_integer, check_rank, top_eigenpairs
from .corobust import WeightVector, solve_weights
from .errors import DimensionError, ValidationError
from .sigmaloss import SigmaLossParams, coefficient_kernel, descent_converged, loss_kernel


@dataclass
class SubspaceModel:
    """Fitted affine subspace: basis W (d x c), translation m, coordinates V (c x n).

    Every fit returns this type.  ``objective_trace`` holds the fitting
    objective per iteration of an iterative fit and is empty for classical
    PCA, a single eigendecomposition.
    """

    basis: np.ndarray
    translation: np.ndarray
    coordinates: np.ndarray
    objective_trace: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        W = np.asarray(self.basis, dtype=float)
        m = np.asarray(self.translation, dtype=float)
        V = np.asarray(self.coordinates, dtype=float)
        d, c = W.shape
        if not (1 <= c < d):
            raise DimensionError(f"need 1 <= c < d, got c={c}, d={d}")
        if m.shape != (d,):
            raise DimensionError(f"translation shape {m.shape} != ({d},)")
        if V.ndim != 2 or V.shape[0] != c:
            raise DimensionError(f"coordinates must have {c} rows, got shape {V.shape}")
        for name, arr in (("basis", W), ("translation", m), ("coordinates", V)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} entries must be finite (no NaN/Inf)")
        gram_err = np.max(np.abs(W.T @ W - np.eye(c)))
        if not gram_err <= 1e-10:
            raise DimensionError(f"basis is not orthonormal (max |W'W - I| = {gram_err:.2e})")
        self.basis, self.translation, self.coordinates = W, m, V

    @property
    def target_rank(self) -> int:
        return self.basis.shape[1]


@dataclass
class EpcaFitState:
    """Everything the alternating fit produced.

    ``active_count_trace`` records the weight activation count k per
    iteration.  ``objective_trace`` (the objective at the initialization,
    then one entry per outer iteration) and ``iterations`` are read from the
    model.  ``eta`` is ``irls_coeffs / alpha.complements``: the division uses
    the exact complement form of 1 - alpha_i, since near-converged fits can
    drive weights so close to 1 that the rounded subtraction would be noise.
    """

    model: SubspaceModel
    alpha: WeightVector
    irls_coeffs: np.ndarray
    active_count_trace: np.ndarray

    @property
    def objective_trace(self) -> np.ndarray:
        return self.model.objective_trace

    @property
    def iterations(self) -> int:
        return len(self.objective_trace) - 1

    @property
    def eta(self) -> np.ndarray:
        return self.irls_coeffs / self.alpha.complements


def _alternate(X, c, sigma, tol, max_iter, learn_alpha):
    """Shared alternating engine; returns the fit's :class:`EpcaFitState`.

    With ``learn_alpha`` the full weighted fit runs (alpha initialized
    uniform at 1/n); without it alpha stays frozen at 0, which is the
    optimal-mean robust-PCA specialization the baselines reuse, and the
    state's ``alpha`` is None.
    """
    if as_integer(max_iter, "max_iter") < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    if not (isinstance(tol, numbers.Real) and 0 <= tol < np.inf):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")
    n = X.shape[1]
    comp = np.full(n, (n - 1.0) / n) if learn_alpha else np.ones(n)
    alpha_wv = None

    m = X.mean(axis=1)
    Xc = X - m[:, None]
    _, W = top_eigenpairs(Xc, c, np.ones(n))
    V = W.T @ Xc
    rn = np.linalg.norm(Xc - W @ V, axis=0)

    trace = [float(np.sum(loss_kernel(rn, sigma) / comp))]
    ks = []

    for _ in range(max_iter):
        eta = coefficient_kernel(rn, sigma) / comp
        m = (X * eta).sum(axis=1) / eta.sum()
        Xc = X - m[:, None]
        _, W = top_eigenpairs(Xc, c, eta)
        V = W.T @ Xc
        rn = np.linalg.norm(Xc - W @ V, axis=0)
        losses = loss_kernel(rn, sigma)

        if learn_alpha:
            alpha_wv = solve_weights(losses)
            comp = alpha_wv.complements
            ks.append(alpha_wv.active_count)

        trace.append(float(np.sum(losses / comp)))
        if descent_converged(trace, tol):
            break

    # Refresh the coefficients so the reported d/eta are consistent with the
    # final weights (during the loop eta always pairs with the previous alpha).
    return EpcaFitState(
        model=SubspaceModel(W, m, V, np.array(trace)),
        alpha=alpha_wv,
        irls_coeffs=coefficient_kernel(rn, sigma),
        active_count_trace=np.array(ks, dtype=int),
    )


def epca_fit(X: DataMatrix, c: int, p: SigmaLossParams, tol: float = 1e-8,
             max_iter: int = 100) -> EpcaFitState:
    """Fit the weighted robust subspace model to the columns of X.

    Initialization is deterministic (uniform weights, sample mean, classical
    PCA basis), so identical inputs always produce bitwise-identical states.
    """
    if not isinstance(p, SigmaLossParams):
        raise ValidationError(f"p must be a SigmaLossParams, got {p!r}")
    X = X if isinstance(X, DataMatrix) else DataMatrix(X)
    c = check_rank(c, X.feature_count - 1)
    return _alternate(X.values, c, p.sigma, tol, max_iter, learn_alpha=True)


def transform(model: SubspaceModel, Y) -> np.ndarray:
    """Project samples (columns of Y) onto the model: W^T (Y - m 1^T)."""
    Yv = Y.values if isinstance(Y, DataMatrix) else np.asarray(Y, dtype=float)
    if Yv.ndim != 2 or Yv.shape[0] != model.basis.shape[0]:
        raise DimensionError(
            f"expected {model.basis.shape[0]} feature rows, got shape {Yv.shape}"
        )
    return model.basis.T @ (Yv - model.translation[:, None])


def reconstruct(model: SubspaceModel, V) -> np.ndarray:
    """Map coordinates back to feature space: W V + m 1^T."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != model.target_rank:
        raise DimensionError(
            f"expected {model.target_rank} coordinate rows, got shape {V.shape}"
        )
    return model.basis @ V + model.translation[:, None]


def epca_objective(X: DataMatrix, state: EpcaFitState, p: SigmaLossParams) -> float:
    """Evaluate sum_i 1/(1-alpha_i) * sigma_loss(x_i - m - W v_i) at the state."""
    Xv = X.values if isinstance(X, DataMatrix) else np.asarray(X, dtype=float)
    model = state.model
    if Xv.shape[0] != model.basis.shape[0]:
        raise DimensionError("feature count mismatch between X and the model")
    if Xv.shape[1] != model.coordinates.shape[1]:
        raise DimensionError("sample count mismatch between X and the stored coordinates")
    res = Xv - model.translation[:, None] - model.basis @ model.coordinates
    rn = np.linalg.norm(res, axis=0)
    return float(np.sum(loss_kernel(rn, p.sigma) / state.alpha.complements))
