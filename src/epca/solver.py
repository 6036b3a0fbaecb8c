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
    target_rank: int
    coordinates: np.ndarray
    objective_trace: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        W = np.asarray(self.basis, dtype=float)
        m = np.asarray(self.translation, dtype=float)
        V = np.asarray(self.coordinates, dtype=float)
        d, c = W.shape
        if not (1 <= c < d):
            raise DimensionError(f"need 1 <= c < d, got c={c}, d={d}")
        if int(self.target_rank) != c:
            raise DimensionError(f"target_rank {self.target_rank} != basis columns {c}")
        if m.shape != (d,):
            raise DimensionError(f"translation shape {m.shape} != ({d},)")
        if V.ndim != 2 or V.shape[0] != c:
            raise DimensionError(f"coordinates must have {c} rows, got shape {V.shape}")
        gram_err = np.max(np.abs(W.T @ W - np.eye(c)))
        if gram_err > 1e-10:
            raise DimensionError(f"basis is not orthonormal (max |W'W - I| = {gram_err:.2e})")
        self.basis, self.translation, self.coordinates = W, m, V


@dataclass
class EpcaFitState:
    """Everything the alternating fit produced.

    ``eta`` is stored exactly as ``irls_coeffs / alpha.complements`` — the
    division is performed on the exact complement form of 1 - alpha_i, since
    near-converged fits can drive weights so close to 1 that the rounded
    subtraction would be pure noise.  ``objective_trace[0]`` is the objective
    at the initialization; one entry follows per outer iteration.
    ``active_count_trace`` records the weight activation count k per
    iteration.
    """

    model: SubspaceModel
    alpha: WeightVector
    irls_coeffs: np.ndarray
    eta: np.ndarray
    objective_trace: np.ndarray
    active_count_trace: np.ndarray
    iterations: int


def _alternate(X, c, sigma, tol, max_iter, learn_alpha):
    """Shared alternating engine.

    With ``learn_alpha`` the full weighted fit runs (alpha initialized
    uniform at 1/n); without it alpha stays frozen at 0, which is the
    optimal-mean robust-PCA specialization the baselines reuse.

    Returns a dict with the final W, m, V, residual norms, weight state,
    the objective and activation-count traces, and the iteration count.
    """
    if as_integer(max_iter, "max_iter") < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
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
    floor_corr = 0.0

    for _ in range(max_iter):
        eta = coefficient_kernel(rn, sigma) / comp
        m = (X * eta).sum(axis=1) / eta.sum()
        Xc = X - m[:, None]
        _, W = top_eigenpairs(Xc, c, eta)
        V = W.T @ Xc
        rn = np.linalg.norm(Xc - W @ V, axis=0)
        losses = loss_kernel(rn, sigma)

        prev_floor_corr = floor_corr
        if learn_alpha:
            alpha_wv = solve_weights(losses)
            comp = alpha_wv.complements
            ks.append(alpha_wv.active_count)
            floor_corr = alpha_wv.floor_correction

        trace.append(float(np.sum(losses / comp)))
        # Beyond the guard's own slack, allow for the bookkeeping gap of the
        # zero-loss floor (the weight step then solves a floored problem
        # because the exact one has no attained minimum).
        if descent_converged(trace, tol, slack=floor_corr + prev_floor_corr):
            break

    # Refresh the coefficients so the reported d/eta are consistent with the
    # final weights (during the loop eta always pairs with the previous alpha).
    coeffs = coefficient_kernel(rn, sigma)
    eta = coeffs / comp
    return {
        "W": W, "m": m, "V": V, "residual_norms": rn, "alpha": alpha_wv,
        "complements": comp, "irls_coeffs": coeffs, "eta": eta,
        "objective_trace": np.array(trace), "active_count_trace": np.array(ks, dtype=int),
        "iterations": len(trace) - 1,
    }


def epca_fit(X: DataMatrix, c: int, p: SigmaLossParams, tol: float = 1e-8,
             max_iter: int = 100) -> EpcaFitState:
    """Fit the weighted robust subspace model to the columns of X.

    Initialization is deterministic (uniform weights, sample mean, classical
    PCA basis), so identical inputs always produce bitwise-identical states.
    """
    X = X if isinstance(X, DataMatrix) else DataMatrix(X)
    c = check_rank(c, X.feature_count - 1)
    out = _alternate(X.values, c, p.sigma, tol, max_iter, learn_alpha=True)
    model = SubspaceModel(out["W"], out["m"], c, out["V"], out["objective_trace"])
    return EpcaFitState(
        model=model,
        alpha=out["alpha"],
        irls_coeffs=out["irls_coeffs"],
        eta=out["eta"],
        objective_trace=model.objective_trace,
        active_count_trace=out["active_count_trace"],
        iterations=out["iterations"],
    )


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
