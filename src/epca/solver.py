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

from .core import DataMatrix, as_count, check_rank, check_tol, gram_route, real_array, top_eigenpairs
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
        W = real_array(self.basis, "basis", 2)
        m = real_array(self.translation, "translation", 1)
        V = real_array(self.coordinates, "coordinates", 2)
        trace = real_array(self.objective_trace, "objective_trace", 1, finite=False)
        d, c = W.shape
        if not (1 <= c < d):
            raise DimensionError(f"need 1 <= c < d, got c={c}, d={d}")
        if m.shape != (d,):
            raise DimensionError(f"translation shape {m.shape} != ({d},)")
        if V.shape[0] != c:
            raise DimensionError(f"coordinates must have {c} rows, got shape {V.shape}")
        gram_err = np.max(np.abs(W.T @ W - np.eye(c)))
        if not gram_err <= 1e-10:
            raise DimensionError(f"basis is not orthonormal (max |W'W - I| = {gram_err:.2e})")
        self.basis, self.translation, self.coordinates, self.objective_trace = W, m, V, trace

    @property
    def target_rank(self) -> int:
        return self.basis.shape[1]


@dataclass
class EpcaFitState:
    """Everything the alternating fit produced.

    ``active_count_trace`` records the weight activation count k per
    iteration, and ``stop_reason`` why the loop ended: ``"tol"`` when the
    relative decrease of the objective fell to the tolerance, ``"max_iter"``
    when the iteration budget ran out first.  ``objective_trace`` (the
    objective at the initialization, then one entry per outer iteration) and
    ``iterations`` are read from the model.
    """

    model: SubspaceModel
    alpha: WeightVector
    active_count_trace: np.ndarray
    stop_reason: str

    @property
    def objective_trace(self) -> np.ndarray:
        return self.model.objective_trace

    @property
    def iterations(self) -> int:
        return len(self.objective_trace) - 1


def _alternate(X, c, sigma, tol, max_iter, learn_alpha):
    """Shared alternating engine; returns the fit's :class:`EpcaFitState`.

    With ``learn_alpha`` the full weighted fit runs (alpha initialized
    uniform at 1/n); without it alpha stays frozen at 0, which is the
    optimal-mean robust-PCA specialization the baselines reuse, and the
    state's ``alpha`` is None.
    """
    max_iter = as_count(max_iter, "max_iter")
    check_tol(tol)
    d, n = X.shape
    comp = np.full(n, (n - 1.0) / n) if learn_alpha else np.ones(n)
    alpha_wv = None

    # The loop's d-by-n intermediates live in two work arrays: Xc holds the
    # centred data, T the weighted data and then the residual.
    m = X.mean(axis=1)
    Xc = X - m[:, None]
    T = np.empty_like(X)
    # On the wide route the centred Gram comes from K = Xc.T @ Xc at the
    # initial mean.  Every later mean lies at Xc @ eta / sum(eta) from it,
    # so its Gram is K - a 1' - 1 a' + (a'eta / sum(eta)) 1 1' with
    # a = K @ eta / sum(eta).  As eta > 0, these are convex combinations of
    # entries of K and round like a fresh Gram.
    K = Xc.T @ Xc if gram_route(d, n, c) else None
    _, W = top_eigenpairs(Xc, c, np.ones(n), gram=K)
    V = W.T @ Xc
    rn = _residual_norms(Xc, W, V, T)

    trace = [float(np.sum(loss_kernel(rn, sigma) / comp))]
    # Rounding moves each residual by a multiple of eps * (|x_i - m| + |m|),
    # so the guard's noise floor is eps times the objective of those norms.
    # The columns of Xc have norms hypot(rn, |v|) because W is orthonormal.
    data_norms = np.hypot(rn, np.linalg.norm(V, axis=0)) + np.linalg.norm(m)
    scale = float(np.sum(loss_kernel(data_norms, sigma) / comp))
    ks = []
    G = start = None

    for _ in range(max_iter):
        eta = coefficient_kernel(rn, sigma) / comp
        total = eta.sum()
        np.multiply(X, eta, out=T)
        m_prev, m = m, T.sum(axis=1) / total
        np.subtract(X, m[:, None], out=Xc)
        if K is not None:
            a = K @ eta / total
            G = K - a
            G -= a[:, None]
            G += a @ eta / total
            # The previous basis, in the coordinates of the new centring,
            # starts the Gram route's subspace iteration.
            start = V - (W.T @ (m - m_prev))[:, None]
        _, W = top_eigenpairs(Xc, c, eta, gram=G, start=start)
        V = W.T @ Xc
        rn = _residual_norms(Xc, W, V, T)
        losses = loss_kernel(rn, sigma)

        if learn_alpha:
            alpha_wv = solve_weights(losses)
            comp = alpha_wv.complements
            ks.append(alpha_wv.active_count)

        trace.append(float(np.sum(losses / comp)))
        if descent_converged(trace, tol, scale):
            stop_reason = "tol"
            break
    else:
        stop_reason = "max_iter"

    return EpcaFitState(
        model=SubspaceModel(W, m, V, np.array(trace)),
        alpha=alpha_wv,
        active_count_trace=np.array(ks, dtype=int),
        stop_reason=stop_reason,
    )


def _residual_norms(Xc, W, V, out):
    """Column norms of ``Xc - W @ V``, computed in the work array ``out``."""
    np.matmul(W, V, out=out)
    np.subtract(Xc, out, out=out)
    np.multiply(out, out, out=out)
    return np.sqrt(out.sum(axis=0))


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
    Yv = Y.values if isinstance(Y, DataMatrix) else real_array(Y, "samples", 2, finite=False)
    if Yv.shape[0] != model.basis.shape[0]:
        raise DimensionError(
            f"expected {model.basis.shape[0]} feature rows, got shape {Yv.shape}"
        )
    return model.basis.T @ (Yv - model.translation[:, None])


def reconstruct(model: SubspaceModel, V) -> np.ndarray:
    """Map coordinates back to feature space: W V + m 1^T."""
    V = real_array(V, "coordinates", 2, finite=False)
    if V.shape[0] != model.target_rank:
        raise DimensionError(
            f"expected {model.target_rank} coordinate rows, got shape {V.shape}"
        )
    return model.basis @ V + model.translation[:, None]

