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

On tall data every basis step works on the d-by-n data.  On wide data
(c < n < d) the loop carries only n-space state between steps: the mean as
the weights eta / sum(eta), the centred n-by-n Gram, the basis as an n-by-c
coefficient block on the centred data, and the coordinates and residual
norms read from the Gram.  The basis is mapped to d-space once, at the end
(see ``_GramSteps``); only a step whose Gram yields no basis runs in d-space,
from one thin SVD of the weighted d-by-n data (the fall-back of
``top_eigenpairs`` on wide data too), so a wide fit never forms a d-by-d
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (DataMatrix, _gram_eigenpairs, _mapped_basis, _orthonormal,
                   _svd_top_eigenpairs, as_count, check_rank, check_tol, gram_route, real_array,
                   top_eigenpairs)
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
    state's ``alpha`` is None.  Every sum of losses or coefficients goes
    through :func:`_sigma_terms`, so an overflow raises one
    ``ValidationError`` at the start or at the step it happens in.
    """
    max_iter = as_count(max_iter, "max_iter")
    check_tol(tol)
    d, n = X.shape
    comp = np.full(n, (n - 1.0) / n) if learn_alpha else np.ones(n)
    alpha_wv = None

    steps = (_GramSteps if gram_route(d, n, c) else _ScatterSteps)(X, c)
    rn = steps.rn
    trace = [_sigma_terms(loss_kernel, rn, sigma, comp)[1]]
    # Rounding moves each residual by a multiple of eps * (|x_i - m| + |m|),
    # so the guard's noise floor is eps times the objective of those norms.
    # The columns of Xc have norms hypot(rn, |v|) because W is orthonormal.
    data_norms = np.hypot(rn, np.linalg.norm(steps.V, axis=0)) + np.linalg.norm(steps.m)
    scale = _sigma_terms(loss_kernel, data_norms, sigma, comp)[1]
    ks = []

    for _ in range(max_iter):
        rn = steps.step(_sigma_terms(coefficient_kernel, rn, sigma, comp)[0])

        if learn_alpha:
            alpha_wv = solve_weights(_sigma_terms(loss_kernel, rn, sigma, 1.0)[0])
            comp = alpha_wv.complements
            ks.append(alpha_wv.active_count)

        trace.append(_sigma_terms(loss_kernel, rn, sigma, comp)[1])
        if descent_converged(trace, tol, scale):
            stop_reason = "tol"
            break
    else:
        stop_reason = "max_iter"

    return EpcaFitState(
        model=SubspaceModel(*steps.model(), np.array(trace)),
        alpha=alpha_wv,
        active_count_trace=np.array(ks, dtype=int),
        stop_reason=stop_reason,
    )


def _sigma_terms(kernel, rn, sigma, comp):
    """``kernel(rn, sigma) / comp`` and its sum, for the sigma-loss or its
    IRLS coefficient.  A sum that overflows (or a term that does, or is
    0/0) raises the ValidationError that names the overflow, and no float
    warning escapes before it."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = kernel(rn, sigma) / comp
        total = float(np.sum(terms))
    if not np.isfinite(total):
        what = "sigma-loss" if kernel is loss_kernel else "IRLS coefficient"
        raise ValidationError(
            f"the {what} overflows at sigma={sigma:.3g} and norms up to {np.max(rn):.3g}; "
            "scale the data and sigma down together")
    return terms, total


class _ScatterSteps:
    """The basis steps in d-space, the route of tall data.

    Each step moves the mean to ``X @ eta / sum(eta)``, centres the data,
    and takes the basis ``W`` from :func:`top_eigenpairs` of the
    eta-weighted scatter, the coordinates ``V = W.T @ Xc`` and the residual
    norms ``rn``.  The first step uses the sample mean and unit weights.
    """

    def __init__(self, X, c):
        self.X, self.c = X, c
        # The d-by-n intermediates live in two work arrays: Xc holds the
        # centred data, T the weighted data and then the residual.
        self.Xc, self.T = np.empty_like(X), np.empty_like(X)
        self._scatter_step(X.mean(axis=1), np.ones(X.shape[1]))

    def _scatter_step(self, m, eta):
        np.subtract(self.X, m[:, None], out=self.Xc)
        _, self.W = top_eigenpairs(self.Xc, self.c, eta)
        self.m, self.V = m, self.W.T @ self.Xc
        self.rn = _residual_norms(self.Xc, self.W, self.V, self.T)

    def step(self, eta):
        """One basis step at the coefficients ``eta``; returns the residual norms."""
        np.multiply(self.X, eta, out=self.T)
        self._scatter_step(self.T.sum(axis=1) / eta.sum(), eta)
        return self.rn

    def model(self):
        """``(W, m, V)`` of the last step."""
        return self.W, self.m, self.V


class _GramSteps(_ScatterSteps):
    """The basis steps of wide data (``gram_route``), carried in n-space.

    The fit forms ``K = X0.T @ X0`` once, with ``X0`` the data centred at
    the sample mean.  A step's mean is ``X @ beta`` with ``beta = eta /
    sum(eta)``; as ``sum(beta) = 1`` its centred data are ``Xc = X0 (I -
    beta 1')``, whose Gram is ``G = K - a 1' - 1 a' + (a'beta) 1 1'`` with
    ``a = K beta``.  :func:`_gram_eigenpairs` gives the basis as ``W = Xc
    B`` for an n-by-c block ``B``, the coordinates are ``V = W.T Xc = B'G``,
    the orthonormality test ``W'W = V B`` is c-by-c, the squared residual
    norms are ``diag(G) - |v_i|^2``, and the previous basis's coordinates
    at the new mean are ``V - (V beta) 1'``: every step after the first
    passes them as the eigensolve's start block.  Only the last step maps
    ``B`` to d-space, in :meth:`model`.

    Two guards keep the accuracy of a Gram formed afresh.  Column i of the
    update carries a rounding error of about eps times ``b_i = K_ii +
    2|a_i| + |a'beta|``; when some ``b_i`` exceeds ``_REANCHOR`` times
    ``G_ii`` (the mean has moved close to that sample), ``K`` is formed
    again at the current mean.  And ``diag(G) - |v_i|^2`` inherits that
    absolute error, so a squared residual below ``_DIRECT`` times ``b_i``
    is computed from its d-space column instead.  An exact fit then stays
    exact (the n-space form would leave residuals of ``sqrt(eps b_i)``),
    and a slowly converging one as close to the dense fit as d-space
    residuals keep it.  ``W`` drifts from orthonormal like eps lambda_1 /
    lambda_c, so when ``V B`` misses the identity by more than 1e-12, ``B``
    and ``V`` become ``B L^-T`` and ``L^-1 V``, with ``L L' = V B``
    (Cholesky): an orthonormal basis of the same span.  A Gram that is not
    finite, has no gap at c or fails that Cholesky gives no basis; that step
    runs in d-space, from the thin SVD of ``Xc sqrt(eta)`` by the solver
    ``top_eigenpairs`` shares (see :meth:`_scatter_step`).
    """

    def __init__(self, X, c):
        self.X, self.c = X, c
        self.Xc, self.T = np.empty_like(X), np.empty_like(X)
        self.m = X.mean(axis=1)
        X0 = X - self.m[:, None]
        self.K = X0.T @ X0
        self.beta = None
        eta = np.ones(X.shape[1])
        if not self._gram_step(self.K, self.K.diagonal(), eta, None):
            self._scatter_step(self.m, eta)

    def _centred(self):
        """The data centred at the current mean, in the work array ``Xc``."""
        m = self.m if self.beta is None else self.X @ self.beta
        return np.subtract(self.X, m[:, None], out=self.Xc), m

    def step(self, eta):
        self.beta = beta = eta / eta.sum()
        K = self.K
        a = K @ beta
        ab = a @ beta
        bound = K.diagonal() + 2.0 * np.abs(a) + abs(ab)
        if np.any(bound > _REANCHOR * (K.diagonal() - 2.0 * a + ab)):
            Xc, _ = self._centred()
            self.K = G = Xc.T @ Xc
            bound = G.diagonal()
        else:
            G = K - a
            G -= a[:, None]
            G += ab
        if not self._gram_step(G, bound, eta, self.V - (self.V @ beta)[:, None]):
            self._scatter_step(self.X @ beta, eta)
        return self.rn

    def _scatter_step(self, m, eta):
        """The step of a Gram with no basis: ``W`` from the thin SVD of
        ``Xc sqrt(eta)`` that ``top_eigenpairs`` falls through to on wide
        data, called directly, as ``top_eigenpairs`` would solve the Gram a
        second time."""
        np.subtract(self.X, m[:, None], out=self.Xc)
        B = np.multiply(self.Xc, np.sqrt(eta), out=self.T)
        _, self.W = _svd_top_eigenpairs(B, self.c)
        self.m, self.V = m, self.W.T @ self.Xc
        self.rn = _residual_norms(self.Xc, self.W, self.V, self.T)

    def _gram_step(self, G, bound, eta, start):
        """The step on the centred Gram ``G``; False when it has no basis."""
        pairs = _gram_eigenpairs(G, self.c, eta, self.X.shape[0], start)
        self.pairs = None
        if pairs is None:
            return False
        evals, Y = pairs
        B = Y / np.sqrt(evals)
        V = B.T @ G
        M = V @ B
        if not _orthonormal(M):
            try:
                L = np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                return False
            B = np.linalg.solve(L, B.T).T
            V = np.linalg.solve(L, V)
        r2 = G.diagonal() - np.einsum("ij,ij->j", V, V)
        direct = r2 < _DIRECT * bound
        if np.any(direct):
            Xc, _ = self._centred()
            W = Xc @ B
            cols = Xc[:, direct]
            cols -= W @ (W.T @ cols)
            r2[direct] = np.einsum("ij,ij->j", cols, cols)
        self.pairs, self.eta, self.V, self.rn = pairs, eta, V, np.sqrt(r2)
        return True

    def model(self):
        if self.pairs is None:
            return super().model()
        Xc, m = self._centred()
        _, W = _mapped_basis(Xc, *self.pairs, np.sqrt(self.eta))
        return W, m, W.T @ Xc


# _GramSteps' re-anchoring and direct-residual thresholds.
_REANCHOR = 16.0
_DIRECT = 1e-3


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
    if not isinstance(model, SubspaceModel):
        raise ValidationError(f"model must be a SubspaceModel, got {model!r}")
    Yv = Y.values if isinstance(Y, DataMatrix) else real_array(Y, "samples", 2, finite=False)
    if Yv.shape[0] != model.basis.shape[0]:
        raise DimensionError(
            f"expected {model.basis.shape[0]} feature rows, got shape {Yv.shape}"
        )
    return model.basis.T @ (Yv - model.translation[:, None])


def reconstruct(model: SubspaceModel, V) -> np.ndarray:
    """Map coordinates back to feature space: W V + m 1^T."""
    if not isinstance(model, SubspaceModel):
        raise ValidationError(f"model must be a SubspaceModel, got {model!r}")
    V = real_array(V, "coordinates", 2, finite=False)
    if V.shape[0] != model.target_rank:
        raise DimensionError(
            f"expected {model.target_rank} coordinate rows, got shape {V.shape}"
        )
    return model.basis @ V + model.translation[:, None]

