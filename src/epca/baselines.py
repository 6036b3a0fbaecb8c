"""Reference subspace methods the weighted fit is compared against."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DataMatrix, check_rank, top_eigenpairs
from .errors import DimensionError, ValidationError
from .solver import _alternate

_METHOD_TAGS = ("classical_pca", "pca_om")


@dataclass
class BaselineModel:
    """Basis + translation from one of the reference methods.

    ``objective_trace`` carries the fitting objective per iteration for the
    iterative method (empty for classical PCA, which is a single
    eigendecomposition).
    """

    basis: np.ndarray
    translation: np.ndarray
    method_tag: str
    objective_trace: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        if self.method_tag not in _METHOD_TAGS:
            raise ValidationError(f"method_tag must be one of {_METHOD_TAGS}")
        W = np.asarray(self.basis, dtype=float)
        gram_err = np.max(np.abs(W.T @ W - np.eye(W.shape[1])))
        if gram_err > 1e-10:
            raise DimensionError(f"basis is not orthonormal (max |W'W - I| = {gram_err:.2e})")
        self.basis = W
        self.translation = np.asarray(self.translation, dtype=float)


def fit_classical_pca(X: DataMatrix, c: int) -> BaselineModel:
    """Mean-centered PCA: top-c eigenvectors of the centered scatter matrix."""
    X = X if isinstance(X, DataMatrix) else DataMatrix(X)
    c = check_rank(c, X.feature_count - 1)
    m = X.values.mean(axis=1)
    Xc = X.values - m[:, None]
    _, W = top_eigenpairs(Xc, c, np.ones(X.sample_count))
    return BaselineModel(W, m, "classical_pca")


def fit_pca_om(X: DataMatrix, c: int, tol: float = 1e-8, max_iter: int = 100,
               sigma: float = 1e-8) -> BaselineModel:
    """Robust PCA with optimal mean: l2,1-loss subspace and translation.

    Runs the same alternating engine as the weighted fit with the sample
    weights frozen, at a sigma small enough (default 1e-8) that the loss is
    the l2,1 norm for practical purposes.  Passing a large sigma instead
    (e.g. 1e8) recovers classical PCA behavior, which the consistency tests
    rely on.
    """
    X = X if isinstance(X, DataMatrix) else DataMatrix(X)
    c = check_rank(c, X.feature_count - 1)
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValidationError("sigma must be a positive finite real")
    out = _alternate(X.values, c, sigma, tol, max_iter, learn_alpha=False)
    return BaselineModel(out["W"], out["m"], "pca_om",
                         objective_trace=out["objective_trace"])
