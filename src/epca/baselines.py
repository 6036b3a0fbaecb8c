"""Reference subspace methods the weighted fit is compared against."""

from __future__ import annotations

import numpy as np

from .core import DataMatrix, check_rank, top_eigenpairs
from .errors import ValidationError
from .solver import SubspaceModel, _alternate


def fit_classical_pca(X: DataMatrix, c: int) -> SubspaceModel:
    """Mean-centered PCA: top-c eigenvectors of the centered scatter matrix."""
    X = X if isinstance(X, DataMatrix) else DataMatrix(X)
    c = check_rank(c, X.feature_count - 1)
    m = X.values.mean(axis=1)
    Xc = X.values - m[:, None]
    _, W = top_eigenpairs(Xc, c, np.ones(X.sample_count))
    return SubspaceModel(W, m, c, W.T @ Xc)


def fit_pca_om(X: DataMatrix, c: int, tol: float = 1e-8, max_iter: int = 100,
               sigma: float = 1e-8) -> SubspaceModel:
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
    return SubspaceModel(out["W"], out["m"], c, out["V"], out["objective_trace"])
