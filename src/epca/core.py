"""Shared containers: data matrices, seeded RNG streams, the argument rules,
and the deterministic weighted-scatter eigendecomposition used by every
subspace method in the package.

``top_eigenpairs(A, c, weights)`` is the public eigensolver.  On wide data
(c < n < d) it reads the top c+1 eigenpairs of the n-by-n Gram of the
weighted data, at O(d n^2 + n^3) plus O(d n c) for the mapping to
d-dimensional eigenvectors; a mapped basis that is not orthonormal to 1e-12
is repaired by one Rayleigh-Ritz step, and the route falls through to one
thin SVD of the weighted d-by-n data (``_svd_top_eigenpairs``, at O(d n^2))
on an overflow or an eigenvalue tie at the c boundary, so wide data never
form a d-by-d matrix; only tall or square data, or c >= n, take a full
``eigh`` of the d-by-d scatter.  The Gram eigensolve itself,
``_gram_eigenpairs``, and that SVD are shared with the alternating fit,
which keeps its own Gram and passes a start block (its previous
coordinates).  The Gram's order alone picks the solver: up to
``_SMALL_GRAM`` numpy's full ``eigh``; above it Chebyshev-filtered block
subspace iteration at O(n^2 c) per product with the Gram, from the start
block or, without one, from the Gram applied to a fixed Gaussian block, and
scipy's subset ``eigh`` at O(n^3) when the iteration gives up, which it does
once it would cost more than that ``eigh``; only that branch loads
``scipy.linalg``."""

from __future__ import annotations

import numbers
import operator
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError

_EPS = np.finfo(float).eps
# The filtered Gram iteration: the degree of its Chebyshev filter, its
# budget of products with the Gram, the Rayleigh-Ritz steps before its rate
# of convergence is trusted, then its stopping tolerances relative to
# lambda_1 and to the gap at the c boundary.  At n = 300 and c = 10 (one BLAS
# thread) a Rayleigh-Ritz step with its two further products takes about
# 0.29 ms and a subset eigh 5.0 ms, so the 15 steps (43 products) of the
# budget cost about one subset eigh.
_DEGREE = 3
_MAX_PRODUCTS = 45
_SETTLE_STEPS = 4
_RES_TOL = 1e-14
_GAP_TOL = 1e-13
# The largest Gram order whose eigenpairs come from numpy's full eigh, with
# or without a start block; above it every call runs the iteration.  Whole
# wide fits (d = 400, rank 5, 10% outlier columns, seeds 0-2, sigma = 1,
# one BLAS thread; sums of best-of-15 fit times in ms with every Gram call
# by the full eigh, or by the iteration and the subset eigh):
#   n                       40    60    70    80    90   100   125   150   200
#   c = 5     full eigh   22.9  18.5  21.0  23.1  22.9  26.9  34.8  48.7  77.4
#             iteration   38.7  18.7  18.9  17.3  15.9  16.1  16.1  17.2  20.5
#   c = 6..9  full eigh    108   125   184   257   376   428   469   788  1324
#             iteration    174   138   163   193   243   258   243   359   548
# These cross between n = 60 and 70.  Thresholds of 64 and 72 made epca_fit
# at n = 80 (d = 320, c = 5 and 7) about 24% faster than 80 did, but
# fit_pca_om there and epca_fit at n = 60 1-3% slower, so 80 is kept.
# No benchmark workload has a wide Gram below order 300, so only these
# timings and the tests cover the choice.
_SMALL_GRAM = 80


@dataclass
class DataMatrix:
    """Dense real matrix whose columns are samples.

    ``values`` has shape (d, n): d features (rows) by n samples (columns),
    checked and put in C memory order by :func:`real_array`, and there must
    be at least two samples.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = real_array(self.values, "matrix", 2)
        d, n = self.values.shape
        if d < 1:
            raise DimensionError("need at least one feature row")
        if n < 2:
            raise DimensionError(f"need at least two sample columns, got {n}")

    @property
    def feature_count(self) -> int:
        return self.values.shape[0]

    @property
    def sample_count(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RngHandle:
    """Deterministic random stream identified by a seed plus a derivation path.

    The same (seed, path) pair always yields the same draw sequence, on any
    platform.  Child streams created with :meth:`derive` are statistically
    independent of the parent and of each other, which lets callers fan work
    out (grid cells, k-means restarts) without the execution order changing
    any result.
    """

    seed: int
    path: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "seed", as_seed(self.seed))
        if not isinstance(self.path, tuple):
            raise ValidationError(f"path must be a tuple of derivation keys, got {self.path!r}")
        path = tuple(as_integer(key, "derivation key") for key in self.path)
        for key in path:
            if not 0 <= key < 2**32:
                raise ValidationError(
                    f"integer derivation keys must fit in 32 bits, got {key!r}"
                )
        object.__setattr__(self, "path", path)

    def derive(self, *keys) -> "RngHandle":
        """Child handle for a sub-task; keys may be ints or short strings."""
        keys = tuple(
            zlib.crc32(key.encode("utf-8")) if isinstance(key, str) else key for key in keys
        )
        return RngHandle(self.seed, self.path + keys)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this handle's stream."""
        # The entropy layout (two fixed seed words, the path length, then the
        # 32-bit path words) maps distinct handles to distinct sequences even
        # though SeedSequence ignores trailing zero words: the length word
        # pins how many path entries follow.
        entropy = [self.seed & 0xFFFFFFFF, self.seed >> 32, len(self.path), *self.path]
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def as_integer(value, name: str) -> int:
    """``value`` as a Python int; any integer type (numpy's too) but bool is accepted."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def as_count(value, name: str) -> int:
    """``value`` as a Python int of at least 1: an iteration budget or any other count."""
    count = as_integer(value, name)
    if count < 1:
        raise ValidationError(f"{name} must be >= 1, got {count}")
    return count


def as_seed(value) -> int:
    """``value`` as a Python int seed, which must fit in 64 unsigned bits."""
    seed = as_integer(value, "seed")
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in an unsigned 64-bit integer")
    return seed


def check_tol(tol) -> None:
    """Validate a convergence tolerance: a finite real number >= 0."""
    if not (is_real(tol) and 0 <= tol < np.inf):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")


def is_real(value) -> bool:
    """Whether ``value`` is a real number of any type (numpy's too) but bool
    that converts to a float (a Python int may lie beyond the float range)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def real_array(values, name: str, ndim: int, *, finite: bool = True) -> np.ndarray:
    """``values`` as a C-ordered float64 array with ``ndim`` axes; the check
    of every real-valued array argument.

    Entries of boolean, integer or float type are accepted.  Complex,
    string, object or ragged input is a ``ValidationError``, and so is a
    NaN/Inf entry unless ``finite`` is False; the wrong number of axes is a
    ``DimensionError``.  A C-ordered float64 array is returned as it is;
    other input is copied, as C order fixes the last bits of a result (a
    row sum adds a C-ordered row pairwise, an F-ordered one by columns).
    """
    try:
        raw = np.asarray(values)
    except ValueError as exc:
        raise ValidationError(f"{name} rows must all have the same length ({exc})") from None
    if raw.dtype.kind not in "biuf":
        raise ValidationError(f"{name} entries must be real numbers, got {raw.dtype} entries")
    if raw.ndim != ndim:
        shape = "vector" if ndim == 1 else "matrix"
        raise DimensionError(f"{name} must be a {ndim}-D {shape}, got ndim={raw.ndim}")
    arr = np.ascontiguousarray(raw, dtype=float)
    if finite and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} entries must be finite (no NaN/Inf)")
    return arr


def check_rank(c, limit: int) -> int:
    """Validate a target rank: an integer with ``1 <= c <= limit``."""
    c = as_integer(c, "rank c")
    if not 1 <= c <= limit:
        raise DimensionError(f"need 1 <= c <= {limit}, got c={c}")
    return c


def gram_route(d: int, n: int, c: int) -> bool:
    """Whether :func:`top_eigenpairs` and the alternating fit of d-by-n data
    at rank c work on the n-by-n Gram (wide data, ``c < n < d``) instead of
    the d-by-d scatter."""
    return c < n < d


def top_eigenpairs(A: np.ndarray, c: int, weights) -> tuple[np.ndarray, np.ndarray]:
    """Leading eigenpairs of a weighted scatter, under a fixed gauge.

    ``A`` is a d-by-n matrix (the solvers pass centred data) and ``weights``
    holds n nonnegative weights; the eigenpairs are those of the scatter
    ``(A * weights) @ A.T``.  Returns ``(eigenvalues, eigenvectors)`` with
    the c largest eigenvalues in descending order and eigenvectors as the
    columns of a d-by-c orthonormal matrix.  Every array argument is checked
    by :func:`real_array`; NaN/Inf in ``A`` is left to the finiteness checks
    of the Gram and the scatter.

    When ``c < n < d`` the scatter shares its nonzero eigenvalues with the
    n-by-n weighted Gram ``G = diag(s) A.T A diag(s)``, ``s = sqrt(weights)``.
    Its top c+1 eigenpairs ``(lambda, v)`` come from
    :func:`_gram_eigenpairs`, and the eigenvectors are ``A @ (s * v) /
    sqrt(lambda)``, at O(d n^2 + n^3) instead of the O(d^3) full ``eigh``.
    That result is kept only when ``G`` is finite and the gap between the c-th
    and (c+1)-th eigenvalue is above rounding (an exact tie, or c above the
    rank of the data, lets the two routes pick different equally valid
    subspaces).  The mapped basis drifts from orthogonality like
    ``eps * lambda_1 / lambda_c`` while its span stays as accurate as the
    Gram's eigenvectors, so a basis that is not orthonormal to 1e-12 is
    replaced by one Rayleigh-Ritz step on its span (a QR, then an ``eigh`` of
    the c-by-c projected Gram), which is orthonormal by construction.
    Otherwise the eigenpairs come from one thin SVD of ``B = A *
    sqrt(weights)`` at O(d n^2) (:func:`_svd_top_eigenpairs`): wide data
    never form a d-by-d matrix.  For tall or square data, or c >= n, the
    scatter ``B @ B.T`` (``A @ A.T`` for unit weights) is built and
    decomposed by a full ``eigh``.

    The gauge convention makes the output reproducible:

    * each eigenvector is flipped so its largest-magnitude entry is positive
      (ties broken by the lowest index);
    * eigenvectors belonging to exactly equal eigenvalues are ordered by
      descending lexicographic comparison of their entries.

    The convention matters because downstream invariance checks compare bases
    between runs; an arbitrary eigenvector sign would break them.
    """
    A = real_array(A, "A", 2, finite=False)
    d, n = A.shape
    c = check_rank(c, d)
    w = real_array(weights, "weights", 1)
    if w.shape != (n,):
        raise DimensionError(f"weights shape {w.shape} != ({n},)")
    if np.any(w < 0):
        raise ValidationError("weights must be nonnegative")

    if gram_route(d, n, c):
        # numpy forms A.T @ A by a symmetric rank-k update.
        pairs = _gram_eigenpairs(A.T @ A, c, w, d)
        if pairs is not None:
            return _mapped_basis(A, *pairs, np.sqrt(w))
        # A non-finite Gram or a tie at the boundary falls through to the
        # thin SVD, whose finiteness checks report an overflow.
        return _svd_top_eigenpairs(A * np.sqrt(w), c)
    # numpy forms B @ B.T by a symmetric rank-k update: an exactly
    # symmetric scatter.
    B = A * np.sqrt(w)
    return _dense_top_eigenpairs(B @ B.T, c)


def _gram_eigenpairs(gram, c, weights, d, start=None):
    """Top-c eigenpairs of the weighted scatter of d-by-n data ``A``, read
    from its Gram ``gram = A.T @ A`` (only read): ``(lambda, Y)``, with the c
    largest eigenvalues, descending, and ``Y = s * v``, ``v`` the n-by-c
    eigenvectors of ``G = diag(s) gram diag(s)``, ``s = sqrt(weights)``, so
    that the scatter's eigenvectors are ``A @ Y / sqrt(lambda)``.  None when
    ``G`` is not finite or has no gap above rounding between its c-th and
    (c+1)-th eigenvalues.

    The order n of ``G`` alone picks the solver.  Up to ``_SMALL_GRAM`` it
    is numpy's full ``eigh``.  Above it, Chebyshev-filtered block subspace
    iteration (``_subspace_iteration``) runs from ``s * start``, with
    ``start`` the c-by-n block ``W.T @ A`` of the data's coordinates in an
    approximate basis ``W`` (the alternating fit passes its previous
    coordinates), or without one from the range-finder block
    ``(G @ Omega).T``, ``Omega`` an n-by-c Gaussian block from a fixed seed,
    so a call's result depends on its input alone.  When the iteration
    gives up (within 45 products with ``G``, about the time of one subset
    ``eigh`` at n = 300), scipy's subset ``eigh`` at O(n^3) gives the pairs.
    """
    s = np.sqrt(weights)
    G = np.multiply(gram, s)
    G *= s[:, None]
    if not np.all(np.isfinite(G)):
        return None
    n = G.shape[0]
    if n <= _SMALL_GRAM:
        evals, V = np.linalg.eigh(G)
        evals, V = evals[::-1], V[:, ::-1]
    else:
        if start is None:
            # A range-finder start: the Gram applied to a fixed Gaussian block.
            block = (G @ np.random.default_rng(0).standard_normal((n, c))).T
        else:
            block = s * start
        pairs = _subspace_iteration(G, block, c)
        evals, V = _direct_eigenpairs(G, c) if pairs is None else pairs
    if not evals[c - 1] - evals[c] > d * _EPS * evals[0]:
        return None
    return evals[:c], s[:, None] * V[:, :c]


def _direct_eigenpairs(G, c):
    """Top c+1 eigenpairs of the n-by-n Gram ``G``, descending, by scipy's
    subset ``eigh``, which may overwrite ``G``: the one place the package
    loads ``scipy.linalg``."""
    from scipy.linalg import eigh

    n = G.shape[0]
    # G.T is the Fortran-ordered view that LAPACK overwrites without a copy;
    # it equals G up to the last bit of the scaling.
    evals, V = eigh(G.T, subset_by_index=[n - c - 1, n - 1], overwrite_a=True,
                    check_finite=False)
    return evals[::-1], V[:, ::-1]


def _mapped_basis(A, evals, Y, s):
    """The gauged scatter eigenpairs ``A @ Y / sqrt(evals)`` of
    :func:`_gram_eigenpairs`, with one Rayleigh-Ritz step when the mapped
    basis is not orthonormal to 1e-12."""
    U = (A @ Y) / np.sqrt(evals)
    if not _orthonormal(U.T @ U):
        evals, U = _rayleigh_ritz(A, s, U)
    return _apply_gauge(evals, U)


def _orthonormal(gram):
    """Whether a basis with the c-by-c Gram ``gram`` is orthonormal to 1e-12."""
    return np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12


def _subspace_iteration(G, B, c):
    """Top c+1 eigenpairs of the n-by-n Gram ``G``, descending, by
    Chebyshev-filtered block subspace iteration from the rows of the c-by-n
    block ``B``; None when it does not converge within ``_MAX_PRODUCTS``
    products with ``G``.

    The block gets one fixed extra row, a data-independent vector, for the
    (c+1)-th pair.  Each Rayleigh-Ritz step multiplies the orthonormal block
    ``Q`` by ``G`` and takes the Ritz pairs ``(theta, V)`` of its span.  It
    stops when every residual ``|G v - theta v|`` of the top c is at the
    rounding level of ``theta_1`` and far below the gap between ``theta_c``
    and ``upper = theta_{c+1} + res_{c+1}``, the upper estimate of
    ``lambda_{c+1}`` that is returned in place of ``theta_{c+1}``.
    Otherwise the next ``Q`` is the QR of ``T_k(2 G / upper - I) V``, with
    ``T_k`` the Chebyshev polynomial of degree k = ``_DEGREE`` (Zhou, Saad,
    Tiago & Chelikowsky, J. Comput. Phys. 219, 2006): it keeps every
    eigenvalue in ``[0, upper]`` below 1 in magnitude and lifts those above
    like ``T_k(2 lambda / upper - 1)``, so the top c converge at the rate of
    their gap to ``upper`` alone.  Its first degree is ``G V``, which the
    Rayleigh-Ritz step has formed, so a step takes k products at O(n^2 c)
    each and one QR; on the wide fit's Grams it needs about a third of the
    Rayleigh-Ritz steps of the plain iteration ``Q = qr(G Q)``, whose fixed
    costs (the QR, the small ``eigh``, the residuals) dominate its time.
    """
    n = G.shape[0]
    steps = (_MAX_PRODUCTS - 1) // _DEGREE  # filtered steps after the first
    Q = np.linalg.qr(np.vstack([B, np.cos(np.arange(n) + 0.5)]).T)[0]
    r_prev = np.inf
    for step in range(steps + 1):
        Y = G @ Q
        theta, Z = np.linalg.eigh(Q.T @ Y)
        theta, Z = theta[::-1], Z[:, ::-1]
        V, X = Q @ Z, Y @ Z
        res = np.linalg.norm(X - V * theta, axis=0)
        upper = theta[c] + res[c]
        r = np.max(res[:c])
        if r <= min(_RES_TOL * theta[0], _GAP_TOL * (theta[c - 1] - upper)):
            theta[c] = upper
            return theta, V
        # A narrow gap at c (a near tie, or c beyond the data's signal rank)
        # converges too slowly for the budget, and residuals at their
        # rounding floor stop falling: give up as soon as a step makes no
        # progress or, once the start block's transient has settled, when
        # the last step's rate would not reach rounding level in the
        # filtered steps left.
        if r >= r_prev or (step >= _SETTLE_STEPS and r * (r / r_prev) ** (
                steps - step) > _RES_TOL * theta[0]):
            return None
        r_prev = r
        # T_k(G / half - I) V by the three-term recurrence, from X = G V.
        half = max(upper, _EPS * theta[0]) / 2.0
        X_prev, X = V, X / half - V
        for _ in range(_DEGREE - 1):
            X_prev, X = X, 2.0 * ((G @ X) / half - X) - X_prev
        Q = np.linalg.qr(X)[0]
    return None


def _rayleigh_ritz(A, s, U):
    """Eigenpairs of the weighted scatter restricted to span(U), descending."""
    Q = np.linalg.qr(U)[0]
    P = s[:, None] * (A.T @ Q)
    evals, Y = np.linalg.eigh(P.T @ P)
    return evals[::-1], Q @ Y[:, ::-1]


def _dense_top_eigenpairs(S, c):
    """Top-c eigenpairs of the d-by-d scatter ``S``, read as symmetric (``eigh``
    uses its lower triangle only), by a full ``eigh``, gauged."""
    if not np.all(np.isfinite(S)):
        raise ValidationError("matrix entries must be finite")
    # eigh returns the eigenvalues in ascending order.
    evals, evecs = np.linalg.eigh(S)
    evals, evecs = _apply_gauge(evals[::-1], evecs[:, ::-1])
    return evals[:c].copy(), evecs[:, :c].copy()


def _svd_top_eigenpairs(B, c):
    """Top-c eigenpairs of the scatter ``B @ B.T`` of the d-by-n matrix ``B``
    (n < d), from one thin SVD of ``B`` at O(d n^2), gauged over all n
    columns as the dense route gauges all d.  Its error scales with sigma_1 =
    sqrt(lambda_1), where an eigh of the Gram or of the scatter errs by eps
    lambda_1."""
    if not np.all(np.isfinite(B)):
        raise ValidationError("matrix entries must be finite")
    U, S, _ = np.linalg.svd(B, full_matrices=False)
    # The top eigenvalue S[0]**2 bounds every squared residual norm.
    with np.errstate(over="ignore"):
        evals = S[:c] * S[:c]
    if not np.isfinite(evals[0]):
        raise ValidationError("matrix entries must be finite")
    return evals, _apply_gauge(S, U)[1][:, :c].copy()


def _apply_gauge(evals, evecs):
    """Sign and tie gauge of eigenvectors sorted by descending eigenvalue."""
    # Sign gauge: largest-|entry| positive, ties resolved at the lowest index.
    pivot = np.argmax(np.abs(evecs), axis=0)
    signs = np.where(evecs[pivot, np.arange(evecs.shape[1])] < 0, -1.0, 1.0)
    evecs = evecs * signs

    # Within a run of exactly equal eigenvalues, order the (sign-fixed)
    # vectors descending-lexicographically so e.g. the identity yields e1, e2.
    # lexsort is stable and takes its last key first: the run, then the
    # entries from the first.
    run = np.concatenate([[0], np.cumsum(evals[1:] != evals[:-1])])
    if run[-1] < evals.size - 1:
        evecs = evecs[:, np.lexsort(np.vstack([-evecs[::-1], run]))]
    return evals, evecs
