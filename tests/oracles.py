"""Independent reference computations the tests compare the library against.

Everything here is deliberately implemented from first principles (no reuse
of package internals): a projected-gradient minimizer over the simplex, a
brute-force activation-count scan, subspace comparison via principal angles,
and a point-by-point k-means++/Lloyd run.  ``sweep_problem`` draws the
seeded wide problems of the outlier sweep that several fit tests revisit.
"""

import math

import numpy as np


def project_simplex(v):
    """Euclidean projection of v, or of each row of v, onto {w : w >= 0, sum w = 1}."""
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, v.shape[-1])
    n = rows.shape[1]
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    # rho is the last index where the sorted value stays above the threshold.
    rho = n - 1 - np.argmax((u * np.arange(1, n + 1) > (css - 1))[:, ::-1], axis=1)
    theta = (css[np.arange(len(rows)), rho] - 1.0) / (rho + 1)
    return np.maximum(v - theta.reshape(v.shape[:-1] + (1,)), 0.0)


def simplex_weight_oracle(f, iters=4000):
    """Minimize sum f_i/(1-w_i) over the simplex by projected gradient.

    ``f`` is one loss vector, or a matrix whose rows are loss vectors of one
    length, each minimized on its own.  Returns (weights, objective), with a
    row of weights and an objective per loss vector.  Slow but independent
    of any closed form.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    w = np.full(f.shape, 1.0 / n)

    def obj(w):
        return np.sum(f / (1.0 - w), axis=-1)

    best_w, best = w, obj(w)
    for t in range(iters):
        g = f / (1.0 - w) ** 2
        step = 0.5 / (1 + t) ** 0.5 / (np.sqrt(np.sum(g * g, axis=-1, keepdims=True)) + 1e-12)
        # Mixing in 1e-9 of the uniform point keeps every w_i below 1, where
        # the objective has its pole, even when the projection returns a vertex.
        w = (1 - 1e-9) * project_simplex(w - step * g) + 1e-9 / n
        val = obj(w)
        better = val < best
        best_w = np.where(better[..., None], w, best_w)
        best = np.where(better, val, best)
    return best_w, (float(best) if f.ndim == 1 else best)


def activation_count_candidates(f):
    """All k in [2, n] satisfying the sorted-loss optimality constraint."""
    f = np.asarray(f, dtype=float)
    n = f.size
    s = np.sqrt(np.sort(f))
    prefix = np.cumsum(s)
    hits = []
    for k in range(2, n + 1):
        lam_sqrt = prefix[k - 1] / (k - 1)
        lower = s[k - 1] < lam_sqrt
        upper = (lam_sqrt <= s[k]) if k < n else True
        if lower and upper:
            hits.append(k)
    return hits


def largest_principal_angle(W1, W2):
    """Largest principal angle (radians) between the column spans of W1, W2."""
    q1 = np.linalg.qr(W1)[0]
    q2 = np.linalg.qr(W2)[0]
    svals = np.linalg.svd(q1.T @ q2, compute_uv=False)
    return float(np.arccos(np.clip(svals.min(), -1.0, 1.0)))


def align_basis_signs(W_ref, W):
    """Flip columns of W so each correlates positively with W_ref's column."""
    signs = np.sign(np.sum(W_ref * W, axis=0))
    signs[signs == 0] = 1.0
    return W * signs


def kmeans_oracle(P, k, gen, max_iter=300):
    """k-means++ seeding then Lloyd iterations, one point and one centre at a time.

    ``P`` holds the points as columns.  The draws from ``gen`` are the
    library's: the first centre is ``gen.integers(n)``, each later one
    ``gen.choice(n, p=D2 / sum(D2))`` over the squared distances to the
    nearest centre so far (``gen.integers(n)`` again when every point sits
    on a centre).  Each assignment takes the first nearest centre.  Then each
    empty cluster, in index order, is re-seeded at the point farthest from
    its assigned centre (distances as computed before any re-seed of that
    iteration; the first such point), and that point joins it.  The run
    stops when the assignment repeats; a cluster left empty keeps its centre.
    Returns ``(labels, reseeds)``: the labels as a list and how many
    re-seeds happened.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[1]
    points = [[float(v) for v in P[:, i]] for i in range(n)]

    def sq_dist(a, b):
        return sum((x - y) ** 2 for x, y in zip(a, b))

    centres = []
    nearest = [math.inf] * n
    for j in range(k):
        total = sum(nearest) if j else 0.0
        if total > 0:
            pick = int(gen.choice(n, p=np.array(nearest) / total))
        else:
            pick = int(gen.integers(n))
        centres.append(list(points[pick]))
        nearest = [min(nearest[i], sq_dist(points[i], centres[j])) for i in range(n)]

    labels, reseeds = None, 0
    for _ in range(max_iter):
        dist = [[sq_dist(points[i], centres[j]) for j in range(k)] for i in range(n)]
        assigned = [min(range(k), key=lambda j: dist[i][j]) for i in range(n)]
        for j in range(k):
            if j not in assigned:
                worst = max(range(n), key=lambda i: dist[i][assigned[i]])
                centres[j] = list(points[worst])
                assigned[worst] = j
                reseeds += 1
        if assigned == labels:
            break
        labels = assigned
        for j in range(k):
            members = [points[i] for i in range(n) if labels[i] == j]
            if members:
                centres[j] = [sum(coords) / len(members) for coords in zip(*members)]
    return labels, reseeds


def gauge_oracle(evals, evecs):
    """The eigenvector gauge of ``top_eigenpairs``, one run of ties at a time.

    Each column is flipped so its largest-|entry| (the first such) is
    positive; then within each run of exactly equal eigenvalues (sorted
    descending) the columns are sorted descending by Python's tuple order.
    """
    pivot = np.argmax(np.abs(evecs), axis=0)
    signs = np.where(evecs[pivot, np.arange(evecs.shape[1])] < 0, -1.0, 1.0)
    evecs = evecs * signs

    k = evals.size
    start = 0
    while start < k:
        stop = start + 1
        while stop < k and evals[stop] == evals[start]:
            stop += 1
        if stop - start > 1:
            block = sorted(
                (tuple(evecs[:, j]) for j in range(start, stop)), reverse=True
            )
            evecs[:, start:stop] = np.array(block).T
        start = stop
    return evals, evecs


def sweep_problem(seed):
    """Problem ``seed`` of the outlier sweep (seeds 0-199): ``(X, c)``.

    A rank-c plane in d in [60, 400) features, n in [20, 80) samples and
    c in [1, 6), around one offset drawn from U(-50, 50), with coordinates
    3 N(0, 1) and noise 0.05 N(0, 1).  The first k columns, k in
    [1, max(2, n // 5)), get gross outliers 10**U(0, 3) N(0, 1).  Almost
    every problem is wide (c < n < d); on some the fitted weights or
    coefficients pin one sample, which strains the basis step.
    """
    gen = np.random.default_rng(seed)
    d, n, c = int(gen.integers(60, 400)), int(gen.integers(20, 80)), int(gen.integers(1, 6))
    X = (gen.uniform(-50, 50) + np.linalg.qr(gen.standard_normal((d, c)))[0]
         @ (3.0 * gen.standard_normal((c, n))) + 0.05 * gen.standard_normal((d, n)))
    k = int(gen.integers(1, max(2, n // 5)))
    X[:, :k] += 10 ** gen.uniform(0, 3) * gen.standard_normal((d, k))
    return X, c
