"""Independent reference computations the tests compare the library against.

Everything here is deliberately implemented from first principles (no reuse
of package internals): a projected-gradient minimizer over the simplex, a
brute-force activation-count scan, subspace comparison via principal angles,
and a point-by-point k-means++/Lloyd run.
"""

import math

import numpy as np


def project_simplex(v):
    """Euclidean projection of v onto {w : w >= 0, sum w = 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1)
    return np.maximum(v - theta, 0.0)


def simplex_weight_oracle(f, iters=4000):
    """Minimize sum f_i/(1-w_i) over the simplex by projected gradient.

    Returns (weights, objective).  Slow but independent of any closed form.
    """
    f = np.asarray(f, dtype=float)
    n = f.size
    w = np.full(n, 1.0 / n)

    def obj(w):
        return float(np.sum(f / (1.0 - w)))

    best_w, best = w, obj(w)
    for t in range(iters):
        g = f / (1.0 - w) ** 2
        step = 0.5 / (1 + t) ** 0.5 / (np.linalg.norm(g) + 1e-12)
        # Mixing in 1e-9 of the uniform point keeps every w_i below 1, where
        # the objective has its pole, even when the projection returns a vertex.
        w = (1 - 1e-9) * project_simplex(w - step * g) + 1e-9 / n
        val = obj(w)
        if val < best:
            best_w, best = w, val
    return best_w, best


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
