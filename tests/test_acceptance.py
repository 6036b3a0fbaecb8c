"""End-to-end acceptance checks, one per advertised guarantee.

Each test is a single pass/fail line: weight-solver optimality, the unique
activation count, the two limits of the sigma-loss, the quadratic surrogate
bound, descent and stationarity of the alternating engine, rotation
invariance, the translation family of optima, gradient correctness, the
occlusion benchmark trends, and bit-identical harness reports.
"""

import csv
import time

import numpy as np

from epca import (
    CorruptionSpec,
    DataMatrix,
    ExperimentConfig,
    LabelVector,
    RngHandle,
    SigmaLossParams,
    corrupt,
    epca_fit,
    fit_classical_pca,
    fit_pca_om,
    mean_clustering_accuracy,
    reconstruction_error,
    run_experiment,
    solve_weights,
    transform,
)
from epca.sigmaloss import coefficient_kernel, loss_kernel
from oracles import activation_count_candidates, simplex_weight_oracle


def _structured_instance(t):
    """Low-rank + offset + noise + a few gross outlier columns."""
    rng = np.random.default_rng(60_000 + t)
    d = int(rng.integers(6, 21))
    n = int(rng.integers(30, 201))
    c = (2, 5)[t % 2]
    basis = np.linalg.qr(rng.standard_normal((d, c + 1)))[0]
    X = basis @ (rng.standard_normal((c + 1, n)) * 3.0)
    X += rng.standard_normal(d)[:, None]
    X += 0.1 * rng.standard_normal((d, n))
    out_idx = rng.choice(n, size=max(1, n // 10), replace=False)
    X[:, out_idx] += rng.standard_normal((d, out_idx.size)) * 5.0
    sigma = float(2.0 ** rng.integers(-10, 11))
    return X, c, SigmaLossParams(sigma)


def test_learned_weights_match_projected_gradient_oracle():
    # 200 random loss vectors: the closed-form solver's objective is never
    # worse than an independent projected-gradient minimizer (+1e-6), and the
    # solver itself stays under 5 s in total (the oracle runs untimed, on all
    # the vectors of one length at once).
    rng = np.random.default_rng(101)
    solver_time = 0.0
    by_length = {}
    for _ in range(200):
        n = int(rng.integers(3, 21))
        f = rng.uniform(0.05, 10.0, n)
        start = time.perf_counter()
        wv = solve_weights(f)
        solver_time += time.perf_counter() - start
        by_length.setdefault(n, []).append((f, np.sum(f / wv.complements)))
    for cases in by_length.values():
        losses, ours = zip(*cases)
        _, oracle = simplex_weight_oracle(np.array(losses), iters=2000)
        assert np.all(np.array(ours) <= oracle + 1e-6)
    assert solver_time < 5.0


def test_exactly_one_active_count_satisfies_the_threshold_window():
    # 1000 random distinct-positive loss vectors: the sorted-loss window
    # admits exactly one activation count, and it is the one the solver uses.
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(3, 21))
        f = rng.uniform(0.01, 5.0, n)
        while np.unique(f).size < n:
            f = rng.uniform(0.01, 5.0, n)
        hits = activation_count_candidates(f)
        assert len(hits) == 1
        assert hits[0] == solve_weights(f).active_count


def test_loss_limits_recover_column_norm_sum_and_squared_frobenius():
    # 100 random matrices: at sigma = 1e-8 the matrix loss matches the sum of
    # column norms, at sigma = 1e8 the squared Frobenius norm, both to 1e-6
    # relative.
    rng = np.random.default_rng(303)
    for _ in range(100):
        d, n = int(rng.integers(2, 9)), int(rng.integers(3, 15))
        A = rng.standard_normal((d, n))
        A = A / np.linalg.norm(A, axis=0) * rng.uniform(0.1, 10.0, n)
        l21 = float(np.linalg.norm(A, axis=0).sum())
        fro2 = float(np.sum(A * A))
        norms = np.linalg.norm(A, axis=0)
        small = np.sum(loss_kernel(norms, 1e-8))
        large = np.sum(loss_kernel(norms, 1e8))
        assert abs(small - l21) <= 1e-6 * l21
        assert abs(large - fro2) <= 1e-6 * fro2


def test_quadratic_surrogate_majorizes_the_loss_everywhere():
    # 10^4 random (x, y, sigma) triples: the reweighting surrogate built at y
    # upper-bounds the loss at x, with slack no worse than -1e-12.
    rng = np.random.default_rng(404)
    worst = np.inf
    for _ in range(10_000):
        dim = int(rng.integers(1, 8))
        x = rng.standard_normal(dim) * rng.uniform(0.0, 4.0)
        y = rng.standard_normal(dim) * rng.uniform(0.0, 4.0)
        sigma = 10.0 ** rng.uniform(-3.0, 3.0)
        rx, ry = np.linalg.norm(x), np.linalg.norm(y)
        d_y = coefficient_kernel(ry, sigma)
        slack = (loss_kernel(ry, sigma) + d_y * (rx * rx - ry * ry)
                 - loss_kernel(rx, sigma))
        worst = min(worst, slack)
    assert worst >= -1e-12


def test_alternating_engine_descends_and_reaches_stationarity():
    # 50 random fit_pca_om problems (d in [3, 12], n in [10, 60], c in
    # [1, d-1], sigma = 10^U(-2, 2)) on the alternating engine every fit runs:
    # the objective trace never rises (1e-9 relative slack), and on at least
    # 95% of instances the fit is stationary within the 100-iteration budget.
    # With P = I - W W', r_i = x_i - m and d_i the IRLS coefficient of
    # ||P r_i||, stationarity is ||P sum d_i r_i|| / sum d_i ||r_i|| < 1e-6 in
    # the translation and ||P S W|| / ||S|| < 1e-6 in the basis, where
    # S = sum d_i r_i r_i'.
    start = time.perf_counter()
    stationary = 0
    for t in range(50):
        rng = np.random.default_rng(5000 + t)
        d = int(rng.integers(3, 13))
        n = int(rng.integers(10, 61))
        c = int(rng.integers(1, d))
        X = rng.standard_normal((d, n)) * rng.uniform(0.5, 3.0)
        p = SigmaLossParams(10.0 ** rng.uniform(-2.0, 2.0))
        # tol=0 spends the whole iteration budget instead of stopping early.
        model = fit_pca_om(X, c, tol=0.0, max_iter=100, sigma=p.sigma)
        trace = model.objective_trace
        assert np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1]))
        W = model.basis
        P = np.eye(d) - W @ W.T
        R = X - model.translation[:, None]
        coeffs = coefficient_kernel(np.linalg.norm(P @ R, axis=0), p.sigma)
        S = (R * coeffs) @ R.T
        translation_residual = (np.linalg.norm(P @ (R @ coeffs))
                                / np.sum(coeffs * np.linalg.norm(R, axis=0)))
        basis_residual = np.linalg.norm(P @ S @ W) / np.linalg.norm(S)
        stationary += translation_residual < 1e-6 and basis_residual < 1e-6
    assert stationary >= 48  # at least 95% of the 50 instances
    assert time.perf_counter() - start < 5.0


def test_alternating_fit_descends_within_budget():
    # 50 seeded instances (d <= 20, n <= 200, c in {2, 5}): the objective
    # trace never rises beyond 1e-9 relative slack and each fit takes < 1 s.
    for t in range(50):
        X, c, p = _structured_instance(t)
        start = time.perf_counter()
        state = epca_fit(X, c, p)
        assert time.perf_counter() - start < 1.0
        trace = np.asarray(state.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1]))


def test_coordinates_survive_orthogonal_input_rotation():
    # 20 random orthogonal maps of the input: after the deterministic sign
    # convention is aligned, the low-dimensional coordinates agree to 1e-8.
    rng = np.random.default_rng(707)
    d, n, c = 12, 80, 3
    basis = np.linalg.qr(rng.standard_normal((d, 4)))[0]
    X = basis @ (rng.standard_normal((4, n)) * 3.0)
    X += rng.standard_normal(d)[:, None]
    X += 0.05 * rng.standard_normal((d, n))
    p = SigmaLossParams(1.0)
    ref = epca_fit(X, c, p)
    for _ in range(20):
        R = np.linalg.qr(rng.standard_normal((d, d)))[0]
        rotated = epca_fit(R @ X, c, p)
        signs = np.sign(np.sum(rotated.model.basis * (R @ ref.model.basis), axis=0))
        signs[signs == 0] = 1.0
        drift = np.abs(rotated.model.coordinates * signs[:, None]
                       - ref.model.coordinates)
        assert np.max(drift) <= 1e-8


def test_objective_constant_along_translation_family():
    # Shifting the translation along the basis while counter-shifting the
    # coordinates leaves the objective unchanged to 1e-10 relative, for 10
    # random shifts on each of three fitted models.  The objective is
    # sum_i loss(||x_i - m - W v_i||) / (1 - alpha_i), with the fit's weights.
    rng = np.random.default_rng(808)
    for trial in range(3):
        X, c, p = _structured_instance(90 + trial)
        state = epca_fit(X, c, p)
        W, m, V = state.model.basis, state.model.translation, state.model.coordinates

        def objective(m, V):
            rn = np.linalg.norm(X - m[:, None] - W @ V, axis=0)
            return np.sum(loss_kernel(rn, p.sigma) / state.alpha.complements)

        base = objective(m, V)
        for _ in range(10):
            beta = rng.standard_normal(c) * 2.0
            shifted = objective(m + W @ beta, V - beta[:, None])
            assert abs(shifted - base) <= 1e-10 * abs(base)


def test_analytic_gradient_matches_central_differences():
    # 100 random vectors: the closed-form loss gradient 2 * d(r) * a matches
    # central finite differences to 1e-5 relative.
    rng = np.random.default_rng(909)
    h = 1e-6
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        a = rng.standard_normal(dim) * rng.uniform(0.3, 3.0)
        if np.linalg.norm(a) < 0.05:
            a[0] += 0.1
        sigma = 10.0 ** rng.uniform(-2.0, 2.0)
        grad = 2.0 * coefficient_kernel(np.linalg.norm(a), sigma) * a
        numeric = np.empty(dim)
        for j in range(dim):
            step = np.zeros(dim)
            step[j] = h
            numeric[j] = (loss_kernel(np.linalg.norm(a + step), sigma)
                          - loss_kernel(np.linalg.norm(a - step), sigma)) / (2.0 * h)
        assert np.linalg.norm(grad - numeric) <= 1e-5 * np.linalg.norm(numeric)


def test_occlusion_benchmark_favors_weighted_fit():
    # Synthetic rank-3 data (d = 50, n = 300) under 20%/20% occlusion, 20
    # seeds: the weighted fit's reconstruction error beats classical PCA on
    # >= 90% of seeds and the optimal-mean baseline on >= 60%, within 60 s.
    start = time.perf_counter()
    sigma_grid = [2.0 ** e for e in (-8, -4, 0, 4, 8)]
    beat_classical = 0
    beat_om = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d, n = 50, 300
        basis = np.linalg.qr(rng.standard_normal((d, 3)))[0]
        X = basis @ (rng.standard_normal((3, n)) * 5.0)
        X += rng.standard_normal(d)[:, None] * 2.0
        clean = DataMatrix(X)
        occluded, _, _ = corrupt(clean, CorruptionSpec(0.2, 0.2, seed=seed))

        pca = fit_classical_pca(occluded, 3)
        err_pca = reconstruction_error(clean, occluded, pca.basis, pca.translation)
        om = fit_pca_om(occluded, 3)
        err_om = reconstruction_error(clean, occluded, om.basis, om.translation)
        err_epca = min(
            reconstruction_error(clean, occluded,
                                 state.model.basis, state.model.translation)
            for state in (epca_fit(occluded, 3, SigmaLossParams(s))
                          for s in sigma_grid)
        )
        beat_classical += err_epca <= err_pca
        beat_om += err_epca <= err_om
    assert beat_classical >= 18
    assert beat_om >= 12
    assert time.perf_counter() - start < 60.0


def test_two_cluster_accuracy_stays_within_margin_of_classical():
    # Occluded two-cluster data, rank 2: mean clustering accuracy over 100
    # k-means restarts from the weighted fit's coordinates stays within 0.02
    # of classical PCA's on at least 80% of 20 seeds.
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        d, n_per = 30, 100
        shift = np.zeros(d)
        shift[:3] = 4.0
        basis = np.linalg.qr(rng.standard_normal((d, 2)))[0]
        X = np.hstack([
            basis @ rng.standard_normal((2, n_per)),
            shift[:, None] + basis @ rng.standard_normal((2, n_per)),
        ])
        X += 0.1 * rng.standard_normal((d, 2 * n_per))
        truth = LabelVector.from_raw([0] * n_per + [1] * n_per)
        occluded, _, _ = corrupt(DataMatrix(X), CorruptionSpec(0.2, 0.2, seed=seed))

        pca = fit_classical_pca(occluded, 2)
        coords_pca = pca.basis.T @ (occluded.values - pca.translation[:, None])
        acc_pca = mean_clustering_accuracy(coords_pca, truth, 100,
                                           RngHandle(seed).derive("pca"))
        state = epca_fit(occluded, 2, SigmaLossParams(1.0))
        acc_epca = mean_clustering_accuracy(transform(state.model, occluded),
                                            truth, 100,
                                            RngHandle(seed).derive("epca"))
        wins += acc_epca >= acc_pca - 0.02
    assert wins >= 16


def test_repeated_runs_emit_bit_identical_reports(tmp_path):
    # The full harness, run twice on an identical labeled config, emits
    # byte-for-byte identical numeric payloads.
    rng = np.random.default_rng(121)
    d, n_per = 6, 20
    X = np.hstack([rng.standard_normal((d, n_per)),
                   rng.standard_normal((d, n_per))])
    X[0, n_per:] += 8.0
    data_path = tmp_path / "data.csv"
    with open(data_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in X.T:
            writer.writerow([repr(float(v)) for v in row])
    labels_path = tmp_path / "labels.csv"
    labels_path.write_text("".join("0\n" for _ in range(n_per))
                           + "".join("1\n" for _ in range(n_per)))
    cfg = ExperimentConfig(
        input_path=str(data_path),
        labels_path=str(labels_path),
        methods=["classical_pca", "epca", "pca_om"],
        ranks=[2],
        sigma_grid=[0.5, 2.0],
        corruption=CorruptionSpec(0.2, 0.2, seed=0),
        seeds=[0, 1],
        kmeans_restarts=5,
    )
    assert run_experiment(cfg).canonical_payload() == run_experiment(cfg).canonical_payload()
