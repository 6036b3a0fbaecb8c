"""Seeded inputs, the timed operation, and the output checks of each workload.

Every input is drawn from ``RngHandle(seed)`` streams, so one seed always
gives bitwise-identical arrays and CSV files.  The program under test sees
only those arrays or files, never the seed.

A workload object has four parts:

* ``setup(handle, workdir)`` builds the inputs (and writes CSV files);
* ``call(inputs)`` is the timed operation, made through module globals so the
  tracer can wrap the layers it reaches;
* ``check(inputs, output, fits)`` returns a list of problems with one output
  (``fits`` are the ``EpcaFitState`` objects the operation produced);
* ``quality(inputs, output, fits)`` returns the output's quality figures.

``step`` names the span that times one unit of the operation's work: one
``epca_fit`` call, or on ``grid-labelled`` one cell's k-means scoring.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import epca.baselines
import epca.evaluation
import epca.harness
import epca.solver
from epca.core import DataMatrix, RngHandle
from epca.evaluation import CorruptionSpec
from epca.sigmaloss import SigmaLossParams


def orthonormal_basis(gen, d, r):
    """A d×r orthonormal basis drawn from a Gaussian matrix."""
    basis, _ = np.linalg.qr(gen.standard_normal((d, r)))
    return basis


def planted(handle, d, n, r, outlier_fraction):
    """Rank-r data around offset 5 with small noise, plus gross column outliers.

    Returns ``(basis, clean, observed)``: coordinates are ``3·N(0,1)``, noise
    ``0.05·N(0,1)``, and ``outlier_fraction`` of the columns of ``observed``
    get ``+N(0,1)`` on every entry.
    """
    gen = handle.derive("planted").generator()
    basis = orthonormal_basis(gen, d, r)
    clean = 5.0 + basis @ (3.0 * gen.standard_normal((r, n)))
    clean += 0.05 * gen.standard_normal((d, n))
    observed = clean.copy()
    cols = np.sort(gen.choice(n, size=int(outlier_fraction * n), replace=False))
    observed[:, cols] += gen.standard_normal((d, cols.size))
    return basis, clean, observed


def dct4(m):
    """The m×m orthonormal DCT-IV matrix: a fixed orthogonal matrix with no
    constant row."""
    i = np.arange(m) + 0.5
    return np.sqrt(2.0 / m) * np.cos(np.pi / m * np.outer(i, i))


def clusters(handle, d, n, k, r):
    """k unit-variance Gaussian clusters in a planted rank-r subspace.

    The centres, in planted coordinates, are k columns of the DCT-IV matrix,
    rows scaled by 16 for the first half of the planted directions and by 4
    for the rest.  That layout is the same for every seed; only the planted
    subspace, the draws and the labels change, so a call costs about the
    same on every seed.  Over ten seeds, the quartile spread over median of
    the work in one ``run_experiment`` call is ~8% for the epca iterations
    (~57% with scales 8 and 4: the rank-r/2 fits then converge slowly and
    unevenly) and ~8% for the k-means Lloyd iterations (~13% with
    seed-drawn centres).  Returns ``(basis, clean, labels)`` with balanced,
    shuffled labels.
    """
    gen = handle.derive("clusters").generator()
    basis = orthonormal_basis(gen, d, r)
    scales = np.where(np.arange(r) < r // 2, 16.0, 4.0)
    centres = scales[:, None] * dct4(max(r, k))[:r, :k]
    labels = gen.permutation(np.arange(n) % k)
    clean = 5.0 + basis @ (centres[:, labels] + gen.standard_normal((r, n)))
    clean += 0.05 * gen.standard_normal((d, n))
    return basis, clean, labels


def seed_int(handle, *keys):
    """A 32-bit program-side seed (e.g. the occlusion seed) derived from the handle."""
    return int(handle.derive(*keys).generator().integers(2**32))


def write_csv(path, matrix):
    """Rows are samples; %.17g round-trips every double exactly."""
    np.savetxt(path, matrix.T, delimiter=",", fmt="%.17g")


def subspace_sin(planted_basis, basis):
    """Sine of the largest principal angle from span(basis) into span(planted_basis)."""
    residual = basis - planted_basis @ (planted_basis.T @ basis)
    return float(np.linalg.norm(residual, 2))


def centred_energy(clean):
    centred = clean - clean.mean(axis=1, keepdims=True)
    return float(np.sum(centred * centred))


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def state_digest(state):
    return digest(state.model.basis, state.model.translation, state.model.coordinates,
                  state.alpha.weights, state.objective_trace)


def state_problems(state):
    """The fit-level gate: orthonormal basis, monotone objective, simplex weights."""
    problems = []
    W = state.model.basis
    gram_err = float(np.max(np.abs(W.T @ W - np.eye(W.shape[1]))))
    if not gram_err <= 1e-10:
        problems.append(f"basis not orthonormal (max |W'W - I| = {gram_err:.3g})")
    obj = state.objective_trace
    slack = 1e-9 * np.abs(obj[:-1]) + np.finfo(float).eps * np.maximum(1.0, np.abs(obj[:-1]))
    if np.any(np.diff(obj) > slack):
        problems.append(f"objective trace rose: {obj.tolist()}")
    w = state.alpha.weights
    if np.any(w < 0) or np.any(w >= 1) or abs(w.sum() - 1.0) > 1e-12 * w.size:
        problems.append("alpha is off the simplex")
    active = int(np.count_nonzero(w > 0))
    trace = state.active_count_trace
    if len(trace) == 0 or active != int(trace[-1]) or active != state.alpha.active_count:
        problems.append(f"active count {active} != last active_count_trace entry")
    return problems


class Workload:
    # The span whose times give the end-to-end step metrics.
    step = "solver.epca_fit"

    def final_check(self, inputs, output, fits):
        """Checks too costly for every output; run on the first one.
        Returns ``(problems, extra figures)``."""
        return [], {}


@dataclass
class FitWide(Workload):
    """Back-to-back ``epca_fit`` calls on a wide matrix (d ≫ n)."""

    d: int = 1200
    n: int = 300
    c: int = 10
    sigma: float = 1.0
    outlier_fraction: float = 0.1
    name: str = "fit-wide"

    def shapes(self):
        return {"d": self.d, "n": self.n, "c": self.c, "sigma": self.sigma,
                "outlier_fraction": self.outlier_fraction}

    def setup(self, handle, workdir):
        basis, clean, observed = planted(handle.derive(self.name), self.d, self.n,
                                         self.c, self.outlier_fraction)
        return {"basis": basis, "clean": clean,
                "X": DataMatrix(observed), "digest": digest(clean, observed)}

    def call(self, inputs):
        return epca.solver.epca_fit(inputs["X"], self.c, SigmaLossParams(self.sigma))

    def output_digest(self, output, fits):
        return state_digest(output)

    def check(self, inputs, output, fits):
        return state_problems(output)

    def quality(self, inputs, output, fits):
        model = output.model
        err = epca.evaluation.reconstruction_error(inputs["clean"], inputs["X"],
                                                   model.basis, model.translation)
        return {"recon_err_rel": err / centred_energy(inputs["clean"]),
                "subspace_sin": subspace_sin(inputs["basis"], model.basis)}

    def final_check(self, inputs, output, fits):
        """The robust fit must beat classical PCA at recovering the planted basis."""
        pca = epca.baselines.fit_classical_pca(inputs["X"], self.c)
        ours = subspace_sin(inputs["basis"], output.model.basis)
        theirs = subspace_sin(inputs["basis"], pca.basis)
        extra = {"classical_pca_subspace_sin": theirs}
        if not ours < theirs:
            return [f"epca subspace_sin {ours:.4g} not below classical PCA's {theirs:.4g}"], extra
        return [], extra


@dataclass
class GridLabelled(Workload):
    """Repeated ``run_experiment`` calls over a labelled cluster CSV."""

    d: int = 64
    n: int = 600
    k: int = 10
    r: int = 10
    ranks: tuple = (5, 10)
    sigmas: tuple = (0.25, 1.0, 4.0, 16.0)
    restarts: int = 10
    occlusion: float = 0.2
    name: str = "grid-labelled"
    step = "evaluation.mean_clustering_accuracy"

    def shapes(self):
        return {"d": self.d, "n": self.n, "clusters": self.k, "planted_rank": self.r,
                "methods": list(epca.harness.KNOWN_METHODS), "ranks": list(self.ranks),
                "sigmas": list(self.sigmas), "kmeans_restarts": self.restarts,
                "occlusion": self.occlusion}

    def setup(self, handle, workdir):
        handle = handle.derive(self.name)
        basis, clean, labels = clusters(handle, self.d, self.n, self.k, self.r)
        path = workdir / "grid-labelled.csv"
        labels_path = workdir / "grid-labelled-labels.csv"
        write_csv(path, clean)
        np.savetxt(labels_path, labels, fmt="%d")
        cfg = epca.harness.ExperimentConfig(
            input_path=str(path), labels_path=str(labels_path),
            methods=list(epca.harness.KNOWN_METHODS), ranks=list(self.ranks),
            sigma_grid=list(self.sigmas),
            corruption=CorruptionSpec(self.occlusion, self.occlusion, seed=0),
            seeds=[seed_int(handle, "occlusion")], kmeans_restarts=self.restarts,
        )
        return {"basis": basis, "clean": clean, "cfg": cfg,
                "digest": digest(clean, labels) + file_digest(path) + file_digest(labels_path)}

    def call(self, inputs):
        return epca.harness.run_experiment(inputs["cfg"])

    def output_digest(self, output, fits):
        return hashlib.sha256(output.canonical_payload().encode()).hexdigest()

    def check(self, inputs, output, fits):
        problems = []
        bad = [cell for cell in output.cells if cell["error"]]
        if bad:
            problems.append(f"{len(bad)} report cells failed: {bad[0]['error']}")
        if len(output.cells) != 3 * len(self.ranks) * len(self.sigmas):
            problems.append(f"report has {len(output.cells)} cells")
        for state, _ in fits:
            problems += state_problems(state)
        return problems

    def quality(self, inputs, output, fits):
        cells = [cell for cell in output.cells if cell["method"] == "epca"]
        energy = centred_energy(inputs["clean"])
        return {
            "recon_err_rel": float(np.mean([c["reconstruction_error"] for c in cells])) / energy,
            "subspace_sin": float(np.mean([subspace_sin(inputs["basis"], s.model.basis)
                                           for s, _ in fits])),
            "mean_accuracy": float(np.mean([c["mean_accuracy"] for c in cells])),
        }


WORKLOADS = {w.name: w for w in (FitWide(), GridLabelled())}


def root_handle(seed):
    return RngHandle(int(seed)).derive("perfbench")
