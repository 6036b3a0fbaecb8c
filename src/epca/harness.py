"""Experiment runner: CSV ingestion, the comparative occlusion protocol, and
sigma grid search, with machine-readable deterministic reports."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .baselines import fit_classical_pca, fit_pca_om
from .core import DataMatrix, RngHandle, as_integer
from .errors import (
    DimensionError,
    EpcaError,
    IngestionError,
    InternalInvariantError,
    ValidationError,
)
from .evaluation import CorruptionSpec, LabelVector, corrupt, mean_clustering_accuracy, reconstruction_error
from .sigmaloss import SigmaLossParams
from .solver import epca_fit, transform

logger = logging.getLogger(__name__)

KNOWN_METHODS = ("classical_pca", "epca", "pca_om")


@dataclass
class ExperimentConfig:
    """Everything one comparative run needs.

    ``corruption.seed`` is a placeholder: during a run each experiment seed
    from ``seeds`` replaces it, so every seed gets its own occlusion, shared
    by all methods for a fair comparison.  ``sigma_grid`` applies to the
    weighted fit only; the baselines ignore the sigma of their grid cell
    (their cells simply repeat the same result so the report grid stays
    complete).
    """

    input_path: str
    methods: list
    ranks: list
    sigma_grid: list
    corruption: CorruptionSpec
    seeds: list
    labels_path: str | None = None
    kmeans_restarts: int = 100
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if not self.methods:
            raise ValidationError("methods must be non-empty")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ValidationError(f"unknown methods {unknown}; known: {KNOWN_METHODS}")
        self.ranks = [as_integer(c, "rank c") for c in self.ranks or []]
        if not self.ranks or min(self.ranks) < 1:
            raise ValidationError("ranks must be a non-empty list of positive integers")
        if not self.sigma_grid:
            raise ValidationError("sigma_grid must be non-empty")
        if not self.seeds:
            raise ValidationError("seeds must be non-empty")
        self.sigma_grid = [float(s) for s in self.sigma_grid]
        self.seeds = [int(s) for s in self.seeds]

    def echo(self) -> dict:
        return {
            "input_path": str(self.input_path),
            "labels_path": None if self.labels_path is None else str(self.labels_path),
            "methods": list(self.methods),
            "ranks": list(self.ranks),
            "sigma_grid": list(self.sigma_grid),
            "corruption": {
                "sample_fraction": self.corruption.sample_fraction,
                "feature_fraction": self.corruption.feature_fraction,
                "shared_features": self.corruption.shared_features,
                "value_law": self.corruption.value_law,
            },
            "seeds": list(self.seeds),
            "kmeans_restarts": self.kmeans_restarts,
            "tol": self.tol,
            "max_iter": self.max_iter,
        }


@dataclass
class ExperimentReport:
    """Config echo plus one cell per (seed, method, rank, sigma) combination."""

    config: dict
    library_version: str
    cells: list = field(default_factory=list)

    @property
    def any_failures(self) -> bool:
        return any(cell.get("error") for cell in self.cells)

    def payload(self, include_timing: bool = True) -> dict:
        cells = self.cells
        if not include_timing:
            cells = [{k: v for k, v in cell.items() if k != "wall_clock_s"} for cell in cells]
        return {
            "config": self.config,
            "library_version": self.library_version,
            "cells": cells,
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.payload(include_timing), sort_keys=True, indent=2)

    def canonical_payload(self) -> str:
        """Stable JSON with timing stripped; equal strings mean equal runs."""
        return self.to_json(include_timing=False)


def _parse_cell(cell, row_num, col_num):
    try:
        return float(cell)
    except ValueError:
        raise IngestionError(
            f"row {row_num}, column {col_num}: could not parse {cell!r} as a number"
        ) from None


def ingest_csv(path, labels_path=None):
    """Load a numeric CSV (rows = samples) and an optional label column.

    A non-numeric first row is treated as a header and skipped with a log
    notice.  Parsing failures carry the 1-based row/column location as it
    appears in the file.  Returns ``(DataMatrix, LabelVector | None)``; the
    matrix is transposed into the internal columns-are-samples convention.
    """
    rows = []
    expected = None
    skipped_header = False
    with open(path, newline="", encoding="utf-8") as fh:
        for row_num, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if expected is None and not skipped_header:
                numeric = True
                for cell in row:
                    try:
                        float(cell)
                    except ValueError:
                        numeric = False
                        break
                if not numeric:
                    logger.info("skipping header row in %s: %r", path, row)
                    skipped_header = True
                    continue
            if expected is None:
                expected = len(row)
            if len(row) != expected:
                raise IngestionError(
                    f"row {row_num}: has {len(row)} cells, expected {expected}"
                )
            rows.append([_parse_cell(cell, row_num, col_num)
                         for col_num, cell in enumerate(row, start=1)])
    if not rows:
        raise IngestionError(f"{path}: no numeric data rows")
    X = DataMatrix(np.array(rows, dtype=float).T)

    labels = None
    if labels_path is not None:
        raw = []
        skipped_header = False
        with open(labels_path, newline="", encoding="utf-8") as fh:
            for row_num, row in enumerate(csv.reader(fh), start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                cell = row[0].strip()
                try:
                    raw.append(int(float(cell)))
                except ValueError:
                    if not raw and not skipped_header:
                        logger.info("skipping header row in %s: %r", labels_path, row)
                        skipped_header = True
                        continue
                    raise IngestionError(
                        f"row {row_num}: could not parse label {cell!r}"
                    ) from None
        if len(raw) != X.sample_count:
            raise IngestionError(
                f"label count {len(raw)} != sample count {X.sample_count}"
            )
        labels = LabelVector.from_raw(raw)
    return X, labels


def _thread_count() -> int:
    raw = os.environ.get("EPCA_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        logger.warning("ignoring non-integer EPCA_THREADS=%r", raw)
        return 1


def fit_method(method, X, rank, sigma, tol, max_iter):
    """Fit one of ``KNOWN_METHODS``; returns (model, iterations, active_count_trace).

    ``sigma`` is used by ``epca`` only, and ``tol``/``max_iter`` by the two
    iterative fits.  The fits are looked up as module globals at call time,
    so a wrapper installed on ``epca.harness.<fit>`` sees every call.
    """
    if method == "classical_pca":
        model, k_trace = fit_classical_pca(X, rank), []
    elif method == "pca_om":
        model, k_trace = fit_pca_om(X, rank, tol=tol, max_iter=max_iter), []
    elif method == "epca":
        state = epca_fit(X, rank, SigmaLossParams(sigma), tol=tol, max_iter=max_iter)
        model, k_trace = state.model, [int(k) for k in state.active_count_trace]
    else:
        raise ValidationError(f"unknown method {method!r}; known: {KNOWN_METHODS}")
    return model, max(len(model.objective_trace) - 1, 0), k_trace


def _run_cell(index, seed, method, rank, sigma, X, X_occ, labels, cfg):
    cell = {
        "index": index, "seed": seed, "method": method, "rank": rank, "sigma": sigma,
        "reconstruction_error": None, "mean_accuracy": None,
        "active_count_trace": None, "iterations": None,
        "wall_clock_s": None, "error": None,
    }
    start = time.perf_counter()
    try:
        model, iterations, k_trace = fit_method(
            method, X_occ, rank, sigma, cfg.tol, cfg.max_iter
        )
        cell["reconstruction_error"] = reconstruction_error(
            X, X_occ, model.basis, model.translation
        )
        cell["iterations"] = iterations
        cell["active_count_trace"] = k_trace
        if labels is not None:
            rng = RngHandle(seed).derive("cell", index)
            cell["mean_accuracy"] = mean_clustering_accuracy(
                transform(model, X_occ), labels, cfg.kmeans_restarts, rng
            )
    except Exception as exc:  # record the failure in place, keep the grid running
        cell["error"] = f"{type(exc).__name__}: {exc}"
    cell["wall_clock_s"] = time.perf_counter() - start
    return cell


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full comparison grid.

    Per seed the input is occluded once and shared by every method/rank/sigma
    cell; models are fitted on the occluded matrix, errors are measured
    against the clean one, and clustering accuracy (when labels exist) is the
    mean over k-means restarts on the fitted coordinates.  A failing cell is
    recorded in place with its error message; the remaining cells still run.
    """
    X, labels = ingest_csv(cfg.input_path, cfg.labels_path)
    bad_ranks = [c for c in cfg.ranks if not (1 <= c < X.feature_count)]
    if bad_ranks:
        raise DimensionError(
            f"ranks {bad_ranks} not in [1, {X.feature_count - 1}] "
            f"for d={X.feature_count}"
        )
    clean_digest = hashlib.sha256(X.values.tobytes()).hexdigest()

    tasks = []
    index = 0
    for seed in cfg.seeds:
        occluded, _, _ = corrupt(X, replace(cfg.corruption, seed=seed))
        for method in cfg.methods:
            for rank in cfg.ranks:
                for sigma in cfg.sigma_grid:
                    tasks.append((index, seed, method, rank, sigma, X, occluded, labels, cfg))
                    index += 1

    workers = _thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(lambda t: _run_cell(*t), tasks))
    else:
        cells = [_run_cell(*t) for t in tasks]

    if hashlib.sha256(X.values.tobytes()).hexdigest() != clean_digest:
        raise InternalInvariantError("the clean input matrix was mutated during the run")
    return ExperimentReport(config=cfg.echo(), library_version=__version__, cells=cells)


def grid_search_sigma(cfg: ExperimentConfig):
    """Two-stage search of the robustness parameter for the weighted fit.

    Coarse stage: evaluate every sigma in ``cfg.sigma_grid`` (sorted) by the
    mean reconstruction error across seeds at rank ``cfg.ranks[0]``.  Fine
    stage: 8 log-spaced points strictly between the coarse winner's grid
    neighbors.  Ties resolve to the smallest sigma, and a winner sitting on
    the grid boundary is logged as a warning (the range was likely too
    narrow).  Returns ``(best_sigma, curve)`` where the curve rows carry
    sigma, log2(sigma), the error, the stage, and an error message when a
    fit failed (such rows are excluded from the argmin).
    """
    X, _ = ingest_csv(cfg.input_path, cfg.labels_path)
    rank = cfg.ranks[0]
    if not (1 <= rank < X.feature_count):
        raise DimensionError(f"rank {rank} not in [1, {X.feature_count - 1}]")
    occluded = {
        seed: corrupt(X, replace(cfg.corruption, seed=seed))[0] for seed in cfg.seeds
    }

    def evaluate(sigma, stage):
        # A non-positive sigma is still reported as a (failed) curve row.
        log2_sigma = float(np.log2(sigma)) if sigma > 0 else float("nan")
        errors = []
        for seed in cfg.seeds:
            try:
                state = epca_fit(occluded[seed], rank, SigmaLossParams(sigma),
                                 tol=cfg.tol, max_iter=cfg.max_iter)
            except EpcaError as exc:
                return {"sigma": sigma, "log2_sigma": log2_sigma,
                        "error": None, "stage": stage,
                        "failure": f"seed {seed}: {type(exc).__name__}: {exc}"}
            errors.append(reconstruction_error(X, occluded[seed],
                                               state.model.basis, state.model.translation))
        return {"sigma": sigma, "log2_sigma": log2_sigma,
                "error": float(np.mean(errors)), "stage": stage, "failure": None}

    grid = sorted(set(cfg.sigma_grid))
    curve = [evaluate(sigma, "coarse") for sigma in grid]
    scored = [row for row in curve if row["failure"] is None]
    if not scored:
        raise InternalInvariantError("every coarse grid point failed")
    best = min(scored, key=lambda row: (row["error"], row["sigma"]))
    pos = grid.index(best["sigma"])
    if pos == 0 or pos == len(grid) - 1:
        logger.warning(
            "best sigma %g sits on the grid boundary; widen the search range",
            best["sigma"],
        )

    lo = grid[max(pos - 1, 0)]
    hi = grid[min(pos + 1, len(grid) - 1)]
    if 0 < lo < hi:
        for sigma in np.geomspace(lo, hi, 10)[1:-1]:
            curve.append(evaluate(float(sigma), "fine"))
    scored = [row for row in curve if row["failure"] is None]
    best = min(scored, key=lambda row: (row["error"], row["sigma"]))
    return best["sigma"], curve
