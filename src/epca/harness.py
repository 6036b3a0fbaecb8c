"""Experiment runner: CSV ingestion, the comparative occlusion protocol, and
sigma grid search, with machine-readable deterministic reports."""

from __future__ import annotations

import copy
import csv
import hashlib
import itertools
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .baselines import fit_classical_pca, fit_pca_om
from .core import (DataMatrix, RngHandle, as_count, as_seed, check_rank, check_tol, is_real,
                   real_array)
from .errors import IngestionError, InternalInvariantError, ValidationError
from .evaluation import (CorruptionSpec, LabelVector, _whole_numbers, corrupt,
                         mean_clustering_accuracy, reconstruction_error)
from .sigmaloss import SigmaLossParams
from .solver import epca_fit

logger = logging.getLogger(__name__)

KNOWN_METHODS = ("classical_pca", "epca", "pca_om")
# The methods whose fit reads sigma; the others ignore it.
SIGMA_METHODS = ("epca",)


@dataclass
class ExperimentConfig:
    """Everything one comparative run needs.

    ``corruption.seed`` is a placeholder: during a run each experiment seed
    from ``seeds`` replaces it, so every seed gets its own occlusion, shared
    by all methods for a fair comparison.  ``sigma_grid`` applies to the
    weighted fit only; the baselines ignore the sigma of their grid cell
    (each baseline is fitted and scored once per seed and rank, and its
    cells repeat that one result so the report grid stays complete).
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
        if not isinstance(self.corruption, CorruptionSpec):
            raise ValidationError(f"corruption must be a CorruptionSpec, got {self.corruption!r}")
        _check_paths(input_path=self.input_path, labels_path=self.labels_path)
        for name in ("methods", "ranks", "sigma_grid", "seeds"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValidationError(f"{name} must be a list, got {value!r}")
            if not value:
                raise ValidationError(f"{name} must be non-empty")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ValidationError(f"unknown methods {unknown}; known: {KNOWN_METHODS}")
        self.ranks = [as_count(c, "rank c") for c in self.ranks]
        bad_sigmas = [s for s in self.sigma_grid if not is_real(s)]
        if bad_sigmas:
            raise ValidationError(f"sigma_grid entries must be real numbers, got {bad_sigmas}")
        self.sigma_grid = [float(s) for s in self.sigma_grid]
        self.seeds = [as_seed(s) for s in self.seeds]
        for name in ("kmeans_restarts", "max_iter"):
            setattr(self, name, as_count(getattr(self, name), name))
        check_tol(self.tol)

    def echo(self) -> dict:
        """The settings as plain JSON values; the placeholder corruption seed is left out."""
        echo = asdict(self)
        del echo["corruption"]["seed"]
        echo["input_path"] = str(self.input_path)
        if self.labels_path is not None:
            echo["labels_path"] = str(self.labels_path)
        return echo


@dataclass
class ExperimentReport:
    """Config echo plus one cell per (seed, method, rank, sigma) combination."""

    config: dict
    library_version: str
    cells: list = field(default_factory=list)

    @property
    def any_failures(self) -> bool:
        return any(cell.get("error") for cell in self.cells)

    def payload(self) -> dict:
        return {
            "config": self.config,
            "library_version": self.library_version,
            "cells": self.cells,
        }

    def canonical_payload(self) -> str:
        """Stable JSON with timing stripped; equal strings mean equal runs."""
        payload = self.payload()
        payload["cells"] = [{k: v for k, v in cell.items() if k != "wall_clock_s"}
                            for cell in self.cells]
        return json.dumps(payload, sort_keys=True, indent=2)


def _check_paths(**paths):
    """The rule of the CSV path arguments, given by name: each is a str or
    ``os.PathLike``, and ``labels_path`` may be None.  ``open`` would take
    an int for a file descriptor, read it and close it."""
    for name, value in paths.items():
        if not (isinstance(value, (str, os.PathLike)) or name == "labels_path" and value is None):
            raise ValidationError(f"{name} must be a path (str or os.PathLike), got {value!r}")


def _parse(rows, rule, message):
    """``rule`` applied to the cell lists of the ``(row_number, cells)`` rows.

    The rule converts and checks every cell at once; only when it fails are
    the cells walked in file order, so that the ``IngestionError`` names the
    first bad one by ``message``, formatted with its ``row``, ``col`` and
    ``cell``.
    """
    try:
        return rule([cells for _, cells in rows])
    except (ValueError, ValidationError):
        for row_num, cells in rows:
            for col_num, cell in enumerate(cells, start=1):
                try:
                    rule([[cell]])
                except (ValueError, ValidationError):
                    raise IngestionError(
                        message.format(row=row_num, col=col_num, cell=cell)) from None
        raise


def _csv_rows(path):
    """Yield ``(row_number, row)`` for the non-blank rows of a CSV file.

    Row numbers are 1-based as in the file.  A first row holding a cell that
    is not a number is a header: it is skipped with a log notice.  A file
    that is not UTF-8 text, or that the ``csv`` module cannot read (a field
    over its size limit), is an ``IngestionError`` naming the file.
    """
    first = True
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for row_num, row in enumerate(reader, start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if first:
                    first = False
                    try:
                        for cell in row:
                            float(cell)
                    except ValueError:
                        logger.info("skipping header row in %s: %r", path, row)
                        continue
                yield row_num, row
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not a UTF-8 text file ({exc})") from None
    except csv.Error as exc:
        raise IngestionError(f"{path}, line {reader.line_num}: {exc}") from None


def ingest_csv(path, labels_path=None):
    """Load a numeric CSV (rows = samples) and an optional label column.

    A non-numeric first row is treated as a header and skipped with a log
    notice.  The labels file holds one cell per row.  A cell that does not
    parse, or a data cell that is not a finite number (``nan``, ``inf``, or
    beyond the float range like ``1e999``), is reported with its 1-based
    row/column location as it appears in the file; a file that is not UTF-8
    text or that the ``csv`` module cannot read names the file.  Both are
    ``IngestionError``.  Returns
    ``(DataMatrix, LabelVector | None)``; the matrix is transposed into the
    internal columns-are-samples convention.  Each path must be a str or
    ``os.PathLike`` (``labels_path`` may be None); anything else is a
    ``ValidationError``.
    """
    _check_paths(path=path, labels_path=labels_path)
    rows = []
    for row_num, row in _csv_rows(path):
        if rows and len(row) != len(rows[0][1]):
            raise IngestionError(
                f"row {row_num}: has {len(row)} cells, expected {len(rows[0][1])}"
            )
        rows.append((row_num, row))
    if not rows:
        raise IngestionError(f"{path}: no numeric data rows")
    X = DataMatrix(_parse(rows, lambda cells: real_array(np.array(cells, dtype=float), "data", 2),
                          "row {row}, column {col}: {cell!r} is not a finite number").T)

    labels = None
    if labels_path is not None:
        label_rows = []
        for row_num, row in _csv_rows(labels_path):
            if len(row) != 1:
                raise IngestionError(f"row {row_num}: has {len(row)} cells, expected 1 label")
            label_rows.append((row_num, [row[0].strip()]))
        raw = _parse(label_rows,
                     lambda cells: _whole_numbers(np.array(cells, dtype=float).ravel(), "labels"),
                     "row {row}: could not parse label {cell!r} as an integer")
        if len(raw) != X.sample_count:
            raise IngestionError(
                f"label count {len(raw)} != sample count {X.sample_count}"
            )
        labels = LabelVector.from_raw(raw)
    return X, labels


def fit_method(method, X, rank, sigma, tol, max_iter):
    """Fit one of ``KNOWN_METHODS``; returns (model, iterations, active_count_trace).

    ``sigma`` is used by the ``SIGMA_METHODS`` only, and ``tol``/``max_iter``
    by the two iterative fits, but both are checked for every method.  The fits
    are looked up as module globals at call time, so a wrapper installed on
    ``epca.harness.<fit>`` sees every call.
    """
    check_tol(tol)
    max_iter = as_count(max_iter, "max_iter")
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


def score_model(result, X, X_occ, model, coordinates, labels, restarts, seed):
    """Score a model fitted on ``X_occ`` into ``result``, a grid cell's or ``epca eval``'s.

    Sets ``reconstruction_error`` against the clean ``X`` and, given
    ``labels``, ``mean_accuracy`` of k-means on ``coordinates`` (``X_occ`` in
    the model) over ``restarts`` restarts.  These draw from the stream of
    experiment ``seed`` and the model's rank, so all methods and sigmas at
    one ``(seed, rank)`` are scored on paired streams, and ``epca eval``
    reproduces a grid cell by the same call.
    """
    result["reconstruction_error"] = reconstruction_error(X, X_occ, model.basis, model.translation)
    if labels is not None:
        result["mean_accuracy"] = mean_clustering_accuracy(
            coordinates, labels, restarts, RngHandle(seed).derive("score", model.target_rank)
        )


def _fit_and_score(seed, method, rank, sigma, X, X_occ, labels, cfg):
    """Fit one method on ``X_occ`` and score it; returns the cell's result fields.

    A failure is recorded in ``error`` with the fields not yet computed left
    ``None``; ``wall_clock_s`` times the whole step.
    """
    result = {"reconstruction_error": None, "mean_accuracy": None,
              "active_count_trace": None, "iterations": None,
              "wall_clock_s": None, "error": None}
    start = time.perf_counter()
    try:
        model, result["iterations"], result["active_count_trace"] = fit_method(
            method, X_occ, rank, sigma, cfg.tol, cfg.max_iter
        )
        score_model(result, X, X_occ, model, model.coordinates, labels,
                    cfg.kmeans_restarts, seed)
    except Exception as exc:  # record the failure in place, keep the grid running
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["wall_clock_s"] = time.perf_counter() - start
    return result


def _occluded_inputs(cfg, ranks):
    """The set-up both drivers share: returns ``(X, labels, occluded)``.

    Ingests ``cfg``'s CSV files, rejects ``ranks`` outside ``[1, d - 1]``,
    and occludes the clean matrix once per seed (``occluded[seed]``).
    """
    X, labels = ingest_csv(cfg.input_path, cfg.labels_path)
    for c in ranks:
        check_rank(c, X.feature_count - 1)
    occluded = {
        seed: corrupt(X, replace(cfg.corruption, seed=seed))[0] for seed in cfg.seeds
    }
    return X, labels, occluded


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full comparison grid.

    Per seed the input is occluded once and shared by every method/rank/sigma
    cell; models are fitted on the occluded matrix, errors are measured
    against the clean one, and clustering accuracy (when labels exist) is the
    mean over k-means restarts on the fitted coordinates (see
    :func:`score_model`).  Each distinct fit, ``(seed, method, rank)`` plus
    sigma for the ``SIGMA_METHODS``, is fitted and scored once and copied into every cell
    that shares it, ``wall_clock_s`` included.  A failing fit is recorded in
    its cells with its error message; the remaining cells still run.
    """
    if not isinstance(cfg, ExperimentConfig):
        raise ValidationError(f"cfg must be an ExperimentConfig, got {cfg!r}")
    X, labels, occluded = _occluded_inputs(cfg, cfg.ranks)
    clean_digest = hashlib.sha256(X.values.tobytes()).hexdigest()
    grid = itertools.product(cfg.seeds, cfg.methods, cfg.ranks, cfg.sigma_grid)
    results = {}  # one fit-and-score per distinct fit; the baselines ignore sigma
    cells = []
    for index, (seed, method, rank, sigma) in enumerate(grid):
        key = (seed, method, rank, sigma if method in SIGMA_METHODS else None)
        if key not in results:
            results[key] = _fit_and_score(
                seed, method, rank, sigma, X, occluded[seed], labels, cfg
            )
        cells.append({"index": index, "seed": seed, "method": method, "rank": rank,
                      "sigma": sigma, **copy.deepcopy(results[key])})

    if hashlib.sha256(X.values.tobytes()).hexdigest() != clean_digest:
        raise InternalInvariantError("the clean input matrix was mutated during the run")
    return ExperimentReport(config=cfg.echo(), library_version=__version__, cells=cells)


def grid_search_sigma(cfg: ExperimentConfig):
    """Two-stage search of the robustness parameter for the weighted fit.

    Coarse stage: evaluate every sigma in ``cfg.sigma_grid`` (sorted) by the
    mean reconstruction error across seeds at rank ``cfg.ranks[0]``.  Fine
    stage: 8 log-spaced points strictly between the coarse winner's
    neighbors among the grid points that fitted.  Ties resolve to the
    smallest sigma, and a coarse winner at either end of those points is
    logged as a warning (the range was likely too narrow).  Each seed is
    scored by the grid's fit-and-score step, and the first failed seed fails
    the grid point.  Returns ``(best_sigma, curve, on_boundary)`` where the
    curve rows carry sigma, log2(sigma), the error, the stage, and that
    seed's error message (such rows are excluded from the argmin), and
    ``on_boundary`` is whether the coarse winner sat at an end.  When every
    coarse point fails, a ``ValidationError`` names the first one's failure
    and carries the coarse curve as its ``curve`` attribute.  ``cfg.methods``
    must hold one of the ``SIGMA_METHODS``; a config without one is a
    ``ValidationError`` before any file is read.
    """
    if not isinstance(cfg, ExperimentConfig):
        raise ValidationError(f"cfg must be an ExperimentConfig, got {cfg!r}")
    if not set(cfg.methods) & set(SIGMA_METHODS):
        raise ValidationError(
            f"methods {cfg.methods} hold no method that reads sigma; need one of {SIGMA_METHODS}")
    rank = cfg.ranks[0]
    X, _, occluded = _occluded_inputs(cfg, [rank])

    def evaluate(sigma, stage):
        # A non-positive sigma is still reported as a (failed) curve row.
        row = {"sigma": sigma, "log2_sigma": float(np.log2(sigma)) if sigma > 0 else float("nan"),
               "error": None, "stage": stage, "failure": None}
        errors = []
        for seed in cfg.seeds:
            result = _fit_and_score(seed, "epca", rank, sigma, X, occluded[seed], None, cfg)
            if result["error"]:
                row["failure"] = f"seed {seed}: {result['error']}"
                return row
            errors.append(result["reconstruction_error"])
        row["error"] = float(np.mean(errors))
        return row

    def winner(rows):
        scored = [row for row in rows if row["failure"] is None]
        if not scored:  # only the coarse stage can fail every point
            exc = ValidationError("every grid point failed; sigma {sigma!r}: {failure}"
                                  .format(**rows[0]))
            exc.curve = rows
            raise exc
        return min(scored, key=lambda row: (row["error"], row["sigma"]))

    curve = [evaluate(sigma, "coarse") for sigma in sorted(set(cfg.sigma_grid))]
    best = winner(curve)
    # The coarse rows are sorted by sigma; the fine stage searches strictly
    # between the winner's scored neighbours.
    sigmas = [row["sigma"] for row in curve if row["failure"] is None]
    pos, last = sigmas.index(best["sigma"]), len(sigmas) - 1
    on_boundary = pos in (0, last)
    if on_boundary:
        logger.warning(
            "best sigma %g sits on the grid boundary; widen the search range",
            best["sigma"],
        )
    lo, hi = sigmas[max(pos - 1, 0)], sigmas[min(pos + 1, last)]
    if lo < hi:
        for sigma in np.geomspace(lo, hi, 10)[1:-1]:
            curve.append(evaluate(float(sigma), "fine"))
    return winner(curve)["sigma"], curve, on_boundary
