"""Command-line entry points for the experiment harness.

Subcommands: ``corrupt`` (occlude a CSV matrix), ``fit`` (fit one method),
``eval`` (score a fitted model), ``run`` (the full comparison protocol), and
``grid-sigma`` (two-stage robustness-parameter search).  ``run`` and
``grid-sigma`` accept a JSON config file via --config; explicit flags
override config values.  Exit code is 0 on full success and 2 when anything
failed (per-cell failures are embedded in the report).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import fields

import numpy as np

from .core import real_array
from .errors import EpcaError, IngestionError, ValidationError
from .evaluation import CorruptionSpec, corrupt
from .harness import (
    KNOWN_METHODS,
    SIGMA_METHODS,
    ExperimentConfig,
    fit_method,
    grid_search_sigma,
    ingest_csv,
    run_experiment,
    score_model,
)
from .solver import SubspaceModel, transform

DEFAULT_SIGMA_GRID = [float(2.0**e) for e in range(-20, 21, 2)]


def _write_matrix_csv(path, X):
    # Internal convention is columns-are-samples; files use rows-are-samples.
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in X.values.T:
            writer.writerow([repr(float(v)) for v in row])


def _emit(payload, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_corrupt(args):
    X, _ = ingest_csv(args.input)
    spec = CorruptionSpec(args.corrupt_samples, args.corrupt_features,
                          args.seed, shared_features=args.shared_features)
    occluded, sample_idx, feature_idx = corrupt(X, spec)
    _write_matrix_csv(args.out, occluded)
    _emit({
        "output": args.out,
        "corrupted_samples": [int(i) for i in sample_idx],
        "corrupted_features": {str(int(s)): [int(f) for f in feats]
                               for s, feats in zip(sample_idx, feature_idx)},
    }, None)
    return 0


def _cmd_fit(args):
    X, _ = ingest_csv(args.input)
    model, iterations, k_trace = fit_method(args.method, X, args.rank, args.sigma,
                                            args.tol, args.max_iter)
    _emit({
        "method": args.method,
        "rank": args.rank,
        "sigma": args.sigma if args.method in SIGMA_METHODS else None,
        "basis": [[float(v) for v in row] for row in model.basis],
        "translation": [float(v) for v in model.translation],
        "iterations": iterations,
        "active_count_trace": k_trace,
        "objective_trace": [float(v) for v in model.objective_trace],
    }, args.out)
    return 0


def _load_model(path):
    """A ``SubspaceModel`` from a model file written by ``epca fit``.

    The file holds no coordinates, so the model carries an empty set.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        basis = real_array(raw["basis"], "basis", 2)
        return SubspaceModel(basis, raw["translation"], np.empty((basis.shape[1], 0)))
    except (EpcaError, KeyError, TypeError, ValueError) as exc:
        raise IngestionError(
            f"{path}: not a model file ({type(exc).__name__}: {exc})"
        ) from None


def _cmd_eval(args):
    X_clean, labels = ingest_csv(args.clean, args.labels)
    X_occ, _ = ingest_csv(args.occluded)
    model = _load_model(args.model)
    result = {"reconstruction_error": None, "mean_accuracy": None}
    score_model(result, X_clean, X_occ, model, transform(model, X_occ), labels,
                args.restarts, args.seed)
    _emit(result, args.out)
    return 0


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}
_CORRUPTION_FIELDS = {f.name for f in fields(CorruptionSpec)} - {"seed"}


def _build_config(args, default_sigmas):
    """Layer the config file over the defaults, then the flags given, into an ``ExperimentConfig``.

    The file's keys must be ``ExperimentConfig`` fields, and those under
    ``corruption`` fields of ``CorruptionSpec`` other than its seed.  Each
    flag's ``dest`` is the field it sets.
    """
    settings = {"methods": list(KNOWN_METHODS), "sigma_grid": default_sigmas, "seeds": [0]}
    corruption = {"sample_fraction": 0.2, "feature_fraction": 0.2}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except ValueError as exc:
            raise IngestionError(f"{args.config}: not a JSON file ({exc})") from None
        if not (isinstance(raw, dict) and isinstance(raw.get("corruption", {}), dict)):
            raise IngestionError(f"{args.config}: a config holds a JSON object, corruption too")
        unknown = sorted(raw.keys() - _CONFIG_FIELDS) + sorted(
            f"corruption.{key}" for key in raw.get("corruption", {}).keys() - _CORRUPTION_FIELDS)
        if unknown:
            raise IngestionError(f"{args.config}: unknown config keys {unknown}")
        settings.update(raw)
        corruption.update(settings.pop("corruption", {}))
    for name in _CONFIG_FIELDS | _CORRUPTION_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            (corruption if name in _CORRUPTION_FIELDS else settings)[name] = value
    for name, flag in (("input_path", "--input"), ("ranks", "--rank")):
        if not settings.get(name):
            raise ValidationError(f"{name} is required ({flag} or config {name})")
    return ExperimentConfig(**settings, corruption=CorruptionSpec(seed=0, **corruption))


def _cmd_run(args):
    cfg = _build_config(args, default_sigmas=[1.0])
    report = run_experiment(cfg)
    _emit(report.payload(), args.out)
    if args.csv:
        fields = ["index", "seed", "method", "rank", "sigma", "reconstruction_error",
                  "mean_accuracy", "iterations", "wall_clock_s", "error"]
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(report.cells)
    return 2 if report.any_failures else 0


def _write_curve_csv(path, curve):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["log2_sigma", "error", "stage", "failure"])
        for row in sorted(curve, key=lambda r: r["sigma"]):
            writer.writerow([repr(row["log2_sigma"]),
                             "" if row["error"] is None else repr(row["error"]),
                             row["stage"], row["failure"] or ""])


def _cmd_grid_sigma(args):
    cfg = _build_config(args, default_sigmas=DEFAULT_SIGMA_GRID)
    try:
        best_sigma, curve, boundary = grid_search_sigma(cfg)
    except ValidationError as exc:
        # A search that fails at every coarse point still writes its curve,
        # so the cause of each point is kept.
        if args.out and hasattr(exc, "curve"):
            _write_curve_csv(args.out, exc.curve)
        raise
    if args.out:
        _write_curve_csv(args.out, curve)
    _emit({
        "best_sigma": best_sigma,
        "boundary_warning": boundary,
        "curve_points": len(curve),
        "curve_csv": args.out,
    }, None)
    return 2 if any(row["failure"] for row in curve) else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="epca",
        description="Robust subspace fitting and its occlusion benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corrupt", help="occlude a CSV matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt-samples", type=float, default=0.2)
    p.add_argument("--corrupt-features", type=float, default=0.2)
    p.add_argument("--shared-features", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("fit", help="fit one method on a CSV matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=KNOWN_METHODS, default="epca")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="score a fitted model against clean data")
    p.add_argument("--clean", required=True)
    p.add_argument("--occluded", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0,
                   help="experiment seed; with the model's rank it keys the k-means "
                        "streams, as in the matching run cell")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    for name, func, help_text in (
        ("run", _cmd_run, "run the full comparison protocol"),
        ("grid-sigma", _cmd_grid_sigma, "search the robustness parameter"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        # Each dest is the ExperimentConfig or CorruptionSpec field it sets.
        p.add_argument("--input", dest="input_path")
        p.add_argument("--labels", dest="labels_path")
        p.add_argument("--method", dest="methods", action="append", choices=KNOWN_METHODS)
        p.add_argument("--rank", dest="ranks", action="append", type=int)
        p.add_argument("--sigma", dest="sigma_grid", action="append", type=float)
        p.add_argument("--seed", dest="seeds", action="append", type=int)
        p.add_argument("--corrupt-samples", dest="sample_fraction", type=float)
        p.add_argument("--corrupt-features", dest="feature_fraction", type=float)
        p.add_argument("--shared-features", action="store_true", default=None)
        p.add_argument("--restarts", dest="kmeans_restarts", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--max-iter", type=int)
        p.add_argument("--out", default=None)
        if name == "run":
            p.add_argument("--csv", default=None, help="also flatten cells to CSV")
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EpcaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
