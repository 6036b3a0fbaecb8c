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

import numpy as np

from .core import RngHandle
from .errors import EpcaError
from .evaluation import CorruptionSpec, corrupt, mean_clustering_accuracy, reconstruction_error
from .harness import (
    KNOWN_METHODS,
    ExperimentConfig,
    fit_method,
    grid_search_sigma,
    ingest_csv,
    run_experiment,
)

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
        "sigma": args.sigma if args.method == "epca" else None,
        "basis": [[float(v) for v in row] for row in model.basis],
        "translation": [float(v) for v in model.translation],
        "iterations": iterations,
        "active_count_trace": k_trace,
        "objective_trace": [float(v) for v in model.objective_trace],
    }, args.out)
    return 0


def _cmd_eval(args):
    X_clean, labels = ingest_csv(args.clean, args.labels)
    X_occ, _ = ingest_csv(args.occluded)
    with open(args.model, encoding="utf-8") as fh:
        model = json.load(fh)
    basis = np.array(model["basis"], dtype=float)
    translation = np.array(model["translation"], dtype=float)
    result = {
        "reconstruction_error": reconstruction_error(X_clean, X_occ, basis, translation),
        "mean_accuracy": None,
    }
    if labels is not None:
        coords = basis.T @ (X_occ.values - translation[:, None])
        rng = RngHandle(args.seed).derive("eval")
        result["mean_accuracy"] = mean_clustering_accuracy(
            coords, labels, args.restarts, rng
        )
    _emit(result, args.out)
    return 0


def _load_config_file(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _build_config(args, default_sigmas):
    raw = _load_config_file(args.config) if args.config else {}
    corruption_raw = raw.get("corruption", {})

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key is not None and key in raw:
            return raw[key]
        return default

    input_path = pick(args.input, "input_path", None)
    if input_path is None:
        raise EpcaError("an input CSV is required (--input or config input_path)")
    ranks = pick(args.rank or None, "ranks", None)
    if not ranks:
        raise EpcaError("at least one rank is required (--rank or config ranks)")
    corruption = CorruptionSpec(
        sample_fraction=pick(args.corrupt_samples, None,
                             corruption_raw.get("sample_fraction", 0.2)),
        feature_fraction=pick(args.corrupt_features, None,
                              corruption_raw.get("feature_fraction", 0.2)),
        seed=0,
        shared_features=(args.shared_features
                         or corruption_raw.get("shared_features", False)),
    )
    return ExperimentConfig(
        input_path=input_path,
        labels_path=pick(args.labels, "labels_path", None),
        methods=pick(args.method or None, "methods", list(KNOWN_METHODS)),
        ranks=ranks,
        sigma_grid=pick(args.sigma or None, "sigma_grid", default_sigmas),
        corruption=corruption,
        seeds=pick(args.seed or None, "seeds", [0]),
        kmeans_restarts=pick(args.restarts, "kmeans_restarts", 100),
        tol=pick(args.tol, "tol", 1e-8),
        max_iter=pick(args.max_iter, "max_iter", 100),
    )


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


def _cmd_grid_sigma(args):
    cfg = _build_config(args, default_sigmas=DEFAULT_SIGMA_GRID)
    best_sigma, curve = grid_search_sigma(cfg)
    coarse = [row for row in curve if row["stage"] == "coarse" and row["failure"] is None]
    coarse_best = min(coarse, key=lambda row: (row["error"], row["sigma"]))
    boundary = coarse_best["sigma"] in (
        min(r["sigma"] for r in coarse), max(r["sigma"] for r in coarse)
    )
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["log2_sigma", "error", "stage", "failure"])
            for row in sorted(curve, key=lambda r: r["sigma"]):
                writer.writerow([repr(row["log2_sigma"]),
                                 "" if row["error"] is None else repr(row["error"]),
                                 row["stage"], row["failure"] or ""])
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    for name, func, help_text in (
        ("run", _cmd_run, "run the full comparison protocol"),
        ("grid-sigma", _cmd_grid_sigma, "search the robustness parameter"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--input", default=None)
        p.add_argument("--labels", default=None)
        p.add_argument("--method", action="append", choices=KNOWN_METHODS)
        p.add_argument("--rank", action="append", type=int)
        p.add_argument("--sigma", action="append", type=float)
        p.add_argument("--seed", action="append", type=int)
        p.add_argument("--corrupt-samples", type=float, default=None)
        p.add_argument("--corrupt-features", type=float, default=None)
        p.add_argument("--shared-features", action="store_true")
        p.add_argument("--restarts", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)
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
