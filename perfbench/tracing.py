"""Spans recorded from outside the program, and the per-layer metrics built from them.

The tracer wraps public functions where the program looks them up, in its
module globals (``epca.solver.top_eigenpairs``, ``epca.harness.epca_fit``,
...), so nothing under ``src/`` changes.  Each call becomes one span: name,
start, end, parent span, operation id, and a few attributes read from the
arguments and the result.  Spans stay in memory and are written out when the
run ends.  The benchmark runs one client in one thread, so a plain stack
gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from typing import NamedTuple

import epca.baselines
import epca.evaluation
import epca.harness
import epca.solver


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, describe=None):
        """``fn`` with a span around every call; ``describe(args, kwargs, result)``
        returns the span's attributes and runs after the span has ended."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, name, start, parent, {"raised": True})
                raise
            attrs = self._close(index, name, start, parent, {})
            if describe is not None:
                attrs.update(describe(args, kwargs, result))
            return result

        return traced

    def _close(self, index, name, start, parent, attrs):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = Span(name, start, end, parent, self.op, attrs)
        return attrs

    @contextmanager
    def installed(self, targets):
        """Wrap each ``(module, attribute, span name, describe)`` target for the block."""
        saved = []
        try:
            for module, attr, name, describe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, describe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def op_spans(self, op):
        return [(i, s) for i, s in enumerate(self.spans) if s is not None and s.op == op]

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                attrs = {k: v for k, v in s.attrs.items() if k != "state"}
                fh.write(json.dumps({"id": index, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op,
                                     "attrs": attrs}) + "\n")


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the union of its children."""
    children = {}
    for index, s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for index, s in spans:
        inside = [(max(a, s.start), min(b, s.end)) for a, b in children.get(index, [])]
        out[index] = (s.end - s.start) - union_length([iv for iv in inside if iv[0] < iv[1]])
    return out


# --- what each wrapped function records -------------------------------------

def _eig_attrs(args, kwargs, result):
    return {"d": int(args[0].shape[0]), "c": int(args[1])}


def _fit_key(X, method, rank, sigma=None):
    return [id(X), method, int(rank)] + ([] if sigma is None else [float(sigma)])


def _epca_attrs(args, kwargs, state):
    X, c, p = args[:3]
    d, n = state.model.basis.shape[0], state.model.coordinates.shape[1]
    return {"d": d, "n": n, "c": int(c), "sigma": float(p.sigma),
            "iterations": int(state.iterations),
            "active_final": int(state.active_count_trace[-1]) if len(state.active_count_trace) else 0,
            "key": _fit_key(X, "epca", c, p.sigma), "state": state}


def _pca_om_attrs(args, kwargs, model):
    return {"iterations": len(model.objective_trace) - 1, "key": _fit_key(args[0], "pca_om", args[1])}


def _classical_attrs(args, kwargs, model):
    return {"key": _fit_key(args[0], "classical_pca", args[1])}


def _ingest_attrs(args, kwargs, result):
    paths = [args[0], args[1] if len(args) > 1 else kwargs.get("labels_path")]
    return {"bytes": sum(os.path.getsize(p) for p in paths if p is not None)}


def _restart_attrs(args, kwargs, result):
    return {"restarts": int(args[2])}


EPCA_FIT = "solver.epca_fit"
SCORE = "evaluation.mean_clustering_accuracy"

# Every layer boundary the workloads cross: a few hundred spans per
# operation at about a microsecond each.
TARGETS = [
    (epca.solver, "epca_fit", EPCA_FIT, _epca_attrs),
    (epca.harness, "epca_fit", EPCA_FIT, _epca_attrs),
    (epca.harness, "mean_clustering_accuracy", SCORE, _restart_attrs),
    (epca.solver, "top_eigenpairs", "core.top_eigenpairs", _eig_attrs),
    (epca.baselines, "top_eigenpairs", "core.top_eigenpairs", _eig_attrs),
    (epca.solver, "solve_weights", "corobust.solve_weights", None),
    (epca.harness, "fit_pca_om", "baselines.fit_pca_om", _pca_om_attrs),
    (epca.harness, "fit_classical_pca", "baselines.fit_classical_pca", _classical_attrs),
    (epca.evaluation, "clustering_accuracy", "evaluation.clustering_accuracy", None),
    (epca.harness, "reconstruction_error", "evaluation.reconstruction_error", None),
    (epca.harness, "corrupt", "evaluation.corrupt", None),
    (epca.harness, "ingest_csv", "harness.ingest_csv", _ingest_attrs),
    (epca.harness, "run_experiment", "harness.run_experiment", None),
]


def floor_seconds(ops):
    """An operation's time without interference from the rest of the machine.

    ``ops`` holds the ``(index, span)`` pairs of each operation.  The starts
    and ends of its spans cut an operation into pieces, and operations that
    repeat the same work are cut into the same sequence of pieces.  The
    figure is the sum, over that sequence, of the fastest time seen for each
    piece.  Interference only ever adds time, and a piece of a few
    milliseconds is far more likely than a whole operation to run once
    untouched, so this is steadier than the fastest operation.  Only the
    largest group of operations with one sequence counts (a program that
    caches across calls makes its first operation differ).  NaN without
    operations.
    """
    groups = {}
    for spans in ops:
        events = sorted((t, edge, s.name) for _, s in spans
                        for t, edge in ((s.start, 0), (s.end, 1)))
        key = tuple((edge, name) for _, edge, name in events)
        pieces = [b[0] - a[0] for a, b in zip(events, events[1:])]
        groups.setdefault(key, []).append(pieces)
    if not groups:
        return float("nan")
    rows = max(groups.values(), key=len)
    return float(sum(min(piece) for piece in zip(*rows)))


def op_layers(op_spans, op_index):
    """Per-layer figures of one traced operation.

    ``op_spans`` are the ``(index, span)`` pairs of the operation and
    ``op_index`` is the index of its top span.  Layers the operation never
    reaches read 0.
    """
    selfs = self_times(op_spans)
    op_span = dict(op_spans)[op_index]
    op_s = op_span.end - op_span.start
    by_name = {}
    for index, s in op_spans:
        by_name.setdefault(s.name, []).append((index, s))

    def calls(name):
        return len(by_name.get(name, []))

    def busy(name):
        return float(sum(s.end - s.start for _, s in by_name.get(name, [])))

    def self_s(name):
        return float(sum(selfs[i] for i, _ in by_name.get(name, [])))

    def attr_sum(name, key):
        return sum(s.attrs[key] for _, s in by_name.get(name, []))

    eig = by_name.get("core.top_eigenpairs", [])
    fits = by_name.get(EPCA_FIT, [])
    fit_keys = [tuple(s.attrs["key"]) for name in
                (EPCA_FIT, "baselines.fit_pca_om", "baselines.fit_classical_pca")
                for _, s in by_name.get(name, [])]
    ingest_s = busy("harness.ingest_csv")
    ingest_mb = attr_sum("harness.ingest_csv", "bytes") / 1e6
    return {
        "core.top_eigenpairs.calls": calls("core.top_eigenpairs"),
        "core.top_eigenpairs.busy_s": busy("core.top_eigenpairs"),
        "core.top_eigenpairs.share": busy("core.top_eigenpairs") / op_s,
        "core.top_eigenpairs.useful_ratio": (
            sum(s.attrs["c"] for _, s in eig) / sum(s.attrs["d"] for _, s in eig) if eig else 0.0),
        # A full symmetric eigensolve with vectors costs about 9·d³ flops.
        "core.top_eigenpairs.flop_est": float(sum(9 * s.attrs["d"] ** 3 for _, s in eig)),
        "solver.epca_fit.calls": calls(EPCA_FIT),
        "solver.epca_fit.busy_s": busy(EPCA_FIT),
        "solver.epca_fit.self_s": self_s(EPCA_FIT),
        "solver.iterations": attr_sum(EPCA_FIT, "iterations"),
        "solver.active_count_final": (
            sum(s.attrs["active_final"] for _, s in fits) / len(fits) if fits else 0.0),
        # One weighted scatter (2·d²·n flops) at the start and per outer iteration.
        "solver.scatter_flop_est": float(sum(2 * s.attrs["d"] ** 2 * s.attrs["n"]
                                             * (s.attrs["iterations"] + 1) for _, s in fits)),
        "corobust.solve_weights.calls": calls("corobust.solve_weights"),
        "corobust.solve_weights.busy_s": busy("corobust.solve_weights"),
        "baselines.fit_pca_om.calls": calls("baselines.fit_pca_om"),
        "baselines.fit_pca_om.busy_s": busy("baselines.fit_pca_om"),
        "baselines.fit_pca_om.self_s": self_s("baselines.fit_pca_om"),
        "baselines.fit_classical_pca.calls": calls("baselines.fit_classical_pca"),
        "baselines.fit_classical_pca.busy_s": busy("baselines.fit_classical_pca"),
        "evaluation.mean_clustering_accuracy.calls": calls(SCORE),
        "evaluation.mean_clustering_accuracy.busy_s": busy(SCORE),
        "evaluation.clustering_accuracy.calls": calls("evaluation.clustering_accuracy"),
        "evaluation.reconstruction_error.calls": calls("evaluation.reconstruction_error"),
        "evaluation.reconstruction_error.busy_s": busy("evaluation.reconstruction_error"),
        "evaluation.corrupt.busy_s": busy("evaluation.corrupt"),
        "harness.ingest_csv.busy_s": ingest_s,
        "harness.ingest_csv.mb_per_s": ingest_mb / ingest_s if ingest_s > 0 else 0.0,
        "harness.run_experiment.self_s": self_s("harness.run_experiment"),
        "harness.fit_useful_ratio": len(set(fit_keys)) / len(fit_keys) if fit_keys else 0.0,
    }
