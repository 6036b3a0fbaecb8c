"""Tests of the benchmark's own code, on workloads shrunk to run in seconds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "fit-wide": workloads.FitWide(d=40, n=30, c=3),
    "grid-labelled": workloads.GridLabelled(d=12, n=60, k=3, r=3, ranks=(2, 3),
                                            sigmas=(1.0, 4.0), restarts=3),
}


@pytest.fixture(params=sorted(SMALL))
def small(request):
    return SMALL[request.param]


def traced_op(workload, inputs, targets=tracing.TARGETS):
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer.installed(targets):
        output = tracer.wrap("op", workload.call)(inputs)
    spans = tracer.op_spans(0)
    fits = [(s.attrs["state"], s.attrs["sigma"]) for _, s in spans
            if s.name == tracing.EPCA_FIT]
    return tracer, output, fits


# --- seeded inputs ------------------------------------------------------------

def test_same_seed_gives_bitwise_identical_inputs(small, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = small.setup(workloads.root_handle(3), tmp_path / "a")
    b = small.setup(workloads.root_handle(3), tmp_path / "b")
    assert a["digest"] == b["digest"]
    assert np.array_equal(a["clean"], b["clean"])
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_different_seed_gives_different_inputs(small, tmp_path):
    a = small.setup(workloads.root_handle(3), tmp_path)
    b = small.setup(workloads.root_handle(4), tmp_path)
    assert a["digest"] != b["digest"]


def test_csv_round_trips_the_generated_matrix(tmp_path):
    inputs = SMALL["grid-labelled"].setup(workloads.root_handle(5), tmp_path)
    X, _ = workloads.epca.harness.ingest_csv(inputs["cfg"].input_path)
    assert np.array_equal(X.values, inputs["clean"])


# --- metric names -------------------------------------------------------------

def test_declared_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_exactly_the_declared_metrics(monkeypatch, tmp_path, trace):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "WORKLOADS", SMALL)
    key = "end_to_end" if trace == 0 else "per_layer"
    for name in SMALL:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.01",
                             "--trace", str(trace)])
        lines = out.getvalue().strip().splitlines()
        result = json.loads(lines[-1])
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        env = json.loads(lines[0].removeprefix("environment:"))
        assert env["seed"] == 7 and env["iterations"] and env["shapes"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for entry in result["metrics"].values():
            assert np.isfinite(entry["value"])


def test_failed_check_makes_the_run_exit_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    broken = workloads.FitWide(d=40, n=30, c=3)
    monkeypatch.setattr(broken, "check", lambda inputs, output, fits: ["planted failure"])
    monkeypatch.setattr(workloads, "WORKLOADS", {"fit-wide": broken})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "fit-wide", "--seed", "1", "--seconds", "0.01"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_operation_that_raises_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    broken = workloads.FitWide(d=40, n=30, c=3)
    monkeypatch.setattr(broken, "call", lambda inputs: 1 / 0)
    monkeypatch.setattr(workloads, "WORKLOADS", {"fit-wide": broken})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "fit-wide", "--seed", "1", "--seconds", "0.01"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] >= run.MIN_OPS


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --- span bookkeeping ---------------------------------------------------------

def span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, 0, {})


def test_self_time_is_span_minus_union_of_children():
    spans = [(0, span("op", 0.0, 10.0)),
             (1, span("a", 1.0, 3.0, 0)),
             (2, span("b", 2.0, 5.0, 0)),   # overlaps a: union 1..5
             (3, span("c", 7.0, 8.0, 0)),
             (4, span("d", 7.5, 7.75, 3))]  # grandchild: not subtracted from op
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[3] == pytest.approx(0.75)
    assert selfs[4] == pytest.approx(0.25)


def test_union_length():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_floor_adds_the_fastest_time_of_each_piece():
    def op(end, child_start, child_end):  # pieces: up to, inside and after the child
        return [(0, span("op", 0.0, end)), (1, span("fit", child_start, child_end, 0))]

    ops = [op(3.0, 0.5, 1.5), op(2.5, 0.2, 2.2), op(4.0, 1.0, 2.0),
           [(0, span("op", 0.0, 0.1))]]  # a lone different sequence is left out
    assert tracing.floor_seconds(ops) == pytest.approx(0.2 + 1.0 + 0.3)
    assert np.isnan(tracing.floor_seconds([]))


def test_child_spans_nest_inside_their_parent(small, tmp_path):
    inputs = small.setup(workloads.root_handle(2), tmp_path)
    tracer, _, _ = traced_op(small, inputs)
    spans = dict(tracer.op_spans(0))
    assert len(spans) > 2
    for s in spans.values():
        assert s.start <= s.end and s.op == 0
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    assert sum(s.parent is None for s in spans.values()) == 1


def test_wrapping_leaves_results_bit_identical(small, tmp_path):
    inputs = small.setup(workloads.root_handle(2), tmp_path)
    _, plain, plain_fits = traced_op(small, inputs, [])
    _, traced, traced_fits = traced_op(small, inputs)
    assert small.output_digest(plain, plain_fits) == small.output_digest(traced, traced_fits)
    assert small.check(inputs, traced, traced_fits) == []


def test_layer_metrics_count_the_work_of_one_operation(tmp_path):
    grid = SMALL["grid-labelled"]
    inputs = grid.setup(workloads.root_handle(2), tmp_path)
    tracer, _, _ = traced_op(grid, inputs)
    spans = tracer.op_spans(0)
    layers = tracing.op_layers(spans, next(i for i, s in spans if s.name == "op"))
    cells = 3 * len(grid.ranks) * len(grid.sigmas)
    assert layers["evaluation.mean_clustering_accuracy.calls"] == cells
    assert layers["evaluation.clustering_accuracy.calls"] == cells * grid.restarts
    assert layers["solver.epca_fit.calls"] == len(grid.ranks) * len(grid.sigmas)
    # Distinct (input, method, rank[, sigma]) fits: every epca cell, one per baseline rank.
    distinct = len(grid.ranks) * (len(grid.sigmas) + 2)
    assert layers["harness.fit_useful_ratio"] == pytest.approx(distinct / cells)
    assert 0 < layers["solver.epca_fit.self_s"] < layers["solver.epca_fit.busy_s"]
    assert set(layers) | {"trace.op_s_traced", "trace.op_s_untraced", "trace.overhead_s"} == {
        m["name"] for m in SPEC["per_layer"]}


# --- statistics and compare mode ---------------------------------------------

def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 26))
    value, percentile, n = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(60.0) and n == 25


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert compare.verdict(parent, [0.80, 0.81, 0.79, 0.82, 0.78], 0.1, "lower") == "better"
    assert compare.verdict(parent, [1.30, 1.31, 1.29, 1.32, 1.28], 0.1, "lower") == "worse"
    assert compare.verdict(parent, [1.01, 1.00, 1.02, 0.99, 1.03], 0.1, "lower") == "no worse"
    noisy = [0.5, 1.5, 0.7, 1.6, 1.0]
    assert compare.verdict(parent, noisy, 0.1, "lower") == "unresolved"
    assert compare.verdict(parent, [1.30, 1.31, 1.29, 1.32, 1.28], 0.1, "higher") == "better"


def write_results(directory, value, failed=()):
    """Three result files; the runs whose seed is in ``failed`` failed one op."""
    directory.mkdir()
    for seed in range(3):
        result = {"workload": "fit-wide", "trace": 0, "correct": seed not in failed,
                  "attempted": 10, "failed": int(seed in failed),
                  "metrics": {m["name"]: {"value": value + seed / 100, "unit": m["unit"]}
                              for m in SPEC["end_to_end"]}}
        (directory / f"{seed}.json").write_text(json.dumps(result))


def test_compare_reads_result_files(tmp_path):
    write_results(tmp_path / "parent", 1.0)
    write_results(tmp_path / "change", 2.0)
    rows = compare.compare(tmp_path / "parent", tmp_path / "change", SPEC)
    verdicts = {(w, m): v for w, m, _, _, v in rows}
    assert verdicts[("fit-wide", "failures")] == "no worse"
    assert verdicts[("fit-wide", "call_s_floor")] == "worse"
    assert verdicts[("grid-labelled", "call_s_floor")] == "missing"


def test_compare_fails_a_change_with_more_failed_operations(tmp_path, capsys):
    write_results(tmp_path / "parent", 1.0)
    write_results(tmp_path / "change", 0.5, failed=(1,))
    rows = compare.compare(tmp_path / "parent", tmp_path / "change", SPEC)
    verdicts = {(w, m): v for w, m, _, _, v in rows}
    # The failed run still counts towards the metric rows.
    assert verdicts[("fit-wide", "call_s_floor")] == "better"
    assert verdicts[("fit-wide", "failures")] == "worse"
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    assert "1/30 ops, 1/3 runs" in capsys.readouterr().out

