"""The epca benchmark: seeded workloads, end-to-end metrics and a traced run.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing)::

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 55 --trace 0

A run generates its inputs from ``--seed`` and sets them up several times.
``setup_s`` is the median import time of the package in a fresh interpreter
(several are started, one after another) plus the median time to build the
inputs.  The run then calls the workload's operation back to back, one client
in one thread (BLAS too), for ``--seconds`` seconds, and checks every output.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of ``BENCHMARK.json``.  Its call time, ``call_s_floor``, is not the
median operation time: every operation repeats bit-identical work (the checks
enforce it), so their times differ only by interference from the rest of the
machine, which only ever adds time.  On a small shared host that interference
slows operations by up to ~50% for much of a run, so the median, and even the
fastest operation, move with how much of the run the interference covers.
``call_s_floor`` cuts each operation into pieces at the layer boundaries of
``tracing.TARGETS`` and adds up the fastest time seen for each piece
(``tracing.floor_seconds``); so every operation of such a run carries the
layer spans.  The fastest operation, the median and the tail are printed
beside it.
With ``--trace 1`` operations alternate traced and bare (no layer spans, only
the operation's own timer): the traced ones give the per-layer metrics, and
the difference between the two medians is the tracing overhead.  The lines
before the last show the environment and every figure by name and unit.  The
full result, and the spans of a traced run, go to ``perfbench/out/results/``.
The exit code is 1 when any check failed; without ``src/epca`` the run stops
with an error before measuring.

``python3 perfbench/compare.py PARENT_DIR CHANGE_DIR`` compares two sets of
result files.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
MIN_OPS = 3
TAIL_BEYOND = 10
BLAS_THREADS = 1


class Op(NamedTuple):
    op: int
    bare: bool
    seconds: float
    problems: list


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples)``: the ``beyond+1``-th largest
    value, at percentile ``100·(n-beyond)/n``.  With ``beyond`` samples or
    fewer it falls back to the smallest value, at percentile 0, and with
    none (every operation raised) it is NaN.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan"), 0.0, 0
    if n <= beyond:
        return ordered[0], 0.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def import_package():
    """Import ``epca`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "epca" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources at {src / 'epca'}")
    sys.path.insert(0, str(src))
    import epca

    if Path(epca.__file__).resolve().parent != (src / "epca").resolve():
        raise SystemExit(f"error: imported epca from {epca.__file__}, not {src}")


def import_seconds():
    """Seconds a fresh interpreter takes to import the package and the
    benchmark's modules, once per ``SETUP_REPEATS`` interpreters run one after
    another.  A single in-process import is one cold sample and varies too
    much from run to run to carry ``setup_s``."""
    code = ("import time, run; start = time.perf_counter(); run.import_package(); "
            "import tracing, workloads; print(time.perf_counter() - start)")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment(workload, args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "EPCA_THREADS": os.environ.get("EPCA_THREADS"),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "workload": workload.name,
        "shapes": workload.shapes(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def set_up(workload, handle, workdir):
    """Build the inputs ``SETUP_REPEATS`` times; returns (inputs, seconds per build)."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(handle, workdir)
        times.append(time.perf_counter() - start)
        digests.add(inputs["digest"])
    if len(digests) != 1:
        raise RuntimeError("set-up gave different inputs for one seed")
    return inputs, times


def measure(tracing, workload, inputs, seconds, trace):
    """The closed loop.  Returns the ops, the tracer, and the first output's
    quality figures (every later output must equal the first bit for bit)."""
    tracer = tracing.Tracer()
    call = tracer.wrap("op", workload.call)
    ops, reference, first = [], None, {}
    deadline = time.perf_counter() + seconds
    while True:
        op = tracer.op = len(ops)
        bare = bool(trace) and op % 2 == 1
        problems, output = [], None
        with tracer.installed([] if bare else tracing.TARGETS):
            try:
                output = call(inputs)
            except Exception as exc:  # count it as a failed operation and go on
                problems.append(f"raised {type(exc).__name__}: {exc}")
        spans = tracer.op_spans(op)
        fits = [(s.attrs["state"], s.attrs["sigma"]) for _, s in spans if "state" in s.attrs]
        if output is not None:
            problems += workload.check(inputs, output, fits)
            digest = workload.output_digest(output, fits)
            if reference is None:
                reference = digest
                first = workload.quality(inputs, output, fits)
                final_problems, extra = workload.final_check(inputs, output, fits)
                problems += final_problems
                first.update(extra)
            elif digest != reference:
                problems.append("output differs from the first call on the same input")
        for _, s in spans:
            s.attrs.pop("state", None)
        top = next(s for _, s in spans if s.name == "op")
        ops.append(Op(op, bare, top.end - top.start, problems))
        del output, fits

        if (len(ops) >= MIN_OPS and time.perf_counter()
                + statistics.median(o.seconds for o in ops) > deadline):
            return ops, tracer, first


def span_seconds(tracer, ops, name):
    return [s.end - s.start for o in ops for _, s in tracer.op_spans(o.op) if s.name == name]


def figures(tracing, workload, tracer, ops, first, setup_s):
    """Every end-to-end figure as ``name: (value, unit)``; ``BENCHMARK.json``
    declares which of them the result line carries."""
    timed = [o for o in ops if not o.bare]
    call_s = median(o.seconds for o in timed)
    out = {
        "setup_s": (setup_s, "s"),
        "call_s_floor": (tracing.floor_seconds(tracer.op_spans(o.op) for o in timed
                                               if not o.problems), "s"),
        "call_s_min": (min((o.seconds for o in timed), default=float("nan")), "s"),
        "call_s_p50": (call_s, "s"),
        "recon_err_rel": (first.get("recon_err_rel", float("nan")), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "subspace_sin": (first.get("subspace_sin", float("nan")), "ratio"),
        "fail_ratio": (sum(1 for o in ops if o.problems) / len(ops), "ratio"),
    }
    for prefix, name in (("step", workload.step), ("fit", tracing.EPCA_FIT)):
        times = span_seconds(tracer, timed, name)
        value, percentile, samples = tail(times)
        out[f"{prefix}_s_p50"] = (median(times), "s")
        out[f"{prefix}_s_tail"] = (value, "s")
        out[f"{prefix}_s_tail.percentile"] = (percentile, "%")
        out[f"{prefix}_s_tail.samples"] = (samples, "count")
    if "mean_accuracy" in first:
        out["mean_accuracy"] = (first["mean_accuracy"], "ratio")
    if workload.name == "grid-labelled":
        out["run_s"] = (call_s, "s")
    return out


def layer_figures(tracing, tracer, ops, units):
    """Per-layer figures: the median over traced ops, plus the tracing overhead."""
    traced = [o for o in ops if not o.bare]
    rows = []
    for o in traced:
        spans = tracer.op_spans(o.op)
        rows.append(tracing.op_layers(spans, next(i for i, s in spans if s.name == "op")))
    out = {k: (statistics.median(row[k] for row in rows), units[k]) for k in rows[0]}
    traced_s = statistics.median(o.seconds for o in traced)
    untraced_s = statistics.median(o.seconds for o in ops if o.bare)
    out["trace.op_s_traced"] = (traced_s, "s")
    out["trace.op_s_untraced"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # One client in one thread: the grid's pool stays at its default width 1,
    # and BLAS runs single-threaded (set before numpy loads), because on a
    # small shared machine a second BLAS thread made run-to-run times bimodal.
    os.environ.pop("EPCA_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    import_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment(workload, args)

    workdir = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import_times = import_seconds()
        inputs, setup_times = set_up(workload, workloads.root_handle(args.seed), workdir)
        ops, tracer, first = measure(tracing, workload, inputs, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = figures(tracing, workload, tracer, ops, first,
                  statistics.median(import_times) + statistics.median(setup_times))
    env["iterations"] = sorted({s.attrs["iterations"] for s in tracer.spans
                                if s.name == tracing.EPCA_FIT})
    problems = [f"op {o.op}: {p}" for o in ops for p in o.problems]
    details = {"environment": env, "problems": problems, "import_runs_s": import_times,
               "setup_runs_s": setup_times, "quality": first,
               "ops": [o._asdict() for o in ops],
               "figures": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, details["per_layer_by_op"] = layer_figures(tracing, tracer, ops, units)
    else:
        metrics = e2e
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    failed = sum(1 for o in ops if o.problems)
    result = {"correct": not problems, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared}}

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer.write_jsonl(OUT / "results" / f"spans-{tag}.jsonl")
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": workload.name, "seed": args.seed,
                   "trace": args.trace, "details": details}, fh, indent=1)

    print("environment:", json.dumps(env, sort_keys=True))
    for p in problems:
        print("CHECK FAILED:", p)
    for name, (value, unit) in {**e2e, **(metrics if args.trace else {})}.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
