"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result files ``run.py`` writes to
``perfbench/out/results/`` (copy them aside after running each commit).  For
every workload and end-to-end metric of ``BENCHMARK.json`` the table shows
each side's median and quartiles and a verdict under the metric's bound:

* ``better``: every change run beats every parent run, or the change's
  median beats the parent's by more than the parent's quartile distance;
* ``worse``: the change's median is worse by more than the bound;
* ``unresolved``: either side's quartile distance exceeds the bound (as a
  share of its median), so the runs cannot tell;
* ``no worse``: anything else.

Each workload also gets a ``failures`` row with each side's failed/attempted
operations and failed/total runs.  Its verdict is ``worse`` when the change
has more failed operations or more failed runs than the parent, since a gain
does not count when more operations fail.  Metric rows take every run,
failed ones included; a figure a run could not measure (NaN) is left out.
The exit code is 1 when any row reads ``worse`` or ``missing``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, better):
    """Verdict for one metric; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if all(sign * c < sign * p for c in change for p in parent):
        return "better"
    scale = abs(pm) or 1.0
    if (p3 - p1) / scale > bound or (c3 - c1) / (abs(cm) or 1.0) > bound:
        return "unresolved"
    gain = sign * (pm - cm)
    if gain < -bound * scale:
        return "worse"
    if gain > p3 - p1 and gain > 0:
        return "better"
    return "no worse"


def load(directory):
    """``{workload: {"failed": ops, "attempted": ops, "failed_runs": runs,
    "runs": runs, "metrics": {metric: [values]}}}`` from the untraced result
    files."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result.get("trace") != 0:
            continue
        side = out.setdefault(result["workload"], {"failed": 0, "attempted": 0,
                                                   "failed_runs": 0, "runs": 0,
                                                   "metrics": {}})
        side["failed"] += result["failed"]
        side["attempted"] += result["attempted"]
        side["failed_runs"] += not result["correct"]
        side["runs"] += 1
        for name, entry in result["metrics"].items():
            if math.isfinite(entry["value"]):
                side["metrics"].setdefault(name, []).append(entry["value"])
    return out


def failure_verdict(parent, change):
    worse = (change["failed"] > parent["failed"]
             or change["failed_runs"] > parent["failed_runs"])
    return "worse" if worse else "no worse"


def compare(parent_dir, change_dir, spec):
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name in parent and name in change:
            rows.append((name, "failures", parent[name], change[name],
                         failure_verdict(parent[name], change[name])))
        else:
            rows.append((name, "failures", None, None, "missing"))
        for metric in spec["end_to_end"]:
            p = parent.get(name, {}).get("metrics", {}).get(metric["name"])
            c = change.get(name, {}).get("metrics", {}).get(metric["name"])
            if not p or not c:
                rows.append((name, metric["name"], None, None, "missing"))
                continue
            rows.append((name, metric["name"], quartiles(p), quartiles(c),
                         verdict(p, c, metric["bound"], metric["better"])))
    return rows


def show(q):
    if q is None:
        return "-"
    if isinstance(q, dict):
        return (f"{q['failed']}/{q['attempted']} ops, "
                f"{q['failed_runs']}/{q['runs']} runs")
    return "/".join(f"{x:.4g}" for x in q)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    rows = compare(argv[0], argv[1], spec)
    fmt = "{:14s} {:14s} {:>34s} {:>34s}  {}"
    print(fmt.format("workload", "metric", "parent q1/median/q3", "change q1/median/q3", "verdict"))
    for workload, metric, p, c, v in rows:
        print(fmt.format(workload, metric, show(p), show(c), v))
    return 1 if any(v in ("worse", "missing") for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
