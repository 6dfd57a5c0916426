#!/usr/bin/env python3
"""Compare two suite results: ``python3 bench/compare.py A.json B.json``.

A is the base (the parent commit), B the change.  One row per workload
and end-to-end metric: both medians with their quartiles, the ratio B/A,
and a verdict against the bound ``BENCHMARK.json`` fixes for the metric:

``better`` / ``worse``
    B's median differs from A's by more than the bound.
``same``
    It does not, and both results are steadier than the bound.
``unresolved``
    The interquartile spread of either result exceeds the bound and the
    two interquartile ranges overlap: the runs cannot tell.

The cost model's virtual-time figures are deterministic, so they are
compared for exact equality.  Exit code 1 if any row is ``worse`` or a
virtual figure differs.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics that must be bit-identical across commits unless
#: the change is to the cost model itself.
DETERMINISTIC = ("sched.virtual_slowdown", "sched.virtual_speedup_vs_pin")


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """Judge one metric of the change ``b`` against the base ``a``;
    each is a dict with ``value``, ``q1`` and ``q3``."""
    spread = max((m["q3"] - m["q1"]) / m["value"] for m in (a, b))
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if spread > bound and overlap:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def rows(base: dict, change: dict, declared: dict):
    """Yield ``(workload, metric, a, b, verdict)`` for every end-to-end
    metric both results hold."""
    for workload in declared["workloads"]:
        name = workload["name"]
        try:
            a_metrics = base["workloads"][name]["e2e"]["metrics"]
            b_metrics = change["workloads"][name]["e2e"]["metrics"]
        except KeyError:
            continue
        for metric in declared["end_to_end"]:
            a = a_metrics.get(metric["name"])
            b = b_metrics.get(metric["name"])
            if a is None or b is None:
                continue
            yield name, metric, a, b, verdict(a, b, metric["bound"],
                                              metric["better"])


def deterministic_rows(base: dict, change: dict):
    """Yield ``(workload, metric, a value, b value)`` for the virtual
    figures both results hold."""
    for name in base["workloads"]:
        try:
            a_metrics = base["workloads"][name]["layers"]["metrics"]
            b_metrics = change["workloads"][name]["layers"]["metrics"]
        except KeyError:
            continue
        for metric in DETERMINISTIC:
            if metric in a_metrics and metric in b_metrics:
                yield (name, metric, a_metrics[metric]["value"],
                       b_metrics[metric]["value"])


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n")[0], file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    declared = load(os.path.join(ROOT, "BENCHMARK.json"))
    bad = 0
    print(f"base A = {argv[0]}    change B = {argv[1]}")
    print(f"{'workload':17s} {'metric':17s} {'A median [q1, q3]':>31s} "
          f"{'B median [q1, q3]':>31s} {'B/A':>6s} bound verdict")
    for name, metric, a, b, judged in rows(base, change, declared):
        bad += judged == "worse"

        def cell(m):
            return f"{m['value']:9.4f} [{m['q1']:8.4f}, {m['q3']:8.4f}]"

        print(f"{name:17s} {metric['name']:17s} {cell(a):>31s} "
              f"{cell(b):>31s} {b['value'] / a['value']:6.3f} "
              f"{metric['bound']:4.0%}  {judged}  ({metric['unit']}, "
              f"{metric['better']} is better)")
    for name, metric, a, b in deterministic_rows(base, change):
        equal = a == b
        bad += not equal
        print(f"{name:17s} {metric:35s} A {a!r} B {b!r} "
              f"{'identical' if equal else 'DIFFERS'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
