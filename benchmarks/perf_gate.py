"""CI performance-regression gate for the SuperPin slice phase.

Runs the bench-smoke workload (gzip at a reduced scale, two workers,
metrics on), then compares the measured phase wall-clock figures and
the deterministic counter totals against a committed baseline:

    python benchmarks/perf_gate.py --update   # regenerate the baseline
    python benchmarks/perf_gate.py --check    # gate (exit 1 on regression)
    python benchmarks/perf_gate.py --check --trace trace.json

Wall-clock figures gate only on the upper bound (faster is never a
regression) with a generous 2x tolerance, because CI machines vary.
Counter totals are products of the deterministic simulation — the same
slices always execute the same instructions — but they are still gated
at 2x in both directions rather than exact equality, so intentional
small shifts (say a JIT policy change) update the baseline without
flapping, while a counter that doubles fails loudly.

The gate runs the workload *twice* in one process and gates the
second run: the baseline was taken that way, and a process's first run
also pays for filling its code pool.

The streamed pipeline is gated on ``master_overlap_seconds > 0``: the
master's host seconds after the first slice was released.  A run that
drains the master before releasing a slice (the old barrier, or
``-spworkers 0``) reads exactly 0.0.  How many results land before the
master ends is the host's scheduling, so that counter is not gated.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fsutil import atomic_write  # noqa: E402
from repro.machine import Kernel  # noqa: E402
from repro.obs import write_trace  # noqa: E402
from repro.superpin import run_superpin, SuperPinConfig  # noqa: E402
from repro.superpin.slices import PLACEMENT_COUNTERS  # noqa: E402
from repro.superpin.supervisor import (  # noqa: E402
    LANDED_BEFORE_MASTER_END,
)
from repro.tools import TOOLS  # noqa: E402
from repro.workloads import build  # noqa: E402

DEFAULT_BASELINE = Path(__file__).parent / "results" / "baseline.json"

#: The bench-smoke workload: small enough for CI, large enough to cut
#: a dozen timeslices through the supervised parallel path.
WORKLOAD = "gzip"
SCALE = 0.25
TOOL = "icount2"
WORKERS = 2

#: Selective-instrumentation setting for the gated run.  The mem
#: opcode class is the one gzip filter that leaves both the filter and
#: the loop summaries with work to do: plenty of non-matching traces
#: take the uninstrumented fast path *and* enough counting loops
#: survive to be summarized.
FILTER = "opcode:mem"

#: Upper-bound factor for wall-clock figures, both-ways factor for
#: counters.
TOLERANCE = 2.0

#: Wall-clock figures taken from the run (seconds, gated upper-bound
#: only).
WALLCLOCK_KEYS = (
    "signature_phase_seconds",
    "slice_phase_seconds",
    "slice_run_seconds",
)

#: Counters that must stay nonzero: a zero means the optimisation
#: (trace linking, default-on) or the account (warm starts) silently
#: stopped engaging, which the 2x band alone would only catch as a huge
#: swing in its neighbours.
REQUIRED_NONZERO = (
    "pin.cache.linked_dispatches",
    "pin.cache.warm_starts",
    "pin.filter.fastpath_traces",
    "pin.suppress.summarized_loops",
    # The master is serial Pin's engine with no tool: this
    # 127k-instruction run's loops run thousands of times, so zero means
    # the master no longer lowers what its heat shows is hot (it has
    # lost the JIT's pool, or runs threaded code only).
    "superpin.control.master.jit_instructions",
    # The resident slice machines: this multi-slice run recompiles the
    # same four hot functions in every slice, so zero means the workers'
    # pools have silently stopped engaging.
    "pin.jit.skeleton_reuses",
    # ... and the same four functions are where the run's time goes, so
    # zero means no trace is being lowered to generated code any more
    # (heat lost between slices, or the threshold out of reach).
    "pin.jit.hot_compiles",
    # ... and icount2 declares its instrumentation pure, so zero means
    # every tool has silently dropped back to instrumenting every
    # compile (the declaration, the adoption or a per-trace condition
    # broke).
    "pin.jit.instrumentation_reuses",
    # ... and those functions' loops are single traces branching to
    # their own heads, in the slices (even the loop a slice's signature
    # pc falls inside: it splits a block, not the trace) and in the
    # master, so zero means
    # generated code has gone back to one dispatch a trip (the loop
    # form is not being built, or its allowance never reaches two).
    "pin.jit.loop_trips",
    "superpin.control.master.loop_trips",
)

#: Counters that must *equal* the baseline: functions of the guest and
#: the timeslice alone.  ``ready_before_master_end`` is ``slices - 1``.
REQUIRED_EQUAL = ("superpin.stream.ready_before_master_end",)

#: Counters the host decides, run by run — which worker ran which
#: slices, how far the master had got when a result landed.  They must
#: exist (and the required ones be nonzero, above), no more.
HOST_COUNTERS = (*PLACEMENT_COUNTERS, LANDED_BEFORE_MASTER_END)


def _run_once(trace_path=None):
    config = SuperPinConfig(spworkers=WORKERS, spmetrics=True,
                            spfilter=FILTER)
    built = build(WORKLOAD, clock_hz=config.clock_hz, scale=SCALE)
    tool = TOOLS[TOOL]()
    report = run_superpin(built.program, tool, config, kernel=Kernel(seed=42))
    if trace_path:
        kind = write_trace(trace_path, report.trace, report.metrics)
        print(f"wrote {kind} trace to {trace_path}")
    return report


def measure(trace_path=None):
    """One warm-up run, then the gated one."""
    _run_once()
    gated = _run_once(trace_path=trace_path)
    wall = gated.wallclock_summary()
    return {
        "workload": WORKLOAD,
        "scale": SCALE,
        "tool": TOOL,
        "workers": WORKERS,
        "filter": FILTER,
        "wallclock": {key: wall[key] for key in WALLCLOCK_KEYS},
        "counters": dict(gated.metrics.counters),
        "master_overlap_seconds": wall["master_overlap_seconds"],
    }


def compare(current, baseline):
    """Return a list of human-readable regression descriptions."""
    failures = []
    for key in WALLCLOCK_KEYS:
        base = baseline["wallclock"].get(key)
        now = current["wallclock"][key]
        if base is None:
            failures.append(f"wallclock {key}: no baseline entry")
        elif now > base * TOLERANCE:
            failures.append(
                f"wallclock {key}: {now:.4f}s exceeds "
                f"{TOLERANCE}x baseline ({base:.4f}s)"
            )
    for name in REQUIRED_NONZERO:
        if not current["counters"].get(name):
            failures.append(
                f"counter {name}: expected nonzero "
                f"(got {current['counters'].get(name, 0)})"
            )
    if not current["master_overlap_seconds"] > 0:
        failures.append(
            "master_overlap_seconds is 0: the master finished before the "
            "first slice was released (the streamed pipeline is gone)"
        )
    base_counters = baseline["counters"]
    for name in sorted(set(base_counters) | set(current["counters"])):
        base = base_counters.get(name)
        now = current["counters"].get(name)
        if base is None:
            failures.append(
                f"counter {name}: new counter ({now}), not in baseline"
            )
        elif now is None:
            failures.append(f"counter {name}: disappeared (baseline {base})")
        elif name in HOST_COUNTERS:
            continue
        elif name in REQUIRED_EQUAL:
            if now != base:
                failures.append(
                    f"counter {name}: {now} != baseline {base} "
                    f"(deterministic: must be equal)"
                )
        elif base > 0 and not base / TOLERANCE <= now <= base * TOLERANCE:
            failures.append(
                f"counter {name}: {now} outside "
                f"[{base / TOLERANCE:.0f}, {base * TOLERANCE:.0f}] "
                f"(baseline {base})"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--update", action="store_true", help="rewrite the baseline"
    )
    mode.add_argument(
        "--check", action="store_true", help="gate against the baseline"
    )
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE), help="baseline path"
    )
    parser.add_argument(
        "--trace", default=None, help="also export a Chrome trace here"
    )
    args = parser.parse_args(argv)

    current = measure(trace_path=args.trace)
    baseline_path = Path(args.baseline)

    if args.update:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(baseline_path, json.dumps(current, indent=2) + "\n")
        print(f"wrote baseline to {baseline_path}")
        return 0

    baseline = json.loads(baseline_path.read_text())
    failures = compare(current, baseline)
    for key in WALLCLOCK_KEYS:
        print(
            f"{key}: {current['wallclock'][key]:.4f}s "
            f"(baseline {baseline['wallclock'].get(key, 0.0):.4f}s)"
        )
    print(f"counters checked: {len(baseline['counters'])}")
    if failures:
        print(f"\nPERF GATE FAILED ({len(failures)} regressions):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
