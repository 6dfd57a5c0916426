"""Ablation: the paper's §8 future-work optimizations, quantified.

The paper proposes two follow-ups and predicts their effect; this bench
measures exactly the claims:

* **adaptive timeslice throttling** (``-spexpected N``) — "decrease the
  timeslice size toward the end of application execution" to attack
  the pipeline delay;
* **shared code cache** — "share the code cache across all timeslices"
  to attack the compilation slowdown, at the price of per-trace
  consistency checks.  A view of the timing model over the same run's
  compile logs (``SuperPinReport.shared_cache_timing``), so its rows
  reuse the runs of the rows above them.
"""

from repro.harness import format_table
from repro.machine import Kernel
from repro.sched import shared_cache_charges
from repro.superpin import run_superpin, SuperPinConfig
from repro.tools import ICount2
from repro.workloads import build


def _run(program, **kwargs):
    config = SuperPinConfig(spmsec=2000, **kwargs)
    return run_superpin(program, ICount2(), config, kernel=Kernel(seed=42))


def test_future_work_optimizations(benchmark, bench_scale, save_figure):
    scale = max(bench_scale, 0.25)
    built = build("gcc", scale=scale)
    expected_msec = int(built.spec.duration * scale * 1000)

    def run_all():
        return {
            "baseline": _run(built.program),
            "adaptive": _run(built.program,
                             expected_duration_msec=expected_msec),
        }

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    # label -> (run, shared code cache?)
    rows_of = {"baseline": (runs["baseline"], False),
               "adaptive": (runs["adaptive"], False),
               "shared cache": (runs["baseline"], True),
               "both": (runs["adaptive"], True)}

    rows, timings = [], {}
    for label, (report, shared) in rows_of.items():
        if shared:
            timing = report.shared_cache_timing()
            charges = shared_cache_charges(report.slices).values()
            compiled_ins = sum(ins for _, ins, _ in charges)
        else:
            timing = report.timing
            compiled_ins = sum(s.compiled_ins for s in report.slices)
        timings[label] = timing
        rows.append([
            label,
            report.num_slices,
            round(timing.slowdown, 2),
            round(timing.pipeline_cycles / timing.native_cycles * 100, 1),
            round(timing.sleep_cycles / timing.native_cycles * 100, 1),
            compiled_ins,
        ])
    table = format_table(
        ["config", "slices", "slowdown_x", "pipeline_%", "sleep_%",
         "compiled_ins"], rows)
    save_figure("ablation_extensions",
                "Ablation: paper §8 future-work optimizations (gcc)\n\n"
                + table)

    base = timings["baseline"]
    adaptive = timings["adaptive"]
    shared = timings["shared cache"]
    both = timings["both"]

    # Everything stays exact.
    assert all(r.all_exact for r in runs.values())
    # Adaptive throttling cuts the pipeline delay substantially.
    assert adaptive.pipeline_cycles < 0.5 * base.pipeline_cycles
    # The shared cache cuts total runtime (compilation slowdown).
    assert shared.total_cycles < base.total_cycles
    # Combining both beats the baseline and each single optimization.
    assert both.total_cycles < base.total_cycles
    assert both.total_cycles <= adaptive.total_cycles + 1e-6
    assert both.total_cycles <= shared.total_cycles + 1e-6
