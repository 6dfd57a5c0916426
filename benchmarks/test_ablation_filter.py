"""Ablation: selective instrumentation + redundancy suppression.

The fig3/fig5 counting tools re-measured with the -spfilter /
-spsuppress switches, isolating what each recovers:

* **suppress** — loops summarized in their loop forms, tool results
  bit-identical to full;
* **filter** — instruction-subset instrumentation (here ``func0``),
  non-matching traces compile as uninstrumented fast paths;
* **filter+suppress** — the combination the acceptance bar measures:
  analysis-call volume must drop at least 5x versus full
  instrumentation while the differential audit stays silent.
"""

from repro.harness import format_table
from repro.machine import Kernel
from repro.superpin import run_superpin, SuperPinConfig
from repro.tools import ICount1, ICount2
from repro.workloads import build

#: Routine filter for the headline rows (func0 is gzip's hottest
#: generated routine) and an opcode-class filter that leaves enough
#: summarizable loops to exercise both features at once.
ROUTINE_SPEC = "routine:func0"
OPCODE_SPEC = "opcode:mem"


def _run(program, tool_cls, **kwargs):
    config = SuperPinConfig(spmsec=2000, **kwargs)
    tool = tool_cls()
    report = run_superpin(program, tool, config, kernel=Kernel(seed=42))
    return tool, report


def test_filter_suppress_ablation(benchmark, bench_scale, save_figure):
    scale = max(bench_scale, 0.25)
    built = build("gzip", scale=scale)

    def run_all():
        out = {}
        for name, tool_cls in (("icount1", ICount1), ("icount2", ICount2)):
            out[name, "full"] = _run(built.program, tool_cls)
            out[name, "suppress"] = _run(built.program, tool_cls,
                                         spsuppress=True)
            out[name, "filter"] = _run(built.program, tool_cls,
                                       spfilter=ROUTINE_SPEC)
            # The audited headline configuration: both switches on.
            out[name, "filter+suppress"] = _run(
                built.program, tool_cls, spfilter=ROUTINE_SPEC,
                spsuppress=True, spaudit=True)
            out[name, "memfilter+suppress"] = _run(
                built.program, tool_cls, spfilter=OPCODE_SPEC,
                spsuppress=True)
        return out

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for (tool_name, config_name), (tool, report) in runs.items():
        instr = report.instrumentation_summary()
        rows.append([
            tool_name, config_name, tool.total,
            instr["analysis_calls"], instr["fastpath_traces"],
            instr["summarized_loops"], instr["suppressed_calls"],
        ])
    table = format_table(
        ["tool", "config", "icount", "analysis_calls", "fastpath",
         "summ_loops", "suppressed"], rows)
    save_figure("ablation_filter",
                "Ablation: selective instrumentation + suppression "
                "(gzip)\n\n" + table)

    for tool_name in ("icount1", "icount2"):
        full_tool, full_report = runs[tool_name, "full"]
        sup_tool, sup_report = runs[tool_name, "suppress"]
        flt_tool, flt_report = runs[tool_name, "filter"]
        both_tool, both_report = runs[tool_name, "filter+suppress"]

        # Execution stays exact everywhere.
        for _, report in (runs[tool_name, c] for c in
                          ("full", "suppress", "filter",
                           "filter+suppress", "memfilter+suppress")):
            assert report.all_exact

        # Suppression is invisible to the tool.
        assert sup_tool.total == full_tool.total
        assert (sup_report.instrumentation_summary()["summarized_loops"]
                > 0)

        # Filtering engages the fast path and the filtered subset is
        # identical whether or not suppression is on.
        assert (flt_report.instrumentation_summary()["fastpath_traces"]
                > 0)
        assert both_tool.total == flt_tool.total

        # The acceptance bar: filter+suppress drops analysis calls at
        # least 5x versus full instrumentation, audited divergence-free
        # (the audit's serial baseline runs the same filter, so the
        # tool.results check is live and must pass).
        full_calls = full_report.instrumentation_summary()[
            "analysis_calls"]
        both_calls = both_report.instrumentation_summary()[
            "analysis_calls"]
        assert both_calls * 5 <= full_calls
        assert both_report.audit is not None
        assert both_report.audit.ok, both_report.audit.summary()

        # The opcode-class combination engages both features at once.
        mem_instr = runs[tool_name, "memfilter+suppress"][1] \
            .instrumentation_summary()
        assert mem_instr["fastpath_traces"] > 0
        assert mem_instr["summarized_loops"] > 0
