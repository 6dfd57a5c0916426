"""Ablation: selective instrumentation, with the loop summaries every run
fires.

The fig3/fig5 counting tools re-measured with the -spfilter switch,
isolating what it recovers:

* **full** — every instruction instrumented; hot loops summarized in
  their loop forms (no switch: the ``pin.suppress.*`` counters, read
  under ``spmetrics``, say how many loops and how many calls they
  saved; a summary counts as the calls it stands for, so
  ``analysis_calls`` is what the tool asked for);
* **filter** — instruction-subset instrumentation (here ``func0``),
  non-matching traces compile as uninstrumented fast paths.  The
  acceptance bar: analysis-call volume must drop at least 5x versus
  full instrumentation while the differential audit stays silent;
* **memfilter** — an opcode-class filter that leaves both the fast
  path and summarized loops with work to do.
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
    config = SuperPinConfig(spmsec=2000, spmetrics=True, **kwargs)
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
            # The audited headline configuration.
            out[name, "filter"] = _run(built.program, tool_cls,
                                       spfilter=ROUTINE_SPEC, spaudit=True)
            out[name, "memfilter"] = _run(built.program, tool_cls,
                                          spfilter=OPCODE_SPEC)
        return out

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)

    def summarized(report):
        counter = report.metrics.counter
        return (int(counter("pin.suppress.summarized_loops")),
                int(counter("pin.suppress.suppressed_calls")))

    rows = []
    for (tool_name, config_name), (tool, report) in runs.items():
        instr = report.instrumentation_summary()
        rows.append([
            tool_name, config_name, tool.total,
            instr["analysis_calls"], instr["fastpath_traces"],
            *summarized(report),
        ])
    table = format_table(
        ["tool", "config", "icount", "analysis_calls", "fastpath",
         "summ_loops", "suppressed"], rows)
    save_figure("ablation_filter",
                "Ablation: selective instrumentation, loop summaries "
                "counted (gzip)\n\n" + table)

    for tool_name in ("icount1", "icount2"):
        full_tool, full_report = runs[tool_name, "full"]
        flt_tool, flt_report = runs[tool_name, "filter"]
        mem_tool, mem_report = runs[tool_name, "memfilter"]

        # Execution stays exact everywhere.
        for _, report in (runs[tool_name, c] for c in
                          ("full", "filter", "memfilter")):
            assert report.all_exact

        # Loops are summarized by default, and a summary counts the
        # calls it stands for: every instruction is counted by a call.
        assert summarized(full_report)[0] > 0
        if tool_name == "icount1":
            assert (full_report.instrumentation_summary()["analysis_calls"]
                    >= full_tool.total)

        # Filtering engages the fast path.
        assert (flt_report.instrumentation_summary()["fastpath_traces"]
                > 0)

        # The acceptance bar: the filter drops analysis calls at least
        # 5x versus full instrumentation, audited divergence-free (the
        # audit's serial baseline runs the same filter, so the
        # tool.results check is live and must pass).
        full_calls = full_report.instrumentation_summary()[
            "analysis_calls"]
        flt_calls = flt_report.instrumentation_summary()["analysis_calls"]
        assert flt_calls * 5 <= full_calls
        assert flt_report.audit is not None
        assert flt_report.audit.ok, flt_report.audit.summary()

        # The opcode-class filter engages both features at once.
        assert mem_report.instrumentation_summary()["fastpath_traces"] > 0
        assert summarized(mem_report)[0] > 0
        assert 0 < mem_tool.total < full_tool.total
