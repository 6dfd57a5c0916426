"""Figure regeneration: one function per paper figure.

Each function returns plain data (a :class:`FigureData`) so tests can
assert on shape properties; :mod:`repro.harness.report` renders the same
data as ASCII tables/charts for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..superpin.switches import SuperPinConfig
from ..workloads import BENCHMARK_NAMES
from .runner import BenchmarkRun, run_benchmark

#: Benchmark + timeslice used by the paper's §6.1/§6.2 studies.
GCC = "gcc"


@dataclass
class FigureData:
    """One regenerated figure: labelled series of rows."""

    figure: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: list[str] = field(default_factory=list)

    def column(self, name: str) -> list:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def row(self, label) -> list:
        for row in self.rows:
            if row[0] == label:
                return row
        raise KeyError(label)


def _suite_runs(tool: str, scale: float,
                config: SuperPinConfig | None = None,
                benchmarks: list[str] | None = None) -> list[BenchmarkRun]:
    names = benchmarks or BENCHMARK_NAMES
    config = config or SuperPinConfig(spmsec=2000)
    return [run_benchmark(name, tool=tool, scale=scale, config=config)
            for name in names]


def _relative_to_native(tool: str, figure: str, note: str, scale: float,
                        benchmarks: list[str] | None) -> FigureData:
    """Pin and SuperPin runtime under ``tool``, relative to native
    (percent): Figures 3 and 5."""
    runs = _suite_runs(tool, scale, benchmarks=benchmarks)
    rows = [[r.benchmark, round(r.pin_relative * 100, 1),
             round(r.superpin_relative * 100, 1)] for r in runs]
    rows.append(["AVG",
                 round(sum(r.pin_relative for r in runs)
                       / len(runs) * 100, 1),
                 round(sum(r.superpin_relative for r in runs)
                       / len(runs) * 100, 1)])
    return FigureData(
        figure=figure,
        title=f"{tool}: Pin and SuperPin performance relative to native",
        headers=["benchmark", "pin_%", "superpin_%"],
        rows=rows,
        notes=[note])


def figure3(scale: float = 1.0,
            benchmarks: list[str] | None = None) -> FigureData:
    """icount1: Pin and SuperPin runtime relative to native (percent)."""
    return _relative_to_native(
        "icount1", "3", "paper: ~12X average Pin slowdown; SuperPin far lower",
        scale, benchmarks)


def figure4(scale: float = 1.0,
            benchmarks: list[str] | None = None) -> FigureData:
    """icount1: SuperPin speedup over Pin (3X-7X+, one outlier higher)."""
    runs = _suite_runs("icount1", scale, benchmarks=benchmarks)
    rows = [[r.benchmark, round(r.speedup, 2)] for r in runs]
    rows.append(["AVG", round(sum(r.speedup for r in runs) / len(runs), 2)])
    return FigureData(
        figure="4",
        title="icount1: SuperPin speedup over Pin",
        headers=["benchmark", "speedup_x"],
        rows=rows,
        notes=["paper: 3X to over 7X, 11.2X outlier"])


def figure5(scale: float = 1.0,
            benchmarks: list[str] | None = None) -> FigureData:
    """icount2: Pin and SuperPin runtime relative to native (percent)."""
    return _relative_to_native(
        "icount2", "5", "paper: ~25% average SuperPin slowdown (7% to <100%)",
        scale, benchmarks)


def figure6(scale: float = 1.0, tool: str = "icount1",
            timeslices_sec: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
            ) -> FigureData:
    """gcc runtime vs timeslice interval, with the §6.1 breakdown."""
    rows = []
    for seconds in timeslices_sec:
        config = SuperPinConfig(spmsec=int(seconds * 1000))
        run = run_benchmark(GCC, tool=tool, scale=scale, config=config)
        timing = run.timing
        to_sec = 1.0 / config.clock_hz
        rows.append([
            seconds,
            round(timing.native_cycles * to_sec, 2),
            round(timing.fork_others_cycles * to_sec, 2),
            round(timing.sleep_cycles * to_sec, 2),
            round(timing.pipeline_cycles * to_sec, 2),
            round(timing.total_cycles * to_sec, 2),
        ])
    return FigureData(
        figure="6",
        title=f"gcc ({tool}): timeslice interval variation, "
              f"runtime breakdown (virtual seconds)",
        headers=["timeslice_s", "native", "fork_others", "sleep",
                 "pipeline", "total"],
        rows=rows,
        notes=["paper: fork overhead falls and pipeline delay grows with "
               "timeslice size; net runtime falls then levels off"])


def figure7(scale: float = 1.0, tool: str = "icount1",
            max_slices: tuple[int, ...] = (1, 2, 4, 8, 12, 16)
            ) -> FigureData:
    """gcc runtime vs -spmp on the 8-way + hyperthreading machine."""
    rows = []
    for spmp in max_slices:
        config = SuperPinConfig(spmsec=2000, spmp=spmp)
        run = run_benchmark(GCC, tool=tool, scale=scale, config=config)
        to_sec = 1.0 / config.clock_hz
        rows.append([
            spmp,
            round(run.timing.total_cycles * to_sec, 2),
            round(run.timing.native_cycles * to_sec, 2),
            run.timing.max_concurrent_slices,
        ])
    return FigureData(
        figure="7",
        title=f"gcc ({tool}): impact of available processor parallelism",
        headers=["max_slices", "runtime_s", "native_s", "max_concurrent"],
        rows=rows,
        notes=["paper: dramatic gains up to 8 physical CPUs, modest HT "
               "gains to 16 (application-limited)"])


def signature_stats(scale: float = 0.5,
                    benchmarks: list[str] | None = None) -> FigureData:
    """§4.4's detection statistics: quick/full/stack check rates."""
    names = benchmarks or ["gzip", "gcc", "mcf", "crafty", "swim",
                           "mgrid", "twolf", "vortex"]
    rows = []
    for name in names:
        run = run_benchmark(name, tool="icount2", scale=scale)
        stats = run.superpin.detection_summary()
        rows.append([
            name,
            stats["quick_checks"],
            stats["full_checks"],
            round(stats["full_check_rate"] * 100, 3),
            stats["stack_checks"],
        ])
    total_quick = sum(row[1] for row in rows)
    total_full = sum(row[2] for row in rows)
    rows.append(["TOTAL", total_quick, total_full,
                 round(total_full / total_quick * 100, 3)
                 if total_quick else 0.0,
                 sum(row[4] for row in rows)])
    return FigureData(
        figure="sig",
        title="Signature detection statistics (paper §4.4)",
        headers=["benchmark", "quick_checks", "full_checks",
                 "full_rate_%", "stack_checks"],
        rows=rows,
        notes=["paper: ~2% of quick checks trigger a full check; the "
               "stack check usually runs once and succeeds"])


FIGURES = {
    "3": figure3,
    "4": figure4,
    "5": figure5,
    "6": figure6,
    "7": figure7,
    "sigstats": signature_stats,
}
