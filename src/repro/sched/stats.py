"""Timing reports and the Figure-6 style breakdown."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SliceSpan:
    """When one slice was forked, became runnable, and completed."""

    index: int
    forked_at: float
    runnable_at: float
    completed_at: float
    merged_at: float
    work_cycles: float


@dataclass
class TimingReport:
    """Wall-clock (virtual) timing of one SuperPin run.

    The four breakdown components stack to the total exactly the way the
    paper's Figure 6 stacks its bars:

    * ``native``      — what the uninstrumented application takes alone;
    * ``fork_others`` — fork latency, ptrace stops, syscall recording,
      COW faults and master slowdown from sharing the machine;
    * ``sleep``       — master stalls waiting for a slice slot (-spmp);
    * ``pipeline``    — drain time after the master exits until the last
      slice has merged.
    """

    total_cycles: float
    native_cycles: float
    master_finish_cycles: float
    sleep_cycles: float
    fork_cycles: float
    spans: list[SliceSpan] = field(default_factory=list)
    max_concurrent_slices: int = 0

    @property
    def pipeline_cycles(self) -> float:
        return self.total_cycles - self.master_finish_cycles

    @property
    def fork_others_cycles(self) -> float:
        """Everything on the master path that is not native work or sleep."""
        return max(0.0, self.master_finish_cycles - self.native_cycles
                   - self.sleep_cycles)

    @property
    def slowdown(self) -> float:
        """Total runtime relative to the native run (1.0 = real time)."""
        return self.total_cycles / self.native_cycles \
            if self.native_cycles else float("inf")

    def breakdown(self) -> dict[str, float]:
        """Figure-6 components, in cycles, summing to ``total_cycles``."""
        return {
            "native": self.native_cycles,
            "fork_others": self.fork_others_cycles,
            "sleep": self.sleep_cycles,
            "pipeline": self.pipeline_cycles,
        }
