"""Cost model: functional statistics -> virtual cycles.

All timing in the reproduction is a pure function of (a) counters
measured during functional execution and (b) this cost model, so every
figure is deterministic and every design ablation is a one-line model
change.  Magnitudes are calibrated so the paper's headline ratios come
out (see DESIGN.md): classic Pin with per-instruction instrumentation
lands near the paper's ~12X average slowdown, per-basic-block
instrumentation near ~3X, and JIT compilation costs are significant
relative to a timeslice only for large-footprint applications (the gcc
story in §6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for annotations only (avoids an import cycle)
    from ..superpin.control import Interval
    from ..superpin.slices import SliceResult


@dataclass(frozen=True)
class CostModel:
    """Per-event virtual-cycle costs.

    The defaults assume the config's virtual clock (10k cycles/virtual
    second); they scale linearly with it.
    """

    #: Native cycles per instruction.
    cpi: float = 1.0
    #: Code-cache lookup + dispatch per executed trace.
    dispatch_per_trace: float = 2.0
    #: One analysis-routine invocation (call + spills + routine body).
    analysis_call: float = 10.0
    #: One inlined InsertIfCall check.
    inline_check: float = 1.0
    #: JIT compilation, fixed per trace and per compiled instruction.
    jit_per_trace: float = 30.0
    jit_per_ins: float = 22.0
    #: Kernel time for one syscall in a native run.
    syscall_native: float = 20.0
    #: Extra master cost per syscall under the control process (ptrace
    #: stop + VM re-entry; paper: "less than a few tenths of a percent").
    ptrace_stop: float = 15.0
    #: Control-process cost to record one syscall's effects.
    record_syscall: float = 10.0
    #: Slice cost to play back / re-emulate one recorded syscall.
    playback_syscall: float = 8.0
    emulate_syscall: float = 6.0
    #: Fork: base latency plus page-table work per resident page.
    fork_base: float = 1000.0
    fork_per_page: float = 15.0
    #: One copy-on-write page fault (charged where the fault happened).
    cow_per_page: float = 6.0
    #: New slice recording its signature (regs + 100 stack words + the
    #: quick-register lookahead).
    signature_record: float = 150.0
    #: Folding one slice's results into the shared areas.
    merge_per_slice: float = 50.0
    #: Per-trace consistency check when reusing a shared-code-cache entry
    #: compiled by another slice (SS8 extension).
    shared_cache_check: float = 3.0

    # -- aggregate costs -----------------------------------------------------

    def native_cycles(self, instructions: int, syscalls: int) -> float:
        """Uninstrumented single-process run time."""
        return self.cpi * instructions + self.syscall_native * syscalls

    def pin_cycles(self, instructions: int, syscalls: int,
                   traces_executed: int, analysis_calls: int,
                   inline_checks: int, compiles: int,
                   compiled_ins: int) -> float:
        """Classic serial Pin run time (the paper's baseline mode)."""
        return (self.cpi * instructions
                + self.syscall_native * syscalls
                + self.dispatch_per_trace * traces_executed
                + self.analysis_call * analysis_calls
                + self.inline_check * inline_checks
                + self.jit_per_trace * compiles
                + self.jit_per_ins * compiled_ins)

    def master_interval_cycles(self, interval: "Interval") -> float:
        """Master-side cost of one timeslice under the control process."""
        records = interval.replay_records + interval.emulate_records
        return (self.cpi * interval.instructions
                + self.syscall_native * interval.syscalls
                + self.ptrace_stop * interval.syscalls
                + self.record_syscall * records
                + self.cow_per_page * interval.master_cow_faults)

    def fork_cycles(self, resident_pages: int) -> float:
        return self.fork_base + self.fork_per_page * resident_pages

    def slice_cycles(self, result: "SliceResult",
                     charge: tuple[int, int, int] | None = None) -> float:
        """CPU work of one instrumented slice (excluding merge).
        ``charge``: its ``(compiles, compiled_ins, reuses)`` under a
        shared code cache (:func:`shared_cache_charges`); by default it
        pays for everything it compiled."""
        compiles, compiled_ins, reuses = charge or (
            result.compiles, result.compiled_ins, 0)
        return (self.cpi * result.instructions
                + self.dispatch_per_trace * result.traces_executed
                + self.analysis_call * result.analysis_calls
                + self.inline_check * result.inline_checks
                + self.jit_per_trace * compiles
                + self.jit_per_ins * compiled_ins
                + self.playback_syscall * result.replayed_syscalls
                + self.emulate_syscall * result.emulated_syscalls
                + self.cow_per_page * result.cow_faults
                + self.shared_cache_check * reuses
                + self.signature_record)


def shared_cache_charges(results) -> dict[int, tuple[int, int, int]]:
    """§8 attribution: ``slice index -> (compiles, compiled_ins,
    reuses)`` had the slices shared one code cache.  Walks the compile
    logs in slice order; each trace, keyed by ``(address, num_ins)``,
    costs the lowest-indexed slice that compiled it, and every other
    compile is a *reuse* paying only the consistency check.  A pure
    function of the logs: the same for any worker count or completion
    order, and the results are not touched."""
    compiled: set[tuple[int, int]] = set()
    charges: dict[int, tuple[int, int, int]] = {}
    for result in sorted(results, key=lambda r: r.index):
        compiles = compiled_ins = 0
        for shape in result.compile_log:
            if shape not in compiled:
                compiled.add(shape)
                compiles += 1
                compiled_ins += shape[1]
        charges[result.index] = (compiles, compiled_ins,
                                 len(result.compile_log) - compiles)
    return charges


#: The model used by the shipped figures.
DEFAULT_COST_MODEL = CostModel()
