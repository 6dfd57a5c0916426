"""Instruction-counting tools (paper §5.1 and Figure 2).

Two variants ship with Pin and both are reproduced here:

* :class:`ICount1` instruments *every instruction* with a counter
  increment — the instrumentation-limited workhorse of Figure 3/4.
* :class:`ICount2` inserts one call per *basic block*, incrementing by
  ``BBL_NumIns`` — the optimized version of Figure 2/5.  Its SuperPin
  plumbing follows the paper's Figure 2 line for line: a shared area, a
  ``ToolReset`` passed to ``SP_Init``, and a manual ``Merge`` registered
  as a slice-end function.

Both produce identical counts; they differ only in overhead.  Both
declare a summary form, which a loop form fires once per loop exit
(:mod:`repro.pin.pyjit`), counted as the calls it stands for.
"""

from __future__ import annotations

from ..pin.api import (BBL_InsHead, BBL_Next, BBL_NumMatchingIns,
                       BBL_Valid, INS_InsertSummarizedCall,
                       INS_MatchesFilter, TRACE_BblHead)
from ..pin.args import IARG_END, IARG_UINT64, IPOINT_BEFORE
from ..pin.pintool import Pintool


class ICount2(Pintool):
    """Basic-block granularity instruction counter (Figure 2)."""

    name = "icount2"
    pure_instrumentation = True

    def __init__(self):
        self.icount = 0
        self.shared_data = None
        self.slices_merged = 0

    # -- analysis ------------------------------------------------------------

    def docount(self, count: int) -> None:
        self.icount += count

    def docount_summary(self, iterations: int, count: int) -> None:
        """Summary form: ``iterations`` loop trips of ``docount(count)``."""
        self.icount += iterations * count

    # -- SuperPin hooks (the highlighted lines of Figure 2) -------------------

    def tool_reset(self, slice_num: int) -> None:
        """NEW: Clears slice local data."""
        self.icount = 0

    def merge(self, slice_num: int, value) -> None:
        """NEW: Merge local to shared data."""
        self.shared_data[0] += self.icount
        self.slices_merged += 1

    # -- lifecycle ------------------------------------------------------------

    def setup(self, sp) -> None:
        sp.SP_Init(self.tool_reset)
        self.shared_data = sp.SP_CreateSharedArea([self.icount], 1, 0)
        if self.shared_data is not None and not hasattr(
                self.shared_data, "merge_from"):
            # Plain Pin mode: SP_CreateSharedArea handed back local data.
            self.shared_data = [0]
        sp.SP_AddSliceEndFunction(self.merge, 0)

    def instrument_trace(self, trace, vm) -> None:
        bbl = TRACE_BblHead(trace)
        while BBL_Valid(bbl):
            # Count per-instruction against the filter (trace shapes
            # differ between serial and sliced runs, so a per-trace
            # decision would not be replay-stable).  The increment is
            # invariant (a literal), so declare the summary form: a loop
            # form fires it once per loop exit with the trip count
            # instead of once per iteration.
            count = BBL_NumMatchingIns(bbl, self.instrument_filter)
            if count:
                INS_InsertSummarizedCall(
                    BBL_InsHead(bbl), IPOINT_BEFORE, self.docount,
                    self.docount_summary,
                    IARG_UINT64, count, IARG_END)
            bbl = BBL_Next(bbl)

    def fini(self) -> None:
        # Under SuperPin the merged total lives in the shared area; under
        # plain Pin nothing ever merged, so fold the local count in now.
        if self.slices_merged == 0:
            self.shared_data[0] += self.icount
            self.icount = 0

    @property
    def total(self) -> int:
        """Final instruction count (valid after fini)."""
        return self.shared_data[0]

    def report(self) -> dict:
        return {"icount": self.total}


class ICount1(ICount2):
    """Per-instruction counter: one analysis call for every instruction."""

    name = "icount1"
    pure_instrumentation = True

    def docount1(self) -> None:
        self.icount += 1

    def docount1_summary(self, iterations: int) -> None:
        """Summary form: ``iterations`` invocations of ``docount1``."""
        self.icount += iterations

    def instrument_trace(self, trace, vm) -> None:
        for ins in trace.instructions:
            if INS_MatchesFilter(ins, self.instrument_filter):
                INS_InsertSummarizedCall(ins, IPOINT_BEFORE,
                                         self.docount1,
                                         self.docount1_summary, IARG_END)
