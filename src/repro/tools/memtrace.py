"""Memory-access tracer: effective-address stream plus footprint stats."""

from __future__ import annotations

from ..pin.args import (IARG_END, IARG_MEMORYREAD_EA, IARG_MEMORYWRITE_EA,
                        IPOINT_BEFORE)
from ..pin.pintool import Pintool
from ..superpin.sharedmem import AutoMerge


class MemTrace(Pintool):
    """Records every data read/write address; reports footprint stats.

    The address stream merges by concatenation (slice order) like itrace,
    cut back to ``max_entries`` if set — serial Pin's stream; the
    distinct-address footprint merges manually as a set union.
    """

    name = "memtrace"
    pure_instrumentation = True

    def __init__(self, max_entries: int = 0):
        self.max_entries = max_entries
        self.accesses: list[tuple[str, int]] = []
        self.footprint: set[int] = set()
        self.reads = 0
        self.writes = 0
        self.shared_stream = None
        self.shared_stats = None
        self._merged = 0

    def on_read(self, ea: int) -> None:
        self.reads += 1
        self.footprint.add(ea)
        if not self.max_entries or len(self.accesses) < self.max_entries:
            self.accesses.append(("r", ea))

    def on_write(self, ea: int) -> None:
        self.writes += 1
        self.footprint.add(ea)
        if not self.max_entries or len(self.accesses) < self.max_entries:
            self.accesses.append(("w", ea))

    # -- SuperPin ------------------------------------------------------------

    def tool_reset(self, slice_num: int) -> None:
        # The access list is a registered auto-merge local: clear in
        # place (rebinding would orphan the registration).
        self.accesses.clear()
        self.footprint = set()
        self.reads = 0
        self.writes = 0

    def merge(self, slice_num: int, value) -> None:
        stats = self.shared_stats[0]
        stats["reads"] += self.reads
        stats["writes"] += self.writes
        stats["footprint"] |= self.footprint
        if self.max_entries and self.shared_stream is not None:
            del self.shared_stream.data[self.max_entries:]
        self._merged += 1

    def setup(self, sp) -> None:
        sp.SP_Init(self.tool_reset)
        stream = sp.SP_CreateSharedArea(self.accesses, 0, AutoMerge.CONCAT)
        if hasattr(stream, "merge_from"):
            stream.data = []
            self.shared_stream = stream
        stats = sp.SP_CreateSharedArea([None], 1, 0)
        if hasattr(stats, "merge_from"):
            stats[0] = {"reads": 0, "writes": 0, "footprint": set()}
            self.shared_stats = stats
        else:
            self.shared_stats = [{"reads": 0, "writes": 0,
                                  "footprint": set()}]
        sp.SP_AddSliceEndFunction(self.merge, 0)

    def instrument_trace(self, trace, vm) -> None:
        for ins in trace.instructions:
            if ins.is_memory_read:
                ins.insert_call(IPOINT_BEFORE, self.on_read,
                                IARG_MEMORYREAD_EA, IARG_END)
            elif ins.is_memory_write:
                ins.insert_call(IPOINT_BEFORE, self.on_write,
                                IARG_MEMORYWRITE_EA, IARG_END)

    def fini(self) -> None:
        if self._merged == 0:
            self.merge(-1, None)
            self.reads = 0
            self.writes = 0
            self.footprint = set()

    # -- results --------------------------------------------------------------

    @property
    def stream(self) -> list[tuple[str, int]]:
        if self.shared_stream is not None:
            return list(self.shared_stream.data)
        return list(self.accesses)

    def report(self) -> dict:
        stats = self.shared_stats[0]
        return {"reads": stats["reads"], "writes": stats["writes"],
                "footprint_words": len(stats["footprint"])}
