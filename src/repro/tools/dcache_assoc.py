"""Set-associative LRU data-cache SuperTool — the reconciliation limit.

The paper's §5.2 example is deliberately a *direct-mapped* cache: there,
the assume-hit/reconcile recipe is exact, because a set's state after
its first access is the same whether that access hit or missed.  With
associativity and LRU replacement that is no longer true — the unknown
at a slice boundary is not one line but the set's *recency order*, and
a wrong assumption can change which line gets evicted later in the same
slice.

This tool implements the natural generalization: each slice starts all
sets cold, assumes its first ``ways`` distinct lines per set were
resident, and the merge reconciles those assumptions against the
previous slices' final LRU state (hits for lines actually resident,
misses otherwise), then installs the slice's final state.  The result is
*approximate*: reconciliation corrects the boundary accesses themselves
but not second-order eviction divergence inside the slice.  The test
suite measures the error and bounds it — and verifies the tool degrades
to exact for ``ways=1`` (where it coincides with the §5.2 recipe).
"""

from __future__ import annotations

from collections import OrderedDict

from ..pin.args import (IARG_END, IARG_MEMORYREAD_EA, IARG_MEMORYWRITE_EA,
                        IPOINT_BEFORE)
from ..pin.pintool import Pintool


class _Set:
    """One LRU set: an ordered dict of resident lines (LRU first)."""

    __slots__ = ("lines",)

    def __init__(self):
        self.lines: OrderedDict[int, None] = OrderedDict()


class AssocDCacheSim(Pintool):
    """``ways``-associative LRU data-cache simulator (SuperPin-aware)."""

    name = "dcache_assoc"
    pure_instrumentation = True

    def __init__(self, sets: int = 64, ways: int = 2, line_words: int = 8):
        self.sets = sets
        self.ways = ways
        self.line_words = line_words
        self.hits = 0
        self.misses = 0
        #: set index -> _Set (slice-local view; starts cold each slice).
        self.cache: dict[int, _Set] = {}
        #: set index -> lines assumed resident on first touches.
        self.assumed: dict[int, list[int]] = {}
        self.shared = None
        self._sp_mode = False

    # -- analysis -------------------------------------------------------------

    def access(self, ea: int) -> None:
        line = ea // self.line_words
        index = line % self.sets
        entry = self.cache.get(index)
        if entry is None:
            entry = _Set()
            self.cache[index] = entry
        lines = entry.lines
        if line in lines:
            lines.move_to_end(line)
            self.hits += 1
            return
        if self._sp_mode:
            assumed = self.assumed.setdefault(index, [])
            if len(assumed) < self.ways and line not in assumed:
                # Cold set in this slice: optimistically assume resident.
                assumed.append(line)
                self.hits += 1
                lines[line] = None
                if len(lines) > self.ways:
                    lines.popitem(last=False)
                return
        self.misses += 1
        lines[line] = None
        if len(lines) > self.ways:
            lines.popitem(last=False)

    # -- SuperPin lifecycle ---------------------------------------------------

    def tool_reset(self, slice_num: int) -> None:
        self.hits = 0
        self.misses = 0
        self.cache = {}
        self.assumed = {}

    def merge(self, slice_num: int, value) -> None:
        shared = self.shared[0]
        state: dict[int, list[int]] = shared["state"]
        for index, assumed_lines in self.assumed.items():
            resident = state.get(index, [])
            for line in assumed_lines:
                if line not in resident:
                    self.hits -= 1
                    self.misses += 1
        for index, entry in self.cache.items():
            state[index] = list(entry.lines)
        shared["hits"] += self.hits
        shared["misses"] += self.misses
        shared["slices"] += 1

    def setup(self, sp) -> None:
        self._sp_mode = sp.SP_Init(self.tool_reset)
        payload = {"hits": 0, "misses": 0, "state": {}, "slices": 0}
        area = sp.SP_CreateSharedArea([None], 1, 0)
        if hasattr(area, "merge_from"):
            area[0] = payload
            self.shared = area
        else:
            self.shared = [payload]
        sp.SP_AddSliceEndFunction(self.merge, 0)

    def instrument_trace(self, trace, vm) -> None:
        for ins in trace.instructions:
            if ins.is_memory_read:
                ins.insert_call(IPOINT_BEFORE, self.access,
                                IARG_MEMORYREAD_EA, IARG_END)
            elif ins.is_memory_write:
                ins.insert_call(IPOINT_BEFORE, self.access,
                                IARG_MEMORYWRITE_EA, IARG_END)

    def fini(self) -> None:
        shared = self.shared[0]
        if shared["slices"] == 0:
            shared["hits"] += self.hits
            shared["misses"] += self.misses
            for index, entry in self.cache.items():
                shared["state"][index] = list(entry.lines)
            self.hits = 0
            self.misses = 0

    # -- results --------------------------------------------------------------

    @property
    def total_hits(self) -> int:
        return self.shared[0]["hits"]

    @property
    def total_misses(self) -> int:
        return self.shared[0]["misses"]

    @property
    def miss_rate(self) -> float:
        total = self.total_hits + self.total_misses
        return self.total_misses / total if total else 0.0

    def report(self) -> dict:
        return {"hits": self.total_hits, "misses": self.total_misses,
                "miss_rate": self.miss_rate, "sets": self.sets,
                "ways": self.ways, "line_words": self.line_words}
