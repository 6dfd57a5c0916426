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

from .dcache import CacheSim


class _Set:
    """One LRU set: an ordered dict of resident lines (LRU first)."""

    __slots__ = ("lines",)

    def __init__(self):
        self.lines: OrderedDict[int, None] = OrderedDict()


class AssocDCacheSim(CacheSim):
    """``ways``-associative LRU data-cache simulator (SuperPin-aware)."""

    name = "dcache_assoc"

    def __init__(self, sets: int = 64, ways: int = 2, line_words: int = 8):
        super().__init__(sets, line_words)
        self.ways = ways
        #: set index -> _Set (slice-local view; starts cold each slice).
        self.cache: dict[int, _Set] = {}
        #: set index -> lines assumed resident on first touches.
        self.assumed: dict[int, list[int]] = {}

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

    def reconcile(self, state: dict) -> None:
        for index, assumed_lines in self.assumed.items():
            resident = state.get(index, [])
            for line in assumed_lines:
                if line not in resident:
                    self.hits -= 1
                    self.misses += 1

    def install(self, state: dict) -> None:
        for index, entry in self.cache.items():
            state[index] = list(entry.lines)

    # -- results --------------------------------------------------------------

    def report(self) -> dict:
        return {"hits": self.total_hits, "misses": self.total_misses,
                "miss_rate": self.miss_rate, "sets": self.sets,
                "ways": self.ways, "line_words": self.line_words}
