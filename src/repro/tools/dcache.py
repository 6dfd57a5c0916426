"""Data-cache simulator SuperTool (paper §5.2).

A direct-mapped data cache driven by every memory access.  This is the
paper's worked example of converting a tool with *cross-slice
dependences* to SuperPin using the §4.5 recipe:

1. **Assume**: the first access to each cache set inside a slice is
   assumed to be a hit, and the assumed line is specially recorded.
2. **Track**: the slice also tracks its own final tag per touched set.
3. **Reconcile**: at merge time (slice order), each assumption is
   compared with the authoritative cache state left by the previous
   slices; wrong assumptions convert one hit into one miss.  Then the
   slice's final tags overwrite the authoritative state.

For a direct-mapped cache the reconciliation is *exact*: whether the
first access to a set hits or misses, the set ends up holding that line,
so every subsequent access in the slice is unaffected.  The test suite
asserts exact equality with the serial-Pin cache simulation.

:class:`CacheSim` is the lifecycle both cache simulators share (this
one and :mod:`repro.tools.dcache_assoc`): the shared area, the
instrumentation, the merge and ``fini`` around a tool's own
reconciliation and state install, and the totals.
"""

from __future__ import annotations

from ..pin.args import (IARG_END, IARG_MEMORYREAD_EA, IARG_MEMORYWRITE_EA,
                        IPOINT_BEFORE)
from ..pin.pintool import Pintool


class CacheSim(Pintool):
    """A data-cache simulator driven by every memory access: what the
    direct-mapped and the set-associative tools share.  A subclass
    supplies ``access``, ``tool_reset``, :meth:`reconcile` (turn
    wrong assumptions into misses), :meth:`install` (write the slice's
    final cache state into the authoritative one) and ``report``."""

    pure_instrumentation = True

    def __init__(self, sets: int, line_words: int):
        self.sets = sets
        self.line_words = line_words
        self.hits = 0
        self.misses = 0
        self.shared = None
        self._sp_mode = False

    def reconcile(self, state: dict) -> None:
        """Convert each wrong assumption of this slice, judged against
        the previous slices' final ``state``, from a hit to a miss."""
        raise NotImplementedError

    def install(self, state: dict) -> None:
        """Write this slice's final cache state into ``state``."""
        raise NotImplementedError

    # -- SuperPin lifecycle ---------------------------------------------------

    def merge(self, slice_num: int, value) -> None:
        """Reconcile assumptions against the authoritative cache state.

        ``self.shared`` must be indexed here rather than captured as the
        payload dict: the area object survives the per-slice tool copy
        (it is shared memory), while a plain dict reference would be
        deep-copied with the tool and the merge would update a private
        copy.
        """
        shared = self.shared[0]
        self.reconcile(shared["state"])
        self.install(shared["state"])
        shared["hits"] += self.hits
        shared["misses"] += self.misses
        shared["slices"] += 1

    def setup(self, sp) -> None:
        self._sp_mode = sp.SP_Init(self.tool_reset)
        payload = {"hits": 0, "misses": 0, "state": {}, "slices": 0}
        area = sp.SP_CreateSharedArea([None], 1, 0)
        if hasattr(area, "merge_from"):
            area[0] = payload  # SuperPin: payload lives in shared memory
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
            # Plain Pin mode: nothing merged; fold the local counters in.
            shared["hits"] += self.hits
            shared["misses"] += self.misses
            self.install(shared["state"])
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


class DCacheSim(CacheSim):
    """Direct-mapped data-cache hit/miss simulator."""

    name = "dcache"

    def __init__(self, sets: int = 256, line_words: int = 8):
        super().__init__(sets, line_words)
        #: set index -> resident line address (slice-local view).
        self.tags: dict[int, int] = {}
        #: set index -> line assumed present on the slice's first access.
        self.assumed: dict[int, int] = {}

    # -- analysis -------------------------------------------------------------

    def access(self, ea: int) -> None:
        line = ea // self.line_words
        index = line % self.sets
        tags = self.tags
        resident = tags.get(index)
        if resident == line:
            self.hits += 1
            return
        if resident is None and self._sp_mode and index not in self.assumed:
            # First touch of this set in the slice: assume a hit and
            # remember the assumption for reconciliation (§5.2).
            self.assumed[index] = line
            self.hits += 1
            tags[index] = line
            return
        self.misses += 1
        tags[index] = line

    # -- SuperPin lifecycle ---------------------------------------------------

    def tool_reset(self, slice_num: int) -> None:
        self.hits = 0
        self.misses = 0
        self.tags = {}
        self.assumed = {}

    def reconcile(self, state: dict) -> None:
        for index, line in self.assumed.items():
            if state.get(index) != line:
                self.hits -= 1
                self.misses += 1

    def install(self, state: dict) -> None:
        state.update(self.tags)

    # -- results --------------------------------------------------------------

    def report(self) -> dict:
        return {
            "hits": self.total_hits,
            "misses": self.total_misses,
            "miss_rate": self.miss_rate,
            "sets": self.sets,
            "line_words": self.line_words,
        }
