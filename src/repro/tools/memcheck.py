"""Memcheck-lite: uninitialized-load detection as a SuperTool.

A Valgrind-flavoured checker: report every load from a word that was
never stored to (and is outside the program's initialized image).  The
interesting part is the SuperPin conversion, which needs the §4.5
assume/track/reconcile recipe in yet another shape:

* a slice cannot know which addresses *earlier* slices initialized, so
  a load with no preceding store **in this slice** is only *suspected*;
* each slice tracks its own store-set and its suspected loads;
* the merge (slice order) maintains the authoritative initialized set:
  suspicions about addresses some earlier slice wrote are dismissed,
  the rest become real reports, and the slice's store-set is folded in.

Unlike the dcache tool the reconciliation here is *exact by
construction*: definedness is monotone (once written, always written),
so suspicion dismissal cannot change any later slice's behaviour.  The
test suite asserts equality with serial Pin, and that the tool finds
planted bugs.
"""

from __future__ import annotations

from ..pin.args import (IARG_END, IARG_INST_PTR, IARG_MEMORYREAD_EA,
                        IARG_MEMORYWRITE_EA, IPOINT_BEFORE)
from ..pin.pintool import Pintool


class MemCheck(Pintool):
    """Reports loads from never-initialized memory words."""

    name = "memcheck"
    pure_instrumentation = True

    def __init__(self, initialized: set[int] | None = None):
        #: Addresses considered pre-initialized (the loaded image plus
        #: anything the harness wants to bless).  Populated from the
        #: program image at activation time.
        self.preinit: set[int] = set(initialized or ())
        self.stores: set[int] = set()
        #: (pc, ea) loads with no prior store in this slice/run.
        self.suspects: list[tuple[int, int]] = []
        self.loads = 0
        self.shared = None
        self._sp_mode = False

    # -- analysis -------------------------------------------------------------

    def on_store(self, ea: int) -> None:
        self.stores.add(ea)

    def on_load(self, pc: int, ea: int) -> None:
        self.loads += 1
        if ea in self.stores or ea in self.preinit:
            return
        self.suspects.append((pc, ea))

    # -- SuperPin lifecycle ---------------------------------------------------

    def tool_reset(self, slice_num: int) -> None:
        self.stores = set()
        self.suspects = []
        self.loads = 0

    def merge(self, slice_num: int, value) -> None:
        shared = self.shared[0]
        initialized: set[int] = shared["initialized"]
        for pc, ea in self.suspects:
            if ea not in initialized:
                shared["reports"].append((pc, ea))
        initialized |= self.stores
        shared["loads"] += self.loads
        shared["slices"] += 1

    def setup(self, sp) -> None:
        self._sp_mode = sp.SP_Init(self.tool_reset)
        payload = {"reports": [], "initialized": set(), "loads": 0,
                   "slices": 0}
        area = sp.SP_CreateSharedArea([None], 1, 0)
        if hasattr(area, "merge_from"):
            area[0] = payload
            self.shared = area
        else:
            self.shared = [payload]
        sp.SP_AddSliceEndFunction(self.merge, 0)

    def activate(self, vm) -> None:
        # Bless the loaded image: every word materialized at load time
        # (text, data, and the thread trampoline) counts as initialized.
        for page_index, page in vm.mem._pages.items():
            base = page_index * len(page)
            for offset, word in enumerate(page):
                if word:
                    self.preinit.add(base + offset)
        super().activate(vm)

    def instrument_trace(self, trace, vm) -> None:
        for ins in trace.instructions:
            if ins.is_memory_read:
                ins.insert_call(IPOINT_BEFORE, self.on_load,
                                IARG_INST_PTR, IARG_MEMORYREAD_EA,
                                IARG_END)
            elif ins.is_memory_write:
                ins.insert_call(IPOINT_BEFORE, self.on_store,
                                IARG_MEMORYWRITE_EA, IARG_END)

    def fini(self) -> None:
        shared = self.shared[0]
        if shared["slices"] == 0:
            self.merge(-1, None)
            self.suspects = []
            self.stores = set()
            self.loads = 0

    # -- results --------------------------------------------------------------

    @property
    def reports(self) -> list[tuple[int, int]]:
        """(pc, address) pairs for loads of uninitialized words."""
        return list(self.shared[0]["reports"])

    @property
    def total_loads(self) -> int:
        return self.shared[0]["loads"]

    def report(self) -> dict:
        reports = self.reports
        return {"uninitialized_loads": len(reports),
                "distinct_sites": len({pc for pc, _ in reports}),
                "loads": self.total_loads}
