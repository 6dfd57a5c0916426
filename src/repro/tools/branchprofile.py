"""Branch profiler: per-site taken/executed counts and bias.

Exercises the taken-edge instrumentation point (``IPOINT_TAKEN_BRANCH``)
together with a manual dictionary merge — the merge shape the paper's
§4.5 "add each local value to a running total" describes, generalized to
keyed counters.
"""

from __future__ import annotations

from ..pin.args import (IARG_END, IARG_INST_PTR, IPOINT_BEFORE,
                        IPOINT_TAKEN_BRANCH)
from ..pin.pintool import Pintool


class BranchProfile(Pintool):
    """Counts executions and taken-edges for every conditional branch."""

    name = "branchprofile"
    pure_instrumentation = True

    def __init__(self):
        #: site address -> [executed, taken]
        self.sites: dict[int, list[int]] = {}
        self.shared = None
        self._merged = 0

    def executed(self, address: int) -> None:
        entry = self.sites.get(address)
        if entry is None:
            entry = [0, 0]
            self.sites[address] = entry
        entry[0] += 1

    def taken(self, address: int) -> None:
        entry = self.sites.get(address)
        if entry is None:
            entry = [0, 0]
            self.sites[address] = entry
        entry[1] += 1

    # -- SuperPin ------------------------------------------------------------

    def tool_reset(self, slice_num: int) -> None:
        self.sites = {}

    def merge(self, slice_num: int, value) -> None:
        totals: dict[int, list[int]] = self.shared[0]
        for address, (executed, taken) in self.sites.items():
            entry = totals.get(address)
            if entry is None:
                totals[address] = [executed, taken]
            else:
                entry[0] += executed
                entry[1] += taken
        self._merged += 1

    def setup(self, sp) -> None:
        area = sp.SP_CreateSharedArea([None], 1, 0)
        if hasattr(area, "merge_from"):
            area[0] = {}
            self.shared = area
        else:
            self.shared = [{}]
        sp.SP_Init(self.tool_reset)
        sp.SP_AddSliceEndFunction(self.merge, 0)

    def instrument_trace(self, trace, vm) -> None:
        for ins in trace.instructions:
            if ins.is_cond_branch:
                ins.insert_call(IPOINT_BEFORE, self.executed,
                                IARG_INST_PTR, IARG_END)
                ins.insert_call(IPOINT_TAKEN_BRANCH, self.taken,
                                IARG_INST_PTR, IARG_END)

    def fini(self) -> None:
        if self._merged == 0:
            self.merge(-1, None)
            self.sites = {}

    # -- results --------------------------------------------------------------

    def profile(self) -> dict[int, tuple[int, int]]:
        """Site address -> (executed, taken)."""
        return {addr: tuple(entry)
                for addr, entry in self.shared[0].items()}

    def bias(self, address: int) -> float:
        executed, taken = self.shared[0][address]
        return taken / executed if executed else 0.0

    def report(self) -> dict:
        profile = self.profile()
        total_exec = sum(e for e, _ in profile.values())
        total_taken = sum(t for _, t in profile.values())
        return {"sites": len(profile), "executed": total_exec,
                "taken": total_taken}
