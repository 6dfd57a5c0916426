"""Instruction-address tracer.

The paper's example of merge-by-append (§4.5): "if we are tracing
instructions, the slice output will be buffered, then appended to the
output during merging."  Slice buffers concatenate in slice order via a
CONCAT-mode shared area, so the merged SuperPin trace is *identical* to
the serial Pin trace — an equality the integration tests assert.  A cap
(``max_entries``) is the merged trace's, as it is serial Pin's: each
slice buffers up to it, and the merge keeps the first ``max_entries``
of the concatenation and counts the rest as dropped.
"""

from __future__ import annotations

from ..pin.args import IARG_END, IARG_INST_PTR, IPOINT_BEFORE
from ..pin.pintool import Pintool
from ..superpin.sharedmem import AutoMerge


class ITrace(Pintool):
    """Records the address of every executed instruction."""

    name = "itrace"
    pure_instrumentation = True

    def __init__(self, max_entries: int = 0):
        #: 0 means unlimited; otherwise the trace is truncated (the tool
        #: keeps counting, it just stops buffering).
        self.max_entries = max_entries
        self.buffer: list[int] = []
        self.dropped = 0
        self.shared = None
        self.shared_dropped = None

    def record(self, address: int) -> None:
        if self.max_entries and len(self.buffer) >= self.max_entries:
            self.dropped += 1
            return
        self.buffer.append(address)

    def tool_reset(self, slice_num: int) -> None:
        # In place: the buffer object is registered as the auto-merge
        # local; rebinding the attribute would orphan the registration.
        self.buffer.clear()
        self.dropped = 0

    def setup(self, sp) -> None:
        sp.SP_Init(self.tool_reset)
        area = sp.SP_CreateSharedArea(self.buffer, 0, AutoMerge.CONCAT)
        if hasattr(area, "merge_from"):
            area.data = []  # start the merged trace empty
            self.shared = area
            self.shared_dropped = sp.SP_CreateSharedArea([0], 1, 0)
            sp.SP_AddSliceEndFunction(self.merge, 0)
        else:
            self.shared = None  # plain Pin: the local buffer is the trace

    def merge(self, slice_num: int, value) -> None:
        """After this slice's buffer was appended (slice order): cut the
        merged trace back to the cap, and count what it lost."""
        merged = self.shared.data
        cut = len(merged) - self.max_entries if self.max_entries else 0
        if cut > 0:
            del merged[self.max_entries:]
        self.shared_dropped[0] += self.dropped + max(cut, 0)

    def instrument_trace(self, trace, vm) -> None:
        for ins in trace.instructions:
            ins.insert_call(IPOINT_BEFORE, self.record, IARG_INST_PTR,
                            IARG_END)

    @property
    def trace(self) -> list[int]:
        """The complete merged trace."""
        if self.shared is not None:
            return list(self.shared.data)
        return list(self.buffer)

    def report(self) -> dict:
        trace = self.trace
        dropped = (self.dropped if self.shared_dropped is None
                   else self.shared_dropped[0])
        return {"entries": len(trace), "dropped": dropped,
                "first": trace[:5], "last": trace[-5:]}
