"""Dynamic opcode-mix profiler.

Counts executed instructions per opcode.  Uses an ADD-mode auto-merged
shared area — the zero-tool-code merge path of ``SP_CreateSharedArea``:
the runtime itself folds each slice's counter vector into the shared
region, so the tool registers *no* slice-end function at all.
"""

from __future__ import annotations

from ..isa.instructions import Op
from ..pin.api import INS_MatchesFilter
from ..pin.args import IARG_END, IARG_UINT64, IPOINT_BEFORE
from ..pin.pintool import Pintool
from ..superpin.sharedmem import AutoMerge

#: Counter-vector length (opcode values are < 128 by construction).
_VECTOR_LEN = 128


class OpcodeMix(Pintool):
    """Per-opcode dynamic execution counts."""

    name = "opcodemix"
    pure_instrumentation = True

    def __init__(self):
        self.counts: list[int] = [0] * _VECTOR_LEN
        self.shared = None

    def bump(self, opnum: int) -> None:
        self.counts[opnum] += 1

    def bump_summary(self, iterations: int, opnum: int) -> None:
        """Summary form: ``iterations`` loop trips of ``bump(opnum)``."""
        self.counts[opnum] += iterations

    def tool_reset(self, slice_num: int) -> None:
        for i in range(_VECTOR_LEN):
            self.counts[i] = 0

    def setup(self, sp) -> None:
        sp.SP_Init(self.tool_reset)
        area = sp.SP_CreateSharedArea(self.counts, _VECTOR_LEN,
                                      AutoMerge.ADD)
        self.shared = area if hasattr(area, "merge_from") else None

    def instrument_trace(self, trace, vm) -> None:
        for ins in trace.instructions:
            # Per-instruction filter check keeps the counted set stable
            # across serial and sliced trace shapes.  The opcode is
            # static: it travels as a literal argument, and the call
            # declares its affine summary form for loop summaries.
            if INS_MatchesFilter(ins, self.instrument_filter):
                ins.insert_summarized_call(
                    IPOINT_BEFORE, self.bump, self.bump_summary,
                    IARG_UINT64, int(ins.op), IARG_END)

    # -- results --------------------------------------------------------------

    def vector(self) -> list[int]:
        if self.shared is not None:
            return list(self.shared.data)
        return list(self.counts)

    def mix(self) -> dict[str, int]:
        """Opcode name -> dynamic count (only non-zero entries)."""
        vector = self.vector()
        return {Op(i).name.lower(): count
                for i, count in enumerate(vector)
                if count and i in Op._value2member_map_}

    @property
    def total(self) -> int:
        return sum(self.vector())

    def report(self) -> dict:
        return {"total": self.total, "mix": self.mix()}
