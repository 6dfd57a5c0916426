"""C-style Pin API facade.

Thin wrappers matching the names used in the paper's Figure 2, so the
shipped tools read like their Pin counterparts::

    def Trace(trace, v):
        bbl = TRACE_BblHead(trace)
        while BBL_Valid(bbl):
            INS_InsertCall(BBL_InsHead(bbl), IPOINT_BEFORE, docount,
                           IARG_UINT64, BBL_NumIns(bbl), IARG_END)
            bbl = BBL_Next(bbl)

Everything here delegates to the object API in :mod:`repro.pin.trace`;
tools are free to use either style.
"""

from __future__ import annotations

from .filter import InstrumentFilter, opcode_class_of
from .trace import Bbl, Ins, TraceObj

# -- TRACE ------------------------------------------------------------------


def TRACE_Address(trace: TraceObj) -> int:
    return trace.address


def TRACE_NumBbl(trace: TraceObj) -> int:
    return len(trace.bbls)


def TRACE_NumIns(trace: TraceObj) -> int:
    return trace.num_ins


def TRACE_BblHead(trace: TraceObj) -> Bbl | None:
    """First basic block of the trace (None when the trace is empty)."""
    if not trace.bbls:
        return None
    head = trace.bbls[0]
    _link(trace)
    return head


def _link(trace: TraceObj) -> None:
    """Attach next-pointers so BBL_Next / INS_Next iterate in O(1)."""
    for i, bbl in enumerate(trace.bbls):
        bbl._next = trace.bbls[i + 1] if i + 1 < len(trace.bbls) else None
        instructions = bbl.instructions
        for j, ins in enumerate(instructions):
            ins._next = (instructions[j + 1]
                         if j + 1 < len(instructions) else None)


# -- BBL ---------------------------------------------------------------------


def BBL_Valid(bbl: Bbl | None) -> bool:
    return bbl is not None


def BBL_Next(bbl: Bbl) -> Bbl | None:
    return getattr(bbl, "_next", None)


def BBL_Address(bbl: Bbl) -> int:
    return bbl.address


def BBL_NumIns(bbl: Bbl) -> int:
    return bbl.num_ins


def BBL_InsHead(bbl: Bbl) -> Ins:
    return bbl.head


def BBL_InsTail(bbl: Bbl) -> Ins:
    return bbl.tail


# -- INS ---------------------------------------------------------------------


def INS_Valid(ins: Ins | None) -> bool:
    return ins is not None


def INS_Next(ins: Ins) -> Ins | None:
    return getattr(ins, "_next", None)


def INS_Address(ins: Ins) -> int:
    return ins.address


def INS_Disassemble(ins: Ins) -> str:
    return ins.disassemble()


def INS_IsBranch(ins: Ins) -> bool:
    return ins.is_branch

def INS_IsCall(ins: Ins) -> bool:
    return ins.is_call


def INS_IsRet(ins: Ins) -> bool:
    return ins.is_ret


def INS_IsSyscall(ins: Ins) -> bool:
    return ins.is_syscall


def INS_IsMemoryRead(ins: Ins) -> bool:
    return ins.is_memory_read


def INS_IsMemoryWrite(ins: Ins) -> bool:
    return ins.is_memory_write


def INS_OpcodeClass(ins: Ins) -> str:
    """Broad instruction class: ``control``, ``mem`` or ``alu``."""
    return opcode_class_of(ins)


def INS_InsertCall(ins: Ins, ipoint, fn, *iargs) -> None:
    ins.insert_call(ipoint, fn, *iargs)


def INS_InsertSummarizedCall(ins: Ins, ipoint, fn, summary, *iargs) -> None:
    """``INS_InsertCall`` that also declares the call's summary form.

    ``summary(iterations, *args)`` must equal ``iterations`` invocations
    of ``fn(*args)``: a loop form fires the summary once per exit
    instead of the call once per iteration wherever it can, and counts
    it as the ``iterations`` calls (docs/writing_tools.md).
    """
    ins.insert_summarized_call(ipoint, fn, summary, *iargs)


def INS_InsertIfCall(ins: Ins, ipoint, fn, *iargs) -> None:
    ins.insert_if_call(ipoint, fn, *iargs)


def INS_InsertThenCall(ins: Ins, ipoint, fn, *iargs) -> None:
    ins.insert_then_call(ipoint, fn, *iargs)


# -- filters -----------------------------------------------------------------


def INS_MatchesFilter(ins: Ins, flt: InstrumentFilter | None) -> bool:
    """True when ``ins`` matches ``flt`` (a None filter matches all)."""
    return flt is None or flt.matches_ins(ins)


def TRACE_MatchesFilter(trace: TraceObj,
                        flt: InstrumentFilter | None) -> bool:
    """True when any instruction of ``trace`` matches ``flt``."""
    return flt is None or flt.matches_trace(trace)


def BBL_NumMatchingIns(bbl: Bbl, flt: InstrumentFilter | None) -> int:
    """Number of instructions in ``bbl`` matching ``flt``.

    Filter-aware tools count per *instruction*, not per block: block
    shapes differ between serial Pin and sliced execution (a slice's
    signature pc splits the block it falls in), so only an
    instruction-granular count is identical across both — the property
    the audit's ``tool.results`` check enforces.
    """
    if flt is None:
        return bbl.num_ins
    return sum(1 for ins in bbl.instructions if flt.matches_ins(ins))
