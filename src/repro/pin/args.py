"""Instrumentation argument (IARG) model, mirroring Pin's C API.

Analysis routines receive their arguments through *IARG specifiers* given
at insertion time::

    INS_InsertCall(ins, IPOINT_BEFORE, docount,
                   IARG_UINT64, bbl.num_ins,
                   IARG_REG_VALUE, regs.T0,
                   IARG_END)

This module is the specifiers and what they may name; what each one
*is* at run time is written by the JIT (``repro.pin.jit.weave``): every
argument is an expression in the lowered code of the call itself —
``regs[8]``, the instruction's address expression, a literal — formatted
from the same operand fields as the instruction's row of
``repro.pin.jit.SEMANTICS``.
"""

from __future__ import annotations

import enum

from ..errors import InstrumentationError
from ..isa.instructions import MASK64
from ..isa.registers import NUM_REGS


class IPoint(enum.Enum):
    """Where an analysis call is attached relative to its instruction."""

    BEFORE = "before"
    AFTER = "after"          # fall-through side only; invalid on branches
    TAKEN_BRANCH = "taken"   # on the taken edge of a (conditional) branch


# C-style aliases so tools read like the paper's Figure 2.
IPOINT_BEFORE = IPoint.BEFORE
IPOINT_AFTER = IPoint.AFTER
IPOINT_TAKEN_BRANCH = IPoint.TAKEN_BRANCH


class IArg(enum.Enum):
    """Argument specifier kinds (subset of Pin's IARG_*)."""

    UINT64 = "uint64"            # literal (next positional value)
    ADDRINT = "addrint"          # literal, alias of UINT64
    PTR = "ptr"                  # literal Python object
    INST_PTR = "inst_ptr"        # address of the instrumented instruction
    REG_VALUE = "reg_value"      # current value of register (next value)
    MEMORYREAD_EA = "mem_read_ea"
    MEMORYWRITE_EA = "mem_write_ea"
    BRANCH_TAKEN = "branch_taken"  # 1 if the branch will be taken
    BRANCH_TARGET = "branch_target"
    SYSCALL_NUMBER = "syscall_number"  # a0 at the syscall
    CONTEXT = "context"          # the CpuState object
    END = "end"                  # terminator

    # Hashed by identity, in C: a compile hashes the kinds of every call
    # it lowers (``repro.pin.jit``'s step factories are keyed by them),
    # and ``Enum``'s own hash is a Python call.
    __hash__ = object.__hash__


IARG_UINT64 = IArg.UINT64
IARG_ADDRINT = IArg.ADDRINT
IARG_PTR = IArg.PTR
IARG_INST_PTR = IArg.INST_PTR
IARG_REG_VALUE = IArg.REG_VALUE
IARG_MEMORYREAD_EA = IArg.MEMORYREAD_EA
IARG_MEMORYWRITE_EA = IArg.MEMORYWRITE_EA
IARG_BRANCH_TAKEN = IArg.BRANCH_TAKEN
IARG_BRANCH_TARGET = IArg.BRANCH_TARGET
IARG_SYSCALL_NUMBER = IArg.SYSCALL_NUMBER
IARG_CONTEXT = IArg.CONTEXT
IARG_END = IArg.END

#: Specifiers that consume the next positional value in the IARG list.
_TAKES_VALUE = {IARG_UINT64, IARG_ADDRINT, IARG_PTR, IARG_REG_VALUE}


def parse_iargs(raw: tuple) -> list[tuple[IArg, object]]:
    """Parse a C-style IARG vararg tail into (kind, value) pairs.

    The list must be terminated by ``IARG_END`` (matching Pin); a missing
    terminator or a dangling value raises :class:`InstrumentationError`.
    """
    specs: list[tuple[IArg, object]] = []
    i = 0
    while True:
        if i >= len(raw):
            raise InstrumentationError("IARG list not terminated by IARG_END")
        kind = raw[i]
        if not isinstance(kind, IArg):
            raise InstrumentationError(
                f"expected an IARG specifier at position {i}, got {kind!r}")
        if kind is IARG_END:
            if i != len(raw) - 1:
                raise InstrumentationError("arguments after IARG_END")
            return specs
        if kind in _TAKES_VALUE:
            if i + 1 >= len(raw):
                raise InstrumentationError(f"{kind} requires a value")
            specs.append((kind, raw[i + 1]))
            i += 2
        else:
            specs.append((kind, None))
            i += 1


#: What an instruction must be for a specifier to mean anything, and
#: what is raised when it is not.
_NEEDS = {
    IARG_MEMORYREAD_EA: ("is_memory_read",
                         "does not read memory (IARG_MEMORYREAD_EA)"),
    IARG_MEMORYWRITE_EA: ("is_memory_write",
                          "does not write memory (IARG_MEMORYWRITE_EA)"),
    IARG_BRANCH_TAKEN: ("is_branch", "is not a branch (IARG_BRANCH_TAKEN)"),
    IARG_BRANCH_TARGET: ("is_branch", "has no branch target"),
    IARG_SYSCALL_NUMBER: ("is_syscall",
                          "is not a syscall (IARG_SYSCALL_NUMBER)"),
}
_ADDRESSES = (IARG_MEMORYREAD_EA, IARG_MEMORYWRITE_EA)


def check_iargs(specs: list[tuple[IArg, object]], ins,
                ipoint: IPoint) -> None:
    """Raise :class:`InstrumentationError` unless ``ins`` (a
    :class:`~repro.pin.trace.Ins`) has everything ``specs`` name at
    ``ipoint``.  An effective address is Pin's at ``IPOINT_BEFORE``
    only: by ``IPOINT_AFTER`` the instruction may have moved its own
    base register (``pop``, ``ld t0, 4(t0)``)."""
    for kind, value in specs:
        if kind in _NEEDS:
            attribute, what = _NEEDS[kind]
            if not getattr(ins, attribute):
                raise InstrumentationError(f"{ins} {what}")
            if ipoint is IPOINT_AFTER and kind in _ADDRESSES:
                raise InstrumentationError(
                    f"{ins}: IARG_{kind.name} is defined at IPOINT_BEFORE "
                    f"only")
        elif kind is IARG_REG_VALUE and int(value) not in range(NUM_REGS):
            raise InstrumentationError(
                f"{ins}: IARG_REG_VALUE {value!r} is not a register")


def try_static_args(specs: list[tuple[IArg, object]], ins) -> tuple | None:
    """Fold a spec list to a constant argument tuple, or None.

    Returns the argument tuple when every specifier is static (literal,
    pointer, or the instruction address) — the legality condition for
    loop summarization (:func:`repro.pin.jit.summarizable`): an
    invariant payload can be fired once with a trip count instead of
    once per iteration.  Any
    dynamic specifier (register value, effective address, branch state)
    returns None.
    """
    static: list[object] = []
    for kind, value in specs:
        if kind in (IARG_UINT64, IARG_ADDRINT):
            static.append(int(value) & MASK64)  # type: ignore[arg-type]
        elif kind is IARG_PTR:
            static.append(value)
        elif kind is IARG_INST_PTR:
            static.append(ins.address)
        else:
            return None
    return tuple(static)
