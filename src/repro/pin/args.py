"""Instrumentation argument (IARG) model, mirroring Pin's C API.

Analysis routines receive their arguments through *IARG specifiers* given
at insertion time::

    INS_InsertCall(ins, IPOINT_BEFORE, docount,
                   IARG_UINT64, bbl.num_ins,
                   IARG_REG_VALUE, regs.T0,
                   IARG_END)

The JIT lowers each specifier list into a *resolver* closure that builds
the positional argument tuple at analysis-call time.  Static specifiers
(literals, the instruction pointer) are folded into constants, so a call
using only static arguments costs a single tuple reference per execution.

Two resolvers know something about an opcode's effect outside the JIT's
semantics table (``repro.pin.jit.SEMANTICS``): ``_ea_resolver`` and
``_taken_predicate`` answer what an instruction *will* do, before it
runs, as a value handed to an analysis routine — a per-call closure over
the registers, where a table row is statements that *do* it.  They stay
here for that reason; ``tests/test_pin/test_args.py`` holds them to what
the instruction then does.
"""

from __future__ import annotations

import enum
from typing import Callable

from ..errors import InstrumentationError
from ..isa.instructions import Format, MASK64


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
_TAKES_VALUE = {IArg.UINT64, IArg.ADDRINT, IArg.PTR, IArg.REG_VALUE}


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
        if kind is IArg.END:
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


Resolver = Callable[[], tuple]


def build_resolver(specs: list[tuple[IArg, object]], ins, cpu, mem,
                   taken_target: int | None = None) -> Resolver:
    """Compile (kind, value) pairs into a zero-argument tuple builder.

    ``ins`` is the :class:`~repro.pin.trace.Ins` being instrumented; the
    resolver closes over the live ``cpu``/``mem`` of the executing engine.
    Fully static argument lists fold to a constant tuple.
    """
    parts: list[Callable[[], object]] = []
    static: list[object] = []
    all_static = True
    regs = cpu.regs

    for kind, value in specs:
        if kind in (IArg.UINT64, IArg.ADDRINT):
            const = int(value) & MASK64  # type: ignore[arg-type]
            parts.append(lambda c=const: c)
            static.append(const)
        elif kind is IArg.PTR:
            parts.append(lambda v=value: v)
            static.append(value)
        elif kind is IArg.INST_PTR:
            parts.append(lambda a=ins.address: a)
            static.append(ins.address)
        elif kind is IArg.REG_VALUE:
            regnum = int(value)  # type: ignore[arg-type]
            parts.append(lambda r=regnum: regs[r])
            all_static = False
        elif kind in (IArg.MEMORYREAD_EA, IArg.MEMORYWRITE_EA):
            if kind is IArg.MEMORYREAD_EA and not ins.is_memory_read:
                raise InstrumentationError(
                    f"{ins} does not read memory (IARG_MEMORYREAD_EA)")
            if kind is IArg.MEMORYWRITE_EA and not ins.is_memory_write:
                raise InstrumentationError(
                    f"{ins} does not write memory (IARG_MEMORYWRITE_EA)")
            parts.append(_ea_resolver(ins, regs))
            all_static = False
        elif kind is IArg.BRANCH_TAKEN:
            if taken_target is not None:
                parts.append(lambda: 1)
                static.append(1)
            else:
                predicate = _taken_predicate(ins, regs)
                parts.append(lambda p=predicate: 1 if p() else 0)
                all_static = False
        elif kind is IArg.BRANCH_TARGET:
            parts.append(_target_resolver(ins, regs, taken_target))
            all_static = False
        elif kind is IArg.SYSCALL_NUMBER:
            if not ins.is_syscall:
                raise InstrumentationError(
                    f"{ins} is not a syscall (IARG_SYSCALL_NUMBER)")
            parts.append(lambda: regs[2])  # a0
            all_static = False
        elif kind is IArg.CONTEXT:
            parts.append(lambda: cpu)
            all_static = False
        else:  # pragma: no cover
            raise InstrumentationError(f"unhandled IARG {kind}")

    if all_static:
        const_tuple = tuple(static)
        return lambda: const_tuple
    return lambda: tuple(part() for part in parts)


#: Specifier kinds whose value is fully known at instrumentation time.
_STATIC_KINDS = (IArg.UINT64, IArg.ADDRINT, IArg.PTR, IArg.INST_PTR)


def try_static_args(specs: list[tuple[IArg, object]], ins) -> tuple | None:
    """Fold a spec list to a constant argument tuple, or None.

    Returns the argument tuple when every specifier is static (literal,
    pointer, or the instruction address) — the legality condition for
    loop summarization (repro.pin.suppress): an invariant payload can be
    fired once with a trip count instead of once per iteration.  Any
    dynamic specifier (register value, effective address, branch state)
    returns None.
    """
    static: list[object] = []
    for kind, value in specs:
        if kind in (IArg.UINT64, IArg.ADDRINT):
            static.append(int(value) & MASK64)  # type: ignore[arg-type]
        elif kind is IArg.PTR:
            static.append(value)
        elif kind is IArg.INST_PTR:
            static.append(ins.address)
        else:
            return None
    return tuple(static)


def _ea_resolver(ins, regs) -> Callable[[], int]:
    """Effective-address computation for LD/ST/PUSH/POP."""
    from ..isa.instructions import Op
    op = ins.op
    if op in (Op.LD, Op.ST):
        base, offset = ins.rs, ins.imm
        return lambda: (regs[base] + offset) & MASK64
    if op is Op.PUSH:
        return lambda: (regs[29] - 1) & MASK64
    if op is Op.POP:
        return lambda: regs[29]
    raise InstrumentationError(f"{ins} has no memory operand")


def _taken_predicate(ins, regs) -> Callable[[], bool]:
    """Pre-execution branch-taken predicate for a conditional branch."""
    from ..isa.instructions import Op, to_signed
    rs, rt = ins.rs, ins.rt
    op = ins.op
    if op is Op.BEQ:
        return lambda: regs[rs] == regs[rt]
    if op is Op.BNE:
        return lambda: regs[rs] != regs[rt]
    if op is Op.BLT:
        return lambda: to_signed(regs[rs]) < to_signed(regs[rt])
    if op is Op.BGE:
        return lambda: to_signed(regs[rs]) >= to_signed(regs[rt])
    if op is Op.BLTU:
        return lambda: regs[rs] < regs[rt]
    if op is Op.BGEU:
        return lambda: regs[rs] >= regs[rt]
    if ins.info.is_uncond:
        return lambda: True
    raise InstrumentationError(f"{ins} is not a branch (IARG_BRANCH_TAKEN)")


def _target_resolver(ins, regs, taken_target: int | None
                     ) -> Callable[[], int]:
    from ..isa.instructions import Format as F
    if ins.info.format in (F.I, F.BRANCH):
        return lambda t=ins.imm: t
    if ins.info.format is F.R:  # jr / callr
        reg = ins.rs
        return lambda: regs[reg]
    if ins.info.is_ret:
        return lambda: regs[31]
    raise InstrumentationError(f"{ins} has no branch target")
