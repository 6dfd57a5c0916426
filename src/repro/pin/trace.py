"""Trace / basic-block / instruction inspection objects.

When the JIT compiles a code region it materializes a :class:`TraceObj`
made of :class:`Bbl` basic blocks made of :class:`Ins` instructions, and
hands it to every registered trace-instrumentation callback — exactly
Pin's ``TRACE``/``BBL``/``INS`` object model.  Callbacks attach analysis
calls to individual instructions; the JIT then lowers the annotated trace
into executable steps.

Trace-building rules (a faithful simplification of Pin's):

* a trace starts at the requested address and extends over straight-line
  and conditional-fall-through code;
* a conditional branch ends the current *basic block* but not the trace;
* an unconditional transfer (``j``/``jr``/``call``/``callr``/``ret``), a
  ``syscall``, a ``halt``, the instruction-count cap, or a *forced
  boundary* (used by SuperPin's signature detection, §4.4) ends the trace;
* under strict memory, so does an unmapped word after the first: the
  trace falls through to it, and fetching it faults only if execution
  gets there — where the interpreter's fetch would.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..errors import InstrumentationError
from ..isa.disassembler import disassemble_word
from ..isa.encoding import decode
from ..isa.instructions import INFO, Op, OpInfo
from .args import (check_iargs, IPoint, IPOINT_AFTER, IPOINT_BEFORE,
                   IPOINT_TAKEN_BRANCH, parse_iargs)

#: Maximum instructions per trace (mirrors Pin's trace length cap).
MAX_TRACE_INS = 64


@dataclass
class _Call:
    """One analysis call attached to an instruction."""

    fn: object
    specs: list
    ipoint: IPoint
    #: Optional loop-summary form: ``summary(iterations, *args)`` must
    #: equal ``iterations`` invocations of ``fn(*args)``.  Declared via
    #: ``insert_summarized_call``; the suppression pass (repro.pin.
    #: suppress) may then fire the summary once per loop instead of the
    #: per-iteration call.  None means the call is never summarizable.
    summary: object | None = None
    #: The kind of each argument, in order.
    kinds: tuple = field(default=(), repr=False, compare=False)


#: The call shape of an instruction nothing is attached to (see
#: :attr:`Ins.shape`) — which is most instructions.
BARE = ((), (), (), ())

#: Where each collection of calls is counted in :attr:`Ins.shape`.
_SLOTS = ("if_then", "before_calls", "taken_calls", "after_calls")

#: Opcode number -> (``Op``, its ``OpInfo``): one dict hit where calling
#: the enum costs a dozen times as much, on every instruction decoded.
_OPS = {int(op): (op, INFO[op]) for op in Op}


class Ins:
    """One decoded instruction inside a trace being instrumented."""

    __slots__ = ("address", "raw", "op", "rd", "rs", "rt", "imm", "info",
                 "before_calls", "after_calls", "taken_calls", "if_then",
                 "shape", "_pending_if", "_next")

    def __init__(self, address: int, raw: int):
        self.address = address
        self.raw = raw
        opnum, self.rd, self.rs, self.rt, self.imm = decode(raw, pc=address)
        self.op: Op
        self.info: OpInfo
        self.op, self.info = _OPS[opnum]
        # Most instructions never get a call: the four collections are
        # the shared empty tuple until something is attached (readers
        # only iterate, measure and test them).  A decoded trace a JIT
        # keeps for the life of the process (repro.pin.jit) is then a
        # fraction of the objects, to allocate and for the collector to
        # walk.
        self.before_calls: Sequence[_Call] = ()
        self.after_calls: Sequence[_Call] = ()
        self.taken_calls: Sequence[_Call] = ()
        #: (if_call, then_call) pairs, paper §4.4's quick/full check shape.
        self.if_then: Sequence[tuple[_Call, _Call]] = ()
        #: The argument kinds of each call, by ipoint: ``(((if kinds,
        #: then kinds), ...), (before kinds, ...), (taken kinds, ...),
        #: (after kinds, ...))`` — what the JIT lowers the calls by
        #: (``repro.pin.jit.weave``); :data:`BARE` itself when nothing is
        #: attached, so readers can test identity.
        self.shape: tuple = BARE
        self._pending_if: _Call | None = None

    # -- classification ------------------------------------------------------

    @property
    def is_branch(self) -> bool:
        return self.info.is_cond_branch or self.info.is_uncond

    @property
    def is_cond_branch(self) -> bool:
        return self.info.is_cond_branch

    @property
    def is_call(self) -> bool:
        return self.info.is_call

    @property
    def is_ret(self) -> bool:
        return self.info.is_ret

    @property
    def is_syscall(self) -> bool:
        return self.info.is_syscall

    @property
    def is_memory_read(self) -> bool:
        return self.info.is_mem_read

    @property
    def is_memory_write(self) -> bool:
        return self.info.is_mem_write

    @property
    def mnemonic(self) -> str:
        return self.op.name.lower()

    def disassemble(self) -> str:
        return disassemble_word(self.raw, address=self.address)

    # -- instrumentation attachment ------------------------------------------

    def clear_calls(self) -> None:
        """Detach every analysis call: the instruction as just decoded.

        For a JIT that keeps decoded traces across runs (repro.pin.jit):
        the next run's callbacks must start from a bare instruction.
        """
        self.before_calls = self.after_calls = self.taken_calls = ()
        self.if_then = ()
        self.shape = BARE
        self._pending_if = None

    def _attach(self, slot: str, item, kinds: tuple) -> None:
        calls = getattr(self, slot)
        if calls:
            calls.append(item)
        else:
            setattr(self, slot, [item])
        shape = list(self.shape)
        shape[_SLOTS.index(slot)] += (kinds,)
        self.shape = tuple(shape)

    def _call(self, ipoint: IPoint, fn, iargs: tuple,
              summary=None) -> _Call:
        """A call of ``fn`` at ``ipoint``, handed what ``iargs`` name —
        all of which this instruction must have there
        (:func:`~repro.pin.args.check_iargs`)."""
        specs = parse_iargs(iargs)
        check_iargs(specs, self, ipoint)
        return _Call(fn, specs, ipoint, summary,
                     tuple([kind for kind, _ in specs]))

    def insert_call(self, ipoint: IPoint, fn, *iargs, summary=None) -> None:
        """Attach an analysis call (``INS_InsertCall``).

        ``summary`` optionally declares the call's loop-summary form
        (see :class:`_Call`); use :meth:`insert_summarized_call` for the
        C-style spelling.
        """
        if ipoint is IPOINT_BEFORE:
            slot = "before_calls"
        elif ipoint is IPOINT_AFTER:
            if self.info.is_control:
                raise InstrumentationError(
                    f"IPOINT_AFTER is invalid on control instruction "
                    f"{self.disassemble()!r}; use IPOINT_TAKEN_BRANCH")
            slot = "after_calls"
        elif ipoint is IPOINT_TAKEN_BRANCH:
            if not self.is_branch:
                raise InstrumentationError(
                    f"IPOINT_TAKEN_BRANCH on non-branch "
                    f"{self.disassemble()!r}")
            slot = "taken_calls"
        else:  # pragma: no cover
            raise InstrumentationError(f"unknown ipoint {ipoint}")
        call = self._call(ipoint, fn, iargs, summary)
        self._attach(slot, call, call.kinds)

    def insert_summarized_call(self, ipoint: IPoint, fn, summary,
                               *iargs) -> None:
        """Attach an analysis call that also declares its summary form.

        The contract the tool signs up to: ``summary(iterations, *args)``
        produces exactly the state change of ``iterations`` calls of
        ``fn(*args)``.  Only IPOINT_BEFORE calls with fully static
        arguments are ever summarized; everything else runs per
        iteration as usual.
        """
        if summary is None:
            raise InstrumentationError(
                "insert_summarized_call requires a summary function")
        self.insert_call(ipoint, fn, *iargs, summary=summary)

    def insert_if_call(self, ipoint: IPoint, fn, *iargs) -> None:
        """Attach the predicate half of an if/then pair.

        The JIT inlines the predicate (it is the cheap quick check of the
        paper's signature detection); the paired ``insert_then_call`` runs
        only when the predicate returns non-zero.
        """
        if ipoint is not IPOINT_BEFORE:
            raise InstrumentationError("if/then calls support IPOINT_BEFORE")
        if self._pending_if is not None:
            raise InstrumentationError(
                "insert_if_call called twice without insert_then_call")
        self._pending_if = self._call(ipoint, fn, iargs)

    def insert_then_call(self, ipoint: IPoint, fn, *iargs) -> None:
        """Attach the expensive half of an if/then pair."""
        if ipoint is not IPOINT_BEFORE:
            raise InstrumentationError("if/then calls support IPOINT_BEFORE")
        if self._pending_if is None:
            raise InstrumentationError(
                "insert_then_call without a preceding insert_if_call")
        check, then = self._pending_if, self._call(ipoint, fn, iargs)
        self._attach("if_then", (check, then), (check.kinds, then.kinds))
        self._pending_if = None

    def __repr__(self) -> str:
        return f"Ins({self.address:#x}: {self.disassemble()})"


@dataclass
class Bbl:
    """A single-entry straight-line run of instructions."""

    instructions: list[Ins] = field(default_factory=list)
    #: Next block in the trace, linked lazily by the C-style API.
    _next: "Bbl | None" = None

    @property
    def address(self) -> int:
        return self.instructions[0].address

    @property
    def head(self) -> Ins:
        return self.instructions[0]

    @property
    def tail(self) -> Ins:
        return self.instructions[-1]

    @property
    def num_ins(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __repr__(self) -> str:
        return f"Bbl({self.address:#x}, {self.num_ins} ins)"


#: Why ``build_trace`` ended a trace (:attr:`TraceObj.ended`): its last
#: instruction transfers control, the length cap, a forced boundary at
#: ``fall_address``, an unmapped word there (strict memory).
TRANSFER, CAP, BOUNDARY, HOLE = "transfer", "cap", "boundary", "hole"


class TraceObj:
    """A compiled-unit-to-be: the object handed to trace callbacks."""

    def __init__(self, address: int, bbls: list[Bbl],
                 fall_address: int | None, ended: str):
        self.address = address
        self.bbls = bbls
        #: Address executed next when the trace falls off its end (None
        #: when the trace ends in an unconditional transfer).
        self.fall_address = fall_address
        #: Why the trace ends where it does: :data:`TRANSFER`,
        #: :data:`CAP`, :data:`BOUNDARY` or :data:`HOLE`.
        self.ended = ended

    @property
    def instructions(self) -> list[Ins]:
        return [ins for bbl in self.bbls for ins in bbl.instructions]

    @property
    def num_ins(self) -> int:
        return sum(bbl.num_ins for bbl in self.bbls)

    def __repr__(self) -> str:
        return (f"TraceObj({self.address:#x}, {len(self.bbls)} bbls, "
                f"{self.num_ins} ins)")


def build_trace(mem, start: int, forced_boundaries: frozenset[int] | None
                = None, max_ins: int = MAX_TRACE_INS) -> TraceObj:
    """Decode a trace from guest memory starting at ``start``.

    ``forced_boundaries`` are addresses that must begin their own trace —
    SuperPin registers its signature-detection address here so detection
    always sits at a trace head and per-BBL tools (icount2) stay exact
    when a slice stops there.  Only the word at ``start`` is read
    unconditionally (under strict memory it faults there if unmapped).
    """
    bbls: list[Bbl] = []
    current = Bbl()
    pc = start
    total = 0
    fall_address: int | None = None
    ended = TRANSFER

    while True:
        if total >= max_ins:
            ended = CAP
        elif pc != start and forced_boundaries and pc in forced_boundaries:
            ended = BOUNDARY
        elif pc != start and mem.strict and not mem.is_mapped(pc):
            ended = HOLE
        if ended is not TRANSFER:
            fall_address = pc
            break
        ins = Ins(pc, mem.read(pc))
        current.instructions.append(ins)
        total += 1
        pc += 1
        info = ins.info
        if info.is_control:
            bbls.append(current)
            current = Bbl()
            if info.is_cond_branch:
                continue  # fall-through extends the trace
            if info.is_syscall:
                fall_address = pc
            break

    if current.instructions:
        bbls.append(current)
    return TraceObj(start, bbls, fall_address, ended)
