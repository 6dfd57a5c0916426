"""The JIT: one compile path, two lowerings of an instrumented trace.

**What an instruction does is written once**, as data
(:data:`SEMANTICS`), and so is how its analysis calls are woven around
it (:func:`weave`); the two lowerings are two instantiations of that
text, so they agree with each other by construction and there is one
table to hold against the one oracle, the interpreter.

**Threaded code** (this module) is the cold lowering: the compiled form
of a trace is a list of *steps*, one per guest instruction.  A step is
a zero-argument closure returning:

* ``None``       — fall through to the next step;
* an int >= 0    — transfer control to that guest address (trace exit);
* ``EXIT_GUEST`` — the guest terminated (exit syscall or halt).

A step is the generated code of one instruction: its row and its calls
formatted with the operands as *names*, inside a factory ``make(E, cpu,
regs, ..., rd, rs, ...)`` compiled once per process per ``(op, rd != 0,
call shape)`` (:func:`step_source`) — the shape being each call's
argument kinds, since every argument is an expression in the step
itself (:func:`weave`).  Un-instrumented instructions are their bare
row, so the instrumented-to-native overhead ratio is governed by the
analysis calls — which is the regime the paper's icount1/icount2
comparison explores.

**Generated code** (:mod:`repro.pin.pyjit`) is the hot lowering: the
whole trace becomes one Python function.  It costs about three times as
much to produce and runs two to three times faster, so which one a trace
gets is decided per trace, from what the process has observed
(:data:`HOT_EXECUTIONS_PER_COMPILE`), by the one :meth:`Jit.compile`
both go through: same skeleton, same callbacks.
:attr:`Jit.all_generated` pins the decision to "generated"
(``PinVM(..., jit_backend="source")``): the reference lowering.

**Compile once per process.**  A compile has a half that depends on who
is instrumenting — run the trace callbacks, weave the calls into the
instrumented instructions — and a half that does not:
decode the trace and lower every other instruction.  A :class:`Jit`
keeps the second half per trace start pc as a *skeleton* in its
``pool`` (every engine's JIT has one, for the life of the engine: serial
Pin's, the master's, a resident slice machine's, the signature
lookahead's) and redoes only the first half when a later run on the same
engine misses on that pc.  A skeleton is reused only when it is exactly
what ``build_trace`` would produce now (:meth:`Jit._refusal`), and a head
has one: ``build_trace`` reads nothing a run chooses, so a slice decodes
the trace serial Pin decodes.  What a slice does differently depends on
where its signature pc *cuts* a trace (:meth:`Jit._cut`): where the pc
falls strictly inside a block, the callbacks are handed the trace with
that block split there (:meth:`Jit._blocks`), so a per-block tool counts
the part before the pc apart from the part after, and a slice that
stops at the pc has counted what it retired; and at the pc every
lowering emits SuperPin's signature check (:data:`SIGNATURE_CHECK`) —
an inline compare of the two quick registers, the full check behind a
match — ahead of every call there.

Generated *text* goes one step further, to the whole process: every
generated lowering of every engine — a trace's function, its loop form,
a mid-run promotion, a scan — looks its source up in one bounded pool of
code objects (:data:`_INTERN`) before it calls ``compile()``, so a later
run, another engine or a forked pool worker rebinds what an earlier one
compiled.  What a compile is accounted by does not move; only what its
``compile()`` costs does.

**Instrument once per process, under a contract.**  The first half is a
known answer too when whoever instruments says so: a tool that declares
:attr:`~repro.pin.pintool.Pintool.pure_instrumentation` promises that
what it attaches is a function of the trace.  The engine's owner then
names one resident object (:attr:`Jit.retain_for` — a slice machine's
resident tool, whose state is the current slice's own copy) and the
pool keeps, beside the skeleton, what the last *verified* compile
produced: the still-instrumented ``TraceObj``, the threaded-code steps,
the generated function, the filter's counts.  A trace is instrumented
on its first compile, instrumented again and compared on its second
(the paper's §8 consistency check, in host time: a mismatch is an
:class:`~repro.errors.InstrumentationError`, never a wrong count), and
*served* from the third on — no callback, no wrapper, a new trace
object around kept code.  A comparing compile that finds the same calls
takes over what the first lowered, so a trace is lowered once, not
twice.  Everything a compile is accounted by happens after that and is
unchanged.  All of this is *per cut*: a skeleton keeps one verified
lowering for each way a signature pc has cut its trace (none, or the
pc's offset and the two quick registers), each with the calls it was
lowered from — the reference its next compile is compared with, and
what a served compile puts back on the instructions — so the trace that
holds a slice's pc, usually its hottest loop, is served too, whichever
of a few offsets the slices' pcs alternate between.  The owner also
names *what* the resident object's instrumentation can depend on
(:attr:`Jit.template` — for a slice machine, the tool's instrumentation
digest: its class and its state when the run's template was made,
:func:`~repro.superpin.api.instrumentation_digest`), so what one run
verified serves a later run or daemon job under an equal digest from its
first compile.  What a template with another digest left is never served
on its word, but the first compile under the new one is already the
comparing one, and where the calls are equal it takes over the kept
lowering instead of producing it again — where they are not, another
filter or constructor argument is no lie, and the trace starts over.
(Under an equal digest they are: the compile raises
:class:`~repro.errors.InstrumentationError`, and that resident object is
served nothing again.)  What the code observes sends a trace
down the ordinary path instead, with nothing kept: an if/then pair, a
routine or summary that is not a bound method of the resident object,
an ``IARG_PTR`` value that is not an immutable constant.  The rules:

* pooled semantics (skeletons) **may capture** only what lives as long
  as the engine — ``engine`` itself, ``engine.cpu``, ``cpu.regs`` and
  the bound ``mem.read`` / ``mem.write`` — plus constants decoded from
  the guest word; pooled *text* and code objects bind nothing at all,
  and neither does a step factory (its globals are :data:`CONSTANTS`),
  which is what lets every engine of a process share it;
* kept instrumented code **may also capture** bound methods of
  ``retain_for``, the ``IARG_PTR`` constants they are handed, and
  ``engine.counters`` (zeroed in place);
* nothing pooled or kept **may capture** what ``PinVM.reset`` replaces
  or a run owns: ``instr_stats`` / ``jit_stats`` and the signature
  check's values and full check (generated code reaches them through
  ``E``), the code cache, the metrics registry, a signature detector, a
  syscall handler, a slice's own copy of the tool, or any other object
  a callback handed over.

An undeclared tool keeps the whole first half: its callbacks run on
every compile, so a tool that keeps instrument-time state sees every
compile it would see on a fresh engine.

A generated trace's *loop form* (:mod:`repro.pin.pyjit`) is a second
function over the same names, lowered lazily from the same still-attached
calls: interned by its text like every generated function and kept
beside ``fn``, under the same rules.  It is also where loops are
summarized, wherever :func:`summarizable` allows (never in a trace that
holds the signature check, which must see every trip).  A summary is
counted as the calls it stands for, so what the analysis calls count
does not depend on whether a loop has a loop form yet, and the lowering
stays a matter of heat.

**Heat** is what a JIT remembers about execution: per trace start pc,
how often the trace has run and how often it has been compiled — served
compiles aside — for the life of the engine (:attr:`Jit.heat`).
"""

from __future__ import annotations

import types
from collections import OrderedDict
from itertools import accumulate
from dataclasses import dataclass
from typing import Callable

from ..errors import ArithmeticFault, InstrumentationError
from ..isa.encoding import is_valid_opcode
from ..isa.instructions import MASK64, Op
from .args import (IARG_ADDRINT, IARG_BRANCH_TAKEN, IARG_BRANCH_TARGET,
                   IARG_CONTEXT, IARG_INST_PTR, IARG_MEMORYREAD_EA,
                   IARG_MEMORYWRITE_EA, IARG_PTR, IARG_REG_VALUE,
                   IARG_SYSCALL_NUMBER, IARG_UINT64, IArg, try_static_args)
from .filter import run_trace_callbacks
from .trace import BARE, Bbl, build_trace, HOLE, Ins, TraceObj

#: Sentinel step result: the guest has exited.
EXIT_GUEST = -2

#: A trace is lowered to generated code once the engine has seen it run
#: this many times *per compile* of it.  Per compile, not in total: a
#: slice re-instruments and re-emits every trace it touches, so what a
#: generated function must repay is one emission, each time — a trace
#: that runs 14 times in each of 12 slices never qualifies, one that
#: runs 320 times in each of two does.  A compile *served* from kept
#: code emits nothing (it reuses the kept function once there is one),
#: so it is not counted.  Sized by the sweep in ROADMAP.md
#: ("Measured and left alone"); ``float("inf")`` is the pure
#: threaded-code reference, 1 lowers every repeated trace hot.
HOT_EXECUTIONS_PER_COMPILE = 150

#: A cached threaded-code trace is promoted in the middle of a run (see
#: ``PinVM._promote``) when its executions per compile, this compile
#: included, reach this many times the threshold above.  More evidence
#: than at a compile, for two reasons: the first promotion of a trace
#: pays a cold ``compile()`` (worth ≈ 190 executions), and the run may
#: be about to end — a daemon job whose loop stops at 220 has nothing
#: to repay it with.  Long runs cannot tell 1 from 3 (the traces that
#: matter run thousands of times); short ones can (ROADMAP.md).
PROMOTE_FACTOR = 3

#: Generated code objects the process keeps (:data:`_INTERN`).  Serial
#: Pin and SuperPin at zero and two workers on the bench's ``gzip``
#: guest intern 63 texts between them (33 KB of text, 71 KB of code
#: marshalled), on its ``mcf`` guest 62; the bound leaves room for a
#: daemon's or a test session's many programs at under 2 MB.
INTERN_BOUND = 1024

#: ``source text -> code object`` of the generated lowerings the process
#: has compiled, least recently used first.  Module state beside
#: :data:`_FACTORIES`, and sound for the same reason: text and code
#: object bind nothing (:meth:`Jit._function` rebinds the code over each
#: emitter's own namespace), so equal text is equal code in any engine,
#: thread or forked pool worker.  No lock: each access is one
#: ``OrderedDict`` operation, atomic under the GIL, so job threads never
#: see a torn pool and a fork never inherits a held lock.
_INTERN: OrderedDict[str, types.CodeType] = OrderedDict()

#: ``hot_at`` of a trace that is never promoted (an int: the dispatch
#: loop compares execution counts against it).
NEVER = 1 << 62

Step = Callable[[], int | None]


class StopRun(Exception):
    """Raised from an analysis routine to stop the engine immediately.

    Used by SuperPin's signature detector on a full match and by
    ``SP_EndSlice``.  The engine unwinds to the instruction boundary of
    the step that raised: the instruction itself does *not* execute.
    """


# -- what an instruction does -------------------------------------------------
#
# Written once, as data, and instantiated by both lowerings (module
# docstring).  Where an order matters the interpreter's is the one
# written down: it is the oracle, and the one other place that knows an
# opcode's effect (:mod:`repro.machine.interpreter` says why it stays).

#: The operand fields a row may use, and (:func:`operands`) their values
#: for one instruction: the three register numbers, the immediate as
#: decoded / as an unsigned word / as a shift count, the next pc, this pc.
OPERANDS = ("rd", "rs", "rt", "imm", "immM", "sh", "npc", "pc")

#: Names every instantiation of a row resolves the same way, beside
#: ``E`` (the engine), ``cpu``, ``regs``, ``RD`` / ``WR`` (the bound
#: memory accessors) and ``ctr`` (``engine.counters``).
CONSTANTS = {"M": MASK64, "SGN": 1 << 63, "W": 1 << 64, "EXIT": EXIT_GUEST,
             "ArithmeticFault": ArithmeticFault}

# The shared pieces: an operand as a signed integer, and the truncating
# quotient ``div`` and ``mod`` both start from.
_A = ("_a = regs[{rs}]", "if _a & SGN: _a -= W")
_B = ("_b = regs[{rt}]", "if _b & SGN: _b -= W")
_QUOTIENT = _A + _B + (
    "if _b == 0: raise ArithmeticFault('division by zero', pc={pc})",
    "_q = abs(_a) // abs(_b)",
    "if (_a < 0) != (_b < 0): _q = -_q")

#: Where a memory instruction's access goes, from before it runs: the
#: address its row hands ``RD`` / ``WR``, and what ``IARG_MEMORYREAD_EA``
#: / ``IARG_MEMORYWRITE_EA`` hand a routine (:func:`weave`).
_EA = "(regs[{rs}] + {imm}) & M"
ADDRESS = {Op.LD: _EA, Op.ST: _EA, Op.PUSH: "(regs[29] - 1) & M",
           Op.POP: "regs[29]"}


def _alu(value: str, *prelude: str):
    """A row that only computes ``rd``: every line goes with the write."""
    return tuple("@" + text
                 for text in (*prelude, "regs[{rd}] = " + value)), (), False


def _branch(condition: str, *prelude: str):
    return prelude, ((condition, "{imm}"),), False


def _jump(target: str, *body: str):
    return body, ((None, target),), False


#: ``Op -> (body, exits, raises)``.  ``body`` is Python statements over
#: the names above and the operand fields; a line marked ``@`` exists
#: only to write ``rd`` and is dropped when that is the zero register (a
#: load still performs its access: only its write is marked).  ``exits``
#: are ``(condition or None, target)`` pairs tried in order after the
#: body — an instruction none of whose exits is taken falls through.
#: ``raises``: the body can raise (it says ``raise`` or calls out of the
#: table), so generated code sets its unwind markers there; ``RD`` /
#: ``WR`` never raise (guest memory is demand-zero).  A branch's
#: condition is one expression (a signed compare flips the sign bits),
#: so an analysis call ahead of the branch can be handed it.
SEMANTICS: dict[Op, tuple[tuple[str, ...], tuple, bool]] = {
    Op.ADD: _alu("(regs[{rs}] + regs[{rt}]) & M"),
    Op.SUB: _alu("(regs[{rs}] - regs[{rt}]) & M"),
    Op.MUL: _alu("(regs[{rs}] * regs[{rt}]) & M"),
    Op.DIV: (_QUOTIENT + ("@regs[{rd}] = _q & M",), (), True),
    Op.MOD: (_QUOTIENT + ("@regs[{rd}] = (_a - _q * _b) & M",), (), True),
    Op.AND: _alu("regs[{rs}] & regs[{rt}]"),
    Op.OR: _alu("regs[{rs}] | regs[{rt}]"),
    Op.XOR: _alu("regs[{rs}] ^ regs[{rt}]"),
    Op.SHL: _alu("(regs[{rs}] << (regs[{rt}] & 63)) & M"),
    Op.SHR: _alu("regs[{rs}] >> (regs[{rt}] & 63)"),
    Op.SAR: _alu("(_a >> (regs[{rt}] & 63)) & M", *_A),
    Op.SLT: _alu("1 if _a < _b else 0", *_A, *_B),
    Op.SLTU: _alu("1 if regs[{rs}] < regs[{rt}] else 0"),
    Op.ADDI: _alu("(regs[{rs}] + {imm}) & M"),
    Op.MULI: _alu("(regs[{rs}] * {imm}) & M"),
    Op.ANDI: _alu("regs[{rs}] & {immM}"),
    Op.ORI: _alu("regs[{rs}] | {immM}"),
    Op.XORI: _alu("regs[{rs}] ^ {immM}"),
    Op.SHLI: _alu("(regs[{rs}] << {sh}) & M"),
    Op.SHRI: _alu("regs[{rs}] >> {sh}"),
    Op.SARI: _alu("(_a >> {sh}) & M", *_A),
    Op.SLTI: _alu("1 if _a < {imm} else 0", *_A),
    Op.LI: _alu("{immM}"),
    Op.LD: ((f"_t = RD({ADDRESS[Op.LD]})", "@regs[{rd}] = _t"), (), False),
    Op.ST: ((f"WR({ADDRESS[Op.ST]}, regs[{{rt}}])",), (), False),
    Op.PUSH: ((f"_a = {ADDRESS[Op.PUSH]}", "regs[29] = _a",
               "WR(_a, regs[{rs}])"), (), False),
    Op.POP: ((f"_a = {ADDRESS[Op.POP]}", "_t = RD(_a)", "@regs[{rd}] = _t",
              "regs[29] = (_a + 1) & M"), (), False),
    Op.J: _jump("{imm}"),
    Op.JR: _jump("regs[{rs}]"),
    Op.CALL: _jump("{imm}", "regs[31] = {npc}"),
    Op.CALLR: _jump("regs[{rs}]", "regs[31] = {npc}"),
    Op.RET: _jump("regs[31]"),
    Op.BEQ: _branch("regs[{rs}] == regs[{rt}]"),
    Op.BNE: _branch("regs[{rs}] != regs[{rt}]"),
    Op.BLT: _branch("(regs[{rs}] ^ SGN) < (regs[{rt}] ^ SGN)"),
    Op.BGE: _branch("(regs[{rs}] ^ SGN) >= (regs[{rt}] ^ SGN)"),
    Op.BLTU: _branch("regs[{rs}] < regs[{rt}]"),
    Op.BGEU: _branch("regs[{rs}] >= regs[{rt}]"),
    Op.SYSCALL: (("cpu.pc = {npc}", "E.dispatch_syscall()"),
                 (("E.exited", "EXIT"), (None, "cpu.pc")), True),
    Op.HALT: _jump("EXIT", "cpu.pc = {pc}", "E.exited = True",
                   "E.exit_code = regs[1]"),
    Op.NOP: ((), (), False),
}


def operands(ins: Ins) -> tuple:
    """``ins``'s value for each of :data:`OPERANDS`."""
    imm, address = ins.imm, ins.address
    return (ins.rd, ins.rs, ins.rt, imm, imm & MASK64, imm & 63,
            address + 1, address)


def statements(op: Op, writes: bool, fields: dict, leave,
               taken=(), rows=SEMANTICS) -> list[str]:
    """What ``op`` does, as Python statements: its row's body with the
    operands formatted from ``fields`` (the ``rd`` lines only if
    ``writes``), then each exit as ``[if condition:] taken;
    leave(target)`` — ``leave`` gives the statements that leave the
    code for the formatted ``target``.  ``rows`` is the table, or a
    re-spelling of it (the loop form's, with the registers in locals)."""
    body, exits, _ = rows[op]
    lines = [text.lstrip("@").format_map(fields) for text in body
             if writes or text[0] != "@"]
    for condition, target in exits:
        pad = ""
        if condition is not None:
            lines.append(f"if {condition.format_map(fields)}:")
            pad = "    "
        lines.extend([pad + stmt for stmt in taken])
        lines.extend([pad + stmt
                      for stmt in leave(target.format_map(fields))])
    return lines


# -- the calls woven around it ------------------------------------------------

#: Arguments whose value the tool gives as a number, formatted like an
#: operand field: a literal in generated code, a factory parameter in
#: threaded code.  (An ``IARG_PTR`` object is a name in both.)
_NUMBERS = (IARG_UINT64, IARG_ADDRINT, IARG_REG_VALUE)

#: ``IARG_BRANCH_TARGET`` ahead of a row whose exit reads a register its
#: body writes: ``callr ra`` writes the link, then jumps through it.
_TARGET_BEFORE = {Op.CALLR: "({npc} if {rs} == 31 else regs[{rs}])"}


def _argument(op: Op, kind: IArg, taken: bool, slot: str) -> str:
    """What a call at ``op`` is handed for ``kind``, as an expression
    over the row's operand fields evaluated where the call runs — ahead
    of the row, or (``taken``) on its taken edge, after its body.
    ``slot`` names the value the tool gave, if any."""
    if kind is IARG_REG_VALUE:
        return f"regs[{{{slot}}}]"
    if kind is IARG_PTR:
        return slot
    if kind in _NUMBERS:
        return f"{{{slot}}}"
    if kind is IARG_MEMORYREAD_EA or kind is IARG_MEMORYWRITE_EA:
        return ADDRESS[op]
    if kind is IARG_BRANCH_TAKEN or kind is IARG_BRANCH_TARGET:
        condition, target = SEMANTICS[op][1][-1]
        if kind is IARG_BRANCH_TARGET:
            return target if taken else _TARGET_BEFORE.get(op, target)
        if taken or condition is None:
            return "1"
        return f"(1 if {condition} else 0)"
    return {IARG_INST_PTR: "{pc}", IARG_SYSCALL_NUMBER: "regs[2]",
            IARG_CONTEXT: "cpu"}[kind]


class SignatureCheck:
    """SuperPin's two-stage signature check (§4.4) at ``pc``, as one run
    of an engine has it (``PinVM.signature_check``): the quick registers
    ``regs`` and the values ``v0`` / ``v1`` they are compared with, the
    full check ``full()`` behind a match, and how many quick checks ran.
    Generated code reaches it through ``E`` (:data:`SIGNATURE_CHECK`),
    so nothing lowered binds a slice's values."""

    __slots__ = ("pc", "regs", "v0", "v1", "full", "checks")

    def __init__(self, pc: int, regs: tuple[int, int],
                 values: tuple[int, int], full: Callable[[], None]):
        self.pc = pc
        self.regs = tuple(regs)
        self.v0, self.v1 = values
        self.full = full
        self.checks = 0


#: The signature check as a lowering rather than a call: the two quick
#: registers (the fields :data:`QUICK`) compared inline with the run's
#: :class:`SignatureCheck`'s values, and its full check behind a match.
#: It counts as an if/then pair does: one inline check per execution
#: (``checks``, which the engine reports among its ``inline_checks``),
#: one analysis call per match.
QUICK = ("q0", "q1")
FULL_CHECK = "_sig.full()"
SIGNATURE_CHECK = ("_sig = E.signature_check",
                   "_sig.checks += 1",
                   "if regs[{q0}] == _sig.v0 and regs[{q1}] == _sig.v1:",
                   "    ctr[0] += 1",
                   "    " + FULL_CHECK)


def weave(op: Op, shape: tuple, qualifier: str = "", check: bool = False):
    """The statements of the analysis calls of an ``op`` of call
    ``shape``: ``(names, fields, before, taken, after)``.

    Each call is ``fn(a, b)``, every argument an expression formatted
    from the operand fields as the row is (:func:`_argument`) — the
    statements are text over :data:`OPERANDS` and ``fields``, for the
    caller to format.  ``before`` runs ahead of the instruction,
    ``taken`` ahead of each exit (:func:`statements`), ``after`` on
    fall-through.  ``names`` are the routines and ``IARG_PTR`` objects
    the statements call and pass, ``fields`` the numbers they format
    (``IARG_UINT64`` values, ``IARG_REG_VALUE`` registers); both in the
    order :func:`call_values` lists their values, the fields after the
    quick registers (:data:`QUICK`) where ``check`` puts the signature
    check (:data:`SIGNATURE_CHECK`) at this instruction.  That check
    runs first, then if/then pairs, then plain before-calls: it must
    fire before any tool analysis at the boundary instruction, because
    that instruction belongs to the *next* slice (§4.4).
    """
    pairs, *plain_calls = shape
    names: list[str] = []
    fields: list[str] = list(QUICK) if check else []

    def call(fn: str, kinds: tuple[IArg, ...], taken: bool = False) -> str:
        names.append(fn)
        arguments = []
        for k, kind in enumerate(kinds):
            slot = f"{fn}a{k}"
            if kind is IARG_PTR:
                names.append(slot)
            elif kind in _NUMBERS:
                fields.append(slot)
            arguments.append(_argument(op, kind, taken, slot))
        return f"{fn}({', '.join(arguments)})"

    before: list[str] = list(SIGNATURE_CHECK) if check else []
    for j, (if_kinds, then_kinds) in enumerate(pairs):
        check = call(f"_if{qualifier}{j}", if_kinds)
        then = call(f"_th{qualifier}{j}", then_kinds)
        before += ("ctr[1] += 1", f"if {check}:", "    ctr[0] += 1",
                   "    " + then)

    def plain(stem: str, calls: tuple, taken: bool = False) -> list[str]:
        lines = [f"ctr[0] += {len(calls)}"] if calls else []
        return lines + [call(f"_{stem}{qualifier}{j}", kinds, taken)
                        for j, kinds in enumerate(calls)]

    before += plain("bf", plain_calls[0])
    taken = plain("tk", plain_calls[1], True)
    return names, fields, before, taken, plain("af", plain_calls[2])


def call_values(ins: Ins) -> tuple[list, list[int]]:
    """What :func:`weave`'s ``names`` and ``fields`` stand for on
    ``ins``: its routines and ``IARG_PTR`` objects, and its numbers."""
    objects: list = []
    numbers: list[int] = []
    pairs = [call for pair in ins.if_then for call in pair]
    for call in (*pairs, *ins.before_calls, *ins.taken_calls,
                 *ins.after_calls):
        objects.append(call.fn)
        for kind, value in call.specs:
            if kind is IARG_PTR:
                objects.append(value)
            elif kind is IARG_REG_VALUE:
                numbers.append(int(value))
            elif kind in _NUMBERS:
                numbers.append(int(value) & MASK64)
    return objects, numbers


# -- threaded code: a row at per-instruction granularity ----------------------

_NAMES = dict(zip(OPERANDS, OPERANDS))

#: ``(op, rd != 0, call shape, signature check) -> make``, compiled once
#: per process.  A factory binds nothing (its globals are
#: :data:`CONSTANTS`), so engines share it like a pooled code object;
#: what a *step* binds is what its engine passed to ``make``.
_FACTORIES: dict[tuple, Callable[..., Step]] = {}
_FACTORY_GLOBALS = dict(CONSTANTS)


def step_source(op: Op, writes: bool, shape: tuple = BARE,
                check: bool = False) -> str:
    """The source of the step factory for ``op``: the generated code of
    one instruction, with the operands — and the numbers its calls are
    handed, the quick registers of a signature check among them — as
    parameters."""
    names, fields, *calls = weave(op, shape, check=check)
    spelled = dict(_NAMES, **dict(zip(fields, fields)))
    before, taken, after = ([stmt.format_map(spelled) for stmt in part]
                            for part in calls)
    lines = before + statements(op, writes, _NAMES,
                                lambda target: (f"return {target}",),
                                taken) + after
    parameters = ", ".join(("E", "cpu", "regs", "RD", "WR", "ctr",
                            *OPERANDS, *names, *fields))
    return (f"def make({parameters}):\n    def step():\n"
            + "".join(f"        {line}\n" for line in lines or ["pass"])
            + "    return step\n")


def _factory(key: tuple) -> Callable[..., Step]:
    code = compile(step_source(*key),
                   f"<superpin-step-{key[0].name.lower()}>", "exec")
    # Into a scope of its own: the daemon's job threads compile at once,
    # and two of them compiling one key store equivalent factories.
    scope: dict = {}
    exec(code, _FACTORY_GLOBALS, scope)  # noqa: S102 - this *is* the JIT
    make = _FACTORIES[key] = scope["make"]
    return make


class CompiledTrace:
    """Executable form of one trace (threaded code)."""

    __slots__ = ("start", "steps", "instructions", "fall_address",
                 "num_ins", "num_words", "links", "heat", "hot_at", "kept")

    is_source = False

    def __init__(self, start: int, steps: list[Step],
                 instructions: list[Ins], fall_address: int | None,
                 num_words: int):
        self.start = start
        self.steps = steps
        #: The instrumented instructions the steps were lowered from.
        self.instructions = instructions
        self.fall_address = fall_address
        self.num_ins = len(steps)
        #: What the engine watches: :attr:`TraceObj.num_words`.
        self.num_words = num_words
        #: Direct trace links: exit pc -> successor trace, patched lazily
        #: by the engine (Pin's exit-stub patching).  Cleared wholesale
        #: by CodeCache.flush — a link must never outlive its target.
        self.links: dict[int, object] = {}
        #: This pc's ``[executions, compiles]`` cell of ``Jit.heat``
        #: (None on a step trace: it is never counted) and the
        #: ``executions`` at which the engine re-lowers this trace as
        #: generated code.
        self.heat: list[int] | None = None
        self.hot_at = NEVER
        #: What :meth:`Jit.compile` lowered the trace from, which is
        #: what :meth:`Jit.readmit` asks of it: the :class:`_Kept`
        #: entry whose calls it carries (a resident object's), ``(cut,)``
        #: where no trace callback ran at all (:meth:`Jit._cut`), or
        #: None — code no later run may be handed.
        self.kept = None


@dataclass
class JitStats:
    """What a JIT's pool and its choice of lowering did during one run
    (``pin.jit.*``).

    Host-side only: pooling changes how long a compile takes and the
    lowering how fast its product runs, never what either computes, so
    none of this reaches a ``SliceResult``.
    """

    #: Compiles whose decoded trace came from the pool.
    skeleton_reuses: int = 0
    #: Pooled skeletons thrown away because the guest words under them
    #: changed (self-modified code, another program at that address, a
    #: valid instruction over the word a trace ended ahead of).
    rejects_words: int = 0
    #: Compiles lowered to generated code.
    hot_compiles: int = 0
    #: Generated lowerings (functions and loop forms) whose text the
    #: process had compiled before: rebound, no ``compile()``.
    intern_hits: int = 0
    #: Cached threaded-code traces re-lowered as generated code when
    #: they crossed the mark in the middle of the run.
    promotions: int = 0
    #: Guest instructions retired in generated code.
    hot_instructions: int = 0
    #: Loop forms lowered (:meth:`Jit.loop_form`; one served from kept
    #: code is not counted), and trace executions that ran inside one.
    loop_builds: int = 0
    loop_trips: int = 0
    #: Of the loop forms lowered, those that summarize
    #: (``pin.suppress.*``, like the three below: which loops earn a
    #: loop form is a matter of heat).
    summarized_loops: int = 0
    #: Exits from a summarizing loop form (one summary burst each).
    loop_entries: int = 0
    #: Summary invocations fired.
    summarized_calls: int = 0
    #: Per-trip analysis calls a summary stood for, less the summary
    #: invocations themselves: the calls the summaries saved.
    suppressed_calls: int = 0
    #: Compiles served from kept instrumented code: no trace callback,
    #: no call wrapper (see "Instrument once per process").
    instrumentation_reuses: int = 0
    #: Of those, compiles of a trace a signature pc cuts (the slice's
    #: inline check, a split block): served from what was kept under
    #: that cut.
    cut_reuses: int = 0
    #: First reuses: instrumented again and compared with what the
    #: previous compile attached.
    instrumentation_checks: int = 0
    #: Compiles under a declaring tool sent down the ordinary path by
    #: something observed: an if/then pair, a routine that is no bound
    #: method of the resident tool, a mutable argument.
    instrumentation_declined: int = 0
    #: Dispatcher misses answered from the engine's trace store
    #: (``repro.pin.engine.WarmCache``): a trace an earlier run on the
    #: engine compiled, put back in the run's cache with no compile
    #: (:meth:`Jit.readmit`).  Counted among the ``skeleton_reuses`` —
    #: and, where a resident object's calls are put back, among the
    #: ``instrumentation_reuses`` — like the served compile it stands
    #: for.
    readmitted: int = 0


class _Skeleton:
    """The run-independent half of one compiled trace."""

    __slots__ = ("trace_obj", "instructions", "sems", "texts",
                 "bbl_sizes", "words", "owner", "kept", "attached",
                 "loops")

    def __init__(self, trace_obj: TraceObj):
        self.trace_obj = trace_obj
        self.instructions = trace_obj.instructions
        #: What each lowering keeps of its run-independent work, filled
        #: in by the first compile that takes it.  Threaded code:
        #: ``sems[i]`` is the call-free step of ``instructions[i]``
        #: (None until a compile finds nothing attached to it).
        self.sems: list[Step | None] | None = None
        #: Generated code: ``texts[i]`` is the semantics source of
        #: ``instructions[i]`` (None where it depends on the run).  The
        #: code object for a whole trace's text is the process's
        #: (:data:`_INTERN`), not the skeleton's.
        self.texts: list[tuple[str, ...] | None] | None = None
        #: Whether a direct exit of the trace targets its own head —
        #: what gives its generated form a loop form — read off the
        #: decoded instructions the first time it is asked
        #: (:meth:`Jit._loops`).
        self.loops: bool | None = None
        #: The natural blocks, by size: what ``trace_obj.bbls`` is
        #: split from, and restored to (:meth:`Jit._blocks`).
        self.bbl_sizes = [bbl.num_ins for bbl in trace_obj.bbls]
        #: Validation data, filled in by the first *reuse* (a run that
        #: never revisits a trace — most daemon jobs — pays nothing).
        self.words: list[int] | None = None
        #: The ``Jit.retain_for`` whose instrumentation is kept here
        #: (None: nobody's), and what it attached and lowered, per cut
        #: (:meth:`Jit._cut`): ``cut -> _Kept``, oldest first, at most
        #: :data:`KEPT_CUTS` of them.
        self.owner: object | None = None
        self.kept: dict[object, _Kept] | None = None
        #: The entry of ``kept`` whose calls the instructions carry right
        #: now — what a promotion or a loop form is lowered from — or
        #: None: whatever they carry is nobody's to keep.
        self.attached: _Kept | None = None


#: Cuts a skeleton keeps instrumented code for (:attr:`_Skeleton.kept`).
#: A slice's signature pc cuts its hot loop at one of a few offsets
#: (gzip's alternate between two), so a bound only matters to a resident
#: that lives through many programs' boundaries.
KEPT_CUTS = 8


class _Kept:
    """The run-dependent half of one compiled trace under one cut: what
    its callbacks attached, under which :attr:`Jit.template`, and what
    that was lowered to."""

    __slots__ = ("calls", "template", "verified", "skipped", "fastpath",
                 "steps", "fn", "source", "loop")

    def __init__(self, calls: list[tuple], template, skipped: int,
                 fastpath: int):
        #: :func:`_calls` of the instructions once the callbacks had run:
        #: the reference the next compile under this cut is compared
        #: with, and what a served compile puts back on the
        #: instructions (:func:`_restore`).
        self.calls = calls
        self.template = template
        #: True once a second instrumentation attached the same calls:
        #: only then is the entry served.
        self.verified = False
        #: What the filter counted while the callbacks ran
        #: (``skipped_callbacks`` / ``fastpath_traces``), re-applied by
        #: every compile served from here.
        self.skipped = skipped
        self.fastpath = fastpath
        #: Each lowering's product, filled in by the first compile (or
        #: promotion) that takes it.
        self.steps: list[Step] | None = None
        self.fn = None
        self.source: str | None = None
        self.loop = None


def _constant(value) -> bool:
    """True for a value no analysis routine can change."""
    if isinstance(value, (tuple, frozenset)):
        return all(_constant(item) for item in value)
    return value is None or isinstance(value, (int, float, str, bytes))


def summarizable(instructions: list[Ins]) -> bool:
    """True when a loop form of ``instructions`` summarizes its calls:
    something is attached, and every call is a
    before-call that declares a summary and whose arguments fold to
    constants (:func:`~repro.pin.args.try_static_args`).  (The caller
    also rules out a trace holding a signature check: that must see
    every trip's registers.)"""
    found = False
    for ins in instructions:
        if ins.if_then or ins.after_calls or ins.taken_calls:
            return False
        for call in ins.before_calls:
            if (call.summary is None
                    or try_static_args(call.specs, ins) is None):
                return False
            found = True
    return found


def _calls(instructions: list[Ins]) -> list[tuple]:
    """What is attached to ``instructions`` right now, comparable with
    what is attached after ``clear_calls`` and another instrumentation
    (``clear_calls`` rebinds the collections, it does not empty them)."""
    return [(ins.before_calls, ins.after_calls, ins.taken_calls,
             ins.if_then, ins.shape) for ins in instructions]


def _restore(instructions: list[Ins], calls: list[tuple]) -> None:
    """Attach to ``instructions`` what :func:`_calls` found on them."""
    for ins, (before, after, taken, if_then, shape) in zip(instructions,
                                                           calls):
        ins.before_calls, ins.after_calls, ins.taken_calls = (before, after,
                                                              taken)
        ins.if_then, ins.shape = if_then, shape


def _servable(attached: list[tuple], owner) -> bool:
    """True when code lowered from what :func:`_calls` found binds
    nothing a later run must not see: no if/then pair, every routine
    and summary a bound method of ``owner``, every argument value an
    immutable constant."""
    method = types.MethodType
    for before, after, taken, if_then, _ in attached:
        if if_then:
            return False
        for calls in (before, after, taken):
            for call in calls:
                fn, summary = call.fn, call.summary
                if (type(fn) is not method or fn.__self__ is not owner
                        or (summary is not None
                            and (type(summary) is not method
                                 or summary.__self__ is not owner))):
                    return False
                for _, value in call.specs:
                    if not _constant(value):
                        return False
    return True


class Jit:
    """Compiles guest code regions for one engine."""

    #: True pins every trace to the generated-code lowering
    #: (``PinVM(..., jit_backend="source")`` sets it on its own JIT).
    all_generated = False

    def __init__(self, engine):
        self._engine = engine
        cpu, mem = engine.cpu, engine.mem
        #: What every threaded step binds of its engine: what lives as
        #: long as the engine does (the capture rules above).
        self._binds = (engine, cpu, cpu.regs, mem.read, mem.write,
                       engine.counters)
        #: ``start pc -> _Skeleton`` kept across runs of this engine:
        #: the trace decoded at that head (see the module docstring).
        self.pool: dict[int, _Skeleton] = {}
        #: ``start pc -> [executions, compiles]``, monotone for the life
        #: of the engine: what the choice of lowering — and a profile —
        #: reads.  Compiles are counted here,
        #: but for served ones (:data:`HOT_EXECUTIONS_PER_COMPILE`);
        #: executions by the dispatch loop, through ``trace.heat``.
        self.heat: dict[int, list[int]] = {}
        #: The resident object whose bound methods kept instrumented
        #: code may bind — set, per run, by whoever knows that the
        #: instrumentation about to be registered is a pure function of
        #: the trace and comes from this object alone (a slice machine
        #: for a declaring tool; the signature lookahead for its own
        #: counters).  None: instrument every compile, keep nothing.
        self.retain_for: object | None = None
        #: What ``retain_for``'s callbacks can depend on (a slice
        #: machine: the tool's instrumentation digest, equal across runs
        #: of an equal tool).  What was kept under another value is
        #: compared again before it is used, and may differ; under the
        #: same value a difference is a lie.
        self.template: object | None = None
        #: The ``retain_for`` last caught in such a lie: compared on
        #: every compile from then on, and served nothing.
        self._liar: object | None = None

    def forget_instrumentation(self) -> None:
        """Drop everything kept for ``retain_for`` and its predecessors
        (skeletons stay: they are nobody's)."""
        self.retain_for = None
        for skeleton in self.pool.values():
            skeleton.owner = skeleton.kept = skeleton.attached = None

    def compile(self, address: int):
        """Build, instrument and lower the trace starting at ``address``
        — as generated code if it has earned it, else as threaded code.

        Under ``retain_for`` the instrumenting half is served from what an
        earlier compile under the same cut kept, checked against it, or
        kept for the next (module docstring); the lowering and everything
        the caller accounts the compile by are the same either way.
        """
        engine = self._engine
        stats = engine.jit_stats
        istats = engine.instr_stats
        skeleton, reused = self._skeleton(address)
        trace_obj = skeleton.trace_obj
        cut = self._cut(address, len(skeleton.instructions))

        # Served: what this resident object verified under this cut and
        # template.  Checked: anything else it keeps under this cut —
        # this template's first compile, or another's.
        owner = self.retain_for
        template = self.template
        kept = reference = None
        if owner is not None:
            if skeleton.owner is not owner:
                skeleton.owner, skeleton.kept = owner, {}
            reference = skeleton.kept.get(cut)
            if (reference is not None and reference.verified
                    and reference.template == template):
                kept, reference = reference, None

        if kept is not None:
            stats.instrumentation_reuses += 1
            if cut is not None:
                stats.cut_reuses += 1
            istats.skipped_callbacks += kept.skipped
            istats.fastpath_traces += kept.fastpath
            if skeleton.attached is not kept:
                _restore(skeleton.instructions, kept.calls)
                skeleton.attached = kept
        else:
            # Nobody's until the callbacks have run to the end: one that
            # raises leaves a half-instrumented trace behind.  Instrumented
            # for nobody (a tool-free slice, an undeclared tool), nothing
            # kept survives.
            skeleton.attached = None
            if owner is None:
                skeleton.owner = skeleton.kept = None
            if reused:
                for ins in skeleton.instructions:
                    ins.clear_calls()
            skipped, fastpath = (istats.skipped_callbacks,
                                 istats.fastpath_traces)
            self._blocks(skeleton, cut[0] if cut is not None else 0)
            run_trace_callbacks(engine, trace_obj, cut is not None)
            if owner is not None:
                self._keep(skeleton, cut, reference, template,
                           istats.skipped_callbacks - skipped,
                           istats.fastpath_traces - fastpath)

        cell = self.heat.setdefault(address, [0, 0])
        if (self.all_generated
                or (cell[1] and cell[0]
                    >= cell[1] * HOT_EXECUTIONS_PER_COMPILE)):
            trace = self._lower_generated(skeleton, cut)
            stats.hot_compiles += 1
        else:
            trace = CompiledTrace(address,
                                  self._lower_threaded(skeleton, cut),
                                  skeleton.instructions,
                                  trace_obj.fall_address,
                                  trace_obj.num_words)
        if kept is None:
            cell[1] += 1
        trace.heat = cell
        if not trace.is_source:
            trace.hot_at = self._mark(cell)
        if owner is not None:
            trace.kept = skeleton.attached
        elif not engine.trace_callbacks:
            trace.kept = (cut,)
        return trace

    def readmit(self, trace) -> bool:
        """Whether ``trace``, which an earlier run on this engine
        compiled, is what a compile of its pc would serve this run; if
        so, the compile it stands for is done — accounted as a served
        one, its calls put back on the skeleton — and the caller puts
        ``trace`` itself in the run's code cache.

        Served means: lowered off the skeleton the pool holds for the
        pc, around this run's cut (:meth:`_cut`), and from either the
        verified entry :meth:`compile` would serve under this
        ``retain_for`` and ``template``, or — for a run that registered
        no trace callback — from nothing attached at all; and in the
        lowering the compile would choose now.  Anything else the caller
        compiles.
        """
        kept = trace.kept
        address = trace.start
        skeleton = self.pool.get(address)
        if (kept is None or skeleton is None
                or skeleton.instructions is not trace.instructions):
            return False
        cell = trace.heat
        if trace.is_source != (self.all_generated or (
                cell[1] > 0
                and cell[0] >= cell[1] * HOT_EXECUTIONS_PER_COMPILE)):
            return False
        engine = self._engine
        instructions = skeleton.instructions
        stats = engine.jit_stats
        if type(kept) is tuple:
            if (engine.trace_callbacks
                    or kept[0] != self._cut(address, len(instructions))):
                return False
            if (skeleton.attached is not None
                    or any(ins.shape is not BARE for ins in instructions)):
                for ins in instructions:
                    ins.clear_calls()
                skeleton.attached = None
        else:
            owner = self.retain_for
            if (owner is None or skeleton.owner is not owner
                    or not kept.verified or kept.template != self.template):
                return False
            cut = self._cut(address, len(instructions))
            if skeleton.kept.get(cut) is not kept:
                return False
            stats.instrumentation_reuses += 1
            if cut is not None:
                stats.cut_reuses += 1
            istats = engine.instr_stats
            istats.skipped_callbacks += kept.skipped
            istats.fastpath_traces += kept.fastpath
            if skeleton.attached is not kept:
                _restore(instructions, kept.calls)
                skeleton.attached = kept
        stats.skeleton_reuses += 1
        stats.readmitted += 1
        trace.links.clear()
        if not trace.is_source:
            trace.hot_at = self._mark(cell)
        return True

    def _keep(self, skeleton: _Skeleton, cut, reference: _Kept | None,
              template, skipped: int, fastpath: int) -> None:
        """Keep what the callbacks just attached to ``skeleton`` under
        ``cut`` for ``retain_for`` — compared with ``reference``, what
        was kept there before — or nothing, if code lowered from it
        could bind what a later run must not see."""
        stats = self._engine.jit_stats
        kept = skeleton.kept
        attached = _calls(skeleton.instructions)
        if not _servable(attached, self.retain_for):
            kept.pop(cut, None)
            stats.instrumentation_declined += 1
            return
        entry = _Kept(attached, template, skipped, fastpath)
        if reference is not None:
            # ``_Call`` equality: ipoint, routine and summary (bound
            # methods of one object: their functions), arguments.
            stats.instrumentation_checks += 1
            if attached == reference.calls:
                # Equal calls lower to equal code.
                entry.verified = self.retain_for is not self._liar
                entry.steps = reference.steps
                entry.fn, entry.source = reference.fn, reference.source
                entry.loop = reference.loop
            elif reference.template == template:
                owner = self._liar = self.retain_for
                raise InstrumentationError(
                    f"{type(owner).__name__} declares "
                    f"pure_instrumentation, but its second "
                    f"instrumentation of the trace at "
                    f"{skeleton.trace_obj.address:#x} differs from its "
                    f"first")
            # (Another template's: its filter or constructor argument
            # is its own.  This is a first compile.)
            del kept[cut]
        elif len(kept) >= KEPT_CUTS:
            del kept[next(iter(kept))]
        kept[cut] = skeleton.attached = entry

    @staticmethod
    def _mark(cell: list[int]) -> int:
        """The ``executions`` at which the product of this pc's latest
        compile has earned generated code."""
        mark = cell[1] * HOT_EXECUTIONS_PER_COMPILE * PROMOTE_FACTOR
        return mark if mark < NEVER else NEVER

    def promote(self, trace: CompiledTrace):
        """The generated-code form of cached threaded-code ``trace``,
        which has just crossed its mark — or None.

        Re-lowered from the still-instrumented ``TraceObj`` the pooled
        skeleton holds (or taken from what an earlier slice kept of
        it), so no trace callback runs: a virtual compile fires its
        callbacks at most once, however often its product is
        re-lowered.  That is only sound for the product of this pc's
        latest compile off this very skeleton (anything else carries
        other instrumentation), which is what the two checks establish.
        """
        skeleton = self.pool.get(trace.start)
        if (skeleton is None or trace.hot_at != self._mark(trace.heat)
                or skeleton.instructions is not trace.instructions):
            return None
        new = self._lower_generated(
            skeleton, self._cut(trace.start, len(skeleton.instructions)))
        new.heat = trace.heat
        new.kept = trace.kept
        self._engine.jit_stats.promotions += 1
        return new

    # -- the run-independent half ----------------------------------------------

    def _skeleton(self, address: int) -> tuple[_Skeleton, bool]:
        """The decoded trace at ``address`` and whether it is a pooled
        one: pooled if this engine built it before and it is still what
        ``build_trace`` would produce, otherwise built (and pooled in
        place of what was refused)."""
        engine = self._engine
        stats = engine.jit_stats
        skeleton = self.pool.get(address)
        if skeleton is not None:
            if not self._refusal(skeleton, address):
                stats.skeleton_reuses += 1
                return skeleton, True
            stats.rejects_words += 1
        skeleton = self.pool[address] = _Skeleton(
            build_trace(engine.mem, address, engine.max_trace_ins))
        return skeleton, False

    def _refusal(self, skeleton: _Skeleton, address: int) -> bool:
        """False if ``skeleton`` is exactly the trace ``build_trace``
        would decode now (it still carries the instrumentation of its
        last compile), True if the words under it changed.

        ``build_trace`` is a function of the guest words, the start pc
        and the length cap.  The cap is the engine's; the words are
        checked here: (1) they are the ones decoded, which is also what
        catches code the master rewrote between two boundaries and
        another program loaded at the same address; (2) a trace that
        ended ahead of a word that does not decode still finds one
        there.
        """
        mem = self._engine.mem
        if skeleton.words is None:
            skeleton.words = [ins.raw for ins in skeleton.instructions]
        end = address + len(skeleton.words)
        return (not mem.same_words(address, skeleton.words)
                or (skeleton.trace_obj.ended is HOLE
                    and is_valid_opcode(mem.read(end))))

    def _cut(self, address: int, size: int):
        """How this run's signature pc cuts the trace of ``size``
        instructions at ``address``: None (the pc is not in it, or the
        run has no :attr:`~repro.pin.engine.PinVM.signature_check`), or
        ``(offset, r0, r1)`` — where the check sits and its two quick
        registers; :meth:`_blocks` splits a block at an ``offset``
        above 0.  What callbacks attach and what a lowering emits
        depend on the pc through this alone, so instrumented code is
        kept per cut."""
        check = self._engine.signature_check
        if check is None:
            return None
        offset = check.pc - address
        return (offset, *check.regs) if 0 <= offset < size else None

    def _blocks(self, skeleton: _Skeleton, split: int) -> None:
        """Give ``skeleton``'s trace the blocks this run's callbacks must
        see: its natural ones (``bbl_sizes``), split at the offset
        ``split`` if above 0 (:meth:`_cut`: where the signature pc falls
        strictly inside one) — what makes the pc a block head, so a
        slice that stops there has run whole blocks.  The instructions
        are the skeleton's either way."""
        trace_obj = skeleton.trace_obj
        instructions = skeleton.instructions
        end = len(instructions)
        if split or len(trace_obj.bbls) != len(skeleton.bbl_sizes):
            heads = sorted({*accumulate(skeleton.bbl_sizes[:-1], initial=0),
                            split})
            trace_obj.bbls = [Bbl(instructions[begin:stop]) for begin, stop
                              in zip(heads, heads[1:] + [end])]

    def compile_step(self, address: int) -> CompiledTrace:
        """Lower a single-instruction trace (exact-budget stepping).

        Instrumentation still runs — the one instruction carries exactly
        the analysis calls a full compile would attach to it, and the
        signature check if it is at the pc — and a step trace retires
        exactly one instruction per invocation.  Step traces are kept
        outside the code cache: they exist only so the engine can land
        on an arbitrary instruction boundary without changing trace
        shapes.
        """
        engine = self._engine
        trace_obj = build_trace(engine.mem, address, max_ins=1)
        cut = self._cut(address, 1)
        run_trace_callbacks(engine, trace_obj, cut is not None)
        ins = trace_obj.instructions[0]
        return CompiledTrace(address,
                             [self._step(ins, ins.shape,
                                         cut[1:] if cut else ())],
                             trace_obj.instructions,
                             trace_obj.fall_address, 1)

    # -- lowering ------------------------------------------------------------

    def _step(self, ins: Ins, shape: tuple, quick: tuple = ()) -> Step:
        """``ins`` as one threaded-code step, its analysis calls (of
        ``shape``) woven in, behind the signature check of the quick
        registers ``quick`` if given: its row's factory over this
        engine, its operands and its calls' values."""
        key = (ins.op, ins.rd != 0, shape, bool(quick))
        make = _FACTORIES.get(key) or _factory(key)
        values = quick
        if shape is not BARE:
            objects, numbers = call_values(ins)
            values = (*objects, *quick, *numbers)
        return make(*self._binds, *operands(ins), *values)

    def _lower_threaded(self, skeleton: _Skeleton, check) -> list[Step]:
        """``skeleton``'s instrumented trace as threaded code, with the
        signature ``check`` (:meth:`_cut`) if any: the kept steps, else
        one step per instruction — the pooled one where nothing is
        attached, which is every instruction of a fast-path trace and
        most of any other."""
        kept = skeleton.attached
        if kept is not None and kept.steps is not None:
            return kept.steps
        sems = skeleton.sems
        if sems is None:
            sems = skeleton.sems = [None] * len(skeleton.instructions)
        at, *quick = check or (-1,)
        steps = []
        for index, ins in enumerate(skeleton.instructions):
            shape = ins.shape
            if index == at:
                step = self._step(ins, shape, tuple(quick))
            elif shape is not BARE:
                step = self._step(ins, shape)
            else:
                step = sems[index]
                if step is None:
                    step = sems[index] = self._step(ins, BARE)
            steps.append(step)
        if kept is not None:
            kept.steps = steps
        return steps

    @staticmethod
    def _loops(skeleton: _Skeleton) -> bool:
        """Whether a direct exit of ``skeleton``'s trace targets its own
        head (:attr:`_Skeleton.loops`)."""
        if skeleton.loops is None:
            address = skeleton.trace_obj.address
            skeleton.loops = any(
                ins.imm == address and any(
                    target == "{imm}" for _, target in SEMANTICS[ins.op][1])
                for ins in skeleton.instructions)
        return skeleton.loops

    def _lower_generated(self, skeleton: _Skeleton, check):
        """Lower ``skeleton``'s instrumented trace, with the signature
        ``check`` (:meth:`_cut`) if any, to one generated function (see
        :mod:`repro.pin.pyjit`), by the cheapest means that applies: the
        kept function, else the process's code object for the same text,
        else ``compile()``."""
        # Imported here: pyjit builds on this module.
        from .pyjit import _Emitter, SourceCompiledTrace
        engine = self._engine
        trace_obj = skeleton.trace_obj
        address = trace_obj.address
        kept = skeleton.attached
        if kept is not None and kept.fn is not None:
            fn, source = kept.fn, kept.source
        else:
            if skeleton.texts is None:
                skeleton.texts = [None] * len(skeleton.instructions)
            emitter = _Emitter(engine, check)
            emitter.lower_all(skeleton.instructions, skeleton.texts)
            fn, source = self._function(emitter, address)
            if kept is not None:
                kept.fn, kept.source = fn, source
        return SourceCompiledTrace(
            start=address, fn=fn, num_ins=len(skeleton.instructions),
            num_words=trace_obj.num_words,
            fall_address=trace_obj.fall_address, source=source,
            instructions=skeleton.instructions,
            origin=skeleton if self._loops(skeleton) else None)

    def _function(self, emitter, address: int):
        """What ``emitter`` has emitted for the trace at ``address``, as
        ``(function, source)``: the process's code object for the same
        text (:data:`_INTERN`) rebound over the emitter's namespace —
        which skips ``compile()`` entirely — else compiled, and
        interned.  The one way any generated lowering gets its code."""
        source = emitter.source_text(address)
        # Taken out and put back as the most recent: a thread looking in
        # between compiles the text itself, which only costs its time.
        code = _INTERN.pop(source, None)
        if code is not None:
            _INTERN[source] = code
            self._engine.jit_stats.intern_hits += 1
            return types.FunctionType(code, emitter.namespace,
                                      "__trace__"), source
        fn = emitter.finish(source, address)
        _INTERN[source] = fn.__code__
        if len(_INTERN) > INTERN_BOUND:
            _INTERN.popitem(last=False)
        return fn, source

    def loop_form(self, trace):
        """Generated ``trace``'s loop form (:mod:`repro.pin.pyjit`),
        lowered the first time it is asked for — when the dispatch loop
        first follows the trace's link to itself — or None: the trace
        has none.

        Lowered from the instrumentation the skeleton still carries,
        which is the trace's own for as long as the trace is cached (a
        compile of its pc is a dispatcher miss on it), and kept beside
        ``fn`` where that is kept.
        """
        loop = trace.loop
        skeleton = trace.origin
        if loop is None and skeleton is not None:
            kept = skeleton.attached
            loop = kept.loop if kept is not None else None
            if loop is None:
                from .pyjit import _LoopEmitter
                engine = self._engine
                instructions = skeleton.instructions
                check = self._cut(trace.start, len(instructions))
                summarize = check is None and summarizable(instructions)
                emitter = _LoopEmitter(engine, trace.start, summarize,
                                       check)
                emitter.lower_all(instructions, None)
                loop, _ = self._function(emitter, trace.start)
                engine.jit_stats.loop_builds += 1
                engine.jit_stats.summarized_loops += summarize
                if kept is not None:
                    kept.loop = loop
            trace.loop = loop
        return loop
