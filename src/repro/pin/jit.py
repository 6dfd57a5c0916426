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
both go through: same skeleton, same callbacks, same suppression plan.
``jit_backend="source"`` (:class:`~repro.pin.pyjit.SourceJit`) is this
JIT with the decision pinned to "generated".

**Compile once per process.**  A compile has a half that depends on who
is instrumenting — run the trace callbacks, plan suppression, weave the
calls into the instrumented instructions — and a half that does not:
decode the trace and lower every other instruction.  A :class:`Jit`
whose ``pool`` is a dict (the JIT of a resident slice machine,
:mod:`repro.superpin.slices`, of the signature lookahead's machine and
of serial Pin's one engine; every other ``PinVM`` leaves it ``None`` and
retains nothing) keeps the second half per trace start pc as a
*skeleton* and redoes only the first half when a later run on the same
engine misses on that pc.  A skeleton is reused only when it is exactly
what ``build_trace`` would produce now (:meth:`Jit._refusal`) — and a head
keeps the few shapes ``build_trace`` has produced for it
(:data:`VARIANTS_PER_HEAD`): a slice whose signature pc falls inside a
hot trace cuts it there, and neither shape evicts the other.

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
object around kept code.  Everything a compile is accounted by happens
after that and is unchanged.  The owner also names *which* registration
of the resident object's a run is (:attr:`Jit.template` — a slice
machine's run template): what another one left is never served on its
word, but the first compile under the new one is already the comparing
one, and where the calls (and the suppression plan) are equal it takes
over the kept lowering instead of producing it again — where they are
not, another run's filter or constructor argument is no lie, and the
trace starts over.  What the code observes sends a trace down
the ordinary path instead, with nothing kept: a head that is the
slice's signature pc (the detector's if/then there is per slice by
nature; ``build_trace`` and rule 1 of :meth:`Jit._refusal` make the
target a trace *head*, never an interior instruction), any if/then, a
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
  or a run owns: ``instr_stats`` / ``jit_stats`` (generated code
  reaches them through ``E``), the code cache, the metrics
  registry, a signature detector, a syscall handler, a slice's own
  copy of the tool, or any other object a callback handed over.

An undeclared tool keeps the whole first half: its callbacks run on
every compile, so a tool that keeps instrument-time state sees every
compile it would see on a fresh engine.

A generated trace's *loop form* (:mod:`repro.pin.pyjit`) is a second
function over the same names, lowered lazily from the same still-attached
calls: interned by its text like every generated function and kept
beside ``fn``, under the same rules.

**Heat** is what a pooled JIT remembers about execution: per trace
start pc, how often the trace has run and how often it has been
compiled — served compiles aside — for the life of the engine
(:attr:`Jit.heat`).
"""

from __future__ import annotations

import types
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..errors import ArithmeticFault, InstrumentationError
from ..isa.instructions import MASK64, Op
from .args import (IARG_ADDRINT, IARG_BRANCH_TAKEN, IARG_BRANCH_TARGET,
                   IARG_CONTEXT, IARG_INST_PTR, IARG_MEMORYREAD_EA,
                   IARG_MEMORYWRITE_EA, IARG_PTR, IARG_REG_VALUE,
                   IARG_SYSCALL_NUMBER, IARG_UINT64, IArg)
from .filter import run_trace_callbacks
from .suppress import LoopPlan, plan_suppression
from .trace import BARE, BOUNDARY, build_trace, HOLE, Ins, TraceObj

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

#: Decoded shapes the pool keeps per trace head, most recently used
#: first.  ``build_trace`` cuts a trace at the first forced boundary
#: inside it, so a head has one shape more than there are signature pcs
#: inside its whole-length trace: over the bench guests' live runs 56 to
#: 276 shapes on 29 to 267 heads, eight or nine on the hottest loop's
#: and one or two on most.  The least recently used goes first.
VARIANTS_PER_HEAD = 8

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
#: ``raises``: the body can raise whatever the memory mode (it says
#: ``raise`` or calls out of the table), so generated code sets its
#: unwind markers there; ``RD`` / ``WR`` raise in strict mode only.  A
#: branch's condition is one expression (a signed compare flips the sign
#: bits), so an analysis call ahead of the branch can be handed it.
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


def weave(op: Op, shape: tuple, qualifier: str = ""):
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
    order :func:`call_values` lists their values.  If/then pairs run
    before plain before-calls: SuperPin's signature check must fire
    before any tool analysis at the boundary instruction, because that
    instruction belongs to the *next* slice (§4.4).
    """
    pairs, *plain_calls = shape
    names: list[str] = []
    fields: list[str] = []

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

    before: list[str] = []
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

#: ``(op, rd != 0, call shape) -> make``, compiled once per process.  A
#: factory binds nothing (its globals are :data:`CONSTANTS`), so engines
#: share it like a pooled code object; what a *step* binds is what its
#: engine passed to ``make``.
_FACTORIES: dict[tuple, Callable[..., Step]] = {}
_FACTORY_GLOBALS = dict(CONSTANTS)


def step_source(op: Op, writes: bool, shape: tuple = BARE) -> str:
    """The source of the step factory for ``op``: the generated code of
    one instruction, with the operands — and the numbers its calls are
    handed — as parameters."""
    names, fields, *calls = weave(op, shape)
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
                 "num_ins", "bbl_sizes", "links", "heat", "hot_at")

    is_source = False
    #: A bounded trace retires at most ``num_ins`` instructions per
    #: invocation — the property the engine's exact-budget mode relies
    #: on.  Summarized loop traces override this (one invocation may
    #: retire thousands of instructions).
    unbounded = False

    def __init__(self, start: int, steps: list[Step],
                 instructions: list[Ins], fall_address: int | None,
                 bbl_sizes: list[int]):
        self.start = start
        self.steps = steps
        #: The instrumented instructions the steps were lowered from.
        self.instructions = instructions
        self.fall_address = fall_address
        self.num_ins = len(steps)
        self.bbl_sizes = bbl_sizes
        #: Direct trace links: exit pc -> successor trace, patched lazily
        #: by the engine (Pin's exit-stub patching).  Cleared wholesale
        #: by CodeCache.flush — a link must never outlive its target.
        self.links: dict[int, object] = {}
        #: This pc's ``[executions, compiles]`` cell of ``Jit.heat``
        #: (None off a pooled engine) and the ``executions`` at which
        #: the engine re-lowers this trace as generated code.
        self.heat: list[int] | None = None
        self.hot_at = NEVER


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
    #: mapping under strict memory).
    rejects_words: int = 0
    #: ... because this run's forced boundaries cut the trace somewhere
    #: else than the run that pooled it.
    rejects_cut: int = 0
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
    #: Compiles served from kept instrumented code: no trace callback,
    #: no call wrapper (see "Instrument once per process").
    instrumentation_reuses: int = 0
    #: First reuses: instrumented again and compared with what the
    #: previous compile attached.
    instrumentation_checks: int = 0
    #: Compiles under a declaring tool sent down the ordinary path by
    #: something observed: a signature-pc head, an if/then, a routine
    #: that is no bound method of the resident tool, a mutable argument.
    instrumentation_declined: int = 0


class _Skeleton:
    """The run-independent half of one compiled trace."""

    __slots__ = ("trace_obj", "instructions", "sems", "texts",
                 "bbl_sizes", "words", "owner", "template",
                 "kept", "loops")

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
        #: decoded instructions by the first generated lowering.
        self.loops: bool | None = None
        self.bbl_sizes = [bbl.num_ins for bbl in trace_obj.bbls]
        #: Validation data, filled in by the first *reuse* (a run that
        #: never revisits a trace — most daemon jobs — pays nothing).
        self.words: list[int] | None = None
        #: The ``Jit.retain_for`` whose instrumentation ``trace_obj``
        #: still carries (None: anyone's, or none), under which
        #: ``(Jit.template, memory strictness)`` it attached it, and
        #: what the last verified compile under those produced.
        #: ``kept`` is only ever set while ``trace_obj`` carries exactly
        #: the instrumentation it was lowered from.
        self.owner: object | None = None
        self.template: tuple | None = None
        self.kept: _Kept | None = None


class _Kept:
    """The run-dependent half of one compiled trace, verified pure."""

    __slots__ = ("skipped", "fastpath", "plan", "steps", "fn", "source",
                 "loop")

    def __init__(self, skipped: int, fastpath: int, plan: LoopPlan | None):
        #: What the filter counted while the callbacks ran
        #: (``skipped_callbacks`` / ``fastpath_traces``), re-applied by
        #: every compile served from here.
        self.skipped = skipped
        self.fastpath = fastpath
        self.plan = plan
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


def _same_plan(plan: LoopPlan | None, other: LoopPlan | None) -> bool:
    """True when two suppression plans of one skeleton lower alike."""
    if plan is None or other is None:
        return plan is other
    return (plan.body_len == other.body_len
            and plan.summaries == other.summaries)


def _calls(instructions: list[Ins]) -> list[tuple]:
    """What is attached to ``instructions`` right now, comparable with
    what is attached after ``clear_calls`` and another instrumentation
    (``clear_calls`` rebinds the collections, it does not empty them)."""
    return [(ins.before_calls, ins.after_calls, ins.taken_calls,
             ins.if_then) for ins in instructions]


def _servable(attached: list[tuple], owner) -> bool:
    """True when code lowered from what :func:`_calls` found binds
    nothing a later run must not see: no if/then pair, every routine
    and summary a bound method of ``owner``, every argument value an
    immutable constant."""
    method = types.MethodType
    for before, after, taken, if_then in attached:
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
    #: (:class:`~repro.pin.pyjit.SourceJit`).
    all_generated = False

    def __init__(self, engine):
        self._engine = engine
        cpu, mem = engine.cpu, engine.mem
        #: What every threaded step binds of its engine: what lives as
        #: long as the engine does (the capture rules above).
        self._binds = (engine, cpu, cpu.regs, mem.read, mem.write,
                       engine.counters)
        #: ``start pc -> [_Skeleton, ...]`` kept across runs of this
        #: engine — the shapes decoded at that head, at most
        #: :data:`VARIANTS_PER_HEAD`, most recently used first — or None
        #: (retain nothing).  Set by whoever keeps the engine resident;
        #: see the module docstring.
        self.pool: dict[int, list[_Skeleton]] | None = None
        #: ``start pc -> [executions, compiles]``, monotone for the life
        #: of a pooled engine (empty off one): what the choice of
        #: lowering — and a profile — reads.  Compiles are counted here,
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
        #: Which registration of ``retain_for``'s callbacks this run is
        #: (a slice machine: the run template's id).  What was kept
        #: under another value is compared again before it is used, and
        #: may differ; under the same value a difference is a lie.
        self.template: object | None = None

    def forget_instrumentation(self) -> None:
        """Drop everything kept for ``retain_for`` and its predecessors
        (skeletons stay: they are nobody's)."""
        self.retain_for = None
        for variants in self.pool.values():
            for skeleton in variants:
                skeleton.owner = skeleton.kept = None

    def compile(self, address: int):
        """Build, instrument and lower the trace starting at ``address``
        — as generated code if it has earned it, else as threaded code.

        Under ``retain_for`` the instrumenting half is served from what an
        earlier compile kept, checked against it, or marked for the
        next (module docstring); the lowering and everything the caller
        accounts the compile by are the same either way.
        """
        engine = self._engine
        stats = engine.jit_stats
        istats = engine.instr_stats
        skeleton, reused = self._skeleton(address)
        trace_obj = skeleton.trace_obj

        # Who may be served, or checked: a trace this very resident
        # object instrumented last, at a head the slice's detector does
        # not instrument (the signature pc is only ever a trace head).
        # Served: what this template verified, lowered for this memory
        # mode (generated code sets its unwind markers by it, and the
        # suppression plan reads it).  Checked: everything else of the
        # owner's — this template's first compile, or another's work.
        owner = self.retain_for
        template = (self.template, engine.mem.strict)
        kept = reference = previous = None
        if owner is not None and address in engine.forced_boundaries:
            owner = None
            stats.instrumentation_declined += 1
        if reused and owner is not None and skeleton.owner is owner:
            previous = skeleton.kept
            if previous is not None and skeleton.template == template:
                kept = previous
            else:
                # What the previous compile attached is still on the
                # trace, and is the reference.
                reference = _calls(skeleton.instructions)

        if kept is not None:
            stats.instrumentation_reuses += 1
            istats.skipped_callbacks += kept.skipped
            istats.fastpath_traces += kept.fastpath
            plan = kept.plan
        else:
            # Nobody's until the callbacks have run to the end: one that
            # raises leaves a half-instrumented trace behind.
            attached_under = skeleton.template
            skeleton.owner = skeleton.kept = None
            if reused:
                for ins in skeleton.instructions:
                    ins.clear_calls()
            skipped, fastpath = (istats.skipped_callbacks,
                                 istats.fastpath_traces)
            run_trace_callbacks(engine, trace_obj)
            plan = plan_suppression(engine, trace_obj)
            if reference is not None:
                attached = _calls(skeleton.instructions)
                if not _servable(attached, owner):
                    owner = None
                    stats.instrumentation_declined += 1
                else:
                    # ``_Call`` equality: ipoint, routine and summary
                    # (bound methods of one object: their functions),
                    # arguments.
                    stats.instrumentation_checks += 1
                    was_template, was_strict = attached_under
                    if attached == reference:
                        verified = skeleton.kept = _Kept(
                            istats.skipped_callbacks - skipped,
                            istats.fastpath_traces - fastpath, plan)
                        # Equal calls lower to equal steps — and, where
                        # the plan and the memory mode it was emitted
                        # under are equal too, to the same function.
                        if previous is not None and _same_plan(
                                plan, previous.plan):
                            verified.steps = previous.steps
                            if was_strict == engine.mem.strict:
                                verified.fn = previous.fn
                                verified.source = previous.source
                                verified.loop = previous.loop
                    elif was_template == self.template:
                        raise InstrumentationError(
                            f"{type(owner).__name__} declares "
                            f"pure_instrumentation, but its second "
                            f"instrumentation of the trace at "
                            f"{address:#x} differs from its first")
                    # (Another template's: its filter or constructor
                    # argument is its own.  This is a first compile.)
            skeleton.owner = owner
            skeleton.template = template

        cell = (self.heat.setdefault(address, [0, 0])
                if self.pool is not None else None)
        # A summarized loop has one lowering: a loop is what generated
        # code is for, and its invocations retire whole iterations.
        if (self.all_generated or plan is not None
                or (cell is not None and cell[1] and cell[0]
                    >= cell[1] * HOT_EXECUTIONS_PER_COMPILE)):
            trace = self._lower_generated(skeleton, plan)
            stats.hot_compiles += 1
        else:
            trace = CompiledTrace(address, self._lower_threaded(skeleton),
                                  skeleton.instructions,
                                  trace_obj.fall_address,
                                  skeleton.bbl_sizes)
        if cell is not None:
            if kept is None:
                cell[1] += 1
            trace.heat = cell
            if not trace.is_source:
                trace.hot_at = self._mark(cell)
        return trace

    @staticmethod
    def _mark(cell: list[int]) -> int:
        """The ``executions`` at which the product of this pc's latest
        compile has earned generated code."""
        return min(cell[1] * HOT_EXECUTIONS_PER_COMPILE * PROMOTE_FACTOR,
                   NEVER)

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
        skeleton = next(
            (variant for variant in self.pool.get(trace.start, ())
             if variant.instructions is trace.instructions), None)
        if skeleton is None or trace.hot_at != self._mark(trace.heat):
            return None
        new = self._lower_generated(skeleton, None)
        new.heat = trace.heat
        self._engine.jit_stats.promotions += 1
        return new

    # -- the run-independent half ----------------------------------------------

    def _skeleton(self, address: int) -> tuple[_Skeleton, bool]:
        """The decoded trace at ``address`` and whether it is a pooled
        one: pooled if this engine built it before and it is still what
        ``build_trace`` would produce, otherwise built (and pooled,
        beside the other shapes of this head)."""
        engine = self._engine
        pool = self.pool
        variants = refused = None
        if pool is not None:
            variants = pool.setdefault(address, [])
            stats = engine.jit_stats
            for position, skeleton in enumerate(variants):
                refused = self._refusal(skeleton, address)
                if refused is None:
                    if position:
                        variants.insert(0, variants.pop(position))
                    stats.skeleton_reuses += 1
                    return skeleton, True
            # One reject a compile, by why the last shape tried was not
            # what ``build_trace`` would produce.
            if refused == "cut":
                stats.rejects_cut += 1
            elif refused == "words":
                stats.rejects_words += 1
        skeleton = _Skeleton(build_trace(
            engine.mem, address, forced_boundaries=engine.forced_boundaries,
            max_ins=engine.max_trace_ins))
        if variants is not None:
            del variants[VARIANTS_PER_HEAD - 1:]
            variants.insert(0, skeleton)
        return skeleton, False

    def _refusal(self, skeleton: _Skeleton, address: int) -> str | None:
        """None if ``skeleton`` is exactly the trace ``build_trace``
        would decode now (it still carries the instrumentation of its
        last compile), else why not: ``"cut"`` or ``"words"``.

        ``build_trace`` is a function of the guest words, the start pc,
        the forced boundaries, the length cap and — under strict memory
        — which words are mapped.  The cap is the engine's; the rest is
        checked here: (1) no forced boundary of this run lies strictly
        inside the trace — it would have to be re-cut there so detection
        sits at a trace head; (2) a trace that ended *because* a
        boundary was forced at its end (``TraceObj.ended``) may only be
        reused where that end is forced again — anywhere else it must
        extend; (3) the guest words are the ones decoded and, under
        strict memory, still mapped, which is also what catches code the
        master rewrote between two boundaries and another program loaded
        at the same address; (4) a trace that ended ahead of an unmapped
        word still finds one there.
        """
        engine = self._engine
        mem = engine.mem
        if skeleton.words is None:
            skeleton.words = [ins.raw for ins in skeleton.instructions]
        forced = engine.forced_boundaries
        end = address + len(skeleton.words)
        ended = skeleton.trace_obj.ended
        if (any(address < pc < end for pc in forced)
                or (ended is BOUNDARY and end not in forced)):
            return "cut"
        if (not mem.same_words(address, skeleton.words)
                or (ended is HOLE
                    and (not mem.strict or mem.is_mapped(end)))):
            return "words"
        return None

    def compile_step(self, address: int) -> CompiledTrace:
        """Lower a single-instruction trace (exact-budget stepping).

        Instrumentation still runs — the one instruction carries exactly
        the analysis calls a full compile would attach to it — but
        suppression never applies (a one-instruction trace has no loop
        body to summarize), so a step trace retires exactly one
        instruction per invocation.  Step traces are kept outside the
        code cache: they exist only so the engine can land on an
        arbitrary instruction boundary without changing trace shapes.
        """
        engine = self._engine
        trace_obj = build_trace(engine.mem, address,
                                forced_boundaries=engine.forced_boundaries,
                                max_ins=1)
        run_trace_callbacks(engine, trace_obj)
        ins = trace_obj.instructions[0]
        return CompiledTrace(address, [self._step(ins, ins.shape)],
                             trace_obj.instructions,
                             trace_obj.fall_address,
                             [bbl.num_ins for bbl in trace_obj.bbls])

    # -- lowering ------------------------------------------------------------

    def _step(self, ins: Ins, shape: tuple) -> Step:
        """``ins`` as one threaded-code step, its analysis calls (of
        ``shape``) woven in: its row's factory over this engine, its
        operands and its calls' values."""
        key = (ins.op, ins.rd != 0, shape)
        make = _FACTORIES.get(key) or _factory(key)
        values = ()
        if shape is not BARE:
            objects, numbers = call_values(ins)
            values = objects + numbers
        return make(*self._binds, *operands(ins), *values)

    def _lower_threaded(self, skeleton: _Skeleton) -> list[Step]:
        """``skeleton``'s instrumented trace as threaded code: the kept
        steps, else one step per instruction — the pooled one where
        nothing is attached, which is every instruction of a fast-path
        trace and most of any other."""
        kept = skeleton.kept
        if kept is not None and kept.steps is not None:
            return kept.steps
        sems = skeleton.sems
        if sems is None:
            sems = skeleton.sems = [None] * len(skeleton.instructions)
        steps = []
        for index, ins in enumerate(skeleton.instructions):
            shape = ins.shape
            if shape is not BARE:
                step = self._step(ins, shape)
            else:
                step = sems[index]
                if step is None:
                    step = sems[index] = self._step(ins, BARE)
            steps.append(step)
        if kept is not None:
            kept.steps = steps
        return steps

    def _lower_generated(self, skeleton: _Skeleton, plan: LoopPlan | None):
        """Lower ``skeleton``'s instrumented trace to one generated
        function (see :mod:`repro.pin.pyjit`), by the cheapest means
        that applies: the kept function, else the process's code object
        for the same text, else ``compile()``."""
        # Imported here: pyjit builds on this module.
        from .pyjit import _Emitter, SourceCompiledTrace
        engine = self._engine
        trace_obj = skeleton.trace_obj
        address = trace_obj.address
        kept = skeleton.kept
        if plan is not None:
            engine.instr_stats.summarized_loops += 1
        if kept is not None and kept.fn is not None:
            fn, source = kept.fn, kept.source
        else:
            if skeleton.texts is None and self.pool is not None:
                skeleton.texts = [None] * len(skeleton.instructions)
            emitter = _Emitter(engine)
            if plan is not None:
                emitter.emit_suppressed_loop(plan)
            else:
                emitter.lower_all(skeleton.instructions, skeleton.texts)
            fn, source = self._function(emitter, address)
            if kept is not None:
                kept.fn, kept.source = fn, source
        if skeleton.loops is None:
            skeleton.loops = any(
                ins.imm == address and any(
                    target == "{imm}" for _, target in SEMANTICS[ins.op][1])
                for ins in skeleton.instructions)
        # A summarized loop already holds its loop.
        return SourceCompiledTrace(
            start=address, fn=fn, num_ins=len(skeleton.instructions),
            fall_address=trace_obj.fall_address, source=source,
            bbl_sizes=skeleton.bbl_sizes,
            instructions=skeleton.instructions, unbounded=plan is not None,
            origin=skeleton if skeleton.loops and plan is None else None)

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
            kept = skeleton.kept
            loop = kept.loop if kept is not None else None
            if loop is None:
                from .pyjit import _LoopEmitter
                emitter = _LoopEmitter(self._engine, trace.start)
                emitter.lower_all(skeleton.instructions, None)
                loop, _ = self._function(emitter, trace.start)
                self._engine.jit_stats.loop_builds += 1
                if kept is not None:
                    kept.loop = loop
            trace.loop = loop
        return loop
