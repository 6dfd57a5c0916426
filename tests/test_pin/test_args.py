"""IARG parsing, and what every argument is under every lowering."""

import cProfile
import os
import pstats

import pytest

from repro.errors import InstrumentationError
from repro.isa import assemble
from repro.isa.instructions import Op
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.pin import (IARG_ADDRINT, IARG_BRANCH_TAKEN, IARG_BRANCH_TARGET,
                       IARG_CONTEXT, IARG_END, IARG_INST_PTR,
                       IARG_MEMORYREAD_EA, IARG_MEMORYWRITE_EA, IARG_PTR,
                       IARG_REG_VALUE, IARG_SYSCALL_NUMBER, IARG_UINT64,
                       IPOINT_AFTER, IPOINT_BEFORE, IPOINT_TAKEN_BRANCH, jit,
                       PinVM, run_with_pin, RunState)
from repro.pin.args import parse_iargs
from repro.pin.jit import Jit
from repro.pin.trace import Ins
from repro.tools import MemTrace
from repro.workloads import build


class TestParse:
    def test_basic(self):
        specs = parse_iargs((IARG_UINT64, 5, IARG_INST_PTR, IARG_END))
        assert [kind for kind, _ in specs] == [IARG_UINT64, IARG_INST_PTR]
        assert specs[0][1] == 5

    def test_missing_end(self):
        with pytest.raises(InstrumentationError, match="IARG_END"):
            parse_iargs((IARG_UINT64, 5))

    def test_value_after_end(self):
        with pytest.raises(InstrumentationError, match="after IARG_END"):
            parse_iargs((IARG_END, 5))

    def test_missing_value(self):
        with pytest.raises(InstrumentationError, match="requires a value"):
            parse_iargs((IARG_REG_VALUE, IARG_END)[:1])

    def test_non_iarg_token(self):
        with pytest.raises(InstrumentationError, match="specifier"):
            parse_iargs((42, IARG_END))


def _collect(source: str, pick, *iargs, seed=3):
    """Run ``source`` collecting analysis-args at instructions where
    ``pick(ins)`` is true."""
    program = assemble(source)
    process = load_program(program, Kernel(seed=seed))
    vm = PinVM(process)
    collected = []

    def instrument(trace, value):
        for ins in trace.instructions:
            if pick(ins):
                ins.insert_call(IPOINT_BEFORE,
                                lambda *args: collected.append(args),
                                *iargs, IARG_END)
    vm.add_trace_callback(instrument)
    vm.run()
    return collected


SRC = """
.entry main
main:
    li   t0, 0x8000
    li   t1, 42
    st   t1, 4(t0)
    ld   t2, 4(t0)
    push t1
    pop  t3
    beq  t1, t2, eq
    li   t4, 0
eq:
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
"""


class TestResolvers:
    def test_memory_write_ea(self):
        args = _collect(SRC, lambda i: i.mnemonic == "st",
                        IARG_MEMORYWRITE_EA)
        assert args == [(0x8004,)]

    def test_memory_read_ea(self):
        args = _collect(SRC, lambda i: i.mnemonic == "ld",
                        IARG_MEMORYREAD_EA)
        assert args == [(0x8004,)]

    def test_push_pop_eas(self):
        from repro.isa import abi
        pushes = _collect(SRC, lambda i: i.mnemonic == "push",
                          IARG_MEMORYWRITE_EA)
        pops = _collect(SRC, lambda i: i.mnemonic == "pop",
                        IARG_MEMORYREAD_EA)
        assert pushes == [(abi.STACK_TOP - 1,)]
        assert pops == [(abi.STACK_TOP - 1,)]

    def test_branch_taken_predicate(self):
        args = _collect(SRC, lambda i: i.is_cond_branch, IARG_BRANCH_TAKEN)
        assert args == [(1,)]  # t1 == t2, branch taken

    def test_branch_target(self):
        program = assemble(SRC)
        target = program.symbols["eq"]
        args = _collect(SRC, lambda i: i.is_cond_branch, IARG_BRANCH_TARGET)
        assert args == [(target,)]

    def test_ptr_passes_object(self):
        marker = object()
        args = _collect(SRC, lambda i: i.mnemonic == "st",
                        IARG_PTR, marker)
        assert args[0][0] is marker

    def test_context_is_cpu(self):
        args = _collect(SRC, lambda i: i.mnemonic == "st", IARG_CONTEXT)
        cpu = args[0][0]
        assert hasattr(cpu, "regs") and hasattr(cpu, "pc")

    def test_mem_ea_on_non_memory_ins_rejected(self):
        with pytest.raises(InstrumentationError, match="does not read"):
            _collect(SRC, lambda i: i.mnemonic == "li",
                     IARG_MEMORYREAD_EA)

    def test_branch_taken_on_non_branch_rejected(self):
        with pytest.raises(InstrumentationError, match="not a branch"):
            _collect(SRC, lambda i: i.mnemonic == "li", IARG_BRANCH_TAKEN)

    @pytest.mark.parametrize("mnemonic, iargs, message", [
        ("li", (IARG_BRANCH_TARGET,), "has no branch target"),
        ("ld", (IARG_MEMORYWRITE_EA,), "does not write memory"),
        ("li", (IARG_SYSCALL_NUMBER,), "not a syscall"),
        ("li", (IARG_REG_VALUE, 32), "not a register"),
        ("li", (IARG_REG_VALUE, -1), "not a register"),
    ])
    def test_what_an_instruction_cannot_give_is_rejected(
            self, mnemonic, iargs, message):
        with pytest.raises(InstrumentationError, match=message):
            _collect(SRC, lambda i: i.mnemonic == mnemonic, *iargs)

    @pytest.mark.parametrize("mnemonic", ["ld", "st", "push", "pop"])
    def test_an_address_after_the_access_is_rejected_when_attached(
            self, mnemonic):
        """Pin defines the EA arguments at ``IPOINT_BEFORE`` only: by
        then ``ld t0, 4(t0)``, ``push`` and ``pop`` have moved the
        register their address is computed from."""
        program = assemble(SRC)
        vm = PinVM(load_program(program, Kernel(seed=3)))
        kind = (IARG_MEMORYREAD_EA if mnemonic in ("ld", "pop")
                else IARG_MEMORYWRITE_EA)
        raised = []

        def instrument(trace, value):
            for ins in trace.instructions:
                if ins.mnemonic == mnemonic:
                    with pytest.raises(InstrumentationError,
                                       match="IPOINT_BEFORE only"):
                        ins.insert_call(IPOINT_AFTER, print, kind, IARG_END)
                    raised.append(ins)
        vm.add_trace_callback(instrument)
        vm.run()
        assert len(raised) == 1


# --- the argument table -------------------------------------------------------
#
# Every kind of argument at every ipoint it is defined at, under every
# lowering: threaded code, generated code, generated code's loop form
# (the trips after the second run inside one function, over registers
# in locals) and threaded code promoted to generated code in the middle
# of the run.  The instruction under test runs once a trip, six trips,
# with its register fields drawn from {zero, one shared register, sp,
# ra} — as ``tests/test_machine/test_golden_model.py`` draws them — and
# their values from corners with and without the sign bit.  What each
# routine receives must be what the interpreter's state says at that
# point: before the instruction, after it, or on its taken edge.

M = (1 << 64) - 1
SGN = 1 << 63
NAMES = {"zero": 0, "r8": 8, "sp": 29, "ra": 31}
#: (r8, sp, ra) on each trip: sign-bit values against small ones and
#: each other, so that ``blt`` / ``bge`` and ``bltu`` / ``bgeu`` part.
VALUES = [(SGN, 1, 5), (1, SGN, SGN + 7), (M, 0, M), (5, 5, 0),
          (SGN - 1, SGN, 1), (0, M, SGN)]
TRIPS = len(VALUES)

TABLE_GUEST = """
.entry main
main:
    li   s0, 0
    li   s1, {trips}
head:
    ld   r8, v8(s0)
    ld   sp, v29(s0)
    ld   ra, v31(s0)
    li   a0, SYS_GETPID
at: {insn}
    inc  s0
    blt  s0, s1, head
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
away:
    inc  s0
    blt  s0, s1, head
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
.data
v8:  .word {v8}
v29: .word {v29}
v31: .word {v31}
"""


def table_forms(mnemonic):
    """Every form of ``mnemonic`` over the four registers, and which of
    them it jumps through (that one holds ``away`` on every trip)."""
    regs = list(NAMES)
    if mnemonic in ("ld", "st"):
        return [(f"{mnemonic} {a}, {i}({s})", None) for a in regs
                for s in regs for i in (5, -3)]
    if mnemonic in ("push", "pop"):
        return [(f"{mnemonic} {r}", None) for r in regs]
    if mnemonic == "add":
        return [(f"add {d}, {s}, {t}", None) for d in regs for s in regs
                for t in regs]
    if mnemonic in ("jr", "callr"):
        return [(f"{mnemonic} {s}", s) for s in regs if s != "zero"]
    if mnemonic == "ret":
        return [("ret", "ra")]
    if mnemonic in ("j", "call"):
        return [(f"{mnemonic} away", None)]
    if mnemonic == "syscall":
        return [("syscall", None)]
    return [(f"{mnemonic} {s}, {t}, away", None) for s in regs for t in regs]


def table_guest(insn, through):
    columns = {}
    for position, name in enumerate(("r8", "sp", "ra")):
        words = [str(values[position]) for values in VALUES]
        if name == through:
            words = ["away"] * TRIPS
        columns["v" + str(NAMES[name])] = ", ".join(words)
    return assemble(TABLE_GUEST.format(trips=TRIPS, insn=insn, **columns))


MARKER = object()


def table_iargs(ins, ipoint):
    """The arguments of the two calls attached at ``ipoint``: every
    value ``ins`` has there, and the context."""
    iargs = [IARG_INST_PTR, IARG_UINT64, -1, IARG_ADDRINT, (1 << 70) + 3,
             IARG_PTR, MARKER]
    for number in NAMES.values():
        iargs += [IARG_REG_VALUE, number]
    if ipoint is IPOINT_BEFORE:
        if ins.is_memory_read:
            iargs.append(IARG_MEMORYREAD_EA)
        if ins.is_memory_write:
            iargs.append(IARG_MEMORYWRITE_EA)
        if ins.is_syscall:
            iargs.append(IARG_SYSCALL_NUMBER)
    if ins.is_branch:
        iargs += [IARG_BRANCH_TAKEN, IARG_BRANCH_TARGET]
    return iargs


def ipoints(ins):
    if ins.is_branch:
        return (IPOINT_BEFORE, IPOINT_TAKEN_BRANCH)
    if ins.info.is_control:
        return (IPOINT_BEFORE,)
    return (IPOINT_BEFORE, IPOINT_AFTER)


def received(program, lowering, context, monkeypatch):
    """What the routines at ``at`` are handed, in order, under
    ``lowering`` — every value (or, ``context``, the register file
    through ``IARG_CONTEXT``: a call the loop form stores its registers
    back ahead of)."""
    process = load_program(program, Kernel(seed=3))
    vm = PinVM(process, jit_backend=("source" if lowering in ("generated",
                                                              "loop")
                                     else "closure"))
    with monkeypatch.context() as patch:
        if lowering == "generated":
            patch.setattr(Jit, "loop_form", lambda self, trace: None)
        if lowering == "promoted":
            patch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", 1)
        at = program.symbol("at")
        log = []

        def instrument(trace, value):
            for ins in trace.instructions:
                if ins.address != at:
                    continue
                for ipoint in ipoints(ins):
                    if context:
                        ins.insert_call(
                            ipoint, lambda cpu, p=ipoint: log.append(
                                (p, list(cpu.regs))),
                            IARG_CONTEXT, IARG_END)
                    else:
                        ins.insert_call(
                            ipoint, lambda *args, p=ipoint: log.append(
                                (p, args)),
                            *table_iargs(ins, ipoint), IARG_END)
        vm.add_trace_callback(instrument)
        assert vm.run().state is RunState.EXIT
    if lowering == "promoted":
        assert vm.jit_stats.promotions > 0
    return log, vm.jit_stats.loop_trips


def interpreted(program, context):
    """The same log, from the interpreter's state before and after each
    execution of ``at``."""
    process = load_program(program, Kernel(seed=3))
    interp = Interpreter(process)
    at, away = program.symbol("at"), program.symbol("away")
    log = []
    while not process.exited:
        pc = process.cpu.pc
        pre = list(process.cpu.regs)
        interp.run(max_instructions=1)
        if pc != at:
            continue
        post, to = list(process.cpu.regs), process.cpu.pc
        ins = Ins(pc, process.mem.read(pc))
        taken = ins.info.is_uncond or (ins.is_cond_branch and to == away)

        def value(kind, given, regs):
            if kind is IARG_INST_PTR:
                return pc
            if kind in (IARG_UINT64, IARG_ADDRINT):
                return given & M
            if kind is IARG_PTR:
                return given
            if kind is IARG_REG_VALUE:
                return regs[given]
            if kind is IARG_SYSCALL_NUMBER:
                return pre[2]
            if kind is IARG_BRANCH_TAKEN:
                return int(taken)
            if kind is IARG_BRANCH_TARGET:
                return to if taken else away
            # The address, from the ISA's definition.
            if ins.op is Op.PUSH:
                return (pre[29] - 1) & M
            if ins.op is Op.POP:
                return pre[29]
            return (pre[ins.rs] + ins.imm) & M

        for ipoint in ipoints(ins):
            regs = pre if ipoint is IPOINT_BEFORE else post
            if ipoint is IPOINT_TAKEN_BRANCH and not taken:
                continue
            if context:
                log.append((ipoint, regs))
                continue
            specs = parse_iargs((*table_iargs(ins, ipoint), IARG_END))
            log.append((ipoint, tuple(value(kind, given, regs)
                                      for kind, given in specs)))
    return log


def test_no_frame_from_this_module_runs_per_analysis_call():
    """A memtrace run over an mcf guest, profiled: ``args.py`` is called
    when a call is attached — its arguments parsed and checked — and
    never when it runs."""
    program = build("mcf", scale=0.02).program
    profile = cProfile.Profile()
    result, _, _ = profile.runcall(run_with_pin, program, MemTrace(),
                                   Kernel(seed=1))
    frames = {name: calls for (path, _, name), (_, calls, *_)
              in pstats.Stats(profile).stats.items()
              if path.endswith(os.path.join("pin", "args.py"))}
    assert set(frames) == {"parse_iargs", "check_iargs"}
    assert frames["parse_iargs"] == frames["check_iargs"]
    assert 100 * frames["parse_iargs"] < result.analysis_calls


TABLE_OPS = ["add", "ld", "st", "push", "pop", "beq", "bne", "blt", "bge",
             "bltu", "bgeu", "j", "jr", "call", "callr", "ret", "syscall"]


@pytest.mark.parametrize("lowering",
                         ["threaded", "generated", "loop", "promoted"])
@pytest.mark.parametrize("mnemonic", TABLE_OPS)
def test_every_argument_is_what_the_interpreter_says(mnemonic, lowering,
                                                     monkeypatch):
    for insn, through in table_forms(mnemonic):
        program = table_guest(insn, through)
        for context in (True, False):
            want = interpreted(program, context)
            assert len(want) >= TRIPS, insn
            got, loop_trips = received(program, lowering, context,
                                       monkeypatch)
            assert got == want, (insn, context)
            # (A trace that ends at a jump away is no loop.)
            if lowering == "loop" and mnemonic in ("add", "ld", "st",
                                                   "push", "pop"):
                assert loop_trips > 0, insn
        assert got[0][1][3] is MARKER
