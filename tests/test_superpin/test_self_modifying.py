"""Self-modifying code: every engine is the interpreter on a guest that
rewrites its own instructions.

A guest store into a word some cached trace decoded evicts that trace
before it runs again, and a store into a later instruction of the trace
that is executing (or into a loop form's own trace) ends that execution
right after the store (``repro.pin.engine``).  The master, serial Pin,
SuperPin's slices, replay and time-travel landings all run that engine,
so on each guest below, under every lowering, all of them must equal the
interpreter: exit code, output, instruction count, the state at a
landing past the rewrite, and a per-instruction tool's count — and the
audit must be clean.
"""

import math

import pytest

from repro.errors import SelfModifyingCodeError
from repro.isa import assemble
from repro.machine import Interpreter, Kernel, load_program
from repro.pin import IARG_END, IPOINT_AFTER, jit, Pintool, run_with_pin
from repro.pin.trace import build_trace
from repro.superpin import (load_recording, replay_recording, run_superpin,
                            SuperPinConfig, TimeTravelEngine)
from repro.tools import ICount1, ICount2, MemTrace

from ..conftest import promote_at
from .test_slice_machine import REWRITTEN

#: ``f`` is hot — promoted, its caller's trace linked to it — when the
#: loop that calls it rewrites it, halfway, inside one timeslice.
REWRITTEN_HOT = """
.entry main
main:
    li   s0, 0
    li   s1, 2000
    li   s3, 1000
    la   t3, donor
    ld   t4, 0(t3)
    la   t5, patch
lp: call f
    inc  s0
    bne  s0, s3, skip
    st   t4, 0(t5)
skip:
    bne  s0, s1, lp
    li   a0, SYS_EXIT
    mov  a1, s2
    syscall
f:
patch:
    addi s2, s2, 1
    ret
donor:
    addi s2, s2, 5
"""

#: A one-trace loop that stores into its own next instruction, with a
#: different word every trip: the store must take effect on the very
#: next instruction, in a loop form as in threaded code.
NEXT_INSTRUCTION = """
.entry main
main:
    li   s0, 0
    li   s1, 600
    li   t6, 0
    la   t3, donors
    la   t5, slot
lp: addi s0, s0, 1
    xori t6, t6, 1
    add  t7, t3, t6
    ld   t4, 0(t7)
    st   t4, 0(t5)
slot:
    addi s2, s2, 1
    bne  s0, s1, lp
    li   a0, SYS_EXIT
    mov  a1, s2
    syscall
donors:
    addi s2, s2, 3
    addi s2, s2, 7
"""

#: A loop whose loop form summarizes under ``-spsuppress`` stores into
#: its own next instruction on trip 500 only (every other trip stores
#: into data): the store lands inside a running loop form.
IN_A_SUMMARIZED_LOOP = """
.entry main
main:
    li   s0, 0
    li   s1, 1200
    li   s3, 500
    la   t3, donor
    ld   t4, 0(t3)
    la   t5, slot
    li   t0, 0x9000
    sub  s4, t0, t5
lp: addi s0, s0, 1
    sub  t6, s0, s3
    sltu t6, zero, t6
    mul  t6, t6, s4
    add  t7, t5, t6
    st   t4, 0(t7)
slot:
    addi s2, s2, 1
    bne  s0, s1, lp
    li   a0, SYS_EXIT
    mov  a1, s2
    syscall
donor:
    addi s2, s2, 5
"""

#: The trace at ``lp`` ends ahead of ``hole``, a word that does not
#: decode; trip 100 stores a ``nop`` over it, which changes what a decode
#: at ``lp`` reads, though the trace never ran that word.
OVER_A_HOLE = """
.entry main
main:
    li   s0, 0
    li   s1, 200
    la   t3, donor
    ld   t4, 0(t3)
    la   t5, hole
lp: addi s0, s0, 1
    li   t0, 100
    bne  s0, t0, skip
    st   t4, 0(t5)
skip:
    beq  zero, zero, over
hole:
    .word 0xff
over:
    blt  s0, s1, lp
    li   a0, SYS_EXIT
    mov  a1, s0
    syscall
donor:
    nop
"""

#: The first trace stores ``donor`` over ``patch``, a later instruction
#: of its own: it exits 5, not 1.
AHEAD_OF_AN_AFTER_CALL = """
.entry main
main:
    la   t3, donor
    ld   t4, 0(t3)
    la   t5, patch
    st   t4, 0(t5)
patch:
    addi s2, s2, 1
    li   a0, SYS_EXIT
    mov  a1, s2
    syscall
donor:
    addi s2, s2, 5
"""

#: name -> (source, timeslice settings, expected exit code).
GUESTS = {
    "rewritten": (REWRITTEN, dict(spmsec=500), 500 * (1 + 5)),
    "rewritten-hot": (REWRITTEN_HOT, dict(spmsec=1000), 1000 * (1 + 5)),
    "next-instruction": (NEXT_INSTRUCTION, dict(spmsec=200),
                         300 * (3 + 7)),
}

#: ... and under ``-spsuppress``.
SUPPRESSED = dict(GUESTS, **{
    "in-a-summarized-loop": (IN_A_SUMMARIZED_LOOP, dict(spmsec=500),
                             499 * 1 + 701 * 5)})

#: How every engine lowers: as shipped; every cached trace promoted at
#: its first or sixteenth execution (``promote_at``); threaded code only.
LOWERINGS = ["shipped", "promote-1", "promote-16", "threaded"]


def lower(monkeypatch, lowering: str) -> None:
    if lowering.startswith("promote-"):
        promote_at(monkeypatch, int(lowering.split("-")[1]))
    elif lowering == "threaded":
        monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", math.inf)


def interpret(program, icount=None):
    """The oracle: ``(exit code, instructions, stdout)``, or the state
    ``icount`` instructions in."""
    kernel = Kernel(seed=3)
    process = load_program(program, kernel)
    interp = Interpreter(process)
    interp.run(icount)
    if icount is not None:
        return process.cpu.snapshot()
    return process.exit_code, interp.total_instructions, kernel.stdout_text()


@pytest.mark.parametrize("lowering", LOWERINGS)
@pytest.mark.parametrize("guest", GUESTS)
class TestEveryEngineIsTheInterpreter:

    def test_serial_pin(self, guest, lowering, monkeypatch):
        source, _, exit_code = GUESTS[guest]
        lower(monkeypatch, lowering)
        program = assemble(source)
        want = interpret(program)
        assert want[0] == exit_code
        tool = ICount1()
        _, vm, kernel = run_with_pin(program, tool, kernel=Kernel(seed=3))
        assert (vm.exit_code, vm.total_instructions, kernel.stdout_text()) \
            == want
        assert tool.total == want[1]
        assert vm.cache.stats.invalidations > 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_superpin_audit_replay_and_landings(self, guest, lowering,
                                                workers, monkeypatch,
                                                tmp_path):
        source, timing, _ = GUESTS[guest]
        lower(monkeypatch, lowering)
        program = assemble(source)
        want = interpret(program)
        path = tmp_path / "run.sprec"
        config = SuperPinConfig(clock_hz=10_000, spworkers=workers,
                                spaudit=True, sprecord=str(path), **timing)
        tool = ICount1()
        report = run_superpin(program, tool, config, kernel=Kernel(seed=3))
        assert report.audit.ok, report.audit.summary()
        assert report.all_exact and report.num_slices > 1
        assert (report.exit_code, report.timeline.total_instructions,
                report.stdout) == want
        assert tool.total == want[1]
        # The master cached the code it rewrote.
        assert report.timeline.master.code_invalidations > 0

        replayed = ICount1()
        replay = replay_recording(str(path), replayed,
                                  SuperPinConfig(spworkers=workers))
        assert replay.exit_code == want[0] and replayed.total == want[1]

        engine = TimeTravelEngine(load_recording(path))
        total = want[1]
        for icount in (total // 2, 3 * total // 4, total - 7, total):
            engine.goto(icount)
            assert engine.registers() == interpret(program, icount), icount


@pytest.mark.parametrize("lowering", LOWERINGS)
@pytest.mark.parametrize("guest", SUPPRESSED)
def test_under_suppression(guest, lowering, monkeypatch):
    """Under ``-spsuppress`` a store into code the executing loop form
    would still run stops it like any other, its summaries fired for
    the trips before: serial Pin and SuperPin, audited, are the
    interpreter."""
    source, timing, exit_code = SUPPRESSED[guest]
    lower(monkeypatch, lowering)
    program = assemble(source)
    want = interpret(program)
    assert want[0] == exit_code
    tool = ICount1()
    _, vm, kernel = run_with_pin(program, tool, kernel=Kernel(seed=3),
                                 suppress_loops=True)
    assert (vm.exit_code, vm.total_instructions, kernel.stdout_text()) \
        == want
    assert tool.total == want[1]
    assert vm.cache.stats.invalidations > 0
    if guest == "in-a-summarized-loop":
        assert vm.instr_stats.loop_entries > 1
    tool = ICount1()
    report = run_superpin(
        program, tool, SuperPinConfig(clock_hz=10_000, spaudit=True,
                                      spsuppress=True, **timing),
        kernel=Kernel(seed=3))
    assert report.audit.ok, report.audit.summary()
    assert (report.exit_code, report.timeline.total_instructions,
            report.stdout) == want
    assert tool.total == want[1]


@pytest.mark.parametrize("lowering", LOWERINGS)
@pytest.mark.parametrize("guest", ["rewritten", "rewritten-hot"])
def test_per_block_and_memory_tools_agree(guest, lowering, monkeypatch):
    """Where no store rewrites a later instruction of its own basic
    block, a count taken at a block's entry is exact too: serial Pin,
    SuperPin and the audit agree on ``icount2`` and ``memtrace``."""
    source, timing, _ = GUESTS[guest]
    lower(monkeypatch, lowering)
    program = assemble(source)
    _, instructions, _ = interpret(program)
    for factory in (ICount2, MemTrace):
        serial = factory()
        run_with_pin(program, serial, kernel=Kernel(seed=3))
        tool = factory()
        report = run_superpin(
            program, tool, SuperPinConfig(clock_hz=10_000, spaudit=True,
                                          **timing),
            kernel=Kernel(seed=3))
        assert report.audit.ok, report.audit.summary()
        assert tool.report() == serial.report()
    icount2 = ICount2()
    run_with_pin(program, icount2, kernel=Kernel(seed=3))
    assert icount2.total == instructions


@pytest.mark.parametrize("lowering", LOWERINGS)
class TestAStoreOverTheWordATraceStoppedAhead:
    """A trace that ended ahead of a word that does not decode read that
    word too: a store over it evicts the trace, so the next decode at
    ``lp`` runs on past the ``nop``."""

    def test_serial_pin(self, lowering, monkeypatch):
        lower(monkeypatch, lowering)
        program = assemble(OVER_A_HOLE)
        want = interpret(program)
        assert want[0] == 200
        lp = program.symbols["lp"]
        for backend in ("closure", "source"):
            tool = ICount1()
            _, vm, kernel = run_with_pin(program, tool, kernel=Kernel(seed=3),
                                         jit_backend=backend)
            assert (vm.exit_code, vm.total_instructions,
                    kernel.stdout_text()) == want, backend
            assert tool.total == want[1]
            assert vm.cache.get(lp).num_ins \
                == build_trace(vm.mem, lp).num_ins == 10, backend
            assert vm.cache.stats.invalidations >= 1

    @pytest.mark.parametrize("workers", [0, 2])
    def test_superpin_audited(self, lowering, workers, monkeypatch):
        lower(monkeypatch, lowering)
        program = assemble(OVER_A_HOLE)
        want = interpret(program)
        tool = ICount1()
        report = run_superpin(
            program, tool, SuperPinConfig(clock_hz=10_000, spmsec=20,
                                          spworkers=workers, spaudit=True),
            kernel=Kernel(seed=3))
        assert report.audit.ok, report.audit.summary()
        assert report.all_exact and report.num_slices > 1
        assert (report.exit_code, report.timeline.total_instructions,
                report.stdout) == want
        assert tool.total == want[1]
        assert report.timeline.master.code_invalidations > 0


class AfterEveryWrite(Pintool):
    """One ``IPOINT_AFTER`` call on every instruction that writes memory."""

    name = "after-every-write"

    def __init__(self):
        self.writes = 0

    def count(self) -> None:
        self.writes += 1

    def instrument_trace(self, trace, vm) -> None:
        for ins in trace.instructions:
            if ins.is_memory_write:
                ins.insert_call(IPOINT_AFTER, self.count, IARG_END)


@pytest.mark.parametrize("backend", ["closure", "source"])
class TestAStoreAheadOfItsOwnAfterCall:
    """A store that rewrites a later instruction of its own trace ends
    that execution right after the store, which would run ahead of the
    store's after-calls: the engine names the case instead."""

    def test_an_after_call_on_the_store_is_refused(self, backend):
        program = assemble(AHEAD_OF_AN_AFTER_CALL)
        with pytest.raises(SelfModifyingCodeError,
                           match="ahead of its own after-calls"):
            run_with_pin(program, AfterEveryWrite(), kernel=Kernel(seed=3),
                         jit_backend=backend)

    def test_a_before_call_tool_is_the_interpreter(self, backend):
        program = assemble(AHEAD_OF_AN_AFTER_CALL)
        want = interpret(program)
        assert want[0] == 5
        tool = ICount1()
        _, vm, kernel = run_with_pin(program, tool, kernel=Kernel(seed=3),
                                     jit_backend=backend)
        assert (vm.exit_code, vm.total_instructions, kernel.stdout_text()) \
            == want
        assert tool.total == want[1]
