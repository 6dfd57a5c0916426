"""Trace building: BBL splitting, trace termination, words that do not
decode."""

import pytest

from repro.errors import IllegalInstruction
from repro.isa import assemble, Op
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.pin import jit, PinVM, RunState
from repro.pin.trace import build_trace, HOLE, MAX_TRACE_INS
from repro.tools import ICount1


def _mem_for(source: str):
    program = assemble(source)
    process = load_program(program, Kernel())
    return process.mem, program


class TestTraceShapes:
    def test_straight_line_ends_at_uncond(self):
        mem, program = _mem_for(
            "main:\n    li t0, 1\n    li t1, 2\n    j main\n")
        trace = build_trace(mem, program.entry)
        assert len(trace.bbls) == 1
        assert trace.num_ins == 3
        assert trace.fall_address is None  # unconditional end

    def test_cond_branch_splits_bbl_not_trace(self):
        mem, program = _mem_for(
            "main:\n    li t0, 1\n    beq t0, t1, main\n"
            "    li t2, 3\n    ret\n")
        trace = build_trace(mem, program.entry)
        assert len(trace.bbls) == 2
        assert trace.bbls[0].num_ins == 2
        assert trace.bbls[1].num_ins == 2
        assert trace.fall_address is None

    def test_syscall_ends_trace_with_fall_address(self):
        mem, program = _mem_for(
            "main:\n    li a0, 1\n    syscall\n    li t0, 2\n    ret\n")
        trace = build_trace(mem, program.entry)
        assert trace.num_ins == 2
        assert trace.fall_address == program.entry + 2

    def test_max_ins_cap(self):
        body = "\n".join("    addi t0, t0, 1" for _ in range(100))
        mem, program = _mem_for(f"main:\n{body}\n    ret\n")
        trace = build_trace(mem, program.entry)
        assert trace.num_ins == MAX_TRACE_INS
        assert trace.fall_address == program.entry + MAX_TRACE_INS

    def test_call_ends_trace(self):
        mem, program = _mem_for(
            "main:\n    li t0, 1\n    call main\n    li t1, 2\n    ret\n")
        trace = build_trace(mem, program.entry)
        assert trace.num_ins == 2
        assert trace.bbls[-1].tail.op is Op.CALL

    def test_halt_ends_trace(self):
        mem, program = _mem_for("main:\n    halt\n")
        trace = build_trace(mem, program.entry)
        assert trace.num_ins == 1
        assert trace.fall_address is None


class TestInsProperties:
    def test_classification_flags(self):
        mem, program = _mem_for(
            "main:\n    ld t0, 0(sp)\n    st t0, 1(sp)\n"
            "    beq t0, t0, main\n    call main\n    ret\n")
        trace = build_trace(mem, program.entry)
        ld, store, beq, call = trace.instructions[:4]
        assert ld.is_memory_read and not ld.is_memory_write
        assert store.is_memory_write and not store.is_memory_read
        assert beq.is_cond_branch and beq.is_branch
        assert call.is_call and call.is_branch

    def test_disassemble(self):
        mem, program = _mem_for("main:\n    addi t0, t1, 5\n    ret\n")
        trace = build_trace(mem, program.entry)
        assert trace.instructions[0].disassemble() == "addi t0, t1, 5"


#: The guest ends in a conditional branch followed by a word that does
#: not decode, so a trace that reaches its last instruction would decode
#: it.  ``li t1, 3`` makes ``beq t0, t1, done`` leave for ``halt`` on
#: the third trip.
HOLE_AHEAD = """
.entry main
main:
    li   t0, 0
    li   t1, {trips}
    j    loop
done:
    halt
loop:
    addi t0, t0, 1
    beq  t0, t1, done
    beq  zero, zero, loop
    .word 0xff
"""

#: ... and one whose loop does fall through into it.
FALLS_IN = """
.entry main
main:
    li   t0, 0
    li   t1, {trips}
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    .word 0xff
"""

#: An always-taken branch over the word, inside the loop: every trace
#: through it ends ahead of the word, and the guest exits ``trips``.
BEHIND_A_BRANCH = """
.entry main
main:
    li   t0, 0
    li   t1, {trips}
loop:
    addi t0, t0, 1
    beq  zero, zero, over
    .word 0xff
over:
    blt  t0, t1, loop
    li   a0, SYS_EXIT
    mov  a1, t0
    syscall
"""

#: A store turns a word the loop's trace decoded into one that does not,
#: on the last trip, and jumps to it.
BROKEN_BY_A_STORE = """
.entry main
main:
    li   t0, 0
    li   t1, {trips}
    li   t3, 0xff
    li   t4, target
loop:
    addi t0, t0, 1
    beq  t0, t1, last
target:
    addi t2, t2, 1
    j    loop
last:
    st   t3, 0(t4)
    j    target
"""

#: ``(backend, HOT_EXECUTIONS_PER_COMPILE, loop forms, exact-budget
#: stepping)``.
LOWERINGS = {
    "threaded": ("closure", float("inf"), True, False),
    "generated": ("source", 150, False, False),
    "loop form": ("source", 150, True, False),
    "promoted": ("closure", 1, True, False),
    "exact budget": ("closure", 1, True, True),
}


def _load(source: str):
    return load_program(assemble(source), Kernel(seed=1))


def _ending(process, engine, count) -> tuple:
    """How a run ended: its fault (or exit code), pc, registers, count."""
    try:
        engine()
        how = ("exit", process.exit_code)
    except IllegalInstruction as fault:
        how = ("fault", str(fault))
    return how, process.cpu.pc, list(process.cpu.regs), count()


def _on_every_lowering(source, lowering, monkeypatch):
    """``source`` run by the interpreter and under ``lowering`` with a
    per-instruction counter: both endings, and the counter's total."""
    process = _load(source)
    interp = Interpreter(process)
    want = _ending(process, lambda: interp.run(max_instructions=10_000),
                   lambda: interp.total_instructions)

    backend, threshold, loops, exact = LOWERINGS[lowering]
    monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", threshold)
    if not loops:
        monkeypatch.setattr(jit.Jit, "loop_form", lambda self, trace: None)
    process = _load(source)
    vm = PinVM(process, jit_backend=backend)
    tool = ICount1()
    tool.activate(vm)

    def run():
        if not exact:
            return vm.run(max_instructions=10_000)
        while vm.run(max_instructions=7,
                     exact_budget=True).state is RunState.BUDGET:
            pass

    got = _ending(process, run, lambda: vm.total_instructions)
    return want, got, vm, tool.icount


class TestTheTraceReadsNoFurtherThanExecution:
    """A trace ends ahead of a word, after its first, that does not
    decode: its fetch faults where execution goes, and nowhere else."""

    def test_the_trace_stops_ahead_of_the_hole(self):
        source = HOLE_AHEAD.format(trips=3)
        process = _load(source)
        loop = assemble(source).symbols["loop"]
        trace = build_trace(process.mem, loop)
        assert (trace.num_ins, trace.fall_address, trace.ended) \
            == (3, loop + 3, HOLE)
        # Without the word, the zeros there decode.
        zeros = _load(source.replace(".word 0xff", ""))
        assert build_trace(zeros.mem, loop).num_ins > 3

    def test_an_undecodable_head_still_faults(self):
        process = _load(FALLS_IN.format(trips=3))
        with pytest.raises(IllegalInstruction):
            build_trace(process.mem, process.cpu.pc + 4)

    @pytest.mark.parametrize("trips", [3, 400])
    @pytest.mark.parametrize("source", [HOLE_AHEAD, FALLS_IN],
                             ids=["hole-ahead", "falls-in"])
    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_every_lowering_ends_where_the_interpreter_does(
            self, lowering, source, trips, monkeypatch):
        source = source.format(trips=trips)
        want, got, vm, _ = _on_every_lowering(source, lowering, monkeypatch)
        assert want[0][0] == ("exit" if "halt" in source else "fault")
        assert got == want
        stats = vm.jit_stats
        if trips > 3 and lowering == "loop form":
            assert stats.loop_trips > 0
        if trips > 3 and lowering == "promoted":
            assert stats.promotions > 0


class TestAWordThatDoesNotDecode:
    """Every lowering against the interpreter: a word behind an
    always-taken branch is never fetched; one execution reaches faults
    at its pc, with what ran before it retired and counted."""

    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_behind_an_always_taken_branch_it_runs_to_exit(
            self, lowering, monkeypatch):
        want, got, vm, calls = _on_every_lowering(
            BEHIND_A_BRANCH.format(trips=400), lowering, monkeypatch)
        assert got == want and want[0] == ("exit", 400)
        assert calls == want[3] == 3 * 400 + 5

    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_reached_mid_trace_it_faults_at_its_pc(self, lowering,
                                                   monkeypatch):
        source = ".entry main\nmain:\n    li t0, 1\n    li t1, 5\n" \
                 "    addi t1, t1, 1\n    .word 0xff\n"
        want, got, vm, calls = _on_every_lowering(source, lowering,
                                                  monkeypatch)
        entry = assemble(source).entry
        assert got == want
        assert want[0][0] == "fault" and want[1] == entry + 3
        assert calls == want[3] == 3

    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_a_store_that_breaks_a_decoded_word_faults_there(
            self, lowering, monkeypatch):
        source = BROKEN_BY_A_STORE.format(trips=400)
        want, got, vm, calls = _on_every_lowering(source, lowering,
                                                  monkeypatch)
        assert got == want
        assert want[0][0] == "fault"
        assert want[1] == assemble(source).symbols["target"]
        assert calls == want[3]
        assert vm.cache.stats.invalidations > 0
