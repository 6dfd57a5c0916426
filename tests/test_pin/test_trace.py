"""Trace building: BBL splitting, trace termination, strict memory."""

import pytest

from repro.errors import MemoryFault
from repro.isa import assemble, Op
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.pin import jit, PinVM
from repro.pin.trace import build_trace, HOLE, MAX_TRACE_INS


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


#: The guest ends in a conditional branch, so a trace that reaches its
#: last word falls through past it into an unmapped word.  ``li t1, 3``
#: makes ``beq t0, t1, done`` leave for ``halt`` on the third trip.
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
"""

#: ``(backend, HOT_EXECUTIONS_PER_COMPILE, loop forms)``.
LOWERINGS = {
    "threaded": ("closure", float("inf"), True),
    "generated": ("source", 150, False),
    "loop form": ("source", 150, True),
    "promoted": ("closure", 1, True),
}


def _strict(source: str):
    return load_program(assemble(source), Kernel(seed=1), strict_memory=True)


def _ending(process, engine, count) -> tuple:
    """How a run ended: its fault (or exit code), pc, registers, count."""
    try:
        engine()
        how = ("exit", process.exit_code)
    except MemoryFault as fault:
        how = ("fault", str(fault))
    return how, process.cpu.pc, list(process.cpu.regs), count()


class TestStrictMemoryReadsNoFurtherThanExecution:
    """Under strict memory a trace ends ahead of an unmapped word: its
    fetch faults where execution goes, and nowhere else."""

    def test_the_trace_stops_ahead_of_the_hole(self):
        process = _strict(HOLE_AHEAD.format(trips=3))
        loop = assemble(HOLE_AHEAD.format(trips=3)).symbols["loop"]
        trace = build_trace(process.mem, loop)
        assert (trace.num_ins, trace.fall_address, trace.ended) \
            == (3, loop + 3, HOLE)
        # Lenient memory reads zeros there, as it always did.
        lenient = load_program(assemble(HOLE_AHEAD.format(trips=3)),
                               Kernel(seed=1))
        assert build_trace(lenient.mem, loop).num_ins > 3

    def test_an_unmapped_head_still_faults(self):
        process = _strict(FALLS_IN.format(trips=3))
        with pytest.raises(MemoryFault):
            build_trace(process.mem, process.cpu.pc + 4)

    @pytest.mark.parametrize("trips", [3, 400])
    @pytest.mark.parametrize("source", [HOLE_AHEAD, FALLS_IN],
                             ids=["hole-ahead", "falls-in"])
    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_every_lowering_ends_where_the_interpreter_does(
            self, lowering, source, trips, monkeypatch):
        source = source.format(trips=trips)
        process = _strict(source)
        interp = Interpreter(process)
        want = _ending(process, lambda: interp.run(max_instructions=10_000),
                       lambda: interp.total_instructions)
        assert want[0][0] == ("exit" if "halt" in source else "fault")

        backend, threshold, loops = LOWERINGS[lowering]
        monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", threshold)
        if not loops:
            monkeypatch.setattr(jit.Jit, "loop_form",
                                lambda self, trace: None)
        process = _strict(source)
        vm = PinVM(process, jit_backend=backend)
        assert _ending(process, lambda: vm.run(max_instructions=10_000),
                       lambda: vm.total_instructions) == want
        stats = vm.jit_stats
        if trips > 3 and lowering == "loop form":
            assert stats.loop_trips > 0
        if trips > 3 and lowering == "promoted":
            assert stats.promotions > 0
