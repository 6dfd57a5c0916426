"""Loader and process tests."""

import pytest

from repro.errors import LoaderError
from repro.isa import abi, Program
from repro.isa.registers import SP
from repro.machine import Kernel, load_program, PAGE_WORDS
from repro.machine.cpu import CpuState


class TestLoader:
    def test_segments_loaded(self, hello_program):
        kernel = Kernel()
        process = load_program(hello_program, kernel)
        base = hello_program.segments[0].base
        assert process.mem.read(base) == hello_program.segments[0].words[0]

    def test_stack_pointer_initialized(self, hello_program):
        process = load_program(hello_program, Kernel())
        assert process.cpu.regs[SP] == abi.STACK_TOP

    def test_entry_point(self, fact_program):
        process = load_program(fact_program, Kernel())
        assert process.cpu.pc == fact_program.entry

    def test_brk_after_image_page_aligned(self, hello_program):
        kernel = Kernel()
        load_program(hello_program, kernel)
        brk = kernel.layout.brk
        assert brk >= hello_program.load_end
        assert brk % PAGE_WORDS == 0

    def test_empty_program_rejected(self):
        with pytest.raises(LoaderError):
            load_program(Program(), Kernel())


class TestProcessFork:
    def test_fork_copies_cpu_and_memory(self, loop_program):
        process = load_program(loop_program, Kernel())
        process.cpu.regs[8] = 123
        process.mem.write(0x8000, 7)
        child = process.fork()
        child.cpu.regs[8] = 456
        child.mem.write(0x8000, 9)
        assert process.cpu.regs[8] == 123
        assert process.mem.read(0x8000) == 7


class TestCpuState:
    def test_snapshot_restore_roundtrip(self):
        cpu = CpuState(pc=10)
        cpu.regs[5] = 99
        snap = cpu.snapshot()
        cpu.regs[5] = 1
        cpu.pc = 0
        cpu.restore(snap)
        assert cpu.pc == 10 and cpu.regs[5] == 99

    def test_restore_preserves_regs_identity(self):
        """JIT closures capture the regs list; restore must not rebind it."""
        cpu = CpuState()
        regs = cpu.regs
        cpu.restore(cpu.snapshot())
        assert cpu.regs is regs

    def test_set_reg_zero_discarded(self):
        cpu = CpuState()
        cpu.set_reg(0, 42)
        assert cpu.get_reg(0) == 0

    def test_equality(self):
        a, b = CpuState(1), CpuState(1)
        assert a == b
        b.regs[3] = 1
        assert a != b
