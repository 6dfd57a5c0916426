"""Source-generating JIT backend: differential equivalence with the
threaded-code backend and the interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ArithmeticFault, ConfigError
from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.pin import (IARG_END, IARG_REG_VALUE, IPOINT_BEFORE, PinVM,
                       RunState, StopRun)
from repro.superpin import run_superpin, SuperPinConfig
from repro.tools import DCacheSim, ICount1, ICount2, ITrace
from repro.pin import run_with_pin
from tests.conftest import (all_generated, LOOP_SUM, MULTISLICE,
                            random_program)


def _run_backend(source: str, backend: str, seed: int = 1):
    program = assemble(source)
    kernel = Kernel(seed=seed)
    process = load_program(program, kernel)
    vm = PinVM(process, jit_backend=backend)
    result = vm.run(max_instructions=5_000_000)
    return result, process, kernel


class TestDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs_identical(self, seed):
        source = random_program(seed)
        closure, pc, kc = _run_backend(source, "closure")
        generated, pg, kg = _run_backend(source, "source")
        assert closure.instructions == generated.instructions
        assert closure.exit_code == generated.exit_code
        assert pc.cpu.regs == pg.cpu.regs

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), blocks=st.integers(1, 4),
           block_len=st.integers(2, 10))
    def test_random_programs_property(self, seed, blocks, block_len):
        source = random_program(seed, blocks=blocks, block_len=block_len,
                                loop_iters=6)
        closure, pc, _ = _run_backend(source, "closure")
        generated, pg, _ = _run_backend(source, "source")
        assert closure.instructions == generated.instructions
        assert pc.cpu.regs == pg.cpu.regs

    def test_matches_interpreter(self, multislice_program):
        kernel = Kernel(seed=3)
        process = load_program(multislice_program, kernel)
        interp = Interpreter(process)
        interp.run(max_instructions=5_000_000)

        result, proc2, kernel2 = _run_backend(MULTISLICE, "source", seed=3)
        assert result.instructions == interp.total_instructions
        assert kernel2.stdout_text() == kernel.stdout_text()


class TestInstrumentation:
    @pytest.mark.parametrize("tool_cls", [ICount1, ICount2, ITrace,
                                          DCacheSim])
    def test_tools_agree_across_backends(self, multislice_program,
                                         tool_cls):
        a = tool_cls()
        run_with_pin(multislice_program, a, Kernel(seed=4))
        b = tool_cls()
        run_with_pin(multislice_program, b, Kernel(seed=4),
                     jit_backend="source")
        assert a.report() == b.report()

    def test_analysis_call_counts_match(self, multislice_program):
        results = {}
        for backend in ("closure", "source"):
            tool = ICount2()
            result, vm, _ = run_with_pin(multislice_program, tool,
                                         Kernel(seed=4),
                                         jit_backend=backend)
            results[backend] = (result.analysis_calls,
                                result.inline_checks, tool.total)
        assert results["closure"] == results["source"]

    def test_if_then_before_ordering_preserved(self):
        """The detection rule (if/then before plain calls) holds in
        generated code too."""
        program = assemble(LOOP_SUM)
        process = load_program(program, Kernel())
        vm = PinVM(process, jit_backend="source")
        order = []

        def instrument(trace, value):
            for ins in trace.instructions:
                if ins.mnemonic == "add":
                    ins.insert_if_call(IPOINT_BEFORE,
                                       lambda: order.append("if") or 1,
                                       IARG_END)
                    ins.insert_then_call(IPOINT_BEFORE,
                                         lambda: order.append("then"),
                                         IARG_END)
                    ins.insert_call(IPOINT_BEFORE,
                                    lambda: order.append("before"),
                                    IARG_END)
        vm.add_trace_callback(instrument)
        vm.run(max_instructions=50)
        assert order[:3] == ["if", "then", "before"]


class TestStopUnwinding:
    def test_stoprun_boundary_exact(self):
        program = assemble(LOOP_SUM)
        process = load_program(program, Kernel())
        vm = PinVM(process, jit_backend="source")
        token = object()

        def instrument(trace, value):
            for ins in trace.instructions:
                if ins.mnemonic == "add":
                    def check(v):
                        if v == 7:
                            raise StopRun(token)
                    ins.insert_call(IPOINT_BEFORE, check,
                                    IARG_REG_VALUE, 8, IARG_END)
        vm.add_trace_callback(instrument)
        result = vm.run()
        assert result.state is RunState.STOPPED
        assert result.stop_token is token
        assert vm.cpu.regs[8] == 7
        assert vm.cpu.regs[10] == sum(range(7))
        # Instruction count excludes the stopped-at instruction.
        reference = PinVM(load_program(program, Kernel()))
        full = reference.run()
        assert result.instructions < full.instructions

    def test_div_fault_counts(self):
        source = """
.entry main
main:
    li t0, 5
    li t1, 0
    div t2, t0, t1
    li a0, SYS_EXIT
    syscall
"""
        program = assemble(source)
        process = load_program(program, Kernel())
        vm = PinVM(process, jit_backend="source")
        with pytest.raises(ArithmeticFault):
            vm.run()
        assert vm.total_instructions == 2  # the two li's retired


class TestSuperPinIntegration:
    def test_superpin_source_backend_exact(self, multislice_program,
                                           monkeypatch):
        t_closure = ICount2()
        run_superpin(multislice_program, t_closure,
                     SuperPinConfig(spmsec=500, clock_hz=10_000),
                     kernel=Kernel(seed=5))
        all_generated(monkeypatch)
        t_source = ICount2()
        report = run_superpin(
            multislice_program, t_source,
            SuperPinConfig(spmsec=500, clock_hz=10_000),
            kernel=Kernel(seed=5))
        assert t_source.total == t_closure.total
        assert report.all_exact

    def test_bad_backend_rejected(self):
        """The lowering is no SuperPin option; serial Pin's engine takes
        the two it has by name."""
        with pytest.raises(TypeError):
            SuperPinConfig(jit_backend="llvm")
        program = assemble(LOOP_SUM)
        process = load_program(program, Kernel())
        with pytest.raises(ConfigError, match="jit_backend"):
            PinVM(process, jit_backend="llvm")


class TestGeneratedSource:
    def test_source_is_attached_and_compilable(self):
        program = assemble(LOOP_SUM)
        process = load_program(program, Kernel())
        vm = PinVM(process, jit_backend="source")
        vm.run()
        trace = vm.cache.lookup(program.entry)
        assert trace is not None and trace.is_source
        assert "def __trace__" in trace.source
        compile(trace.source, "<check>", "exec")  # round-trips
