"""Host-side throughput micro-benchmarks (real wall time).

Not a paper figure: these track the reproduction's own engine costs —
native interpretation vs JIT-compiled execution vs instrumented
execution — the ratios that make whole-suite figure regeneration
tractable.
"""

from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.pin import PinVM
from repro.tools import ICount1, ICount2
from repro.pin.pintool import NullSuperPin

HOT_LOOP = """
.entry main
main:
    li   t0, 0
    li   t1, 60000
lp:
    addi t0, t0, 1
    add  t2, t2, t0
    st   t2, 0x8000(zero)
    ld   t3, 0x8000(zero)
    bne  t0, t1, lp
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
"""


def _program():
    return assemble(HOT_LOOP)


def test_interpreter_throughput(benchmark):
    program = _program()

    def run():
        process = load_program(program, Kernel())
        interp = Interpreter(process)
        interp.run(max_instructions=10_000_000)
        return interp.total_instructions

    count = benchmark(run)
    assert count == 2 + 60000 * 5 + 3


def test_pinvm_uninstrumented_throughput(benchmark):
    program = _program()

    def run():
        process = load_program(program, Kernel())
        vm = PinVM(process)
        return vm.run().instructions

    count = benchmark(run)
    assert count == 2 + 60000 * 5 + 3


def test_pinvm_unlinked_throughput(benchmark):
    """Dispatcher-dict-only dispatch (``link_traces=False``) against the
    linked default above; test_dispatch_overhead.py breaks the gap
    down by transition counts."""
    program = _program()

    def run():
        process = load_program(program, Kernel())
        vm = PinVM(process, link_traces=False)
        return vm.run().instructions

    count = benchmark(run)
    assert count == 2 + 60000 * 5 + 3


def test_pinvm_icount2_throughput(benchmark):
    program = _program()

    def run():
        process = load_program(program, Kernel())
        vm = PinVM(process)
        tool = ICount2()
        tool.setup(NullSuperPin())
        tool.activate(vm)
        vm.run()
        tool.fini()
        return tool.total

    count = benchmark(run)
    assert count == 2 + 60000 * 5 + 3


def test_pinvm_icount1_throughput(benchmark):
    program = _program()

    def run():
        process = load_program(program, Kernel())
        vm = PinVM(process)
        tool = ICount1()
        tool.setup(NullSuperPin())
        tool.activate(vm)
        vm.run()
        tool.fini()
        return tool.total

    count = benchmark(run)
    assert count == 2 + 60000 * 5 + 3


def test_pyjit_source_backend_throughput(benchmark):
    """The generated-code backend vs the threaded-code backend."""
    program = _program()

    def run():
        process = load_program(program, Kernel())
        vm = PinVM(process, jit_backend="source")
        return vm.run().instructions

    count = benchmark(run)
    assert count == 2 + 60000 * 5 + 3
