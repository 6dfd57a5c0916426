"""Exact-budget stops: the engine lands on the interpreter's boundary.

``PinVM.run(..., exact_budget=True)`` must stop after retiring *exactly*
N instructions with the interpreter's landing state — same pc, same
register file — regardless of JIT backend, trace linking, loop forms
(and the loop summaries they fire) or a promotion in mid-run.  This is
the prerequisite for deterministic ``goto <icount>`` in the time-travel
debugger: a budget that expires on a syscall instruction must still
execute that syscall (the interpreter's Nth-instruction-retires rule),
and a budget landing mid-trace must not overshoot to the trace
boundary.
"""

import pytest

from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.pin.engine import PinVM, RunState
from tests.conftest import MULTISLICE, promote_at, without_loop_forms

BACKENDS = ["closure", "source"]

# MULTISLICE at seed 42: syscalls retire at icounts 763, 767, 1530,
# 1534, ... (period 767).  The budget list deliberately includes
# syscall-exact landings, their neighbours, a mid-loop interior point,
# and the degenerate single-instruction budget.
BUDGETS = [1, 2, 100, 762, 763, 764, 767, 768, 1529, 1530, 1534, 5001]

TOTAL = 30690  # whole-run retirement count at seed 42


@pytest.fixture(scope="module")
def program():
    return assemble(MULTISLICE)


@pytest.fixture(scope="module")
def reference(program):
    """Interpreter landing state per budget — the tier-0 ground truth."""
    out = {}
    for budget in BUDGETS:
        process = load_program(program, Kernel(seed=42))
        result = Interpreter(process).run(max_instructions=budget)
        out[budget] = (result.instructions, process.cpu.pc,
                       tuple(process.cpu.regs))
    return out


def assert_lands_where_the_interpreter_does(program, reference,
                                            **settings):
    for budget in BUDGETS:
        process = load_program(program, Kernel(seed=42))
        vm = PinVM(process, **settings)
        result = vm.run(max_instructions=budget, exact_budget=True)
        ref_ins, ref_pc, ref_regs = reference[budget]
        assert result.instructions == ref_ins == budget, \
            f"budget {budget}: retired {result.instructions}"
        assert process.cpu.pc == ref_pc, f"budget {budget}"
        assert tuple(process.cpu.regs) == ref_regs, f"budget {budget}"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("promote", [0, 4])
@pytest.mark.parametrize("loop_forms", [False, True])
def test_exact_budget_matches_interpreter(program, reference, backend,
                                          promote, loop_forms, monkeypatch):
    """``promote``: 0, or the execution at which the engine swaps a
    threaded trace for generated code in mid-run."""
    if promote:
        promote_at(monkeypatch, promote)
    if not loop_forms:
        without_loop_forms(monkeypatch)
    assert_lands_where_the_interpreter_does(
        program, reference, jit_backend=backend, link_traces=True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_exact_budget_without_links(program, reference, backend):
    assert_lands_where_the_interpreter_does(
        program, reference, jit_backend=backend, link_traces=False)


@pytest.mark.parametrize("backend", BACKENDS)
def test_split_budget_resume_matches_one_shot(program, backend):
    """Two consecutive exact runs land where one combined run lands —
    the time-travel engine advances incrementally on live state."""
    process = load_program(program, Kernel(seed=42))
    vm = PinVM(process, jit_backend=backend, link_traces=True)
    r1 = vm.run(max_instructions=1000, exact_budget=True)
    r2 = vm.run(max_instructions=534, exact_budget=True)
    assert (r1.instructions, r2.instructions) == (1000, 534)

    single = load_program(program, Kernel(seed=42))
    vm2 = PinVM(single, jit_backend=backend, link_traces=True)
    vm2.run(max_instructions=1534, exact_budget=True)
    assert process.cpu.snapshot() == single.cpu.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
def test_exit_wins_at_exact_budget(program, backend):
    """A budget expiring on the exit syscall reports EXIT, like the
    interpreter — the final slice of a recording ends this way."""
    process = load_program(program, Kernel(seed=42))
    vm = PinVM(process, jit_backend=backend, link_traces=True)
    result = vm.run(max_instructions=TOTAL, exact_budget=True)
    assert result.state is RunState.EXIT
    assert result.instructions == TOTAL

    reference = load_program(program, Kernel(seed=42))
    Interpreter(reference).run(max_instructions=TOTAL)
    assert process.cpu.snapshot() == reference.cpu.snapshot()
