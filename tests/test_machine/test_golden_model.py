"""Golden-model semantics: every ALU opcode vs an independent reference,
and every opcode's table row vs the interpreter.

For each operation, random 64-bit operands are loaded from memory (to
dodge immediate-width limits), the instruction executes on all three
engines (interpreter, closure JIT, source JIT), and the result is
compared against a pure-Python reference implementation written directly
from the ISA manual — an independent triple-check of the semantics.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GuestFault
from repro.isa import abi, assemble, to_signed
from repro.isa.encoding import encode
from repro.isa.instructions import INFO, Format, Op
from repro.machine import Kernel, load_program, run_to_completion
from repro.machine.cpu import CpuState
from repro.machine.interpreter import Interpreter
from repro.machine.memory import Memory
from repro.machine.process import Process
from repro.pin import jit, PinVM
from tests.conftest import loop_one_everywhere

M64 = (1 << 64) - 1


def _signed_div(a, b):
    sa, sb = to_signed(a), to_signed(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & M64


def _signed_mod(a, b):
    sa, sb = to_signed(a), to_signed(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return (sa - q * sb) & M64


#: mnemonic -> reference semantics over unsigned 64-bit operands.
REFERENCE = {
    "add": lambda a, b: (a + b) & M64,
    "sub": lambda a, b: (a - b) & M64,
    "mul": lambda a, b: (a * b) & M64,
    "div": _signed_div,
    "mod": _signed_mod,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a << (b & 63)) & M64,
    "shr": lambda a, b: a >> (b & 63),
    "sar": lambda a, b: (to_signed(a) >> (b & 63)) & M64,
    "slt": lambda a, b: 1 if to_signed(a) < to_signed(b) else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
}

_TEMPLATE = """
.entry main
main:
    ld t1, 0x8000(zero)
    ld t2, 0x8001(zero)
    {op} t3, t1, t2
    st t3, 0x8002(zero)
    li a0, SYS_EXIT
    li a1, 0
    syscall
"""


def _execute(op: str, a: int, b: int, engine: str) -> int:
    program = assemble(_TEMPLATE.format(op=op))
    process = load_program(program, Kernel())
    process.mem.write(0x8000, a)
    process.mem.write(0x8001, b)
    if engine == "interp":
        run_to_completion(process)
    else:
        vm = PinVM(process, jit_backend=engine)
        vm.run()
    return process.mem.read(0x8002)


# Interesting corner values plus random coverage.
_CORNERS = [0, 1, 2, 63, 64, M64, 1 << 63, (1 << 63) - 1, M64 - 1]
_operand = st.one_of(st.sampled_from(_CORNERS), st.integers(0, M64))


@pytest.mark.parametrize("op", sorted(REFERENCE))
@settings(max_examples=12, deadline=None)
@given(a=_operand, b=_operand)
def test_opcode_matches_reference_all_engines(op, a, b):
    if op in ("div", "mod") and b == 0:
        b = 1
    expected = REFERENCE[op](a, b)
    results = {engine: _execute(op, a, b, engine)
               for engine in ("interp", "closure", "source")}
    assert results["interp"] == expected, (op, a, b)
    assert results["closure"] == expected, (op, a, b)
    assert results["source"] == expected, (op, a, b)


@pytest.mark.parametrize("op,imm_op", [
    ("add", "addi"), ("mul", "muli"), ("and", "andi"), ("or", "ori"),
    ("xor", "xori"), ("shl", "shli"), ("shr", "shri"), ("sar", "sari"),
    ("slt", "slti"),
])
@settings(max_examples=8, deadline=None)
@given(a=_operand, imm=st.integers(-1000, 1000))
def test_immediate_forms_match_register_forms(op, imm_op, a, imm):
    """``op rd, rs, rt`` with rt preloaded == ``opi rd, rs, imm``."""
    if op in ("shl", "shr", "sar"):
        imm = abs(imm) & 63
    program = assemble(f"""
.entry main
main:
    ld t1, 0x8000(zero)
    li t2, {imm}
    {op} t3, t1, t2
    {imm_op} t4, t1, {imm}
    st t3, 0x8002(zero)
    st t4, 0x8003(zero)
    li a0, SYS_EXIT
    li a1, 0
    syscall
""")
    process = load_program(program, Kernel())
    process.mem.write(0x8000, a)
    run_to_completion(process)
    assert process.mem.read(0x8002) == process.mem.read(0x8003), \
        (op, a, imm)


# --- the semantics table against the oracle, exhaustively ------------------------
#
# Threaded code and generated code instantiate one table
# (``repro.pin.jit.SEMANTICS``); the interpreter is a separate
# implementation and the oracle.  Every opcode runs as a one-instruction
# guest with its register fields drawn from {zero, one shared register,
# sp, ra} — so every way two fields, or a field and an implicit operand,
# can name the same register occurs — over corner values, followed by
# ``halt`` or by a word that does not decode, and under five engines: the interpreter, each lowering, a
# threaded trace promoted to generated code in the middle of a run, and
# generated code's loop form (the same rows over registers in locals),
# run one execution at a time in place of the plain function.

CODE, TAKEN, DATA = 0x1000, 0x1040, 0x8000
ZERO, SHARED, SP, RA = 0, 8, 29, 31
_FIELD = (ZERO, SHARED, SP, RA)
#: Values of (shared, sp, ra): the corners, a mapped data address and a
#: code address, each in each position.
_POOL = _CORNERS + [DATA + 8, TAKEN]
_VALUES = [(_POOL[i], _POOL[(i + 3) % len(_POOL)], _POOL[(i + 7) % len(_POOL)])
           for i in range(len(_POOL))]
_ENGINES = ("interp", "closure", "source", "promoted", "loop")


def test_every_opcode_has_exactly_one_row():
    """A new opcode without a row fails here, not in a guest."""
    assert set(jit.SEMANTICS) == set(Op)


def test_a_row_that_can_raise_says_so():
    """Generated code sets its unwind markers where a row's ``raises``
    says to (``RD`` / ``WR`` never raise), so a row that raises, or calls
    anything else, without saying so would unwind to stale markers."""
    for op, (body, exits, raises) in jit.SEMANTICS.items():
        text = "\n".join((*body, *(cond or "" for cond, _ in exits)))
        calls = set(re.findall(r"([\w.]+)\(", text)) - {"RD", "WR"}
        assert raises == bool(calls or "raise" in text), (op, calls)
    assert {op for op, row in jit.SEMANTICS.items() if row[2]} == {
        Op.DIV, Op.MOD, Op.SYSCALL}


def _forms(op):
    """Every ``(rd, rs, rt, imm)`` of ``op`` over the aliasing registers,
    immediates at both signs, targets that exist."""
    fmt = INFO[op].format
    fields = {
        Format.RRR: "dst", Format.RRI: "dsi", Format.RI: "di",
        Format.MEM_L: "dsi", Format.MEM_S: "tsi", Format.R: "s",
        Format.RD: "d", Format.BRANCH: "stj", Format.I: "j",
        Format.NONE: "",
    }[fmt]
    choices = {"d": _FIELD, "s": _FIELD, "t": _FIELD, "i": (5, -3),
               "j": (TAKEN,)}
    forms = [{}]
    for field in fields:
        forms = [dict(form, **{field: value}) for form in forms
                 for value in choices[field]]
    for form in forms:
        yield (form.get("d", 0), form.get("s", 0), form.get("t", 0),
               form.get("i", form.get("j", 0)))


#: What follows the instruction: ``lenient``, a ``halt`` (every word
#: the engines read decodes); ``undecodable``, a word that does not
#: decode — the trace ends ahead of it, and a fall-through faults there.
_AFTER = {"lenient": encode(Op.HALT), "undecodable": 0xFF}


def _machine(word, values, after, a0):
    mem = Memory()
    mem.write_block(CODE, [word, after])
    mem.write(TAKEN, encode(Op.HALT))
    # (Low byte 0: a jump into the data decodes, as ``nop``.)
    mem.write_block(DATA, [value << 8 for value in range(0x500, 0x580)])
    cpu = CpuState(pc=CODE)
    cpu.regs[1:] = [0x100 + 3 * r for r in range(1, 32)]
    cpu.regs[2] = a0
    cpu.regs[SHARED], cpu.regs[SP], cpu.regs[RA] = values
    return Process(cpu, mem, Kernel(seed=7))


def _outcome(process, run, retired):
    """Everything an engine leaves behind that anyone can read."""
    fault = None
    try:
        run()
    except GuestFault as exc:
        fault = type(exc).__name__
    return {"fault": fault, "pc": process.cpu.pc,
            "regs": list(process.cpu.regs),
            "retired": retired(),
            "exited": process.exited, "exit_code": process.exit_code,
            "memory": {index: page for index, page
                       in process.mem._pages.items() if any(page)}}


def _run(engine, word, values, after, a0):
    process = _machine(word, values, after, a0)
    if engine == "interp":
        interp = Interpreter(process)
        return _outcome(process, lambda: interp.run(max_instructions=2),
                        lambda: interp.total_instructions)
    if engine == "loop":
        with pytest.MonkeyPatch.context() as patch:
            loop_one_everywhere(patch)
            return _run("source", word, values, after, a0)
    vm = PinVM(process, jit_backend=("closure" if engine == "promoted"
                                     else engine))

    def run():
        vm.run(max_instructions=2, exact_budget=True)

    if engine == "promoted":
        # The engine promotes a cached trace on its third execution
        # (the test patches the threshold to 1): run the guest twice as
        # threaded code, put everything back, and judge the third run.
        pristine, regs = process.mem.deep_copy(), list(process.cpu.regs)
        for _ in range(2):
            try:
                run()
            except GuestFault:
                pass
            process.mem.adopt(pristine.deep_copy())
            process.cpu.regs[:], process.cpu.pc = regs, CODE
            process.exited = vm.exited = False
            process.exit_code = vm.exit_code = 0
        process.syscall_handler = Kernel(seed=7)
        mark = vm.total_instructions
        outcome = _outcome(process, run,
                           lambda: vm.total_instructions - mark)
        assert vm.jit_stats.promotions >= 1
        return outcome
    return _outcome(process, run, lambda: vm.total_instructions)


@pytest.mark.parametrize("after", _AFTER)
@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name.lower())
def test_aliasing_table_matches_interpreter(op, after, monkeypatch):
    after = _AFTER[after]
    monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", 1)
    syscalls = ((abi.SYS_EXIT, abi.SYS_GETPID, 0x7777)
                if op is Op.SYSCALL else (0x106,))
    for rd, rs, rt, imm in _forms(op):
        word = encode(op, rd, rs, rt, imm)
        for values in _VALUES:
            for a0 in syscalls:
                results = {engine: _run(engine, word, values, after, a0)
                           for engine in _ENGINES}
                for engine in _ENGINES[1:]:
                    assert results[engine] == results["interp"], (
                        engine, op.name, (rd, rs, rt, imm),
                        [hex(v) for v in values], a0)
