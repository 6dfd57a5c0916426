"""Shared fixtures and program-generation helpers for the test suite."""

from __future__ import annotations

import os
import random
import signal

import pytest

from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter


def pytest_addoption(parser):
    parser.addoption(
        "--jit-hot-threshold", type=float, default=None, metavar="N",
        help="run with repro.pin.jit.HOT_EXECUTIONS_PER_COMPILE = N: 1 "
             "lowers every repeated trace to generated code (and promotes "
             "every cached one on its third execution), so the whole "
             "suite checks that the choice of lowering is invisible; "
             "inf is pure threaded code")


@pytest.fixture(autouse=True, scope="session")
def _jit_hot_threshold(request):
    """``--jit-hot-threshold``: a test-side patch of the module constant
    (pool workers are forked, so they inherit it)."""
    threshold = request.config.getoption("--jit-hot-threshold")
    if threshold is None:
        yield
        return
    from repro.pin import jit
    shipped = jit.HOT_EXECUTIONS_PER_COMPILE
    jit.HOT_EXECUTIONS_PER_COMPILE = threshold
    yield
    jit.HOT_EXECUTIONS_PER_COMPILE = shipped


def loop_one_everywhere(monkeypatch) -> None:
    """Every generated trace runs as ``loop(1)`` of its loop form — any
    trace, looping or not — in place of its plain function, which is
    kept for speed only: the two must be one another, state for state
    and count for count (``repro.pin.pyjit``)."""
    from repro.pin.jit import Jit
    from repro.pin.pyjit import _LoopEmitter
    lower = Jit._lower_generated

    def lowered(self, skeleton, check):
        trace = lower(self, skeleton, check)
        emitter = _LoopEmitter(self._engine, trace.start, check=check)
        emitter.lower_all(skeleton.instructions, None)
        loop = emitter.finish(emitter.source_text(trace.start), trace.start)
        trace.fn = lambda: loop(1)[:2]
        return trace
    monkeypatch.setattr(Jit, "_lower_generated", lowered)


def promote_at(monkeypatch, executions: int) -> None:
    """Every engine's threaded-code trace is swapped for generated code
    in mid-run (``PinVM._promote``) at its ``executions``-th execution,
    and compiled as generated code from then on: the one change of
    lowering a run can make, at a point the test chooses."""
    from repro.pin import jit
    monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", executions)
    monkeypatch.setattr(jit, "PROMOTE_FACTOR", 1)


def all_generated(monkeypatch) -> None:
    """Every engine — the master's, the lookahead's, a slice machine's,
    the debugger's, serial Pin's, a forked pool worker's — lowers every
    trace to generated code from its first compile (``Jit.all_generated``):
    the reference lowering the JIT's own choice is held against.  Which
    lowering a trace gets is the JIT's, not a switch, so this is how a
    pipeline test reaches it."""
    from repro.pin.jit import Jit
    monkeypatch.setattr(Jit, "all_generated", True)


def without_trace_store(monkeypatch) -> None:
    """Every switch hands its engine an empty trace store
    (``repro.pin.engine.WarmCache.enter`` keeps nothing, whatever it
    held): a slice or a lookahead compiles every trace it runs, as it
    did before the store re-admitted any — the reference a run on the
    store is held against (``test_readmission.py``).  A time-travel
    landing runs on a cold cache too.  Forked pool workers inherit it,
    like :func:`all_generated`."""
    from repro.pin.engine import WarmCache
    monkeypatch.setattr(WarmCache, "enter", lambda self, mem: self.flush())


def without_loop_forms(monkeypatch) -> None:
    """The reference: every execution is a dispatch of ``fn`` — no
    trace has a loop form, so no loop is summarized either."""
    from repro.pin.jit import Jit
    monkeypatch.setattr(Jit, "loop_form", lambda self, trace: None)


def deadline_floor(monkeypatch, seconds: float) -> None:
    """Every slice's wall-clock deadline starts from ``seconds``
    (``supervisor.DEADLINE_FLOOR``, a constant) instead of the shipped
    floor."""
    from repro.superpin import supervisor
    monkeypatch.setattr(supervisor, "DEADLINE_FLOOR", seconds)


def child_pids() -> set[int]:
    """This process's child processes as the kernel lists them, whichever
    thread forked them — running, or exited and not yet reaped."""
    pids: set[int] = set()
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as listing:
                pids.update(map(int, listing.read().split()))
        return pids
    except FileNotFoundError:
        pass
    # No per-task children lists: every process whose parent is this one.
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if fields[1] == me:
                pids.add(int(entry))
    return pids


def retries(monkeypatch, count: int) -> None:
    """A failed slice re-runs ``count`` times on its transport before
    the in-process fallback (``supervisor.RETRIES``, a constant): the
    attempt ladder's length at a value the test chooses."""
    from repro.superpin import supervisor
    monkeypatch.setattr(supervisor, "RETRIES", count)


#: A second value of each field of ``switches.RESULT_FIELDS``, in its
#: order: a config that differs from the default in one of them computes
#: a different run.
RESULT_FIELD_VALUES = [
    ("spmsec", 250), ("spmp", 2), ("spsysrecs", 0), ("clock_hz", 20_000),
    ("spfilter", "opcode:mem"), ("spsample", 2),
    ("expected_duration_msec", 3000),
]


def static_quick_regs(monkeypatch) -> None:
    """Every signature keeps the default quick registers
    (``DEFAULT_QUICK_REGS``): the §4.4 lookahead names no candidate.
    The lookahead always runs, so this is how the static-defaults
    ablation is reached."""
    from repro.superpin.signature import Lookahead
    monkeypatch.setattr(Lookahead, "select", lambda self, *args: None)


def unlinked(monkeypatch) -> None:
    """Every engine — the master's, a slice machine's, serial Pin's —
    runs with direct trace linking off (``PinVM(link_traces=False)``):
    every trace transition goes through the dispatcher, and no trace
    runs as a loop form.  Linking is the engine's, not a switch, so this
    is how a pipeline test reaches the unlinked dispatch loop."""
    from repro.pin.engine import PinVM
    reset = PinVM.reset

    def unlinked_reset(self, **settings):
        reset(self, **{**settings, "link_traces": False})
    monkeypatch.setattr(PinVM, "reset", unlinked_reset)


# --- canned programs -----------------------------------------------------------

LOOP_SUM = """
.entry main
main:
    li   t0, 0
    li   t1, 100
    li   t2, 0
loop:
    add  t2, t2, t0
    addi t0, t0, 1
    bne  t0, t1, loop
    li   a0, SYS_EXIT
    mov  a1, t2
    syscall
"""

FACT = """
.entry main
main:
    li   a0, 10
    call fact
    li   a0, SYS_EXIT
    mov  a1, rv
    syscall
fact:
    li   rv, 1
floop:
    beqz a0, fdone
    mul  rv, rv, a0
    dec  a0
    j    floop
fdone:
    ret
"""

HELLO = """
.entry main
main:
    li   a0, SYS_WRITE
    li   a1, FD_STDOUT
    la   a2, msg
    li   a3, 5
    syscall
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
.data
msg: .ascii "hello"
"""

#: A multi-timeslice program with memory traffic, calls and syscalls —
#: the workhorse for SuperPin integration tests.
MULTISLICE = """
.entry main
main:
    li   s0, 0
    li   s1, 40
outer:
    li   t0, 0
    li   t1, 300
    call work
    li   a0, SYS_TIME
    syscall
    li   a0, SYS_GETRANDOM
    la   a1, buf
    li   a2, 1
    syscall
    inc  s0
    blt  s0, s1, outer
    li   a0, SYS_WRITE
    li   a1, FD_STDOUT
    la   a2, done_msg
    li   a3, 4
    syscall
    li   a0, SYS_EXIT
    mov  a1, s0
    syscall
work:
    push ra
    push s2
    li   s2, 0
wl:
    add  s2, s2, t0
    st   s2, 0x9000(t0)
    ld   t2, 0x9000(t0)
    addi t0, t0, 2
    blt  t0, t1, wl
    pop  s2
    pop  ra
    ret
.data
buf: .space 2
done_msg: .ascii "done"
"""


@pytest.fixture
def loop_program():
    return assemble(LOOP_SUM)


@pytest.fixture
def fact_program():
    return assemble(FACT)


@pytest.fixture
def hello_program():
    return assemble(HELLO)


@pytest.fixture
def multislice_program():
    return assemble(MULTISLICE)


def sigkill_at_slice(slice_num: int, value=None) -> None:
    """Slice-begin callback that SIGKILLs the process at one slice.

    Lives at module level (importable as ``tests.conftest``) so a
    journaled slice result that references it stays unpicklable-free
    across processes — the crash-resume test's child registers it, and
    the resuming parent must be able to unpickle the journaled slice
    contexts.  Armed via ``SUPERPIN_TEST_KILL_AT``; inert otherwise.
    """
    if slice_num == int(os.environ.get("SUPERPIN_TEST_KILL_AT", "-1")):
        os.kill(os.getpid(), signal.SIGKILL)


def placement_counter(name: str) -> bool:
    """True for a counter that depends on which resident machine ran
    which slices (``PLACEMENT_COUNTERS``), on what the resident master
    had run before (``superpin.control.master.*``: a loop gets hot over
    the engine's life) or on how far the master had got when a result
    landed."""
    from repro.superpin.slices import PLACEMENT_COUNTERS
    from repro.superpin.supervisor import LANDED_BEFORE_MASTER_END
    return (name in PLACEMENT_COUNTERS or name == LANDED_BEFORE_MASTER_END
            or name.startswith("superpin.control.master."))


def virtual_counters(metrics) -> dict:
    """A run's counters minus the :func:`placement_counter` ones: what
    must be equal for any worker count, and with or without a
    resident."""
    return {name: value for name, value in metrics.counters.items()
            if not placement_counter(name)}


def run_native(program, seed: int = 42, max_instructions: int = 50_000_000):
    """Run a program natively; return (process, interpreter, kernel)."""
    kernel = Kernel(seed=seed)
    process = load_program(program, kernel)
    interp = Interpreter(process)
    interp.run(max_instructions=max_instructions)
    assert process.exited, "program did not exit"
    return process, interp, kernel


# --- random terminating program generator ---------------------------------------

_ALU_RRR = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr", "sar",
            "slt", "sltu")
_ALU_RRI = ("addi", "muli", "andi", "ori", "xori", "slti")
_TEMPS = ("t0", "t1", "t2", "t3", "t4", "t5")


def random_program(seed: int, blocks: int = 6, block_len: int = 8,
                   loop_iters: int = 9) -> str:
    """Generate a random but always-terminating program.

    Structure: a chain of basic blocks, each a bounded counted loop of
    random ALU and memory operations over a private scratch region.
    Used for differential testing (interpreter vs JIT) and SuperPin
    exactness properties.
    """
    rng = random.Random(seed)
    lines = [".entry main", "main:"]
    lines.append(f"    li s4, {rng.randint(1, 1 << 30)}")
    for b in range(blocks):
        counter = "s0"
        lines.append(f"    li {counter}, 0")
        lines.append(f"blk{b}:")
        for _ in range(block_len):
            kind = rng.random()
            if kind < 0.45:
                op = rng.choice(_ALU_RRR)
                rd, rs, rt = (rng.choice(_TEMPS) for _ in range(3))
                lines.append(f"    {op} {rd}, {rs}, {rt}")
            elif kind < 0.7:
                op = rng.choice(_ALU_RRI)
                rd, rs = rng.choice(_TEMPS), rng.choice(_TEMPS)
                imm = rng.randint(-1000, 1000)
                lines.append(f"    {op} {rd}, {rs}, {imm}")
            elif kind < 0.8:
                rd = rng.choice(_TEMPS)
                base = 0x8000 + rng.randint(0, 63)
                lines.append(f"    st {rd}, {base}(s0)")
            elif kind < 0.9:
                rd = rng.choice(_TEMPS)
                base = 0x8000 + rng.randint(0, 63)
                lines.append(f"    ld {rd}, {base}(s0)")
            else:
                rd = rng.choice(_TEMPS)
                lines.append(f"    push {rd}")
                lines.append(f"    pop {rd}")
        # Occasional data-dependent (but loop-bounded) inner branch.
        if rng.random() < 0.5:
            skip = f"skip{b}"
            lines.append("    andi t6, t0, 1")
            lines.append(f"    beqz t6, {skip}")
            lines.append("    addi t7, t7, 1")
            lines.append(f"{skip}:")
        lines.append(f"    addi {counter}, {counter}, 1")
        lines.append(f"    li s1, {loop_iters}")
        lines.append(f"    blt {counter}, s1, blk{b}")
    lines.append("    li a0, SYS_EXIT")
    lines.append("    mov a1, t2")
    lines.append("    syscall")
    return "\n".join(lines) + "\n"
