"""Signature recording and detection (paper §4.4).

A *signature* uniquely identifies a timeslice boundary: the architectural
register state plus the top 100 words of the stack, recorded by each new
slice at its start point.  The *previous* slice instruments only the
signature's instruction pointer with a two-stage check:

1. an inlined **quick check** (``INS_InsertIfCall``) comparing the two
   registers the recorder judged most likely to change;
2. a **full check** (``INS_InsertThenCall``) comparing the entire register
   file and then the recorded stack words.

On a full match the slice terminates at that instruction boundary.

Both stages are lowered by the JIT rather than attached as calls
(:class:`SignatureDetector`): the quick check is inline code, and only a
match pays a call.

The recorder picks the quick-check registers by running the first few
basic blocks of the new slice *under instrumentation in recording mode*
on a scratch copy-on-write fork, counting register writes; if no clear
candidate emerges within the block budget it falls back to the default
registers (``sp``, ``ra``) — exactly the paper's fallback story.

The mechanism is deliberately not foolproof: a loop whose iteration state
lives only in memory (all registers and stack unchanged) can trigger a
false-positive match on an earlier iteration.  The test suite constructs
that adversarial program rather than "fixing" the limitation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import abi
from ..isa.instructions import written_registers
from ..isa.registers import RA, SP
from ..machine.cpu import CpuState
from ..machine.memory import Memory
from ..machine.process import Process
from ..pin.args import IARG_END, IARG_PTR, IPOINT_BEFORE
from ..pin.engine import PinVM
from ..pin.jit import StopRun

#: Default quick-check registers when the recorder finds no candidate.
DEFAULT_QUICK_REGS = (SP, RA)

#: Basic blocks the recorder may observe when choosing the two
#: quick-check registers (paper: "a specified block count").
QUICKREG_BLOCK_COUNT = 20

#: Live stack words captured in a signature (paper: "top 100 words").
STACK_WORDS = 100


@dataclass(frozen=True)
class Signature:
    """Recorded state at a timeslice boundary."""

    pc: int
    regs: tuple[int, ...]
    #: (base address, recorded words) for the top-of-stack check.
    stack_base: int
    stack: tuple[int, ...]
    #: The two registers compared by the inlined quick check.
    quick_regs: tuple[int, int] = DEFAULT_QUICK_REGS
    #: Whether the quick registers came from the adaptive recorder.
    adaptive: bool = False

    @property
    def quick_values(self) -> tuple[int, int]:
        return (self.regs[self.quick_regs[0]], self.regs[self.quick_regs[1]])


@dataclass
class DetectionStats:
    """Counters behind the paper's "~2% trigger a full check" statistic."""

    quick_checks: int = 0
    full_checks: int = 0
    stack_checks: int = 0
    stack_mismatches: int = 0
    matched: bool = False

    @property
    def full_check_rate(self) -> float:
        """Fraction of quick checks that escalated to a full check."""
        if self.quick_checks == 0:
            return 0.0
        return self.full_checks / self.quick_checks


def record_signature(cpu: CpuState, mem: Memory,
                     quick_regs: tuple[int, int] | None = None,
                     adaptive: bool = False) -> Signature:
    """Capture the signature of the state ``(cpu, mem)``.

    Records the register file and up to :data:`STACK_WORDS` live words
    above the stack pointer, clamped at ``STACK_TOP``.
    """
    sp = cpu.regs[SP]
    count = STACK_WORDS
    if sp >= abi.STACK_TOP:
        count = 0
    else:
        count = min(count, abi.STACK_TOP - sp)
    stack = tuple(mem.read_block(sp, count)) if count else ()
    return Signature(pc=cpu.pc, regs=tuple(cpu.regs), stack_base=sp,
                     stack=stack,
                     quick_regs=quick_regs or DEFAULT_QUICK_REGS,
                     adaptive=adaptive)


class _LookaheadDone(StopRun):
    """Internal: ends the recording-mode lookahead run."""


class _LookaheadSyscallBarrier:
    """Syscall handler for the scratch fork: never execute, just stop."""

    def do_syscall(self, cpu, mem):
        raise _LookaheadDone("lookahead-syscall")


class _WriteCounter:
    """The lookahead's instrumentation: a block budget and per-register
    write counts, fed by bound methods so that a resident lookahead
    engine can keep the instrumented code (:mod:`repro.pin.jit`: what
    :meth:`instrument` attaches is a function of the trace alone, and
    its ``IARG_PTR`` values are tuples of ints)."""

    def __init__(self):
        self.writes = [0] * 32
        self.blocks_left = 0

    def count_block(self) -> None:
        self.blocks_left -= 1
        if self.blocks_left < 0:
            raise _LookaheadDone("lookahead-blocks")

    def count_writes(self, dests: tuple[int, ...]) -> None:
        writes = self.writes
        for dest in dests:
            writes[dest] += 1

    def instrument(self, trace, value) -> None:
        for bbl in trace.bbls:
            bbl.head.insert_call(IPOINT_BEFORE, self.count_block, IARG_END)
            for ins in bbl.instructions:
                if ins.info.is_syscall:
                    # The lookahead barrier stops *before* a syscall
                    # executes, so its rv write never happens here.
                    continue
                # Static write-set from the ISA metadata: explicit rd
                # plus implicit destinations (push/pop move sp, calls
                # write ra) — counted at execution time.
                dests = written_registers(ins.op, ins.rd)
                if dests:
                    ins.insert_call(IPOINT_BEFORE, self.count_writes,
                                    IARG_PTR, dests, IARG_END)

    def most_written(self, vm: PinVM) -> tuple[int, int] | None:
        """Run the lookahead on ``vm`` (just switched) and rank."""
        writes = self.writes
        writes[:] = [0] * 32
        self.blocks_left = QUICKREG_BLOCK_COUNT
        vm.add_trace_callback(self.instrument)
        # Bounded run: the block counter or the syscall barrier stops
        # it; the budget is a backstop for straight-line code.
        vm.run(max_instructions=QUICKREG_BLOCK_COUNT * 64 + 64)

        ranked = sorted(range(1, 32), key=lambda r: (-writes[r], r))
        top = [r for r in ranked if writes[r] > 0][:2]
        if not top:
            return None
        if len(top) == 1:
            fallback = DEFAULT_QUICK_REGS[0] \
                if top[0] != DEFAULT_QUICK_REGS[0] else DEFAULT_QUICK_REGS[1]
            top.append(fallback)
        return (top[0], top[1])


class Lookahead:
    """One resident machine for a run's quick-register lookaheads.

    Recording mode: :meth:`select` finds the two most-written registers
    by running the first :data:`QUICKREG_BLOCK_COUNT` basic blocks of
    the new slice's code on a scratch copy-on-write fork under
    write-counting instrumentation.  The recorder looks ahead at every
    boundary, a score of blocks each time and mostly the same blocks:
    the master is usually cut inside the loop it was cut in last time.
    On one engine and one resident :class:`_WriteCounter` the JIT may
    bind (:mod:`repro.pin.jit`), boundary *k + 1* runs the instrumented
    code boundary *k* and *k - 1* compiled.  The choice is the one a
    lookahead made on the spot for that boundary alone would make — same
    engine, same instrumentation, same bounded run — by construction
    and by test.
    """

    def __init__(self):
        self._barrier = _LookaheadSyscallBarrier()
        self._counter = _WriteCounter()
        self._vm = PinVM(Process(CpuState(), Memory(), self._barrier))
        self._vm.jit.retain_for = self._counter

    def select(self, cpu_snapshot,
               scratch: Memory) -> tuple[int, int] | None:
        """The quick registers for the state ``(cpu_snapshot,
        scratch)``, or None when no register was written (the caller
        falls back to :data:`DEFAULT_QUICK_REGS`); ``scratch`` is
        adopted and spent."""
        self._vm.switch(cpu_snapshot, scratch, self._barrier)
        return self._counter.most_written(self._vm)


class SignatureDetector:
    """Per-slice detection mode for one signature.

    Not a trace callback: :meth:`attach` hands the slice's engine the
    check (:meth:`~repro.pin.engine.PinVM.add_signature_check`), and the
    JIT lowers it inline at the signature pc in every lowering — the
    quick check a compare of two registers with the values the engine
    holds for this slice, the full check a call of :meth:`full_check`
    through the engine.  So the code around the pc depends only on
    where the pc cuts its trace and on the two register numbers, and a
    resident machine keeps it like any other (:mod:`repro.pin.jit`).
    The engine counts the quick checks; :meth:`finish` collects them.
    """

    def __init__(self, signature: Signature, vm: PinVM):
        self.signature = signature
        self.vm = vm
        self.stats = DetectionStats()
        self._regs = vm.cpu.regs
        self._mem = vm.mem

    def attach(self) -> None:
        """Have the slice's engine check for the signature.  The pc may
        sit anywhere in a trace, as in serial Pin's; the engine makes it
        a *block* head (``Jit._blocks``), so a match stops the slice
        between two whole blocks.  A stop mid-trace unwinds like any
        ``StopRun``."""
        sig = self.signature
        self.vm.add_signature_check(sig.pc, sig.quick_regs,
                                    sig.quick_values, self.full_check)

    def finish(self) -> DetectionStats:
        """The run's detection counters, the engine's quick checks
        among them."""
        self.stats.quick_checks = self.vm.signature_check.checks
        return self.stats

    def full_check(self) -> None:
        """Architectural-state compare, then top-of-stack compare."""
        self.stats.full_checks += 1
        sig = self.signature
        if tuple(self._regs) != sig.regs:
            return
        if sig.stack:
            self.stats.stack_checks += 1
            mem = self._mem
            base = sig.stack_base
            for i, expected in enumerate(sig.stack):
                if mem.read(base + i) != expected:
                    self.stats.stack_mismatches += 1
                    return
        self.stats.matched = True
        raise StopRun(self)
