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
from ..pin.args import IARG_END, IARG_PTR, IARG_REG_VALUE, IPOINT_BEFORE
from ..pin.engine import PinVM
from ..pin.jit import StopRun
from .switches import SuperPinConfig

#: Default quick-check registers when the recorder finds no candidate.
DEFAULT_QUICK_REGS = (SP, RA)

#: Basic blocks the recorder may observe when choosing the two
#: quick-check registers (paper: "a specified block count").
QUICKREG_BLOCK_COUNT = 20


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


def record_signature(cpu: CpuState, mem: Memory, config: SuperPinConfig,
                     quick_regs: tuple[int, int] | None = None,
                     adaptive: bool = False) -> Signature:
    """Capture the signature of the state ``(cpu, mem)``.

    Records the register file and up to ``signature_stack_words`` live
    words above the stack pointer, clamped at ``STACK_TOP``.
    """
    sp = cpu.regs[SP]
    count = config.signature_stack_words
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
    """Per-slice detection-mode instrumentation for one signature."""

    def __init__(self, signature: Signature, vm: PinVM):
        self.signature = signature
        self.vm = vm
        self.stats = DetectionStats()
        self._regs = vm.cpu.regs
        self._mem = vm.mem
        quick = signature.quick_values
        self._qv0, self._qv1 = quick

    # -- instrumentation -----------------------------------------------------

    def attach(self) -> None:
        """Register the detection trace callback on the slice's VM."""
        self.vm.add_trace_callback(self._instrument)

    def _instrument(self, trace, value) -> None:
        # The signature pc may sit anywhere in a trace, as in serial
        # Pin's; the slice's engine makes it a *block* head (it is one
        # of the engine's ``signature_pcs``, ``Jit._blocks``), so a
        # match stops the slice between two whole blocks.  A stop
        # mid-trace unwinds like any ``StopRun``.
        offset = self.signature.pc - trace.address
        if not 0 <= offset < trace.num_ins:
            return
        q0, q1 = self.signature.quick_regs
        ins = trace.instructions[offset]
        ins.insert_if_call(IPOINT_BEFORE, self._quick_check,
                           IARG_REG_VALUE, q0,
                           IARG_REG_VALUE, q1, IARG_END)
        ins.insert_then_call(IPOINT_BEFORE, self._full_check, IARG_END)

    # -- analysis routines ----------------------------------------------------

    def _quick_check(self, v0: int, v1: int) -> int:
        """Inlined check of the two likely-to-change registers."""
        self.stats.quick_checks += 1
        return 1 if (v0 == self._qv0 and v1 == self._qv1) else 0

    def _full_check(self) -> None:
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
