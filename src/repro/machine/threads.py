"""Cooperative deterministic threading (the paper's §8 multithreading).

The paper defers multithreading because it "will require deterministic
replay of threads".  The reproduction provides it for the class of
guests where deterministic replay is structurally guaranteed:
*cooperative* threads that context-switch only at system calls
(``yield``/``create``/``join``/``exit`` and any blocking operation).
Because switch points are architectural events — not wall-clock
preemptions — the interleaving is a pure function of the program and
the recorded syscall stream, so SuperPin slices re-execute it exactly
with no additional recording.  True preemptive threads (with data
races) remain out of scope, as in the paper.

Design notes:

* One :class:`ThreadManager` owns all thread contexts.  The *current*
  thread's registers live in the process's single ``CpuState``; a
  context switch swaps register *contents* in place, preserving the
  object identity that compiled JIT traces capture.  This is why the
  Pin engines need no thread awareness at all: after the handler
  returns, execution simply continues at the switched-in thread's pc.
* New threads return (``ra``) into a three-instruction *exit
  trampoline* the manager injects into guest memory, so falling off the
  entry function becomes an implicit ``thread_exit(rv)``.
* Each thread gets a dedicated stack slab carved downward from the
  main stack region (``STACK_TOP - tid * STACK_WORDS``).
* Scheduling is round-robin over a FIFO ready queue — deterministic by
  construction and identical across native runs, Pin runs, the SuperPin
  master, and slice re-execution.
* Thread operations are process-local state changes (class ``THREAD``):
  the SuperPin control process records them for ordering verification
  and slices *re-execute* them against a forked manager, exactly like
  EMULATE-class layout calls.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from ..errors import SyscallError
from ..isa import abi
from ..isa.encoding import encode
from ..isa.instructions import MASK64, Op
from ..isa.registers import A0, A1, A2, A3, RA, RV, SP
from .cpu import CpuState
from .kernel import SyscallOutcome, SyscallRecord, THREAD
from .memory import Memory

#: Syscall numbers handled by the thread layer.
THREAD_SYSCALLS = frozenset({abi.SYS_THREAD_CREATE, abi.SYS_THREAD_EXIT,
                             abi.SYS_THREAD_JOIN, abi.SYS_YIELD})

#: Guest address of the injected exit trampoline (below the text base,
#: inside an otherwise unused page).
EXIT_TRAMPOLINE = 0xF00

#: The trampoline: thread_exit(rv).
_TRAMPOLINE_WORDS = (
    encode(Op.ADDI, rd=A1, rs=RV, imm=0),           # a1 = return value
    encode(Op.LI, rd=A0, imm=abi.SYS_THREAD_EXIT),  # a0 = thread_exit
    encode(Op.SYSCALL),
)


class ThreadStatus(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"   # in thread_join
    DONE = "done"


@dataclass
class ThreadRecord:
    """Saved context and bookkeeping for one guest thread."""

    tid: int
    regs: list[int]
    pc: int
    status: ThreadStatus
    exit_value: int = 0
    #: tids blocked in join() on this thread.
    joiners: list[int] = field(default_factory=list)


class ThreadManager:
    """Deterministic cooperative scheduler for one guest process."""

    def __init__(self):
        #: tid -> record; the *current* thread's live regs/pc are in the
        #: process CpuState, so its record is stale between switches.
        self.threads: dict[int, ThreadRecord] = {}
        self.ready: deque[int] = deque()
        self.current_tid = 0
        self._next_tid = 1
        self.context_switches = 0
        main = ThreadRecord(tid=0, regs=[0] * 32, pc=0,
                            status=ThreadStatus.RUNNING)
        self.threads[0] = main

    def install_trampoline(self, mem: Memory) -> None:
        """Write the thread-exit trampoline into guest memory."""
        mem.map_region(EXIT_TRAMPOLINE, len(_TRAMPOLINE_WORDS))
        mem.write_block(EXIT_TRAMPOLINE, _TRAMPOLINE_WORDS)

    # -- forking (slice snapshots) --------------------------------------------

    def fork(self) -> "ThreadManager":
        clone = ThreadManager()
        clone.threads = {
            tid: ThreadRecord(tid=rec.tid, regs=list(rec.regs), pc=rec.pc,
                              status=rec.status,
                              exit_value=rec.exit_value,
                              joiners=list(rec.joiners))
            for tid, rec in self.threads.items()}
        clone.ready = deque(self.ready)
        clone.current_tid = self.current_tid
        clone._next_tid = self._next_tid
        return clone

    # -- the syscall surface --------------------------------------------------

    def handle(self, number: int, cpu: CpuState,
               mem: Memory) -> SyscallOutcome:
        """Execute one thread operation; may context-switch ``cpu``.

        Return values are written to the *calling* thread before any
        switch — after a switch, ``cpu`` holds a different thread whose
        ``rv`` must not be clobbered.
        """
        args = (cpu.regs[A1], cpu.regs[A2], cpu.regs[A3])
        if number == abi.SYS_THREAD_CREATE:
            retval = self._create(args[0], args[1], mem)
            cpu.regs[RV] = retval
        elif number == abi.SYS_YIELD:
            retval = 0
            cpu.regs[RV] = 0
            if self.ready:
                self._reschedule(cpu, requeue_current=True)
        elif number == abi.SYS_THREAD_JOIN:
            retval = self._join(cpu, args[0])
        elif number == abi.SYS_THREAD_EXIT:
            retval = self._exit(cpu, args[0])
        else:  # pragma: no cover - guarded by THREAD_SYSCALLS
            raise SyscallError(f"not a thread syscall: {number}")
        record = SyscallRecord(number=number, args=args,
                               retval=retval & MASK64, klass=THREAD)
        return SyscallOutcome(record=record)

    # -- operations -----------------------------------------------------------

    def _create(self, entry_pc: int, arg: int, mem: Memory) -> int:
        tid = self._next_tid
        self._next_tid += 1
        regs = [0] * 32
        regs[A0] = arg
        regs[SP] = abi.STACK_TOP - tid * abi.STACK_WORDS
        # Register the new thread's stack slab.
        mem.map_region(regs[SP] - abi.STACK_WORDS, abi.STACK_WORDS)
        regs[RA] = EXIT_TRAMPOLINE
        record = ThreadRecord(tid=tid, regs=regs, pc=entry_pc,
                              status=ThreadStatus.READY)
        self.threads[tid] = record
        self.ready.append(tid)
        return tid

    def _join(self, cpu: CpuState, tid: int) -> int:
        target = self.threads.get(tid)
        if target is None:
            raise SyscallError(f"join on unknown thread {tid}")
        if target.status is ThreadStatus.DONE:
            cpu.regs[RV] = target.exit_value
            return target.exit_value
        current = self.threads[self.current_tid]
        target.joiners.append(current.tid)
        current.status = ThreadStatus.BLOCKED
        cpu.regs[RV] = 0  # placeholder; _wake delivers the real value
        self._reschedule(cpu, requeue_current=False)
        return 0

    def _exit(self, cpu: CpuState, value: int) -> int:
        current = self.threads[self.current_tid]
        if current.tid == 0:
            raise SyscallError(
                "main thread must exit the process (SYS_EXIT), "
                "not thread_exit")
        current.status = ThreadStatus.DONE
        current.exit_value = value & MASK64
        for joiner_tid in current.joiners:
            self._wake(joiner_tid, value & MASK64)
        current.joiners.clear()
        self._reschedule(cpu, requeue_current=False)
        return value & MASK64

    def _wake(self, tid: int, join_result: int) -> None:
        record = self.threads[tid]
        record.status = ThreadStatus.READY
        record.regs[RV] = join_result  # join's return value
        self.ready.append(tid)

    # -- context switching ----------------------------------------------------

    def _reschedule(self, cpu: CpuState, requeue_current: bool) -> None:
        current = self.threads[self.current_tid]
        if not self.ready:
            raise SyscallError(
                f"deadlock: thread {current.tid} blocked with no "
                f"runnable threads")
        # Save the outgoing context.
        current.regs[:] = cpu.regs
        current.pc = cpu.pc
        if requeue_current:
            current.status = ThreadStatus.READY
            self.ready.append(current.tid)
        # Load the next thread IN PLACE: compiled traces capture the
        # regs list object, so identity must be preserved.
        next_tid = self.ready.popleft()
        incoming = self.threads[next_tid]
        incoming.status = ThreadStatus.RUNNING
        cpu.regs[:] = incoming.regs
        cpu.pc = incoming.pc
        self.current_tid = next_tid
        self.context_switches += 1


class ThreadAwareHandler:
    """Syscall handler that routes thread ops to a manager.

    Everything else is delegated to ``inner`` (the live kernel for
    native/master runs).  Slices do not use this class — their
    :class:`~repro.superpin.sysrecord.PlaybackHandler` re-executes
    THREAD-class records against the slice's forked manager directly,
    preserving record-order verification.
    """

    def __init__(self, manager: ThreadManager, inner):
        self.manager = manager
        self.inner = inner

    def do_syscall(self, cpu: CpuState, mem: Memory) -> SyscallOutcome:
        number = cpu.regs[A0]
        if number in THREAD_SYSCALLS:
            return self.manager.handle(number, cpu, mem)
        return self.inner.do_syscall(cpu, mem)
