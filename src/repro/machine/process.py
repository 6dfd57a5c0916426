"""Guest process abstraction and program loader.

A :class:`Process` bundles the architectural state (CPU + memory) with a
*syscall handler*.  The handler indirection is the seam every layer of the
reproduction plugs into:

* native runs hand syscalls straight to the live :class:`Kernel`;
* the SuperPin control process wraps the kernel to record each call and
  decide slice boundaries (paper §4.2);
* SuperPin slices substitute a playback handler that never touches the
  real kernel.
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..errors import LoaderError
from ..isa import abi
from ..isa.program import Program
from ..isa.registers import SP
from .cpu import CpuState
from .kernel import Kernel, SyscallOutcome
from .memory import Memory, PAGE_WORDS


class SyscallHandler(Protocol):
    """Anything that can service a guest ``syscall`` instruction."""

    def do_syscall(self, cpu: CpuState, mem: Memory) -> SyscallOutcome: ...


class Process:
    """One guest hardware context plus its syscall plumbing."""

    def __init__(self, cpu: CpuState, mem: Memory,
                 syscall_handler: SyscallHandler):
        self.cpu = cpu
        self.mem = mem
        self.syscall_handler = syscall_handler
        self.exited = False
        self.exit_code = 0
        #: The loader's ThreadManager (None under a caller's handler).
        self.thread_manager = None

    def fork(self, syscall_handler: SyscallHandler | None = None
             ) -> "Process":
        """COW-fork this process; the child gets its own handler."""
        child = Process(self.cpu.copy(), self.mem.fork(),
                        syscall_handler or self.syscall_handler)
        child.exited = self.exited
        child.exit_code = self.exit_code
        return child


def load_program(program: Program, kernel: Kernel,
                 handler: SyscallHandler | None = None) -> Process:
    """Load ``program`` into a fresh address space, exec-style.

    Sets up the stack (full-descending from ``STACK_TOP``), points the
    kernel's ``brk`` at the first free page after the image, and registers
    the text/data/stack/heap regions (:meth:`Memory.map_region`).
    Unless ``handler`` replaces the kernel, a cooperative
    :class:`~repro.machine.threads.ThreadManager` is installed in front
    of it, and its exit trampoline is injected into memory.
    """
    if not program.segments:
        raise LoaderError("program has no segments")
    mem = Memory()
    for segment in program.segments:
        mem.map_region(segment.base, len(segment.words))
        mem.write_block(segment.base, segment.words)
    mem.map_region(abi.STACK_TOP - abi.STACK_WORDS, abi.STACK_WORDS)

    cpu = CpuState(pc=program.entry)
    cpu.regs[SP] = abi.STACK_TOP

    load_end = program.load_end
    kernel.layout.brk = (load_end + PAGE_WORDS - 1) & ~(PAGE_WORDS - 1)
    # Heap region: a generous window; the kernel's brk/mmap bookkeeping
    # is the source of truth.
    mem.map_region(kernel.layout.brk, abi.MMAP_BASE - kernel.layout.brk)

    process = Process(cpu, mem, handler or kernel)
    if handler is None:
        from .threads import ThreadAwareHandler, ThreadManager
        manager = ThreadManager()
        manager.install_trampoline(mem)
        process.thread_manager = manager
        process.syscall_handler = ThreadAwareHandler(manager, kernel)
    return process


RunHook = Callable[[CpuState, Memory], None]
