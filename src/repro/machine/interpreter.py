"""Direct interpreter: the machine's native reference and oracle only.

This is what "running the application natively" means in the
reproduction's golden model, and the reference the ``-spaudit`` oracle
re-runs.  No executor of a run is built on it: the SuperPin master is
serial Pin's engine with no tool (:mod:`repro.superpin.control`).

It is deliberately *not* built from the JIT's semantics table
(``repro.pin.jit.SEMANTICS``): an oracle that shared its statement of
what an instruction does with the code it judges could only agree with
it.  Where the two ever differ, this file decides and the table is
brought to it (``tests/test_machine/test_golden_model.py`` holds every
row against it, register aliasing and both memory modes included).

The hot loop is deliberately monolithic: one function, local aliases,
inlined memory access and a decode cache keyed by the raw instruction word
(identical words decode identically, so the cache needs no invalidation
even under code writes).  Its inlined stores call no code watcher
(:meth:`repro.machine.memory.Memory.watch_code`): the oracle runs on a
process of its own, which no engine has cached code from.  This is the
standard shape for interpreters in CPython, where attribute lookups and
function calls dominate cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ArithmeticFault, GuestFault, IllegalInstruction
from ..isa.encoding import decode, Decoded
from ..isa.instructions import MASK64, Op
from .kernel import SyscallOutcome
from .memory import PAGE_WORDS
from .process import Process

_SIGN = 1 << 63
_PAGE_SHIFT = 10
_OFF_MASK = PAGE_WORDS - 1
assert PAGE_WORDS == 1 << _PAGE_SHIFT


class StopReason(enum.Enum):
    """Why :meth:`Interpreter.run` returned."""

    EXIT = "exit"          # guest exited (exit syscall or halt)
    SYSCALL = "syscall"    # a syscall completed and stop_after_syscall is set
    BUDGET = "budget"      # instruction budget exhausted


@dataclass
class StepResult:
    """Outcome of one :meth:`Interpreter.run` call."""

    reason: StopReason
    #: Instructions executed during this call.
    instructions: int
    #: The syscall outcome when reason is SYSCALL (and for the final
    #: exit-syscall when reason is EXIT).
    outcome: SyscallOutcome | None = None


class Interpreter:
    """Uninstrumented executor for one :class:`Process`."""

    def __init__(self, process: Process, stop_after_syscall: bool = False):
        self.process = process
        self.stop_after_syscall = stop_after_syscall
        self.total_instructions = 0
        self.total_syscalls = 0
        self._decode_cache: dict[int, Decoded] = {}

    def run(self, max_instructions: int | None = None) -> StepResult:
        """Execute until exit, budget exhaustion, or (optionally) a syscall.

        Returns a :class:`StepResult`; the process's ``exited`` /
        ``exit_code`` fields are updated on exit.  A guest fault leaves
        ``cpu.pc`` at the faulting instruction, which does not count as
        retired.
        """
        proc = self.process
        if proc.exited:
            return StepResult(StopReason.EXIT, 0)

        cpu = proc.cpu
        mem = proc.mem
        regs = cpu.regs
        pages = mem._pages
        frozen = mem._frozen
        strict = mem.strict
        dcache = self._decode_cache
        handler = proc.syscall_handler
        stop_after_syscall = self.stop_after_syscall

        budget = max_instructions if max_instructions is not None else -1
        pc = cpu.pc
        count = 0

        # Opcode constants as locals (global lookups are slow in the loop).
        op_nop, op_halt, op_syscall = int(Op.NOP), int(Op.HALT), \
            int(Op.SYSCALL)
        op_add, op_sub, op_mul, op_div, op_mod = (int(Op.ADD), int(Op.SUB),
                                                  int(Op.MUL), int(Op.DIV),
                                                  int(Op.MOD))
        op_and, op_or, op_xor = int(Op.AND), int(Op.OR), int(Op.XOR)
        op_shl, op_shr, op_sar = int(Op.SHL), int(Op.SHR), int(Op.SAR)
        op_slt, op_sltu = int(Op.SLT), int(Op.SLTU)
        op_addi, op_muli, op_andi = int(Op.ADDI), int(Op.MULI), int(Op.ANDI)
        op_ori, op_xori = int(Op.ORI), int(Op.XORI)
        op_shli, op_shri, op_sari = int(Op.SHLI), int(Op.SHRI), int(Op.SARI)
        op_slti = int(Op.SLTI)
        op_li, op_ld, op_st = int(Op.LI), int(Op.LD), int(Op.ST)
        op_push, op_pop = int(Op.PUSH), int(Op.POP)
        op_j, op_jr = int(Op.J), int(Op.JR)
        op_beq, op_bne = int(Op.BEQ), int(Op.BNE)
        op_blt, op_bge = int(Op.BLT), int(Op.BGE)
        op_bltu, op_bgeu = int(Op.BLTU), int(Op.BGEU)
        op_call, op_callr, op_ret = int(Op.CALL), int(Op.CALLR), int(Op.RET)

        try:
            while True:
                if count == budget:
                    result = StepResult(StopReason.BUDGET, count)
                    break
                # Counted before it executes; a fault un-counts it below.
                count += 1

                # --- fetch + decode ---
                if strict:
                    mem._check(pc)
                page = pages.get(pc >> _PAGE_SHIFT)
                word = page[pc & _OFF_MASK] if page is not None else 0
                dec = dcache.get(word)
                if dec is None:
                    dec = decode(word, pc=pc)
                    dcache[word] = dec
                op, rd, rs, rt, imm = dec
                npc = pc + 1

                # --- execute (ordered roughly by dynamic frequency) ---
                if op == op_addi:
                    if rd:
                        regs[rd] = (regs[rs] + imm) & MASK64
                elif op == op_add:
                    if rd:
                        regs[rd] = (regs[rs] + regs[rt]) & MASK64
                elif op == op_ld:
                    addr = (regs[rs] + imm) & MASK64
                    if strict:
                        mem._check(addr)
                    page = pages.get(addr >> _PAGE_SHIFT)
                    if rd:
                        regs[rd] = (page[addr & _OFF_MASK]
                                    if page is not None else 0)
                elif op == op_st:
                    addr = (regs[rs] + imm) & MASK64
                    if strict:
                        mem._check(addr)
                    idx = addr >> _PAGE_SHIFT
                    page = pages.get(idx)
                    if page is None:
                        page = [0] * PAGE_WORDS
                        pages[idx] = page
                    elif idx in frozen:
                        page = page[:]
                        pages[idx] = page
                        frozen.discard(idx)
                        mem.cow_faults += 1
                        mem.pages_copied += 1
                    page[addr & _OFF_MASK] = regs[rt]
                elif op == op_bne:
                    if regs[rs] != regs[rt]:
                        npc = imm
                elif op == op_beq:
                    if regs[rs] == regs[rt]:
                        npc = imm
                elif op == op_blt:
                    a, b = regs[rs], regs[rt]
                    if a & _SIGN:
                        a -= 1 << 64
                    if b & _SIGN:
                        b -= 1 << 64
                    if a < b:
                        npc = imm
                elif op == op_bge:
                    a, b = regs[rs], regs[rt]
                    if a & _SIGN:
                        a -= 1 << 64
                    if b & _SIGN:
                        b -= 1 << 64
                    if a >= b:
                        npc = imm
                elif op == op_sub:
                    if rd:
                        regs[rd] = (regs[rs] - regs[rt]) & MASK64
                elif op == op_li:
                    if rd:
                        regs[rd] = imm & MASK64
                elif op == op_mul:
                    if rd:
                        regs[rd] = (regs[rs] * regs[rt]) & MASK64
                elif op == op_j:
                    npc = imm
                elif op == op_call:
                    regs[31] = npc
                    npc = imm
                elif op == op_ret:
                    npc = regs[31]
                elif op == op_push:
                    addr = (regs[29] - 1) & MASK64
                    regs[29] = addr
                    if strict:
                        mem._check(addr)
                    idx = addr >> _PAGE_SHIFT
                    page = pages.get(idx)
                    if page is None:
                        page = [0] * PAGE_WORDS
                        pages[idx] = page
                    elif idx in frozen:
                        page = page[:]
                        pages[idx] = page
                        frozen.discard(idx)
                        mem.cow_faults += 1
                        mem.pages_copied += 1
                    page[addr & _OFF_MASK] = regs[rs]
                elif op == op_pop:
                    addr = regs[29]
                    if strict:
                        mem._check(addr)
                    page = pages.get(addr >> _PAGE_SHIFT)
                    if rd:
                        regs[rd] = (page[addr & _OFF_MASK]
                                    if page is not None else 0)
                    regs[29] = (addr + 1) & MASK64
                elif op == op_syscall:
                    cpu.pc = npc
                    outcome = handler.do_syscall(cpu, mem)
                    self.total_syscalls += 1
                    pc = cpu.pc
                    if outcome.exited:
                        proc.exited = True
                        proc.exit_code = outcome.exit_code
                        result = StepResult(StopReason.EXIT, count, outcome)
                        break
                    if stop_after_syscall:
                        result = StepResult(StopReason.SYSCALL, count,
                                            outcome)
                        break
                    continue
                elif op == op_halt:
                    cpu.pc = pc
                    proc.exited = True
                    proc.exit_code = regs[1]
                    result = StepResult(StopReason.EXIT, count)
                    break
                elif op == op_and:
                    if rd:
                        regs[rd] = regs[rs] & regs[rt]
                elif op == op_or:
                    if rd:
                        regs[rd] = regs[rs] | regs[rt]
                elif op == op_xor:
                    if rd:
                        regs[rd] = regs[rs] ^ regs[rt]
                elif op == op_shl:
                    if rd:
                        regs[rd] = (regs[rs] << (regs[rt] & 63)) & MASK64
                elif op == op_shr:
                    if rd:
                        regs[rd] = regs[rs] >> (regs[rt] & 63)
                elif op == op_sar:
                    if rd:
                        a = regs[rs]
                        if a & _SIGN:
                            a -= 1 << 64
                        regs[rd] = (a >> (regs[rt] & 63)) & MASK64
                elif op == op_slt:
                    if rd:
                        a, b = regs[rs], regs[rt]
                        if a & _SIGN:
                            a -= 1 << 64
                        if b & _SIGN:
                            b -= 1 << 64
                        regs[rd] = 1 if a < b else 0
                elif op == op_sltu:
                    if rd:
                        regs[rd] = 1 if regs[rs] < regs[rt] else 0
                elif op == op_div or op == op_mod:
                    a, b = regs[rs], regs[rt]
                    if b == 0:
                        raise ArithmeticFault("division by zero", pc=pc)
                    if a & _SIGN:
                        a -= 1 << 64
                    if b & _SIGN:
                        b -= 1 << 64
                    q = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        q = -q
                    if rd:
                        if op == op_div:
                            regs[rd] = q & MASK64
                        else:
                            regs[rd] = (a - q * b) & MASK64
                elif op == op_muli:
                    if rd:
                        regs[rd] = (regs[rs] * imm) & MASK64
                elif op == op_andi:
                    if rd:
                        regs[rd] = regs[rs] & (imm & MASK64)
                elif op == op_ori:
                    if rd:
                        regs[rd] = regs[rs] | (imm & MASK64)
                elif op == op_xori:
                    if rd:
                        regs[rd] = regs[rs] ^ (imm & MASK64)
                elif op == op_shli:
                    if rd:
                        regs[rd] = (regs[rs] << (imm & 63)) & MASK64
                elif op == op_shri:
                    if rd:
                        regs[rd] = regs[rs] >> (imm & 63)
                elif op == op_sari:
                    if rd:
                        a = regs[rs]
                        if a & _SIGN:
                            a -= 1 << 64
                        regs[rd] = (a >> (imm & 63)) & MASK64
                elif op == op_slti:
                    if rd:
                        a = regs[rs]
                        if a & _SIGN:
                            a -= 1 << 64
                        regs[rd] = 1 if a < imm else 0
                elif op == op_bltu:
                    if regs[rs] < regs[rt]:
                        npc = imm
                elif op == op_bgeu:
                    if regs[rs] >= regs[rt]:
                        npc = imm
                elif op == op_jr:
                    npc = regs[rs]
                elif op == op_callr:
                    regs[31] = npc
                    npc = regs[rs]
                elif op == op_nop:
                    pass
                else:  # pragma: no cover - decode() rejects unknown opcodes
                    raise IllegalInstruction(f"opcode {op}", pc=pc)

                pc = npc
        except GuestFault:
            cpu.pc = pc
            self.total_instructions += count - 1
            raise

        cpu.pc = pc
        self.total_instructions += count
        return result


def run_to_completion(process: Process,
                      max_instructions: int = 200_000_000) -> StepResult:
    """Run ``process`` natively until exit; guard against runaway guests."""
    interp = Interpreter(process)
    result = interp.run(max_instructions=max_instructions)
    if result.reason is not StopReason.EXIT:
        raise GuestFault(
            f"program did not exit within {max_instructions} instructions")
    result.instructions = interp.total_instructions
    return result
