"""JIT: lowers instrumented traces into executable step closures.

The compiled form of a trace is a list of *steps*, one per guest
instruction.  A step is a zero-argument closure returning:

* ``None``       — fall through to the next step;
* an int >= 0    — transfer control to that guest address (trace exit);
* ``EXIT_GUEST`` — the guest terminated (exit syscall or halt).

Instrumentation is woven around the instruction semantics at lowering
time.  Un-instrumented instructions lower to their bare semantics closure,
so the instrumented-to-native overhead ratio is governed by the analysis
calls — which is the regime the paper's icount1/icount2 comparison
explores.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ArithmeticFault
from ..isa.instructions import MASK64, Op
from .args import build_resolver
from .filter import run_trace_callbacks
from .suppress import LOOP_TRIP_CAP, LoopPlan, SuppressedLoopTrace, \
    plan_suppression
from .trace import build_trace, Ins, TraceObj

#: Sentinel step result: the guest has exited.
EXIT_GUEST = -2

_SIGN = 1 << 63

Step = Callable[[], int | None]


class StopRun(Exception):
    """Raised from an analysis routine to stop the engine immediately.

    Used by SuperPin's signature detector on a full match and by
    ``SP_EndSlice``.  The engine unwinds to the instruction boundary of
    the step that raised: the instruction itself does *not* execute.
    """


class CompiledTrace:
    """Executable form of one trace (threaded-code backend)."""

    __slots__ = ("start", "steps", "addresses", "fall_address", "num_ins",
                 "bbl_sizes", "links", "exec_count")

    is_source = False
    #: Compile tier (see repro.pin.superblock): 1 = threaded code,
    #: eligible for promotion into a TC2 superblock.
    tier = 1
    #: A bounded trace retires at most ``num_ins`` instructions per
    #: invocation — the property the engine's exact-budget mode relies
    #: on.  Summarized loop traces override this (one invocation may
    #: retire thousands of instructions).
    unbounded = False

    def __init__(self, start: int, steps: list[Step], addresses: list[int],
                 fall_address: int | None, bbl_sizes: list[int]):
        self.start = start
        self.steps = steps
        self.addresses = addresses
        self.fall_address = fall_address
        self.num_ins = len(steps)
        self.bbl_sizes = bbl_sizes
        #: Direct trace links: exit pc -> successor trace, patched lazily
        #: by the engine (Pin's exit-stub patching).  Cleared wholesale
        #: by CodeCache.flush — a link must never outlive its target.
        self.links: dict[int, object] = {}
        #: Executions since compile (or since the last failed
        #: promotion); the TC2 promotion trigger.
        self.exec_count = 0


class Jit:
    """Compiles guest code regions for one engine."""

    def __init__(self, engine):
        self._engine = engine

    def compile(self, address: int) -> CompiledTrace:
        """Build, instrument and lower the trace starting at ``address``."""
        engine = self._engine
        trace_obj = build_trace(engine.mem, address,
                                forced_boundaries=engine.forced_boundaries,
                                max_ins=engine.max_trace_ins)
        run_trace_callbacks(engine, trace_obj)

        plan = plan_suppression(engine, trace_obj)
        if plan is not None:
            return self._compile_suppressed(trace_obj, plan)

        steps: list[Step] = []
        addresses: list[int] = []
        for ins in trace_obj.instructions:
            steps.append(self._lower_ins(ins))
            addresses.append(ins.address)
        return CompiledTrace(address, steps, addresses,
                             trace_obj.fall_address,
                             [bbl.num_ins for bbl in trace_obj.bbls])

    def export_warm(self, trace):
        """``trace`` as a warm-payload record: address and length only —
        closures over live VM state cannot cross a process boundary."""
        # Imported here: pin sits below superpin, and the record type
        # lives with the store that persists it.
        from ..superpin.warmstore import WarmTrace
        return WarmTrace(trace.start, trace.num_ins)

    def build_warm(self, entry):
        """Build the trace a warm entry names: ``(trace, warm)``.

        Nothing executable was shipped, so this is an ordinary compile;
        it still counts as a warm start because the payload, not guest
        discovery, named the trace.
        """
        return self.compile(entry.address), True

    def compile_step(self, address: int) -> CompiledTrace:
        """Lower a single-instruction trace (exact-budget stepping).

        Instrumentation still runs — the one instruction carries exactly
        the analysis calls a full compile would attach to it — but
        suppression never applies (a one-instruction trace has no loop
        body to summarize), so a step trace retires exactly one
        instruction per invocation.  Step traces are kept outside the
        code cache: they exist only so the engine can land on an
        arbitrary instruction boundary without changing trace shapes.
        """
        engine = self._engine
        trace_obj = build_trace(engine.mem, address,
                                forced_boundaries=engine.forced_boundaries,
                                max_ins=1)
        run_trace_callbacks(engine, trace_obj)
        ins = trace_obj.instructions[0]
        return CompiledTrace(address, [self._lower_ins(ins)],
                             [ins.address], trace_obj.fall_address,
                             [bbl.num_ins for bbl in trace_obj.bbls])

    # -- redundancy suppression ----------------------------------------------

    def _compile_suppressed(self, trace_obj: TraceObj,
                            plan: LoopPlan) -> SuppressedLoopTrace:
        """Lower a planned loop into its summarized form.

        The body semantics run per iteration; the invariant
        instrumentation fires once per loop exit (or per
        ``LOOP_TRIP_CAP`` trips) as ``summary(iterations, *args)``.
        The result uses the source-backend calling convention so one
        invocation can retire many instructions with exact unwind
        markers for the rare post-loop suffix.
        """
        engine = self._engine
        stats = engine.instr_stats
        stats.summarized_loops += 1
        counters = engine.counters

        body_sems = [self._lower_semantics(ins) for ins in plan.body[:-1]]
        tail_sem = self._lower_semantics(plan.tail)
        rest_steps = [self._lower_ins(ins) for ins in plan.rest]
        rest_addrs = [ins.address for ins in plan.rest]
        start = plan.start
        m = plan.body_len
        n_rest = len(rest_steps)
        summaries = tuple(plan.summaries)
        n_calls = len(summaries)
        cap = LOOP_TRIP_CAP
        fall = trace_obj.fall_address
        resume_pc = rest_addrs[0] if rest_addrs else fall

        def fire(iterations: int) -> None:
            counters[0] += n_calls
            stats.loop_entries += 1
            stats.summarized_calls += n_calls
            stats.suppressed_calls += (iterations - 1) * n_calls
            for summary, args in summaries:
                summary(iterations, *args)

        def fn() -> tuple[int | None, int]:
            trips = 0
            while True:
                for sem in body_sems:
                    sem()
                # The tail branches to the head when taken (plan
                # legality), so any non-None result is the back edge.
                if tail_sem() is None:
                    break
                trips += 1
                if trips >= cap:
                    # Return to the dispatcher so the instruction
                    # budget and StopRun seams stay live; the direct
                    # link re-enters this trace on the next dispatch.
                    engine._stop_pc = start
                    engine._stop_count = trips * m
                    fire(trips)
                    return (start, trips * m)
            iterations = trips + 1
            base = iterations * m
            engine._stop_pc = resume_pc
            engine._stop_count = base
            fire(iterations)
            i = 0
            while i < n_rest:
                engine._stop_pc = rest_addrs[i]
                engine._stop_count = base + i
                result = rest_steps[i]()
                if result is not None:
                    return (result, base + i + 1)
                i += 1
            return (None, base + n_rest)

        return SuppressedLoopTrace(
            start=start, fn=fn, num_ins=trace_obj.num_ins,
            fall_address=fall,
            bbl_sizes=[bbl.num_ins for bbl in trace_obj.bbls])

    # -- lowering ------------------------------------------------------------

    def _lower_ins(self, ins: Ins) -> Step:
        sem = self._lower_semantics(ins)
        engine = self._engine
        cpu, mem = engine.cpu, engine.mem

        def lower_calls(calls):
            return tuple(
                (call.fn, build_resolver(call.specs, ins, cpu, mem))
                for call in calls)

        def lower_taken(calls):
            return tuple(
                (call.fn,
                 build_resolver(call.specs, ins, cpu, mem, taken_target=0))
                for call in calls)

        before = lower_calls(ins.before_calls)
        after = lower_calls(ins.after_calls)
        taken = lower_taken(ins.taken_calls)
        if_then = tuple(
            (pair[0].fn, build_resolver(pair[0].specs, ins, cpu, mem),
             pair[1].fn, build_resolver(pair[1].specs, ins, cpu, mem))
            for pair in ins.if_then)

        if not (before or after or taken or if_then):
            return sem

        counters = engine.counters  # [analysis_calls, inline_checks]

        def step() -> int | None:
            # If/then pairs run before plain before-calls: SuperPin's
            # signature check must fire before any tool analysis at the
            # boundary instruction, because that instruction belongs to
            # the *next* slice (§4.4).
            for if_fn, if_resolve, then_fn, then_resolve in if_then:
                counters[1] += 1
                if if_fn(*if_resolve()):
                    counters[0] += 1
                    then_fn(*then_resolve())
            if before:
                counters[0] += len(before)
                for fn, resolve in before:
                    fn(*resolve())
            result = sem()
            if result is None:
                if after:
                    counters[0] += len(after)
                    for fn, resolve in after:
                        fn(*resolve())
            elif result >= 0 and taken:
                counters[0] += len(taken)
                for fn, resolve in taken:
                    fn(*resolve())
            return result

        return step

    def _lower_semantics(self, ins: Ins) -> Step:
        """Compile one instruction's architectural semantics to a closure."""
        engine = self._engine
        cpu = engine.cpu
        regs = cpu.regs
        mem = engine.mem
        op = ins.op
        rd, rs, rt, imm = ins.rd, ins.rs, ins.rt, ins.imm
        address = ins.address

        # --- ALU (register) ---
        if op is Op.ADD:
            if rd == 0:
                return lambda: None
            return lambda: (regs.__setitem__(
                rd, (regs[rs] + regs[rt]) & MASK64), None)[1]
        if op is Op.SUB:
            if rd == 0:
                return lambda: None
            return lambda: (regs.__setitem__(
                rd, (regs[rs] - regs[rt]) & MASK64), None)[1]
        if op is Op.MUL:
            if rd == 0:
                return lambda: None
            return lambda: (regs.__setitem__(
                rd, (regs[rs] * regs[rt]) & MASK64), None)[1]
        if op in (Op.DIV, Op.MOD):
            want_div = op is Op.DIV

            def sem_divmod() -> None:
                a, b = regs[rs], regs[rt]
                if b == 0:
                    raise ArithmeticFault("division by zero", pc=address)
                if a & _SIGN:
                    a -= 1 << 64
                if b & _SIGN:
                    b -= 1 << 64
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                if rd:
                    regs[rd] = (q if want_div else a - q * b) & MASK64
                return None
            return sem_divmod
        if op is Op.AND:
            if rd == 0:
                return lambda: None
            return lambda: (regs.__setitem__(rd, regs[rs] & regs[rt]),
                            None)[1]
        if op is Op.OR:
            if rd == 0:
                return lambda: None
            return lambda: (regs.__setitem__(rd, regs[rs] | regs[rt]),
                            None)[1]
        if op is Op.XOR:
            if rd == 0:
                return lambda: None
            return lambda: (regs.__setitem__(rd, regs[rs] ^ regs[rt]),
                            None)[1]
        if op is Op.SHL:
            if rd == 0:
                return lambda: None
            return lambda: (regs.__setitem__(
                rd, (regs[rs] << (regs[rt] & 63)) & MASK64), None)[1]
        if op is Op.SHR:
            if rd == 0:
                return lambda: None
            return lambda: (regs.__setitem__(
                rd, regs[rs] >> (regs[rt] & 63)), None)[1]
        if op is Op.SAR:
            if rd == 0:
                return lambda: None

            def sem_sar() -> None:
                a = regs[rs]
                if a & _SIGN:
                    a -= 1 << 64
                regs[rd] = (a >> (regs[rt] & 63)) & MASK64
                return None
            return sem_sar
        if op in (Op.SLT, Op.SLTU):
            if rd == 0:
                return lambda: None
            if op is Op.SLTU:
                return lambda: (regs.__setitem__(
                    rd, 1 if regs[rs] < regs[rt] else 0), None)[1]

            def sem_slt() -> None:
                a, b = regs[rs], regs[rt]
                if a & _SIGN:
                    a -= 1 << 64
                if b & _SIGN:
                    b -= 1 << 64
                regs[rd] = 1 if a < b else 0
                return None
            return sem_slt

        # --- ALU (immediate) ---
        if op is Op.ADDI:
            if rd == 0:
                return lambda: None
            return lambda: (regs.__setitem__(
                rd, (regs[rs] + imm) & MASK64), None)[1]
        if op is Op.MULI:
            if rd == 0:
                return lambda: None
            return lambda: (regs.__setitem__(
                rd, (regs[rs] * imm) & MASK64), None)[1]
        if op is Op.ANDI:
            if rd == 0:
                return lambda: None
            masked = imm & MASK64
            return lambda: (regs.__setitem__(rd, regs[rs] & masked),
                            None)[1]
        if op is Op.ORI:
            if rd == 0:
                return lambda: None
            masked = imm & MASK64
            return lambda: (regs.__setitem__(rd, regs[rs] | masked),
                            None)[1]
        if op is Op.XORI:
            if rd == 0:
                return lambda: None
            masked = imm & MASK64
            return lambda: (regs.__setitem__(rd, regs[rs] ^ masked),
                            None)[1]
        if op is Op.SHLI:
            if rd == 0:
                return lambda: None
            sh = imm & 63
            return lambda: (regs.__setitem__(
                rd, (regs[rs] << sh) & MASK64), None)[1]
        if op is Op.SHRI:
            if rd == 0:
                return lambda: None
            sh = imm & 63
            return lambda: (regs.__setitem__(rd, regs[rs] >> sh), None)[1]
        if op is Op.SARI:
            if rd == 0:
                return lambda: None
            sh = imm & 63

            def sem_sari() -> None:
                a = regs[rs]
                if a & _SIGN:
                    a -= 1 << 64
                regs[rd] = (a >> sh) & MASK64
                return None
            return sem_sari
        if op is Op.SLTI:
            if rd == 0:
                return lambda: None

            def sem_slti() -> None:
                a = regs[rs]
                if a & _SIGN:
                    a -= 1 << 64
                regs[rd] = 1 if a < imm else 0
                return None
            return sem_slti

        # --- data movement ---
        if op is Op.LI:
            if rd == 0:
                return lambda: None
            value = imm & MASK64
            return lambda: (regs.__setitem__(rd, value), None)[1]
        if op is Op.LD:
            if rd == 0:
                return lambda: None
            read = mem.read
            return lambda: (regs.__setitem__(
                rd, read((regs[rs] + imm) & MASK64)), None)[1]
        if op is Op.ST:
            write = mem.write
            return lambda: (write((regs[rs] + imm) & MASK64, regs[rt]),
                            None)[1]
        if op is Op.PUSH:
            write = mem.write

            def sem_push() -> None:
                addr = (regs[29] - 1) & MASK64
                regs[29] = addr
                write(addr, regs[rs])
                return None
            return sem_push
        if op is Op.POP:
            read = mem.read

            def sem_pop() -> None:
                addr = regs[29]
                if rd:
                    regs[rd] = read(addr)
                regs[29] = (addr + 1) & MASK64
                return None
            return sem_pop

        # --- control ---
        if op is Op.J:
            return lambda: imm
        if op is Op.JR:
            return lambda: regs[rs]
        if op is Op.CALL:
            npc = address + 1
            return lambda: (regs.__setitem__(31, npc), imm)[1]
        if op is Op.CALLR:
            npc = address + 1
            return lambda: (regs.__setitem__(31, npc), regs[rs])[1]
        if op is Op.RET:
            return lambda: regs[31]
        if op is Op.BEQ:
            return lambda: imm if regs[rs] == regs[rt] else None
        if op is Op.BNE:
            return lambda: imm if regs[rs] != regs[rt] else None
        if op is Op.BLTU:
            return lambda: imm if regs[rs] < regs[rt] else None
        if op is Op.BGEU:
            return lambda: imm if regs[rs] >= regs[rt] else None
        if op in (Op.BLT, Op.BGE):
            want_lt = op is Op.BLT

            def sem_signed_branch() -> int | None:
                a, b = regs[rs], regs[rt]
                if a & _SIGN:
                    a -= 1 << 64
                if b & _SIGN:
                    b -= 1 << 64
                taken = a < b if want_lt else a >= b
                return imm if taken else None
            return sem_signed_branch

        # --- system ---
        if op is Op.SYSCALL:
            npc = address + 1

            def sem_syscall() -> int:
                cpu.pc = npc
                engine.dispatch_syscall()
                if engine.exited:
                    return EXIT_GUEST
                return cpu.pc
            return sem_syscall
        if op is Op.HALT:
            def sem_halt() -> int:
                cpu.pc = address
                engine.exited = True
                engine.exit_code = regs[1]
                return EXIT_GUEST
            return sem_halt
        if op is Op.NOP:
            return lambda: None

        raise AssertionError(f"unhandled opcode {op}")  # pragma: no cover
