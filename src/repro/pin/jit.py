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

**Compile once per process.**  A compile has a half that depends on who
is instrumenting — run the trace callbacks, plan suppression, wrap the
instrumented instructions — and a half that does not: decode the trace
and lower each instruction's architectural semantics.  A :class:`Jit`
whose ``pool`` is a dict (the JIT of a resident slice machine,
:mod:`repro.superpin.slices`; every other ``PinVM`` leaves it ``None``
and retains nothing) keeps the second half per trace start pc as a
*skeleton* and redoes only the first half when a later run on the same
engine misses on that pc.  The pool is tool-independent by construction,
and that is its whole safety argument:

* pooled code **may capture** only what lives as long as the engine —
  ``engine`` itself, ``engine.cpu``, ``cpu.regs`` and the bound
  ``mem.read`` / ``mem.write`` — plus constants decoded from the guest
  word;
* pooled code **must never capture** anything a run owns: a tool or its
  analysis routines, a signature detector, a syscall handler, the code
  cache, TC2, the metrics registry, resolvers, or ``_Call`` lists.  All
  of those reach compiled code only through the per-run wrapper
  (:meth:`Jit._lower_calls`), which is rebuilt on every compile.

A skeleton is reused only when it is exactly what ``build_trace`` would
produce now (:meth:`Jit._reuse`); the callbacks run every time, so a
tool that keeps instrument-time state sees every compile it would see
on a fresh engine.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class JitStats:
    """What a JIT's pool did during one run (``pin.jit.skeleton_*``).

    Host-side only: pooling changes how long a compile takes, never
    what it produces, so none of this reaches a ``SliceResult``.
    """

    #: Compiles served from pooled work (closure backend: a skeleton;
    #: source backend: a code object for the same source text).
    skeleton_reuses: int = 0
    #: Pooled skeletons thrown away because the guest words under them
    #: changed (self-modified code, another program at that address).
    rejects_words: int = 0
    #: ... because this run's forced boundaries cut the trace somewhere
    #: else than the run that pooled it.
    rejects_cut: int = 0


class _Skeleton:
    """The run-independent half of one compiled trace."""

    __slots__ = ("trace_obj", "instructions", "sems", "addresses",
                 "bbl_sizes", "words", "cut")

    def __init__(self, trace_obj: TraceObj, sems: list[Step]):
        self.trace_obj = trace_obj
        self.instructions = trace_obj.instructions
        #: ``sems[i]`` is the semantics closure of ``instructions[i]``.
        self.sems = sems
        self.addresses = [ins.address for ins in self.instructions]
        self.bbl_sizes = [bbl.num_ins for bbl in trace_obj.bbls]
        #: Validation data, filled in by the first *reuse* (a run that
        #: never revisits a trace — most daemon jobs — pays nothing).
        self.words: list[int] | None = None
        self.cut = False


class Jit:
    """Compiles guest code regions for one engine."""

    def __init__(self, engine):
        self._engine = engine
        #: ``start pc -> _Skeleton`` kept across runs of this engine, or
        #: None (retain nothing).  Set by whoever keeps the engine
        #: resident; see the module docstring.
        self.pool: dict[int, _Skeleton] | None = None

    def compile(self, address: int) -> CompiledTrace:
        """Build, instrument and lower the trace starting at ``address``."""
        engine = self._engine
        skeleton = self._skeleton(address)
        trace_obj = skeleton.trace_obj
        run_trace_callbacks(engine, trace_obj)

        plan = plan_suppression(engine, trace_obj)
        if plan is not None:
            return self._compile_suppressed(skeleton, plan)

        lower = self._lower_calls
        steps = [lower(ins, sem) for ins, sem
                 in zip(skeleton.instructions, skeleton.sems)]
        return CompiledTrace(address, steps, skeleton.addresses,
                             trace_obj.fall_address, skeleton.bbl_sizes)

    # -- the run-independent half ----------------------------------------------

    def _skeleton(self, address: int) -> _Skeleton:
        """The decoded trace at ``address`` and its semantics closures:
        pooled if this engine built it before and it is still what
        ``build_trace`` would produce, otherwise built (and pooled)."""
        engine = self._engine
        pool = self.pool
        if pool is not None:
            skeleton = pool.get(address)
            if skeleton is not None and self._reuse(skeleton, address):
                return skeleton
        trace_obj = build_trace(engine.mem, address,
                                forced_boundaries=engine.forced_boundaries,
                                max_ins=engine.max_trace_ins)
        lower = self._lower_semantics
        skeleton = _Skeleton(trace_obj, [lower(ins) for ins
                                         in trace_obj.instructions])
        if pool is not None:
            pool[address] = skeleton
        return skeleton

    def _reuse(self, skeleton: _Skeleton, address: int) -> bool:
        """True — with ``skeleton`` wiped of the last run's
        instrumentation — if it is exactly the trace ``build_trace``
        would decode now.

        ``build_trace`` is a function of the guest words, the start pc,
        the forced boundaries and the length cap.  The cap is the
        engine's; the rest is checked here: (1) no forced boundary of
        this run lies strictly inside the trace — it would have to be
        re-cut there so detection sits at a trace head; (2) a trace
        that ended early *because* a boundary was forced at its end may
        only be reused where that end is forced again — anywhere else
        it must extend; (3) the guest words are the ones decoded, which
        is also what catches code the master rewrote between two
        boundaries and another program loaded at the same address.
        """
        engine = self._engine
        stats = engine.jit_stats
        instructions = skeleton.instructions
        if skeleton.words is None:
            skeleton.words = [ins.raw for ins in instructions]
            last = instructions[-1].info
            skeleton.cut = (len(instructions) < engine.max_trace_ins
                            and not (last.is_control
                                     and not last.is_cond_branch))
        forced = engine.forced_boundaries
        end = address + len(instructions)
        if (any(address < pc < end for pc in forced)
                or (skeleton.cut and end not in forced)):
            stats.rejects_cut += 1
            return False
        if not engine.mem.same_words(address, skeleton.words):
            stats.rejects_words += 1
            return False
        for ins in instructions:
            ins.clear_calls()
        stats.skeleton_reuses += 1
        return True

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
        step = self._lower_calls(ins, self._lower_semantics(ins))
        return CompiledTrace(address, [step], [ins.address],
                             trace_obj.fall_address,
                             [bbl.num_ins for bbl in trace_obj.bbls])

    # -- redundancy suppression ----------------------------------------------

    def _compile_suppressed(self, skeleton: _Skeleton,
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
        trace_obj = skeleton.trace_obj
        stats = engine.instr_stats
        stats.summarized_loops += 1
        counters = engine.counters

        # The plan's body is the trace's first BBL and its rest the
        # remainder, so the skeleton's closures map onto it by position.
        sems = skeleton.sems
        m = plan.body_len
        body_sems = sems[:m - 1]
        tail_sem = sems[m - 1]
        rest_steps = [self._lower_calls(ins, sem)
                      for ins, sem in zip(plan.rest, sems[m:])]
        rest_addrs = skeleton.addresses[m:]
        start = plan.start
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
            start=start, fn=fn, num_ins=len(sems),
            fall_address=fall, bbl_sizes=skeleton.bbl_sizes)

    # -- lowering ------------------------------------------------------------

    def _lower_calls(self, ins: Ins, sem: Step) -> Step:
        """The run-dependent half: ``sem`` wrapped in ``ins``'s analysis
        calls — or ``sem`` itself when it has none, which is every
        instruction of a fast-path trace and most of any other."""
        if not (ins.before_calls or ins.if_then or ins.after_calls
                or ins.taken_calls):
            return sem
        engine = self._engine
        cpu, mem = engine.cpu, engine.mem

        def lower_calls(calls, taken_target=None):
            return tuple([
                (call.fn, build_resolver(call.specs, ins, cpu, mem,
                                         taken_target=taken_target))
                for call in calls]) if calls else ()

        before = lower_calls(ins.before_calls)
        after = lower_calls(ins.after_calls)
        taken = lower_calls(ins.taken_calls, taken_target=0)
        if_then = tuple(
            (pair[0].fn, build_resolver(pair[0].specs, ins, cpu, mem),
             pair[1].fn, build_resolver(pair[1].specs, ins, cpu, mem))
            for pair in ins.if_then)

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
