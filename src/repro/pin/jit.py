"""The JIT: one compile path, two lowerings of an instrumented trace.

**Threaded code** (this module) is the cold lowering: the compiled form
of a trace is a list of *steps*, one per guest instruction.  A step is
a zero-argument closure returning:

* ``None``       — fall through to the next step;
* an int >= 0    — transfer control to that guest address (trace exit);
* ``EXIT_GUEST`` — the guest terminated (exit syscall or halt).

Instrumentation is woven around the instruction semantics at lowering
time.  Un-instrumented instructions lower to their bare semantics closure,
so the instrumented-to-native overhead ratio is governed by the analysis
calls — which is the regime the paper's icount1/icount2 comparison
explores.

**Generated code** (:mod:`repro.pin.pyjit`) is the hot lowering: the
whole trace becomes one Python function.  It costs about three times as
much to produce and runs two to three times faster, so which one a trace
gets is decided per trace, from what the process has observed
(:data:`HOT_EXECUTIONS_PER_COMPILE`), by the one :meth:`Jit.compile`
both go through: same skeleton, same callbacks, same suppression plan.
``jit_backend="source"`` (:class:`~repro.pin.pyjit.SourceJit`) is this
JIT with the decision pinned to "generated".

**Compile once per process.**  A compile has a half that depends on who
is instrumenting — run the trace callbacks, plan suppression, wrap the
instrumented instructions — and a half that does not: decode the trace
and lower each instruction's architectural semantics.  A :class:`Jit`
whose ``pool`` is a dict (the JIT of a resident slice machine,
:mod:`repro.superpin.slices`, of the signature lookahead's machine and
of serial Pin's one engine; every other ``PinVM`` leaves it ``None`` and
retains nothing) keeps the second half per trace start pc as a
*skeleton* and redoes only the first half when a later run on the same
engine misses on that pc.  A skeleton is reused only when it is exactly
what ``build_trace`` would produce now (:meth:`Jit._reuse`).

**Instrument once per process, under a contract.**  The first half is a
known answer too when whoever instruments says so: a tool that declares
:attr:`~repro.pin.pintool.Pintool.pure_instrumentation` promises that
what it attaches is a function of the trace.  The engine's owner then
names one resident object (:attr:`Jit.retain_for` — a slice machine's
resident tool, whose state is the current slice's own copy) and the
pool keeps, beside the skeleton, what the last *verified* compile
produced: the still-instrumented ``TraceObj``, the threaded-code steps,
the generated function, the filter's counts.  A trace is instrumented
on its first compile, instrumented again and compared on its second
(the paper's §8 consistency check, in host time: a mismatch is an
:class:`~repro.errors.InstrumentationError`, never a wrong count), and
*served* from the third on — no callback, no wrapper, a new trace
object around kept code.  Everything a compile is accounted by happens
after that and is unchanged.  What the code observes sends a trace down
the ordinary path instead, with nothing kept: a head that is the
slice's signature pc (the detector's if/then there is per slice by
nature; ``build_trace`` and rule 1 of :meth:`Jit._reuse` make the
target a trace *head*, never an interior instruction), any if/then, a
routine or summary that is not a bound method of the resident object,
an ``IARG_PTR`` value that is not an immutable constant.  The rules:

* pooled semantics (skeletons) **may capture** only what lives as long
  as the engine — ``engine`` itself, ``engine.cpu``, ``cpu.regs`` and
  the bound ``mem.read`` / ``mem.write`` — plus constants decoded from
  the guest word; pooled *text* and code objects bind nothing at all;
* kept instrumented code **may also capture** bound methods of
  ``retain_for``, argument resolvers over ``cpu`` / ``mem``, and
  ``engine.counters`` (zeroed in place);
* nothing pooled or kept **may capture** what ``PinVM.reset`` replaces
  or a run owns: ``instr_stats`` / ``jit_stats`` (generated code
  reaches them through ``E``), the code cache, TC2, the metrics
  registry, a signature detector, a syscall handler, a slice's own
  copy of the tool, or any other object a callback handed over.

An undeclared tool keeps the whole first half: its callbacks run on
every compile, so a tool that keeps instrument-time state sees every
compile it would see on a fresh engine.

**Heat** is what a pooled JIT remembers about execution: per trace
start pc, how often the trace has run and how often it has been
compiled, for the life of the engine (:attr:`Jit.heat`).
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Callable

from ..errors import ArithmeticFault, InstrumentationError
from ..isa.instructions import MASK64, Op
from .args import build_resolver
from .filter import run_trace_callbacks
from .suppress import LoopPlan, plan_suppression
from .trace import build_trace, Ins, TraceObj

#: Sentinel step result: the guest has exited.
EXIT_GUEST = -2

#: A trace is lowered to generated code once the engine has seen it run
#: this many times *per compile* of it.  Per compile, not in total: a
#: slice re-instruments and re-emits every trace it touches, so what a
#: generated function must repay is one emission, each time — a trace
#: that runs 14 times in each of 12 slices never qualifies, one that
#: runs 320 times in each of two does.  Sized by the sweep in ROADMAP.md
#: ("Measured and left alone"); ``float("inf")`` is the pure
#: threaded-code reference, 1 lowers every repeated trace hot.
HOT_EXECUTIONS_PER_COMPILE = 150

#: A cached threaded-code trace is promoted in the middle of a run (see
#: ``PinVM._promote``) when its executions per compile, this compile
#: included, reach this many times the threshold above.  More evidence
#: than at a compile, for two reasons: the first promotion of a trace
#: pays a cold ``compile()`` (worth ≈ 190 executions), and the run may
#: be about to end — a daemon job whose loop stops at 220 has nothing
#: to repay it with.  Long runs cannot tell 1 from 3 (the traces that
#: matter run thousands of times); short ones can (ROADMAP.md).
PROMOTE_FACTOR = 3

#: ``hot_at`` of a trace that is never promoted (an int: the dispatch
#: loop compares execution counts against it).
NEVER = 1 << 62

_SIGN = 1 << 63

Step = Callable[[], int | None]


class StopRun(Exception):
    """Raised from an analysis routine to stop the engine immediately.

    Used by SuperPin's signature detector on a full match and by
    ``SP_EndSlice``.  The engine unwinds to the instruction boundary of
    the step that raised: the instruction itself does *not* execute.
    """


class CompiledTrace:
    """Executable form of one trace (threaded code)."""

    __slots__ = ("start", "steps", "addresses", "fall_address", "num_ins",
                 "bbl_sizes", "links", "exec_count", "heat", "hot_at")

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
        #: The TC2 promotion trigger — *not* an execution count: only
        #: maintained when ``-sptc2 > 0``, zeroed by a declined
        #: promotion, a superblock eviction and a TC2 flush, and blind
        #: to runs inside a superblock.  Executions are ``heat[0]``.
        self.exec_count = 0
        #: This pc's ``[executions, compiles]`` cell of ``Jit.heat``
        #: (None off a pooled engine) and the ``executions`` at which
        #: the engine re-lowers this trace as generated code.
        self.heat: list[int] | None = None
        self.hot_at = NEVER


@dataclass
class JitStats:
    """What a JIT's pool and its choice of lowering did during one run
    (``pin.jit.*``).

    Host-side only: pooling changes how long a compile takes and the
    lowering how fast its product runs, never what either computes, so
    none of this reaches a ``SliceResult``.
    """

    #: Compiles whose decoded trace came from the pool.
    skeleton_reuses: int = 0
    #: Pooled skeletons thrown away because the guest words under them
    #: changed (self-modified code, another program at that address).
    rejects_words: int = 0
    #: ... because this run's forced boundaries cut the trace somewhere
    #: else than the run that pooled it.
    rejects_cut: int = 0
    #: Compiles lowered to generated code.
    hot_compiles: int = 0
    #: Cached threaded-code traces re-lowered as generated code when
    #: they crossed the mark in the middle of the run.
    promotions: int = 0
    #: Guest instructions retired in generated code.
    hot_instructions: int = 0
    #: Compiles served from kept instrumented code: no trace callback,
    #: no call wrapper (see "Instrument once per process").
    instrumentation_reuses: int = 0
    #: First reuses: instrumented again and compared with what the
    #: previous compile attached.
    instrumentation_checks: int = 0
    #: Compiles under a declaring tool sent down the ordinary path by
    #: something observed: a signature-pc head, an if/then, a routine
    #: that is no bound method of the resident tool, a mutable argument.
    instrumentation_declined: int = 0


class _Skeleton:
    """The run-independent half of one compiled trace."""

    __slots__ = ("trace_obj", "instructions", "sems", "texts", "codes",
                 "addresses", "bbl_sizes", "words", "cut", "owner", "kept")

    def __init__(self, trace_obj: TraceObj):
        self.trace_obj = trace_obj
        self.instructions = trace_obj.instructions
        #: What each lowering keeps of its run-independent work, filled
        #: in by the first compile that takes it.  Threaded code:
        #: ``sems[i]`` is the semantics closure of ``instructions[i]``.
        self.sems: list[Step] | None = None
        #: Generated code: ``texts[i]`` is the semantics source of
        #: ``instructions[i]`` (None where it depends on the run), and
        #: ``codes`` maps a whole trace's source text to its code
        #: object — one entry per distinct instrumentation.  A code
        #: object binds nothing: every name it uses resolves in the
        #: namespace it is rebound over, built anew by each compile.
        self.texts: list[tuple[str, ...] | None] | None = None
        self.codes: dict[str, object] | None = None
        self.addresses = [ins.address for ins in self.instructions]
        self.bbl_sizes = [bbl.num_ins for bbl in trace_obj.bbls]
        #: Validation data, filled in by the first *reuse* (a run that
        #: never revisits a trace — most daemon jobs — pays nothing).
        self.words: list[int] | None = None
        self.cut = False
        #: The ``Jit.retain_for`` whose instrumentation ``trace_obj``
        #: still carries (None: anyone's, or none), and what the last
        #: verified compile under it produced.  ``kept`` is only ever
        #: set while ``trace_obj`` carries exactly the instrumentation
        #: it was lowered from.
        self.owner: object | None = None
        self.kept: _Kept | None = None


class _Kept:
    """The run-dependent half of one compiled trace, verified pure."""

    __slots__ = ("skipped", "fastpath", "plan", "steps", "fn", "source")

    def __init__(self, skipped: int, fastpath: int, plan: LoopPlan | None):
        #: What the filter counted while the callbacks ran
        #: (``skipped_callbacks`` / ``fastpath_traces``), re-applied by
        #: every compile served from here.
        self.skipped = skipped
        self.fastpath = fastpath
        self.plan = plan
        #: Each lowering's product, filled in by the first compile (or
        #: promotion) that takes it.
        self.steps: list[Step] | None = None
        self.fn = None
        self.source: str | None = None


def _constant(value) -> bool:
    """True for a value no analysis routine can change."""
    if isinstance(value, (tuple, frozenset)):
        return all(_constant(item) for item in value)
    return value is None or isinstance(value, (int, float, str, bytes))


def _calls(instructions: list[Ins]) -> list[tuple]:
    """What is attached to ``instructions`` right now, comparable with
    what is attached after ``clear_calls`` and another instrumentation
    (``clear_calls`` rebinds the collections, it does not empty them)."""
    return [(ins.before_calls, ins.after_calls, ins.taken_calls,
             ins.if_then) for ins in instructions]


def _servable(attached: list[tuple], owner) -> bool:
    """True when code lowered from what :func:`_calls` found binds
    nothing a later run must not see: no if/then pair, every routine
    and summary a bound method of ``owner``, every argument value an
    immutable constant."""
    method = types.MethodType
    for before, after, taken, if_then in attached:
        if if_then:
            return False
        for calls in (before, after, taken):
            for call in calls:
                fn, summary = call.fn, call.summary
                if (type(fn) is not method or fn.__self__ is not owner
                        or (summary is not None
                            and (type(summary) is not method
                                 or summary.__self__ is not owner))):
                    return False
                for _, value in call.specs:
                    if not _constant(value):
                        return False
    return True


class Jit:
    """Compiles guest code regions for one engine."""

    #: True pins every trace to the generated-code lowering
    #: (:class:`~repro.pin.pyjit.SourceJit`).
    all_generated = False

    def __init__(self, engine):
        self._engine = engine
        #: ``start pc -> _Skeleton`` kept across runs of this engine, or
        #: None (retain nothing).  Set by whoever keeps the engine
        #: resident; see the module docstring.
        self.pool: dict[int, _Skeleton] | None = None
        #: ``start pc -> [executions, compiles]``, monotone for the life
        #: of a pooled engine (empty off one): what the choice of
        #: lowering — and a profile — reads.  Compiles are counted here;
        #: executions by whoever runs the trace (the dispatch loop
        #: through ``trace.heat``, a superblock through its tally).
        self.heat: dict[int, list[int]] = {}
        #: The resident object whose bound methods kept instrumented
        #: code may bind — set, per run, by whoever knows that the
        #: instrumentation about to be registered is a pure function of
        #: the trace and comes from this object alone (a slice machine
        #: for a declaring tool; the signature lookahead for its own
        #: counters).  None: instrument every compile, keep nothing.
        self.retain_for: object | None = None

    def forget_instrumentation(self) -> None:
        """Drop everything kept for ``retain_for`` and its predecessors
        (skeletons stay: they are nobody's)."""
        self.retain_for = None
        for skeleton in self.pool.values():
            skeleton.owner = skeleton.kept = None

    def compile(self, address: int):
        """Build, instrument and lower the trace starting at ``address``
        — as generated code if it has earned it, else as threaded code.

        Under ``retain_for`` the instrumenting half is served from what an
        earlier compile kept, checked against it, or marked for the
        next (module docstring); the lowering and everything the caller
        accounts the compile by are the same either way.
        """
        engine = self._engine
        stats = engine.jit_stats
        istats = engine.instr_stats
        skeleton, reused = self._skeleton(address)
        trace_obj = skeleton.trace_obj

        # Who may be served, or checked: a trace this very resident
        # object instrumented last, at a head the slice's detector does
        # not instrument (the signature pc is only ever a trace head).
        owner = self.retain_for
        kept = reference = None
        if owner is not None and address in engine.forced_boundaries:
            owner = None
            stats.instrumentation_declined += 1
        if reused and owner is not None and skeleton.owner is owner:
            kept = skeleton.kept
            if kept is None:
                # First reuse: what the previous compile attached is
                # still on the trace, and is the reference.
                reference = _calls(skeleton.instructions)

        if kept is not None:
            stats.instrumentation_reuses += 1
            istats.skipped_callbacks += kept.skipped
            istats.fastpath_traces += kept.fastpath
            plan = kept.plan
        else:
            # Nobody's until the callbacks have run to the end: one that
            # raises leaves a half-instrumented trace behind.
            skeleton.owner = skeleton.kept = None
            if reused:
                for ins in skeleton.instructions:
                    ins.clear_calls()
            skipped, fastpath = (istats.skipped_callbacks,
                                 istats.fastpath_traces)
            run_trace_callbacks(engine, trace_obj)
            plan = plan_suppression(engine, trace_obj)
            if reference is not None:
                attached = _calls(skeleton.instructions)
                if not _servable(attached, owner):
                    owner = None
                    stats.instrumentation_declined += 1
                else:
                    # ``_Call`` equality: ipoint, routine and summary
                    # (bound methods of one object: their functions),
                    # arguments.
                    stats.instrumentation_checks += 1
                    if attached != reference:
                        raise InstrumentationError(
                            f"{type(owner).__name__} declares "
                            f"pure_instrumentation, but its second "
                            f"instrumentation of the trace at "
                            f"{address:#x} differs from its first")
                    skeleton.kept = _Kept(
                        istats.skipped_callbacks - skipped,
                        istats.fastpath_traces - fastpath, plan)
            skeleton.owner = owner

        cell = (self.heat.setdefault(address, [0, 0])
                if self.pool is not None else None)
        # A summarized loop has one lowering: a loop is what generated
        # code is for, and its invocations retire whole iterations.
        if (self.all_generated or plan is not None
                or (cell is not None and cell[1] and cell[0]
                    >= cell[1] * HOT_EXECUTIONS_PER_COMPILE)):
            trace = self._lower_generated(skeleton, plan)
            stats.hot_compiles += 1
        else:
            trace = CompiledTrace(address, self._lower_threaded(skeleton),
                                  skeleton.addresses,
                                  trace_obj.fall_address,
                                  skeleton.bbl_sizes)
        if cell is not None:
            cell[1] += 1
            trace.heat = cell
            if not trace.is_source:
                trace.hot_at = self._mark(cell)
        return trace

    @staticmethod
    def _mark(cell: list[int]) -> int:
        """The ``executions`` at which the product of this pc's latest
        compile has earned generated code."""
        return min(cell[1] * HOT_EXECUTIONS_PER_COMPILE * PROMOTE_FACTOR,
                   NEVER)

    def promote(self, trace: CompiledTrace):
        """The generated-code form of cached threaded-code ``trace``,
        which has just crossed its mark — or None.

        Re-lowered from the still-instrumented ``TraceObj`` the pooled
        skeleton holds (or taken from what an earlier slice kept of
        it), so no trace callback runs: a virtual compile fires its
        callbacks at most once, however often its product is
        re-lowered.  That is only sound for the product of this pc's
        latest compile off this very skeleton (anything else carries
        other instrumentation), which is what the two checks establish.
        """
        skeleton = self.pool.get(trace.start)
        if (skeleton is None or skeleton.addresses is not trace.addresses
                or trace.hot_at != self._mark(trace.heat)):
            return None
        new = self._lower_generated(skeleton, None)
        new.heat = trace.heat
        self._engine.jit_stats.promotions += 1
        return new

    # -- the run-independent half ----------------------------------------------

    def _skeleton(self, address: int) -> tuple[_Skeleton, bool]:
        """The decoded trace at ``address`` and whether it is a pooled
        one: pooled if this engine built it before and it is still what
        ``build_trace`` would produce, otherwise built (and pooled)."""
        engine = self._engine
        pool = self.pool
        if pool is not None:
            skeleton = pool.get(address)
            if skeleton is not None and self._reuse(skeleton, address):
                return skeleton, True
        skeleton = _Skeleton(build_trace(
            engine.mem, address, forced_boundaries=engine.forced_boundaries,
            max_ins=engine.max_trace_ins))
        if pool is not None:
            pool[address] = skeleton
        return skeleton, False

    def _reuse(self, skeleton: _Skeleton, address: int) -> bool:
        """True if ``skeleton`` is exactly the trace ``build_trace``
        would decode now (it still carries the instrumentation of its
        last compile).

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
        stats.skeleton_reuses += 1
        return True

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

    # -- lowering ------------------------------------------------------------

    def _lower_threaded(self, skeleton: _Skeleton) -> list[Step]:
        """``skeleton``'s instrumented trace as threaded code: the kept
        steps, else each pooled semantics closure wrapped in its
        instruction's calls."""
        kept = skeleton.kept
        if kept is not None and kept.steps is not None:
            return kept.steps
        if skeleton.sems is None:
            skeleton.sems = [self._lower_semantics(ins)
                             for ins in skeleton.instructions]
        lower = self._lower_calls
        steps = [lower(ins, sem) for ins, sem
                 in zip(skeleton.instructions, skeleton.sems)]
        if kept is not None:
            kept.steps = steps
        return steps

    def _lower_generated(self, skeleton: _Skeleton, plan: LoopPlan | None):
        """Lower ``skeleton``'s instrumented trace to one generated
        function (see :mod:`repro.pin.pyjit`), by the cheapest means
        that applies: the kept function, else a pooled code object for
        the same text, else ``compile()``."""
        # Imported here: pyjit builds on this module.
        from .pyjit import _Emitter, SourceCompiledTrace
        engine = self._engine
        trace_obj = skeleton.trace_obj
        address = trace_obj.address
        kept = skeleton.kept
        if plan is not None:
            engine.instr_stats.summarized_loops += 1
        if kept is not None and kept.fn is not None:
            fn, source = kept.fn, kept.source
        else:
            if skeleton.codes is None and self.pool is not None:
                skeleton.texts = [None] * len(skeleton.instructions)
                skeleton.codes = {}
            emitter = _Emitter(engine)
            if plan is not None:
                emitter.emit_suppressed_loop(plan)
            else:
                emitter.lower_all(skeleton.instructions, skeleton.texts)
            source = emitter.source_text(address)
            codes = skeleton.codes
            code = codes.get(source) if codes is not None else None
            if code is None:
                fn = emitter.finish(source, address)
                code = fn.__code__
            else:
                # Rebinding the code object over this emitter's
                # namespace skips compile() entirely.
                fn = types.FunctionType(code, emitter.namespace,
                                        "__trace__")
            if codes is not None:
                codes[source] = code
            if kept is not None:
                kept.fn, kept.source = fn, source
        return SourceCompiledTrace(
            start=address, fn=fn, num_ins=len(skeleton.instructions),
            fall_address=trace_obj.fall_address, source=source,
            bbl_sizes=skeleton.bbl_sizes, unbounded=plan is not None)

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
