"""The Pin virtual machine: dispatcher + code cache + JIT + emulator.

One :class:`PinVM` instruments one guest process.  The structure mirrors
the paper's description of Pin (§2.2): a dispatcher decides whether the
next region is already in the code cache or must be compiled; the JIT
compiles and instruments traces; system calls are emulated through the
process's syscall handler (the seam SuperPin's record/playback plugs
into).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

from ..errors import GuestFault
from ..machine.kernel import SyscallOutcome
from ..machine.process import Process
from ..obs.metrics import NULL_METRICS
from .codecache import CodeCache
from .filter import InstrumentationStats
from .jit import CompiledTrace, EXIT_GUEST, Jit, JitStats, NEVER, StopRun
from .trace import MAX_TRACE_INS


class RunState(enum.Enum):
    """Why :meth:`PinVM.run` returned."""

    EXIT = "exit"        # guest exited normally
    STOPPED = "stopped"  # an analysis routine raised StopRun
    BUDGET = "budget"    # instruction budget exhausted (runaway guard)
    SYSCALL = "syscall"  # a trace retired a syscall (stop_after_syscall)
    COLD = "cold"        # the compile gate handed the next pc back


@dataclass
class PinRunResult:
    """Execution statistics for one :meth:`PinVM.run` call."""

    state: RunState
    instructions: int
    traces_executed: int
    analysis_calls: int
    inline_checks: int
    syscalls: int
    exit_code: int = 0
    #: Payload attached by the StopRun raiser (e.g. the signature detector).
    stop_token: object | None = None
    #: Trace transitions taken through a direct link, bypassing the
    #: dispatcher (0 when linking is disabled).
    linked_dispatches: int = 0
    #: Superblock executions served from the second translation cache
    #: (0 when TC2 is disabled; see repro.pin.superblock).
    tc2_dispatches: int = 0


class PinVM:
    """Dynamic instrumentation engine for one guest process."""

    def __init__(self, process: Process,
                 max_trace_ins: int = MAX_TRACE_INS,
                 forced_boundaries: frozenset[int] | None = None,
                 code_cache: CodeCache | None = None,
                 jit_backend: str = "closure",
                 link_traces: bool = True,
                 metrics=NULL_METRICS,
                 suppress_loops: bool = False,
                 tc2_threshold: int = 0,
                 compile_gate=None):
        # What lasts as long as the engine: the machine state it runs
        # on, and the JIT whose code closes over that state.  Everything
        # else belongs to one run and is (re)built by ``reset``.
        self.process = process
        self.cpu = process.cpu
        self.mem = process.mem
        self.max_trace_ins = max_trace_ins
        #: [analysis_calls, inline_checks] — mutated by compiled steps.
        self.counters = [0, 0]
        # One JIT, two lowerings (repro.pin.jit): "closure" starts every
        # trace as threaded code and lets the JIT lower the hot ones to
        # generated code; "source" pins every trace to generated code.
        if jit_backend == "closure":
            self.jit = Jit(self)
        elif jit_backend == "source":
            from .pyjit import SourceJit
            self.jit = SourceJit(self)
        else:
            from ..errors import ConfigError
            raise ConfigError(
                f"unknown jit_backend {jit_backend!r}; "
                f"choose 'closure' or 'source'")
        self.jit_backend = jit_backend
        self.reset(forced_boundaries=forced_boundaries,
                   code_cache=code_cache, link_traces=link_traces,
                   metrics=metrics, suppress_loops=suppress_loops,
                   tc2_threshold=tc2_threshold, compile_gate=compile_gate)

    def reset(self, forced_boundaries: frozenset[int] | None = None,
              code_cache: CodeCache | None = None,
              link_traces: bool = True,
              metrics=NULL_METRICS,
              suppress_loops: bool = False,
              tc2_threshold: int = 0,
              compile_gate=None) -> None:
        """Make this engine what a newly built one would be.

        The constructor's second half, and the whole of a context switch
        for an engine that stays resident across runs (a slice machine,
        :mod:`repro.superpin.slices`): every per-run field is rebuilt
        here and nowhere else, so a run on a reset engine is bit for bit
        a run on a fresh one — cold code cache, no callbacks, zeroed
        statistics.  What survives is identity only: ``process`` /
        ``cpu`` / ``mem``, the ``counters`` list (zeroed in place —
        generated code holds it) and ``jit``.
        """
        self.forced_boundaries = forced_boundaries or frozenset()
        #: Observability counters (repro.obs).  JIT compiles are counted
        #: live (a compile is already slow); per-dispatch cache lookups
        #: stay in CacheStats and are folded into the registry at slice
        #: end, keeping the dispatch loop free of metric calls.
        self.metrics = metrics
        # Note: an empty CodeCache is falsy (it has __len__), so test
        # identity rather than truth.
        self.cache = (code_cache if code_cache is not None
                      else CodeCache(metrics=metrics))
        #: Direct trace linking (Pin's exit-stub patching): steady-state
        #: execution chains trace -> trace through per-trace ``links``
        #: dicts, patched lazily on first transition, touching the
        #: dispatcher only on cold exits.  Architecturally invisible —
        #: differential tests enforce identical results either way.
        self.link_traces = link_traces
        #: Redundancy suppression (repro.pin.suppress): legal back-edge
        #: loops compile with their invariant instrumentation summarized
        #: to one call per loop exit.
        self.suppress_loops = suppress_loops
        #: Tier-2 execution (repro.pin.superblock): promote trace chains
        #: whose execution counter crosses ``tc2_threshold`` into hot
        #: superblocks in a second translation cache.  Chains are found
        #: by following direct links, so TC2 requires linking.
        self.tc2 = None
        if tc2_threshold > 0 and link_traces:
            from .superblock import TranslationCache2
            self.tc2 = TranslationCache2(self, tc2_threshold, self.cache,
                                         metrics=metrics)
            self.cache.attach_tc2(self.tc2)
        #: Selective-instrumentation / suppression counters, folded into
        #: the metrics registry at slice end (``pin.filter.*`` /
        #: ``pin.suppress.*``).
        self.instr_stats = InstrumentationStats()
        #: What the JIT's in-process pool did for this run (see
        #: repro.pin.jit), folded at slice end like ``instr_stats``.
        self.jit_stats = JitStats()
        #: ``gate(pc) -> bool`` for an engine that is the hot tier of a
        #: tiered executor (the SuperPin master) and has a cold tier to
        #: hand back to: on a dispatcher miss the gate decides whether
        #: ``pc`` is worth compiling, and a refusal ends the run with
        #: ``RunState.COLD``, nothing compiled or inserted.  With a gate
        #: set an exact-budget run also returns ``COLD`` where it would
        #: otherwise land the tail on step traces — the cold tier lands
        #: it.  None (every instrumenting client) compiles every miss.
        self.compile_gate = compile_gate
        #: Unwind markers maintained by generated code (source backend);
        #: a loop form that raises also leaves the executions it had
        #: started, the raising one included.
        self._stop_pc = 0
        self._stop_count = 0
        self._stop_trips = 0
        #: Single-instruction traces for the exact-budget mode, keyed by
        #: pc.  Kept outside the code cache so exact landings never
        #: change trace shapes, statistics or bubble accounting; cleared
        #: with the cache whenever instrumentation changes.
        self._step_cache: dict[int, CompiledTrace] = {}
        self._step_jit: Jit | None = None
        #: (callback, value, filter) triples called for every newly
        #: compiled trace; ``filter`` is an InstrumentFilter or None
        #: (always instrument).
        self.trace_callbacks: list[tuple[object, object, object]] = []
        #: Called with each SyscallOutcome right after a syscall executes.
        self.syscall_observers: list[object] = []
        self.counters[:] = (0, 0)
        self.exited = False
        self.exit_code = 0
        self.total_instructions = 0
        self.total_traces_executed = 0
        self.total_syscalls = 0

    # -- instrumentation registration ---------------------------------------

    def add_trace_callback(self, callback, value: object = None,
                           trace_filter=None) -> None:
        """Register ``callback(trace, value)`` (TRACE_AddInstrumentFunction).

        ``trace_filter`` optionally restricts the callback to traces
        containing at least one matching instruction (an
        :class:`~repro.pin.filter.InstrumentFilter`); non-matching
        traces skip this callback and compile as uninstrumented
        fast-path traces.  Adding a callback invalidates previously
        compiled code, exactly as late instrumentation does in Pin.
        """
        self.trace_callbacks.append((callback, value, trace_filter))
        self._step_cache.clear()
        if len(self.cache) or (self.tc2 is not None and len(self.tc2)):
            # Flushing tier 1 cascades into TC2 (CodeCache.attach_tc2),
            # so late instrumentation can never reach a stale superblock.
            self.cache.flush()

    def add_syscall_observer(self, observer) -> None:
        """Register ``observer(outcome)`` called after every syscall."""
        self.syscall_observers.append(observer)

    # -- syscall plumbing ----------------------------------------------------

    def dispatch_syscall(self) -> SyscallOutcome:
        """Route a guest syscall through the process's handler."""
        outcome = self.process.syscall_handler.do_syscall(self.cpu, self.mem)
        self.total_syscalls += 1
        if outcome.exited:
            self.exited = True
            self.exit_code = outcome.exit_code
            self.process.exited = True
            self.process.exit_code = outcome.exit_code
        for observer in self.syscall_observers:
            observer(outcome)
        return outcome

    # -- execution -----------------------------------------------------------

    def _step_trace(self, pc: int) -> CompiledTrace:
        """A single-instruction trace at ``pc`` (exact-budget landings).

        Compiled with the closure backend regardless of the configured
        backend (one instruction has no codegen advantage), carrying the
        engine's instrumentation like any cold compile, and cached
        outside the code cache so trace shapes and cache statistics stay
        untouched.
        """
        trace = self._step_cache.get(pc)
        if trace is None:
            if self._step_jit is None:
                self._step_jit = Jit(self)
            trace = self._step_jit.compile_step(pc)
            self._step_cache[pc] = trace
        return trace

    def _promote(self, trace):
        """``trace`` has run ``hot_at`` times: put its generated-code
        form in its place; returns what to execute now.

        The swap is invisible to the virtual account — no callback
        runs, nothing is compiled, inserted, charged or evicted, TC2
        keeps its chains — so only host time can tell a promoted run
        from an unpromoted one.
        """
        timed = self.metrics.enabled
        if timed:
            started = time.perf_counter()
        new = (self.jit.promote(trace)
               if self.cache.get(trace.start) is trace else None)
        trace.hot_at = NEVER
        if new is None:
            return trace
        new.links, trace.links = trace.links, {}
        new.exec_count = trace.exec_count
        self.cache.replace(trace, new)
        if timed:
            self.metrics.observe("pin.jit.promote_seconds",
                                 time.perf_counter() - started)
        return new

    def run(self, max_instructions: int | None = None,
            exact_budget: bool = False,
            stop_after_syscall: bool = False) -> PinRunResult:
        """Execute the guest under instrumentation.

        Runs until the guest exits, an analysis routine raises
        :class:`StopRun`, or ``max_instructions`` is exceeded.  By
        default the budget is checked at trace granularity — a runaway
        guard, not a precise budget.

        With ``exact_budget`` set (and a budget given), the run retires
        *exactly* ``max_instructions`` instructions before reporting
        ``BUDGET`` — the interpreter's semantics: the Nth instruction
        executes even when it is a syscall, and ``cpu.pc`` is then the
        next unexecuted instruction.  Guest exit at or before the Nth
        instruction still reports ``EXIT``.  Mechanism: a trace (any
        tier) only runs whole when its worst-case retirement fits the
        remaining allowance; superblocks stop at segment boundaries
        pre-emptively, and the last few instructions land through
        single-instruction step traces (still instrumented, kept outside
        the code cache).

        With ``stop_after_syscall`` the run returns ``SYSCALL`` right
        after any trace that retired a syscall (a syscall always ends
        its trace), ``cpu.pc`` where the handler left it — the
        interpreter's mode of that name; the outcome itself goes to the
        syscall observers.  A guest fault leaves ``cpu.pc`` at the
        faulting instruction, which does not count as retired — whether
        an instruction raised it or the fetch of the next trace did —
        and the engine's totals count everything retired before it.
        """
        cpu = self.cpu
        cache = self.cache
        jit = self.jit
        counters = self.counters
        start_calls, start_checks = counters
        start_syscalls = self.total_syscalls
        executed = 0
        traces_executed = 0
        linking = self.link_traces
        linked = 0
        budget = max_instructions if max_instructions is not None else -1
        budgeted = budget >= 0
        exact = exact_budget and budgeted
        gate = self.compile_gate
        # Tier-2 bookkeeping: superblock runners count their own
        # dispatches and per-segment executions; the deltas correct
        # ``traces_executed`` so tier-2 runs report the same figure a
        # pure tier-1 run would (each segment was one tier-1 trace).
        tc2 = self.tc2
        threshold = tc2.threshold if tc2 is not None else 0
        tc2_stats = tc2.stats if tc2 is not None else None
        seg_mark = tc2_stats.segments if tc2 is not None else 0
        disp_mark = tc2_stats.dispatches if tc2 is not None else 0
        stepped_mark = tc2_stats.stepped if tc2 is not None else 0
        looped_mark = tc2_stats.looped if tc2 is not None else 0
        # A pooled engine keeps heat (see repro.pin.jit): it counts
        # every trace execution and promotes a trace that crosses its
        # mark.  ``generated`` is what the source path retired.
        promoting = jit.pool is not None
        counting = promoting or threshold
        generated = 0
        looped = 0
        state = RunState.EXIT
        stop_token: object | None = None

        pc = cpu.pc
        # ``trace`` carries a linked successor into the next iteration;
        # ``prev`` is the trace that just executed, awaiting a patch.
        trace: CompiledTrace | None = None
        prev: CompiledTrace | None = None
        try:
            while not self.exited:
                if budgeted and executed >= budget:
                    state = RunState.BUDGET
                    break
                if trace is None:
                    # The dispatcher prefers TC2: a promoted superblock
                    # shadows its head trace (which stays cached for
                    # mid-chain entries and mispredict fallback).
                    trace = tc2.get(pc) if tc2 is not None else None
                    if trace is None:
                        trace = cache.lookup(pc)
                    if trace is None:
                        if gate is not None and not gate(pc):
                            state = RunState.COLD
                            break
                        timed = self.metrics.enabled
                        if timed:
                            # A miss is already slow: time each directly.
                            compile_start = time.perf_counter()
                        trace = jit.compile(pc)
                        if timed:
                            self.metrics.observe(
                                "pin.jit.compile_seconds",
                                time.perf_counter() - compile_start)
                            self.metrics.inc("pin.jit.compiles")
                            self.metrics.observe("pin.jit.trace_ins",
                                                 trace.num_ins)
                        cache.insert(pc, trace, trace.num_ins)
                    if linking and prev is not None:
                        # Patch the predecessor's exit stub: the next time
                        # it exits to ``pc`` the dispatcher is bypassed.
                        prev.links[pc] = trace
                step_sub = False
                if exact:
                    remaining = budget - executed
                    if trace.tier == 2 and (trace.unbounded
                                            or trace.num_ins > remaining):
                        # A superblock that cannot finish inside the
                        # allowance demotes to its still-cached tier-1 head.
                        fallback = cache.lookup(pc)
                        if fallback is not None:
                            trace = fallback
                    if trace.unbounded or trace.num_ins > remaining:
                        if gate is not None:
                            state = RunState.COLD
                            break
                        # Worst-case retirement exceeds the allowance: land
                        # the tail one instrumented instruction at a time.
                        trace = self._step_trace(pc)
                        step_sub = True
                traces_executed += 1
                if counting and not step_sub:
                    if trace.tier == 1:
                        if promoting:
                            heat = trace.heat
                            # (None: compiled before the pool was set.)
                            if heat is not None:
                                runs = heat[0] + 1
                                heat[0] = runs
                                if runs >= trace.hot_at:
                                    trace = self._promote(trace)
                        if threshold:
                            hotness = trace.exec_count + 1
                            trace.exec_count = hotness
                            if hotness == threshold:
                                tc2.maybe_promote(trace)
                    elif promoting and trace.tally[0] >= trace.ripe_at:
                        for segment in tc2.ripe_segments(trace):
                            self._promote(segment)

                if trace.is_source:
                    # Generated code or a superblock: one call runs it all.
                    # A budget-bounded run hands a superblock its remaining
                    # allowance so the runner can stop at the same segment
                    # boundary the dispatch loop would have stopped at.
                    loop = None
                    if trace is prev:
                        # The trace that just ran left by a back edge
                        # to its own head: if it has a loop form
                        # (repro.pin.pyjit), that takes the next ones
                        # itself, for as many executions as this loop
                        # would have dispatched through the link without
                        # doing anything else — while the budget test
                        # passes (a whole trace fits, in exact mode) and
                        # short of the execution that promotes into TC2.
                        # Fewer is correct too: it comes back sooner.
                        loop = trace.loop
                        if loop is None and trace.origin is not None:
                            loop = jit.loop_form(trace)
                        if loop is not None:
                            if not budgeted:
                                allowance = NEVER
                            elif exact:
                                allowance = remaining // trace.num_ins
                            else:
                                allowance = -((executed - budget)
                                              // trace.num_ins)
                            if threshold:
                                allowance = min(allowance,
                                                threshold - trace.exec_count)
                            if allowance < 2:
                                # One at a time the plain function is
                                # the faster of the two.
                                loop = None
                    try:
                        if loop is not None:
                            try:
                                result, completed, trips = loop(allowance)
                            except BaseException:
                                trips = self._stop_trips
                                raise
                            finally:
                                # Every execution after the first is one
                                # the dispatch loop would have counted,
                                # and reached through the link.
                                looped += trips
                                trips -= 1
                                traces_executed += trips
                                linked += trips
                                if threshold:
                                    trace.exec_count += trips
                                if promoting and trace.heat is not None:
                                    trace.heat[0] += trips
                        elif budgeted and trace.tier == 2:
                            result, completed = trace.fn(budget - executed,
                                                         exact)
                        else:
                            result, completed = trace.fn()
                    except StopRun as stop:
                        executed += self._stop_count
                        generated += self._stop_count
                        cpu.pc = self._stop_pc
                        state = RunState.STOPPED
                        stop_token = stop.args[0] if stop.args else None
                        break
                    except GuestFault:
                        executed += self._stop_count
                        generated += self._stop_count
                        cpu.pc = self._stop_pc
                        raise
                    executed += completed
                    generated += completed
                    if result is None:
                        assert trace.fall_address is not None
                        pc = trace.fall_address
                    elif result == EXIT_GUEST:
                        break
                    else:
                        pc = result
                else:
                    steps = trace.steps
                    n = trace.num_ins
                    i = 0
                    result: int | None = None
                    try:
                        while i < n:
                            result = steps[i]()
                            if result is None:
                                i += 1
                                continue
                            break
                    except StopRun as stop:
                        executed += i
                        cpu.pc = trace.addresses[i]
                        state = RunState.STOPPED
                        stop_token = stop.args[0] if stop.args else None
                        break
                    except GuestFault:
                        executed += i
                        cpu.pc = trace.addresses[i]
                        raise

                    if result is None:  # fell off the end of the trace
                        executed += n
                        assert trace.fall_address is not None
                        pc = trace.fall_address
                    elif result == EXIT_GUEST:
                        executed += i + 1
                        break
                    else:
                        executed += i + 1
                        pc = result
                cpu.pc = pc
                if (stop_after_syscall
                        and self.total_syscalls != start_syscalls):
                    state = RunState.SYSCALL
                    break
                if linking and not step_sub:
                    # Linked fast path: chain straight to the successor if
                    # this exit was patched on an earlier transition.  A
                    # flush clears every ``links`` dict, so a stale link can
                    # never survive an invalidation.
                    prev = trace
                    trace = prev.links.get(pc)
                    if trace is not None:
                        linked += 1
                else:
                    # Step traces live outside the cache; they must neither
                    # receive nor become link targets.
                    prev = None
                    trace = None
        finally:
            # Folded once, here, for every way out of the loop: a
            # return, a guest fault raised by a step — or out of a
            # compile, before the trace it was for ever ran.
            tc2_dispatches = 0
            if tc2 is not None:
                tc2_dispatches = tc2_stats.dispatches - disp_mark
                traces_executed += ((tc2_stats.segments - seg_mark)
                                    - tc2_dispatches)
                generated -= tc2_stats.stepped - stepped_mark
                looped += tc2_stats.looped - looped_mark
                if promoting:
                    tc2.fold_heat()
            self.jit_stats.hot_instructions += generated
            self.jit_stats.loop_trips += looped
            self.total_instructions += executed
            self.total_traces_executed += traces_executed
            cache.stats.linked_dispatches += linked

        if self.exited:
            state = RunState.EXIT
            # ``halt`` marks only the engine; an exit syscall already
            # marked the process (dispatch_syscall).
            self.process.exited = True
            self.process.exit_code = self.exit_code
        return PinRunResult(
            state=state,
            instructions=executed,
            traces_executed=traces_executed,
            analysis_calls=counters[0] - start_calls,
            inline_checks=counters[1] - start_checks,
            syscalls=self.total_syscalls - start_syscalls,
            exit_code=self.exit_code,
            stop_token=stop_token,
            linked_dispatches=linked,
            tc2_dispatches=tc2_dispatches,
        )
