"""The Pin virtual machine: dispatcher + code cache + JIT + emulator.

One :class:`PinVM` instruments one guest process.  The structure mirrors
the paper's description of Pin (§2.2): a dispatcher decides whether the
next region is already in the code cache or must be compiled; the JIT
compiles and instruments traces; system calls are emulated through the
process's syscall handler (the seam SuperPin's record/playback plugs
into).

Like Pin, the engine is transparent to self-modifying code: a guest
write to a word some cached trace decoded, or stopped ahead of because
it did not decode (:meth:`~repro.machine.memory.Memory.watch_code`),
evicts every such trace.  If the executing trace would still run the old decode (a later
instruction, or a loop form's next trip), it also stops right after the
store, which counts as retired, exactly where the interpreter's store
takes effect; any other trace finishes as compiled.

An engine switched from state to state starts each on a cold code
cache, unless the switch hands it a :class:`WarmCache`: code kept from
the states before, checked page by page against the new one.
"""

from __future__ import annotations

import enum
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass

from ..errors import ConfigError, GuestFault, SelfModifyingCodeError
from ..machine.kernel import SyscallOutcome
from ..machine.process import Process
from ..obs.metrics import NULL_METRICS
from .codecache import CodeCache
from .filter import InstrumentationStats
from .jit import (CompiledTrace, EXIT_GUEST, Jit, JitStats, NEVER,
                  SignatureCheck, StopRun)
from .trace import MAX_TRACE_INS


class RunState(enum.Enum):
    """Why :meth:`PinVM.run` returned."""

    EXIT = "exit"        # guest exited normally
    STOPPED = "stopped"  # an analysis routine raised StopRun
    BUDGET = "budget"    # instruction budget exhausted (runaway guard)
    SYSCALL = "syscall"  # a trace retired a syscall (stop_after_syscall)


class _CodeWritten(Exception):
    """Raised out of a guest store that rewrote code the executing trace
    would still run: ``(next pc, instructions the execution retired, the
    store included)``."""


def _stop_after(word: int) -> tuple[int, int] | None:
    """Where the trace executing in :meth:`PinVM.run` must stop because
    the guest just wrote ``word`` — if it would still run its decode of
    it: a later instruction, or any of a loop form's — or a named error
    where it cannot stop exactly there.  Read off the stack (the
    dispatch loop's locals; a generated function's line, mapped to its
    instruction by ``__lines__``, and count base), so the store fast path
    pays nothing for the question."""
    frame, generated = sys._getframe(3), None
    while frame is not None and frame.f_code is not _RUN:
        if generated is None and "__lines__" in frame.f_globals:
            generated = frame
        frame = frame.f_back
    if frame is None:
        return None
    where = frame.f_locals
    trace = where["trace"]
    offset = word - trace.start
    if not 0 <= offset < trace.num_ins:
        return None
    if not trace.is_source:
        index = base = where["i"]
        stale = offset > index
    else:
        index = bisect_right(generated.f_globals["__lines__"],
                             generated.f_lineno) - 1
        base = generated.f_locals.get("_base", 0) + index
        stale = offset > index or where["loop"] is not None
    if not stale:
        return None
    if trace.instructions[index].after_calls:
        raise SelfModifyingCodeError(
            f"a store in the trace at {trace.start:#x} rewrote code the "
            f"trace would still run, ahead of its own after-calls")
    return trace.start + index + 1, base + 1


class WarmCache:
    """A code cache an engine keeps from one state to the next
    (``PinVM.switch(..., warm=)``): the :class:`CodeCache`, the
    engine's single-instruction step traces, and the watch over the
    guest words they decoded — the words, and the pages they lie on.

    When the engine leaves it, the cache notes the page lists it ran on
    (:meth:`~repro.machine.memory.Memory.page_refs`); the cached code
    is true to them, because a write to a watched word evicts what
    decoded it.  A switch onto another state keeps the code if no
    watched word differs on those pages there — a page that is the same
    list, or an equal one, is one comparison; data beside the code may
    differ — and flushes it all otherwise; then it hands the state's
    memory the watch, so a store into kept code still evicts it.  Both
    cost O(pages), not O(traces).  Who runs the states owns the cache;
    one that needs a cold cache per state (a slice, for its virtual
    account) passes none.
    """

    def __init__(self):
        self.cache = CodeCache()
        self.steps: dict[int, CompiledTrace] = {}
        self.words: set[int] = set()
        self.pages: set[int] = set()
        self.refs: dict[int, list[int]] = {}
        #: Switches onto a state that kept cached code, and that found
        #: the state's code different and flushed it.
        self.reuses = 0
        self.flushes = 0

    def enter(self, mem) -> None:
        """Check the cached code against ``mem``, the memory it is about
        to run on; flush it if any word it decoded differs."""
        if not self.pages:
            return
        words = self.words
        if not any(word in words for word in mem.changed_words(self.refs)):
            self.reuses += 1
            return
        self.flushes += 1
        self.cache.flush()
        self.steps.clear()
        self.words.clear()
        self.pages.clear()
        self.refs = {}


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


class PinVM:
    """Dynamic instrumentation engine for one guest process."""

    def __init__(self, process: Process,
                 max_trace_ins: int = MAX_TRACE_INS,
                 code_cache: CodeCache | None = None,
                 jit_backend: str = "closure",
                 link_traces: bool = True,
                 metrics=NULL_METRICS,
                 tc2_threshold: int = 0):
        # ``tc2_threshold`` is accepted for bench/layers.py's engine
        # probe only: the second translation cache is gone.
        if tc2_threshold:
            raise ConfigError(
                f"tc2_threshold must be 0 (the second translation cache "
                f"was removed), got {tc2_threshold}")
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
        if jit_backend not in ("closure", "source"):
            raise ConfigError(
                f"unknown jit_backend {jit_backend!r}; "
                f"choose 'closure' or 'source'")
        self.jit = Jit(self)
        if jit_backend == "source":
            self.jit.all_generated = True
        self.reset(code_cache=code_cache, link_traces=link_traces,
                   metrics=metrics)

    def reset(self, code_cache: CodeCache | None = None,
              link_traces: bool = True,
              metrics=NULL_METRICS) -> None:
        """Make this engine what a newly built one would be.

        The constructor's second half, and the last step of
        :meth:`switch`: every per-run field is rebuilt here and nowhere
        else, so a run on a reset engine is bit for bit a run on a fresh
        one — cold code cache, no callbacks, zeroed statistics.  What
        survives is identity only: ``process`` / ``cpu`` / ``mem``, the
        ``counters`` list (zeroed in place — generated code holds it)
        and ``jit``, with its pool and heat.
        """
        #: SuperPin's two-stage signature check (§4.4), which the JIT
        #: lowers inline and generated code reaches through the engine:
        #: None, or a ``repro.pin.jit.SignatureCheck``, set by
        #: :meth:`add_signature_check` (a slice's end signature).  Its
        #: pc is where the JIT splits a block for the callbacks, and
        #: what it keeps of a trace is kept per cut (repro.pin.jit).
        self.signature_check: SignatureCheck | None = None
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
        #: Selective-instrumentation counters, folded into the metrics
        #: registry at slice end (``pin.filter.*``).
        self.instr_stats = InstrumentationStats()
        #: What the JIT's in-process pool did for this run (see
        #: repro.pin.jit), folded at slice end like ``instr_stats``.
        self.jit_stats = JitStats()
        #: The guest words the cache decoded are watched from here on
        #: (module docstring); True while a trace may be executing,
        #: False inside a syscall and outside :meth:`run`.
        self.mem.unwatch_code()
        #: The :class:`WarmCache` the engine runs on, if a switch handed
        #: it one.
        self._warm: WarmCache | None = None
        self.mem.on_code_write = self._code_written
        self._executing = False
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

    def switch(self, cpu_snapshot, mem, handler, thread_manager=None,
               warm: WarmCache | None = None, **settings) -> None:
        """Context-switch onto another state: the one way an engine that
        stays resident (a slice machine, a run's master, the signature
        lookahead) is entered.

        Registers are restored in place; ``mem`` is adopted (and spent,
        :meth:`~repro.machine.memory.Memory.adopt`); ``handler`` and
        ``thread_manager`` are taken over; the exit flags are cleared;
        then :meth:`reset` with ``settings`` — after the adopt, so the
        adopted memory's watched code words are cleared too.  The JIT's
        pool and heat are kept.  With ``warm`` the engine runs on that
        cache instead of a cold one, checked against the adopted memory
        and watched on it (:class:`WarmCache`).
        """
        process = self.process
        left = self._warm
        if left is not None:
            left.refs = process.mem.page_refs(left.pages)
        process.cpu.restore(cpu_snapshot)
        process.mem.adopt(mem)
        process.syscall_handler = handler
        process.thread_manager = thread_manager
        process.exited = False
        process.exit_code = 0
        if warm is None:
            self.reset(**settings)
            return
        warm.enter(process.mem)
        self.reset(code_cache=warm.cache, **settings)
        self._warm = warm
        self._step_cache = warm.steps
        process.mem.take_watch(warm.words, warm.pages)

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
        if len(self.cache):
            self.cache.flush()

    def add_signature_check(self, pc: int, quick_regs: tuple[int, int],
                            quick_values: tuple[int, int],
                            full_check) -> None:
        """Check for a signature at ``pc`` (paper §4.4): before anything
        else runs there, compare registers ``quick_regs`` with
        ``quick_values`` (``INS_InsertIfCall``, inlined), and on a match
        call ``full_check()`` (``INS_InsertThenCall``), which may raise
        :class:`StopRun`.  A lowering, not a trace callback: the code the
        JIT emits for it depends only on where ``pc`` cuts a trace and on
        the two register numbers, so it is kept like any other.  Like
        adding a callback, this invalidates what was compiled."""
        self.signature_check = SignatureCheck(pc, quick_regs, quick_values,
                                              full_check)
        self._step_cache.clear()
        if len(self.cache):
            self.cache.flush()

    def add_syscall_observer(self, observer) -> None:
        """Register ``observer(outcome)`` called after every syscall."""
        self.syscall_observers.append(observer)

    # -- syscall plumbing ----------------------------------------------------

    def dispatch_syscall(self) -> SyscallOutcome:
        """Route a guest syscall through the process's handler.  Code it
        writes is invalidated, and the trace goes on: a syscall ends
        its trace anyway."""
        self._executing = False
        outcome = self.process.syscall_handler.do_syscall(self.cpu, self.mem)
        self._executing = True
        self.total_syscalls += 1
        if outcome.exited:
            self.exited = True
            self.exit_code = outcome.exit_code
            self.process.exited = True
            self.process.exit_code = outcome.exit_code
        for observer in self.syscall_observers:
            observer(outcome)
        return outcome

    def _code_written(self, word: int) -> None:
        """The guest just wrote ``word``, which cached code decoded:
        evict what decoded it, and stop the executing trace after the
        store if it would still run the old decode."""
        self.mem.unwatch_code(word)
        self._step_cache.pop(word, None)
        if self.cache.invalidate(word) and self._executing:
            stop = _stop_after(word)
            if stop is not None:
                raise _CodeWritten(*stop)

    # -- execution -----------------------------------------------------------

    def _step_trace(self, pc: int) -> CompiledTrace:
        """A single-instruction trace at ``pc`` (exact-budget landings).

        Threaded code under either backend (one instruction has no
        codegen advantage), carrying the engine's instrumentation like
        any cold compile, and cached outside the code cache so trace
        shapes and cache statistics stay untouched.
        """
        trace = self._step_cache.get(pc)
        if trace is None:
            trace = self.jit.compile_step(pc)
            self._step_cache[pc] = trace
            self.mem.watch_code(pc, 1)
        return trace

    def _promote(self, trace):
        """``trace`` has run ``hot_at`` times: put its generated-code
        form in its place; returns what to execute now.

        The swap is invisible to the virtual account — no callback
        runs, nothing is compiled, inserted, charged or evicted, every
        link into the trace follows it — so only host time can tell a
        promoted run from an unpromoted one.
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
        instruction still reports ``EXIT``.  Mechanism: a trace (either
        lowering) only runs whole when its worst-case retirement fits
        the remaining allowance, and the last few instructions land
        through single-instruction step traces (still instrumented, kept
        outside the code cache).

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
        check = self.signature_check
        if check is not None:
            start_checks -= check.checks
        start_syscalls = self.total_syscalls
        executed = 0
        traces_executed = 0
        linking = self.link_traces
        linked = 0
        budget = max_instructions if max_instructions is not None else -1
        budgeted = budget >= 0
        exact = exact_budget and budgeted
        # The JIT keeps heat (see repro.pin.jit): the loop counts every
        # trace execution and promotes a trace that crosses its mark.
        # ``generated`` is what the source path retired.
        generated = 0
        looped = 0
        state = RunState.EXIT
        stop_token: object | None = None

        pc = cpu.pc
        # ``trace`` carries a linked successor into the next iteration;
        # ``prev`` is the trace that just executed, awaiting a patch.
        trace: CompiledTrace | None = None
        prev: CompiledTrace | None = None
        self._executing = True
        try:
            while not self.exited:
                if budgeted and executed >= budget:
                    state = RunState.BUDGET
                    break
                if trace is None:
                    trace = cache.lookup(pc)
                    if trace is None:
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
                        self.mem.watch_code(pc, trace.num_words)
                    if linking and prev is not None:
                        # Patch the predecessor's exit stub: the next time
                        # it exits to ``pc`` the dispatcher is bypassed.
                        prev.links[pc] = trace
                # A step trace, or a trace a code write stopped: no link
                # to or from it.
                unlinked = False
                if exact:
                    remaining = budget - executed
                    if trace.num_ins > remaining:
                        # Worst-case retirement exceeds the allowance: land
                        # the tail one instrumented instruction at a time.
                        trace = self._step_trace(pc)
                        unlinked = True
                traces_executed += 1
                if not unlinked:
                    heat = trace.heat
                    runs = heat[0] + 1
                    heat[0] = runs
                    if runs >= trace.hot_at:
                        trace = self._promote(trace)

                if trace.is_source:
                    # Generated code: one call runs it all.
                    loop = None
                    if trace is prev:
                        # The trace that just ran left by a back edge
                        # to its own head: if it has a loop form
                        # (repro.pin.pyjit), that takes the next ones
                        # itself, for as many executions as this loop
                        # would have dispatched through the link without
                        # doing anything else — while the budget test
                        # passes (a whole trace fits, in exact mode).
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
                                trace.heat[0] += trips
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
                    except _CodeWritten as written:
                        result, completed = written.args
                        unlinked = True
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
                        cpu.pc = trace.instructions[i].address
                        state = RunState.STOPPED
                        stop_token = stop.args[0] if stop.args else None
                        break
                    except GuestFault:
                        executed += i
                        cpu.pc = trace.instructions[i].address
                        raise
                    except _CodeWritten as written:
                        result = written.args[0]
                        unlinked = True

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
                if linking and not unlinked:
                    # Linked fast path: chain straight to the successor if
                    # this exit was patched on an earlier transition.  A
                    # flush clears every ``links`` dict, so a stale link can
                    # never survive an invalidation.
                    prev = trace
                    trace = prev.links.get(pc)
                    if trace is not None:
                        linked += 1
                else:
                    # Step traces live outside the cache, and a trace a
                    # code write stopped may be evicted: they must
                    # neither receive nor become link targets.
                    prev = None
                    trace = None
        finally:
            self._executing = False
            # Folded once, here, for every way out of the loop: a
            # return, a guest fault raised by a step — or out of a
            # compile, before the trace it was for ever ran.
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
            inline_checks=counters[1] - start_checks
            + (check.checks if check is not None else 0),
            syscalls=self.total_syscalls - start_syscalls,
            exit_code=self.exit_code,
            stop_token=stop_token,
            linked_dispatches=linked,
        )


_RUN = PinVM.run.__code__
