"""Tier-2 execution: hot-trace superblocks in a second translation cache.

The engine's compile tiers:

* **tier 0** — cold compile: the dispatcher misses and the JIT lowers a
  fresh trace into the code cache (``repro.pin.jit``).
* **tier 1** — linked traces: compiled traces chain straight to their
  successors through patched exit links (PR 4), touching the dispatcher
  only on cold exits.  Which *lowering* a tier-1 trace has — threaded
  code or generated code — is the JIT's choice per trace and orthogonal
  to the tier: a superblock runs either, and a segment that turns hot
  is swapped for its generated form in place (``replace_segment``).
* **tier 2** — hot superblocks (this module): once a trace's execution
  counter crosses the promotion threshold (``-sptc2 N``), the hottest
  chain of linked tier-1 traces is straightened into one
  :class:`Superblock` stored in the :class:`TranslationCache2` (TC2).
  A superblock runs its whole chain — and a closing loop back-edge —
  in a single engine dispatch, replacing per-trace link-dict probes
  with one fused inter-segment guard.

Fallback legality: a superblock *reuses* the already-compiled tier-1
trace objects as its segments — the same closures and generated
functions run, in the same order, with the same instrumentation — so
tier-2 execution is architecturally indistinguishable from tier-1.  Any
guard mismatch (a side exit off the hot path) returns control to the
engine with the true continuation pc and the exact retired count; the
engine then re-dispatches through tier-1 exactly as if the superblock
had never existed.  Because promotion recompiles nothing, ``compiles``,
``compile_log`` and tier-0/1 bubble accounting are byte-identical with
TC2 on or off; only ``pin.tc2.*`` counters and dispatcher statistics
move.

The TC2 has its own word budget, half the §4.1 bubble by convention:
superblock pressure flushes *superblocks*, never tier-1 correctness
traces.  Eviction is two-way coupled with the code cache (see
``CodeCache.attach_tc2``): flushing or evicting a tier-1 trace evicts
every dependent superblock, and evicting a superblock strips every link
that targets it — the same stale-link invariant tier 1 maintains.

A superblock also keeps the execution counts of its segments for the
JIT's heat (``Superblock.tally``): the dispatch loop never sees them.
They are read when the block is dispatched, so a loop that never leaves
its superblock is not promoted in that run.
"""

from __future__ import annotations

import time

from ..errors import GuestFault
from ..isa import abi
from ..obs.metrics import NULL_METRICS
from .codecache import (retarget_links, TRACE_HEADER_WORDS,
                        WORDS_PER_COMPILED_INS)
from .jit import EXIT_GUEST, NEVER, StopRun

#: Cache words charged per superblock over its segments' instruction
#: words (entry stub, guard table, loop back-edge).
SUPERBLOCK_HEADER_WORDS = 2 * TRACE_HEADER_WORDS

#: Symbolic word size, for the ``pin.tc2.bytes`` counter.
WORD_BYTES = 8

#: Longest chain a promotion will straighten.  Sixteen covers a
#: call-heavy loop iteration (~10 short traces) so the closing back
#: edge lands inside the superblock and the internal loop engages;
#: much longer chains only raise the mispredict cost of a mid-chain
#: side exit.
MAX_SEGMENTS = 16


class Tc2Stats:
    """Counters for the second translation cache (``pin.tc2.*``)."""

    __slots__ = ("promotions", "dispatches", "mispredicts", "evictions",
                 "bytes", "segments", "stepped", "looped")

    def __init__(self):
        self.promotions = 0
        #: Superblock executions (dispatcher hits *and* linked entries).
        self.dispatches = 0
        #: Guard mismatches: the chain side-exited back to tier 1.
        self.mispredicts = 0
        self.evictions = 0
        #: Cumulative TC2 cache bytes allocated by promotions.
        self.bytes = 0
        #: Segment (former tier-1 trace) executions inside superblocks;
        #: the engine's ``traces_executed`` correction is
        #: ``segments - dispatches``.
        self.segments = 0
        #: Instructions retired by threaded-code segments — what the
        #: engine subtracts from a superblock's count to know how much
        #: of it ran as generated code (``pin.jit.hot_instructions``).
        self.stepped = 0
        #: Segment executions that ran inside a segment's loop form
        #: (``pin.jit.loop_trips``).
        self.looped = 0


class Superblock:
    """One straightened hot chain, quacking like a source-backend trace.

    ``fn(limit=-1) -> (pc, executed)`` follows the generated-code
    calling convention (``is_source``), so the engine's existing source
    path runs superblocks unmodified; ``limit`` preserves the budget
    guard's trace-granularity semantics (see ``_build_runner``).  The
    result pc is always explicit — a superblock never reports a
    fall-through, because its last segment's continuation is resolved
    inside the runner.
    """

    __slots__ = ("start", "fn", "num_ins", "fall_address", "bbl_sizes",
                 "links", "segments", "segment_starts", "exec_count",
                 "unbounded", "tally", "ripe_at")

    is_source = True
    tier = 2
    #: What the dispatch loop reads of a generated trace that links to
    #: itself: a superblock has no loop form, its runner is its loop.
    loop = origin = None

    def __init__(self, start: int, segments: tuple, num_ins: int,
                 bbl_sizes: list[int]):
        self.start = start
        self.num_ins = num_ins
        self.fall_address = None
        self.bbl_sizes = bbl_sizes
        #: The tier-1 traces the runner executes, in chain order;
        #: ``fn`` is rebuilt over them when one is replaced by its
        #: generated-code form (``TranslationCache2.replace_segment``).
        self.segments = segments
        self.segment_starts = tuple(seg.start for seg in segments)
        self.fn = None
        #: Segment executions not yet folded into ``Jit.heat``.  A
        #: dispatch runs its segments in chain order from the head, so
        #: one ``divmod`` at its end says how often each ran:
        #: ``tally[0]`` counts whole passes over the chain, ``tally[r]``
        #: dispatches whose last, partial pass ran the first ``r``.
        self.tally = [0] * len(segments)
        #: The ``tally[0]`` at which a threaded-code segment may have
        #: crossed its ``hot_at`` (the engine then asks
        #: ``ripe_segments``); ``NEVER`` when none can.
        self.ripe_at = NEVER
        #: Exit links out of the superblock (side exits and the chain's
        #: final continuation), patched by the engine like any trace's.
        self.links: dict[int, object] = {}
        self.exec_count = 0
        #: True when any segment is a summarized loop trace (its
        #: retirement per invocation is not bounded by ``num_ins``);
        #: the engine's exact-budget mode then avoids this block.
        self.unbounded = False


def _build_runner(engine, segments, stats, tally):
    """Compile a segment chain into one superblock runner.

    The runner executes each segment's already-lowered code in order,
    guarding every inter-segment transition (actual exit pc vs. the next
    segment's start) and looping internally while the last segment exits
    to the chain head.  Accounting mirrors the engine's two per-backend
    paths exactly:

    * progress is reported through the unwind markers on ``StopRun`` /
      ``GuestFault`` (``engine._stop_pc`` / ``_stop_count``), rebased
      from segment-relative to superblock-relative counts;
    * ``limit`` (the caller's remaining instruction budget, or -1) is
      checked at every segment boundary — the same granularity at which
      the engine's dispatch loop checks its runaway guard — so a
      budget-bounded run retires identical instruction counts with the
      superblock on or off;
    * with ``exact`` set (the engine's exact-budget mode) the check
      moves *before* each segment: a segment that cannot finish inside
      ``limit`` is never started, so the runner can overshoot by at
      most nothing — it returns the would-be segment's start pc and the
      engine lands the remaining handful of instructions through tier 1
      / single steps.
    """
    if len(segments) == 1 and segments[0].is_source:
        # The one shape where a segment's back edge is the block's own.
        loop = engine.jit.loop_form(segments[0])
        if loop is not None:
            return _build_loop_runner(engine, segments[0], loop, stats,
                                      tally)
    # Per-segment lookup tables, hoisted out of the dispatch loop: the
    # steady state must stay allocation-free and attribute-load-light,
    # or the runner would cost as much as the engine loop it replaces.
    n_segs = len(segments)
    starts = tuple(seg.start for seg in segments)
    loop_back = starts[0]
    is_src = tuple(seg.is_source for seg in segments)
    fns = tuple(getattr(seg, "fn", None) for seg in segments)
    steps_tab = tuple(getattr(seg, "steps", None) for seg in segments)
    num_ins = tuple(seg.num_ins for seg in segments)
    addrs = tuple(getattr(seg, "addresses", None) for seg in segments)
    falls = tuple(seg.fall_address for seg in segments)

    def run(limit: int = -1, exact: bool = False):
        stats.dispatches += 1
        executed = 0
        stepped = 0
        segs_run = 0
        k = 0
        try:
            while True:
                if exact and executed + num_ins[k] > limit:
                    # Exact budgets never start a segment they cannot
                    # finish; the engine dispatch gate guarantees the
                    # first segment always fits, so progress is made.
                    return starts[k], executed
                segs_run += 1
                if is_src[k]:
                    try:
                        result, completed = fns[k]()
                    except (StopRun, GuestFault):
                        # fn set the markers segment-relative; rebase.
                        engine._stop_count += executed
                        raise
                    executed += completed
                    if result is None:
                        out = falls[k]
                    elif result == EXIT_GUEST:
                        return EXIT_GUEST, executed
                    else:
                        out = result
                else:
                    steps = steps_tab[k]
                    n = num_ins[k]
                    i = 0
                    result = None
                    try:
                        while i < n:
                            result = steps[i]()
                            if result is None:
                                i += 1
                                continue
                            break
                    except (StopRun, GuestFault):
                        engine._stop_pc = addrs[k][i]
                        engine._stop_count = executed + i
                        stepped += i
                        raise
                    if result is None:
                        executed += n
                        stepped += n
                        out = falls[k]
                    elif result == EXIT_GUEST:
                        stepped += i + 1
                        return EXIT_GUEST, executed + i + 1
                    else:
                        executed += i + 1
                        stepped += i + 1
                        out = result
                k += 1
                if k == n_segs:
                    if out == loop_back and (limit < 0
                                             or executed < limit):
                        k = 0
                        continue
                    return out, executed
                if out != starts[k]:
                    stats.mispredicts += 1
                    return out, executed
                if 0 <= limit <= executed:
                    return out, executed
        finally:
            # One fold per dispatch (the engine's traces_executed
            # correction reads this, including on a GuestFault unwind).
            stats.segments += segs_run
            stats.stepped += stepped
            passes, partial = divmod(segs_run, n_segs)
            tally[0] += passes
            if partial:
                tally[partial] += 1

    return run


def _build_loop_runner(engine, segment, loop, stats, tally):
    """The runner of a self-loop block over one generated ``segment``:
    the segment's loop form (:mod:`repro.pin.pyjit`) takes the block's
    back edge itself, for as many executions as the general runner's
    tests at that edge would have let through — ``limit`` not reached,
    and in ``exact`` mode a whole segment still fitting — and hands
    back how many it ran, which is what ``segs_run`` and the tally
    count.  Same contract as the general runner otherwise."""
    start = segment.start
    num_ins = segment.num_ins
    fall = segment.fall_address

    def run(limit: int = -1, exact: bool = False):
        stats.dispatches += 1
        executed = 0
        segs_run = 0
        try:
            while True:
                if limit < 0:
                    allowance = NEVER
                elif exact:
                    allowance = (limit - executed) // num_ins
                    if not allowance:
                        return start, executed
                else:
                    allowance = -((executed - limit) // num_ins)
                try:
                    out, completed, trips = loop(allowance)
                except BaseException:
                    # The markers are relative to this call; rebase.
                    engine._stop_count += executed
                    segs_run += engine._stop_trips
                    raise
                executed += completed
                segs_run += trips
                if out is None:
                    out = fall
                if out != start or 0 <= limit <= executed:
                    return out, executed
        finally:
            stats.segments += segs_run
            stats.looped += segs_run
            tally[0] += segs_run

    return run


class TranslationCache2:
    """The second translation cache: hot superblocks plus accounting.

    Owned by one :class:`~repro.pin.engine.PinVM`; attached to its
    :class:`~repro.pin.codecache.CodeCache` so tier-1 invalidations
    cascade (see ``CodeCache.attach_tc2``).
    """

    def __init__(self, engine, threshold: int, cache,
                 bubble_words: int = abi.BUBBLE_WORDS // 2,
                 metrics=NULL_METRICS):
        self._engine = engine
        self.threshold = threshold
        self._cache = cache
        #: TC2's own symbolic word budget — half the §4.1 bubble —
        #: never charged against the tier-1 cache, so superblock
        #: pressure cannot evict correctness traces.
        self.bubble_words = bubble_words
        self.metrics = metrics
        self._blocks: dict[int, Superblock] = {}
        self._charges: dict[int, int] = {}
        self._allocated = 0
        #: segment start -> superblock starts depending on it.
        self._by_segment: dict[int, set[int]] = {}
        self.stats = Tc2Stats()

    # -- dispatch ----------------------------------------------------------

    def get(self, pc: int):
        """The superblock starting at ``pc``, or None (uncounted —
        dispatches are counted at execution, inside the runner)."""
        return self._blocks.get(pc)

    # -- promotion ---------------------------------------------------------

    def maybe_promote(self, head):
        """Promote the hot chain rooted at ``head``, or decline.

        Called by the engine when ``head.exec_count`` crosses the
        threshold.  On decline the counter resets so the trace can
        re-earn promotion (its neighbourhood may have linked up since).
        """
        if head.start in self._blocks:
            return None
        started = time.perf_counter() if self.metrics.enabled else 0.0
        chain = self._select_chain(head)
        block = None
        if len(chain) > 1 or head.links.get(head.start) is head:
            block = self._install(chain)
        if block is None:
            head.exec_count = 0
        elif self.metrics.enabled:
            self.metrics.observe("pin.tc2.promote_seconds",
                                 time.perf_counter() - started)
        return block

    def _select_chain(self, head):
        """Follow the hottest link out of each trace, longest first.

        Deterministic: successors tie-break on the lower start address,
        and ``links`` iteration order is itself deterministic (insertion
        order of a deterministic simulation).  Only tier-1 traces at
        least half as hot as the threshold qualify — chaining into a
        cold tail would buy mispredicts, not speed.
        """
        chain = [head]
        seen = {head.start}
        cur = head
        while len(chain) < MAX_SEGMENTS:
            best = None
            for succ in cur.links.values():
                if getattr(succ, "tier", 0) != 1 or succ.start in seen:
                    continue
                if 2 * succ.exec_count < self.threshold:
                    continue
                if (best is None or succ.exec_count > best.exec_count
                        or (succ.exec_count == best.exec_count
                            and succ.start < best.start)):
                    best = succ
            if best is None:
                break
            chain.append(best)
            seen.add(best.start)
            cur = best
        return chain

    def _install(self, chain):
        """Build, charge and register one superblock; retarget links."""
        total_ins = sum(seg.num_ins for seg in chain)
        need = SUPERBLOCK_HEADER_WORDS + total_ins * WORDS_PER_COMPILED_INS
        if need > self.bubble_words:
            return None
        if self._allocated + need > self.bubble_words:
            self.flush()
        bbl_sizes: list[int] = []
        for seg in chain:
            bbl_sizes.extend(seg.bbl_sizes)
        head = chain[0]
        block = Superblock(head.start, tuple(chain), total_ins, bbl_sizes)
        self._rebuild(block)
        block.unbounded = any(getattr(seg, "unbounded", False)
                              for seg in chain)
        self._blocks[block.start] = block
        self._charges[block.start] = need
        self._allocated += need
        for seg in chain:
            self._by_segment.setdefault(seg.start, set()).add(block.start)
        # Retarget every existing link into the head: steady-state
        # execution never consults the dispatcher, so inbound links are
        # the only road into the new tier for already-linked callers.
        retarget_links(self._link_holders(), head, block)
        self.stats.promotions += 1
        self.stats.bytes += need * WORD_BYTES
        return block

    # -- heat: segment executions, and segments that turn hot --------------

    def _rebuild(self, block: Superblock) -> None:
        """(Re)build ``block``'s runner over its current segments."""
        block.fn = _build_runner(self._engine, block.segments, self.stats,
                                 block.tally)
        self._mark(block)

    @staticmethod
    def _mark(block: Superblock) -> None:
        """Set ``ripe_at``: the whole passes after which the nearest
        threaded-code segment reaches its ``hot_at``."""
        block.ripe_at = block.tally[0] + min(
            (seg.hot_at - seg.heat[0] for seg in block.segments
             if seg.hot_at != NEVER), default=NEVER)

    def _fold(self, block: Superblock) -> None:
        """Credit ``block``'s tally to its segments' heat cells."""
        tally = block.tally
        runs = tally[0]
        tally[0] = 0
        for index in range(len(tally) - 1, -1, -1):
            # Partial passes longer than ``index`` ran this segment too.
            heat = block.segments[index].heat
            if heat is not None:
                heat[0] += runs
            runs += tally[index]
            tally[index] = 0

    def fold_heat(self) -> None:
        """Run end: every live superblock's tally goes to ``Jit.heat``."""
        for block in self._blocks.values():
            self._fold(block)
            self._mark(block)

    def ripe_segments(self, block: Superblock) -> list:
        """``block`` has reached ``ripe_at``: its threaded-code
        segments that have in fact crossed their mark (whole passes
        undercount a segment's executions by the partial ones, so the
        list may be empty)."""
        self._fold(block)
        self._mark(block)
        return [seg for seg in block.segments
                if seg.hot_at != NEVER and seg.heat[0] >= seg.hot_at]

    def replace_segment(self, old, new) -> None:
        """Tier-1 trace ``old`` was replaced in the code cache by
        ``new``, the same trace in another lowering: every superblock
        running ``old`` runs ``new`` from now on.  Nothing is promoted,
        evicted or charged — the chain is the same chain."""
        for start in self._by_segment.get(old.start, ()):
            block = self._blocks[start]
            block.segments = tuple(new if seg is old else seg
                                   for seg in block.segments)
            self._rebuild(block)

    def chains(self) -> tuple[tuple[int, ...], ...]:
        """Live superblock chains (segment starts)."""
        return tuple(self._blocks[start].segment_starts
                     for start in sorted(self._blocks))

    # -- invalidation ------------------------------------------------------

    def _link_holders(self):
        yield from self._cache.live_traces()
        yield from list(self._blocks.values())

    def on_evict(self, old, address: int) -> None:
        """Tier-1 trace ``old`` at ``address`` was evicted: cascade.

        Every superblock built over it dies with it, and any superblock
        link targeting it is stripped (the code cache handles tier-1
        holders itself).
        """
        for start in tuple(self._by_segment.get(address, ())):
            self._evict_block(start)
        for block in self._blocks.values():
            links = block.links
            for pc in [pc for pc, target in links.items()
                       if target is old]:
                del links[pc]

    def _evict_block(self, start: int) -> None:
        block = self._blocks.pop(start, None)
        if block is None:
            return
        self._fold(block)
        block.links.clear()
        for seg_start in block.segment_starts:
            holders = self._by_segment.get(seg_start)
            if holders is not None:
                holders.discard(start)
                if not holders:
                    del self._by_segment[seg_start]
        refund = self._charges.pop(start, 0)
        self._allocated -= refund
        for holder in self._link_holders():
            links = holder.links
            for pc in [pc for pc, target in links.items()
                       if target is block]:
                del links[pc]
        # Let the surviving head re-earn promotion from scratch.
        head = self._cache.get(start)
        if head is not None and getattr(head, "tier", 0) == 1:
            head.exec_count = 0
        self.stats.evictions += 1

    def flush(self) -> None:
        """Drop every superblock (TC2 pressure or tier-1 flush).

        Strips the tier-1 side's links into the dead blocks and resets
        tier-1 promotion counters, so after a pressure flush the hot set
        re-earns its superblocks deterministically.
        """
        if self._blocks:
            self.stats.evictions += len(self._blocks)
            for block in self._blocks.values():
                self._fold(block)
                block.links.clear()
            for trace in self._cache.live_traces():
                links = trace.links
                for pc in [pc for pc, target in links.items()
                           if getattr(target, "tier", 0) == 2]:
                    del links[pc]
                if getattr(trace, "tier", 0) == 1:
                    trace.exec_count = 0
        self._blocks.clear()
        self._by_segment.clear()
        self._charges.clear()
        self._allocated = 0

    # -- introspection -----------------------------------------------------

    @property
    def allocated_words(self) -> int:
        return self._allocated

    def live_blocks(self):
        return self._blocks.values()

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, address: int) -> bool:
        return address in self._blocks
