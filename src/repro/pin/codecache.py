"""Code cache: compiled traces plus the memory-bubble accounting.

Pin stores generated code in a cache allocated inside the guest address
space.  SuperPin reserves a large anonymous "bubble" at startup and
releases it in each slice right after the fork so cache allocations land
there, away from application memory (paper §4.1).  We mirror that with a
bump allocator over the bubble region: every compiled trace consumes a
deterministic number of bubble words, and exhausting the bubble flushes
the cache (as a real code cache would).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CodeCacheOverflowError
from ..isa import abi
from ..obs.metrics import NULL_METRICS

#: Symbolic code-expansion factor: one guest instruction compiles into
#: this many cache words (call-saving stubs, inlined checks, links).
WORDS_PER_COMPILED_INS = 4
TRACE_HEADER_WORDS = 16


@dataclass
class CacheStats:
    """Counters consumed by the timing model and the benchmarks."""

    compiles: int = 0
    compiled_ins: int = 0
    lookups: int = 0
    hits: int = 0
    flushes: int = 0
    allocated_words: int = 0
    #: Trace-to-trace transitions that bypassed the dispatcher entirely
    #: via a direct link (see repro.pin.engine).  Deliberately *not*
    #: part of ``lookups``/``hits``: hit_rate stays an honest dispatcher
    #: statistic, and linked dispatches are counted separately.
    linked_dispatches: int = 0
    #: Inserts over an address that was already cached: the old trace is
    #: evicted (and unlinked) and its bubble charge refunded, so neither
    #: ``allocated_words`` nor ``compiles`` double-counts.
    reinserts: int = 0
    #: Traces evicted because the guest wrote a word they decoded
    #: (self-modifying code; :meth:`CodeCache.invalidate`).
    invalidations: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        """Dispatcher hit rate; excludes linked dispatches by design."""
        return self.hits / self.lookups if self.lookups else 0.0


class CodeCache:
    """Maps trace start address -> compiled trace, with bubble accounting."""

    def __init__(self, bubble_base: int = abi.BUBBLE_BASE,
                 bubble_words: int = abi.BUBBLE_WORDS,
                 metrics=NULL_METRICS):
        self.bubble_base = bubble_base
        self.bubble_words = bubble_words
        #: Observability counters (repro.obs); the null registry makes
        #: every increment a no-op, so plain-Pin runs pay nothing.
        self.metrics = metrics
        self._traces: dict[int, object] = {}
        self._cursor = bubble_base
        #: Bubble words charged per live address, so a re-insert can
        #: refund exactly what its predecessor consumed.
        self._charges: dict[int, int] = {}
        self.stats = CacheStats()
        #: Every insert as (address, num_ins) — consumed by the shared
        #: code-cache directory to attribute compile costs.
        self.insert_log: list[tuple[int, int]] = []

    def lookup(self, address: int):
        """Return the compiled trace at ``address`` or None (counted)."""
        self.stats.lookups += 1
        trace = self._traces.get(address)
        if trace is not None:
            self.stats.hits += 1
        return trace

    def get(self, address: int):
        """Uncounted lookup for internal plumbing (mid-run promotion);
        dispatcher statistics stay honest."""
        return self._traces.get(address)

    def can_fit(self, num_ins: int) -> bool:
        """True if a trace of ``num_ins`` instructions fits right now."""
        need = TRACE_HEADER_WORDS + num_ins * WORDS_PER_COMPILED_INS
        return self._cursor + need <= self.bubble_base + self.bubble_words

    def insert(self, address: int, trace, num_ins: int) -> None:
        """Store a compiled trace, charging bubble space; flush if full.

        Inserting over an address that is already cached is a
        *re-insert*: the old trace is evicted first — its links cleared
        and every inbound link from other traces removed, so no
        predecessor can keep executing the replaced code — and its
        bubble charge refunded.  A re-insert updates neither
        ``compiles``/``compiled_ins`` nor the insert log (the shared
        code-cache directory keys attribution by first insert), only
        the ``reinserts`` counter.
        """
        need = TRACE_HEADER_WORDS + num_ins * WORDS_PER_COMPILED_INS
        if need > self.bubble_words:
            # One flush cannot help: the trace is bigger than the whole
            # bubble, and silently overrunning would let _cursor walk
            # past the bubble forever.
            raise CodeCacheOverflowError(
                f"trace at {address:#x} needs {need} cache words "
                f"({num_ins} instructions) but the bubble holds only "
                f"{self.bubble_words}")
        reinsert = address in self._traces
        if reinsert:
            self._evict_one(address)
        if self._cursor + need > self.bubble_base + self.bubble_words:
            self.flush()
        self._cursor += need
        self.stats.allocated_words += need
        self._charges[address] = need
        self._traces[address] = trace
        if reinsert:
            self.stats.reinserts += 1
            self.metrics.inc("pin.cache.reinserts")
            return
        self.stats.compiles += 1
        self.stats.compiled_ins += num_ins
        self.insert_log.append((address, num_ins))
        self.metrics.inc("pin.cache.compiles")
        self.metrics.inc("pin.cache.compiled_ins", num_ins)

    def replace(self, old, new) -> None:
        """Put ``new`` where ``old`` is cached: the same trace in another
        lowering (repro.pin.engine promotes a hot trace in mid-run).

        Not an insert: the virtual compile already happened and is
        accounted — statistics, the insert log and the bubble charge
        stay as they are.  ``new`` takes ``old``'s place in every link
        — links are the only road steady-state execution takes — so
        nothing can still reach the replaced code.
        """
        self._traces[old.start] = new
        for trace in self._traces.values():
            links = trace.links
            for pc, target in links.items():
                if target is old:
                    links[pc] = new

    def invalidate(self, word: int) -> bool:
        """Evict every cached trace whose decode read the guest word at
        ``word`` (it has just been written; ``num_words`` counts the word
        a trace stopped ahead of); True if there was one."""
        stale = [trace.start for trace in self._traces.values()
                 if trace.start <= word < trace.start + trace.num_words]
        for address in stale:
            self._evict_one(address)
        self.stats.invalidations += len(stale)
        return bool(stale)

    def _evict_one(self, address: int) -> None:
        """Drop one cached trace: unlink it everywhere, refund its charge.

        Clears the evicted trace's own outgoing links *and* removes
        every other trace's direct link to it — the same stale-link
        invariant :meth:`flush` maintains wholesale.
        """
        old = self._traces.pop(address)
        links = getattr(old, "links", None)
        if links:
            links.clear()
        for trace in self._traces.values():
            tlinks = getattr(trace, "links", None)
            if not tlinks:
                continue
            for pc in [pc for pc, target in tlinks.items()
                       if target is old]:
                del tlinks[pc]
        refund = self._charges.pop(address, 0)
        self._cursor -= refund
        self.stats.allocated_words -= refund

    def flush(self) -> None:
        """Drop every compiled trace (bubble exhausted or invalidation).

        Every evicted trace is also *unlinked*: direct trace-to-trace
        links (repro.pin.engine) reference successor trace objects, and
        a link that survives a flush would let execution reach evicted
        code the dispatcher can no longer see — the classic stale-link
        bug real Pin's exit-stub unpatching prevents.
        """
        self.metrics.inc("pin.cache.evicted_traces", len(self._traces))
        self.metrics.inc("pin.cache.flushes")
        for trace in self._traces.values():
            links = getattr(trace, "links", None)
            if links:
                links.clear()
        self._traces.clear()
        self._charges.clear()
        self._cursor = self.bubble_base
        self.stats.flushes += 1

    def live_traces(self):
        """The currently cached traces."""
        return self._traces.values()

    def __len__(self) -> int:
        return len(self._traces)

    def __contains__(self, address: int) -> bool:
        return address in self._traces
