"""The warm account and the trace store.

    "The best approach for dramatically reducing the compilation
    overhead may be to share the code cache across all timeslices via
    shared memory.  This may add a little extra overhead by performing
    extra consistency checks from other slices, but we feel that the
    reduction in overhead will outweigh the costs."

The shared cache has one host-time implementation — the resident slice
machine, which keeps each trace's decoded, instrumented and lowered code
from slice to slice and checks it at the trace's second compile
(:mod:`repro.pin.jit`) — and the slices' compile logs carry everything
else anybody asks about it.  This module holds one *view* over those
logs and the one thing that outlives a run:

* **The warm account** — :func:`count_warm_starts`.  The *warm set* is
  the trace heads slice 0 compiled; ``warm_starts`` of a later slice is
  how many distinct heads of its own compile log the set names — the
  compiles an earlier slice of the run had already paid for once.  A
  function of the compile logs in slice order and nothing else, so it is
  the same number for any worker count, completion order, retry or
  journal adoption; it stores nothing and no slice is ever told about
  it.  :func:`pilot_cold_compiles` is the same view's other column.
* (§8's *virtual* account over the same logs is the timing model's:
  :func:`repro.sched.timing.shared_cache_charges`.)
* **The trace store** — :class:`TraceStore`: the warm set of one
  program, kept across runs under :func:`store_key`.  On a hit the
  stored heads are the warm set and slice 0 is counted against them
  like every other slice; on a miss slice 0's heads are saved.  An
  entry changes what a run *reports*, never what it executes.  The tier
  exists because the frozen benchmark (``bench/layers.py``, pinned by
  ``tests/test_bench_contract.py``) drives ``trace_store_for`` /
  ``store_key`` / ``load`` / ``save`` / ``size_bytes`` and expects a
  cold run to leave an entry; only that benchmark and this module's
  tests set the one way in, ``SuperPinConfig.sptracestore`` (no switch,
  daemon or CLI).  Deleting it waits for benchmark round 2 (ROADMAP
  item 1(e)); its size budget is a constant, :data:`DEFAULT_STORE_LIMIT`.
  The warm tier that saves host time is
  the resident slice machine, not this file.

  One ``<key>.spwc`` file per entry: magic, SHA-256 of the payload, the
  heads as a JSON list of integers.  Written with
  :func:`repro.fsutil.atomic_write`, so concurrent writers race to a
  *complete* file; every load recomputes the digest and validates the
  list like any outside input, and a failure evicts the entry and
  reports a miss; the directory is size-bounded with LRU eviction by
  access time.  Nothing read from the directory is unpickled,
  unmarshalled or executed: the digest is unkeyed, and what a hostile
  writer can change is a counter.

Counters (``-spmetrics``): ``pin.cache.warm_starts`` and
``pin.cache.persistent_hits`` / ``_misses`` / ``_saves`` /
``_evictions`` / ``_corrupt``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

from ..fsutil import atomic_write, fsync_directory
from ..obs.metrics import NULL_METRICS

#: Entry-file magic + format revision.  Revision 3 is a JSON list of
#: trace heads; older revisions (pickled trace records) fail the magic
#: check and are evicted like any corrupt file.
STORE_MAGIC = b"SPTS3\n"
_HEADER_LEN = len(STORE_MAGIC) + 32
ENTRY_SUFFIX = ".spwc"

#: Size budget of a run's store directory (entry files only); only
#: tests construct a :class:`TraceStore` with another.
DEFAULT_STORE_LIMIT = 64 * 1024 * 1024


@functools.lru_cache(maxsize=None)
def isa_fingerprint() -> str:
    """Digest of every module that shapes where a trace *starts*: the
    ISA encoding and semantics, the trace builder and the dispatch loop.

    Hashing their source makes the store self-invalidating: a change to
    any of them changes the fingerprint, so old entries stop matching
    instead of naming heads a new engine never compiles.
    """
    import inspect

    from ..isa import encoding, instructions
    from ..pin import engine, trace

    digest = hashlib.sha256()
    for module in (encoding, instructions, trace, engine):
        digest.update(inspect.getsource(module).encode("utf-8"))
    return digest.hexdigest()


def store_key(source_digest: str, config) -> str:
    """Content address of one program's warm set.

    ``source_digest`` identifies the code being executed — a program
    pickle digest for live runs, a recording id for replays (the two
    deliberately key separate entries: a recording's slice shapes are
    its own).  ``config`` is the frozen benchmark's call shape and
    shapes nothing: no switch moves a trace head (backend, filter and
    loop summaries all leave the compile logs of
    ``tests/conftest.MULTISLICE`` and the bench guests unchanged).
    """
    token = repr((source_digest, isa_fingerprint())).encode()
    return hashlib.sha256(token).hexdigest()


def _frame(heads) -> bytes:
    payload = json.dumps(list(heads)).encode("ascii")
    return STORE_MAGIC + hashlib.sha256(payload).digest() + payload


def _unframe(data: bytes) -> tuple[int, ...] | None:
    """The verified, validated heads of an entry file, or None."""
    if len(data) < _HEADER_LEN or not data.startswith(STORE_MAGIC):
        return None
    payload = data[_HEADER_LEN:]
    digest = data[len(STORE_MAGIC):_HEADER_LEN]
    if hashlib.sha256(payload).digest() != digest:
        return None
    try:
        heads = json.loads(payload)
    except (ValueError, RecursionError):
        return None
    # The digest is unkeyed, so a well-framed entry is still outside
    # input: a non-empty list of addresses (``True`` is an int).
    if (not isinstance(heads, list) or not heads
            or any(type(head) is not int or head < 0 for head in heads)):
        return None
    return tuple(heads)


class TraceStore:
    """One on-disk store directory: load, save, verify, evict."""

    def __init__(self, root, limit_bytes: int = DEFAULT_STORE_LIMIT,
                 metrics=NULL_METRICS):
        self.root = os.fspath(root)
        self.limit_bytes = limit_bytes
        self.metrics = metrics
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ENTRY_SUFFIX)

    def load(self, key: str) -> tuple[int, ...] | None:
        """Return the verified warm set stored under ``key``, or None.

        Counts a ``persistent_hit`` or ``persistent_miss``; a corrupt
        entry (bad magic, bad digest, anything but a non-empty JSON list
        of addresses) is evicted on the spot and reported as a miss —
        damaged bytes are never returned.  A hit refreshes the entry's
        access time, which is what the LRU eviction orders by.
        """
        path = self._path(key)
        heads = self._read(path)
        if heads is None:
            self.metrics.inc("pin.cache.persistent_misses")
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # evicted or unlinked concurrently; the heads stand
        self.metrics.inc("pin.cache.persistent_hits")
        return heads

    def _read(self, path: str) -> tuple[int, ...] | None:
        """The verified heads at ``path``; None when the entry is
        absent or corrupt (and then evicted)."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        heads = _unframe(data)
        if heads is None:
            self.metrics.inc("pin.cache.persistent_corrupt")
            self._unlink(path)
        return heads

    def _unlink(self, path: str) -> bool:
        try:
            os.unlink(path)
        except OSError:
            return False  # unlinked concurrently
        self.metrics.inc("pin.cache.persistent_evictions")
        return True

    def save(self, key: str, heads) -> None:
        """Persist one warm set; enforce the size budget.

        An empty set is not stored (an empty entry would turn every
        future run into a useless "hit" that names nothing).
        """
        if not heads:
            return
        path = self._path(key)
        atomic_write(path, _frame(heads))
        fsync_directory(path)
        self.metrics.inc("pin.cache.persistent_saves")
        self._enforce_limit(keep=path)

    def _entries(self) -> list[tuple[float, float, str, int]]:
        """``(atime, mtime, path, size)`` of every entry file present."""
        entries = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return entries
        for name in names:
            if name.endswith(ENTRY_SUFFIX):
                path = os.path.join(self.root, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # unlinked concurrently
                entries.append((stat.st_atime, stat.st_mtime, path,
                                stat.st_size))
        return entries

    def _enforce_limit(self, keep: str) -> None:
        """LRU-evict entry files until the store fits its budget.

        The just-written entry (``keep``) is never the first casualty:
        a store smaller than one payload should hold that payload, not
        thrash.  Races are benign — a concurrently-unlinked file is
        skipped, and readers that already opened a victim still see its
        complete content.
        """
        entries = self._entries()
        total = sum(entry[3] for entry in entries)
        for _atime, _mtime, path, size in sorted(entries):
            if total <= self.limit_bytes:
                return
            if path != keep and self._unlink(path):
                total -= size

    def keys(self) -> list[str]:
        """Keys currently present (unverified; loads still verify)."""
        return sorted(os.path.basename(entry[2])[:-len(ENTRY_SUFFIX)]
                      for entry in self._entries())

    def size_bytes(self) -> int:
        return sum(entry[3] for entry in self._entries())

    def __len__(self) -> int:
        return len(self._entries())


def trace_store_for(config, metrics=NULL_METRICS) -> TraceStore | None:
    """The run's :class:`TraceStore`, or None when not configured."""
    if config.sptracestore is None:
        return None
    return TraceStore(config.sptracestore, metrics=metrics)


def damage_store_entry(root, key: str) -> None:
    """Flip one payload bit of a store entry (test/injection hook).

    Mirrors :func:`~repro.superpin.recording.damage_recording`: the
    entry keeps its magic and length but fails its digest, which a load
    must detect and evict.
    """
    path = TraceStore(root)._path(key)
    with open(path, "rb") as handle:
        data = handle.read()
    atomic_write(path, data[:_HEADER_LEN]
                 + bytes([data[_HEADER_LEN] ^ 0x01])
                 + data[_HEADER_LEN + 1:])


def _heads(result) -> set[int]:
    """The trace heads ``result``'s slice compiled."""
    return {pc for pc, _ in result.compile_log}


def count_warm_starts(results, config, source_digest: str | None = None,
                      metrics=NULL_METRICS) -> None:
    """The warm account, as a view: fill every result's ``warm_starts``.

    ``results`` are the surviving slice results in slice order.  The
    warm set is the heads slice 0 compiled, and slice 0 itself — which
    paid for them — counts none; a hole at slice 0 names nothing, so
    every slice counts zero.  With ``source_digest`` (the content half
    of :func:`store_key`; None: no disk tier for this caller) and
    ``config.sptracestore``, a stored set takes slice 0's place and
    slice 0 is counted against it too; on a miss slice 0's heads are
    saved.  Re-compiles after a cache flush are one head: a trace starts
    warm once.  ``pin.cache.warm_starts`` is incremented here and
    nowhere else.
    """
    first = results[0] if results and results[0].index == 0 else None
    own = _heads(first) if first is not None else set()
    stored = None
    disk = (trace_store_for(config, metrics)
            if source_digest is not None else None)
    if disk is not None:
        key = store_key(source_digest, config)
        stored = disk.load(key)
        if stored is None:
            disk.save(key, sorted(own))  # (an empty set is not stored)
    named = own if stored is None else frozenset(stored)
    for result in results:
        # Slice 0 paid for its own heads; nobody in this run paid for a
        # stored set.
        result.warm_starts = (0 if stored is None and result is first
                              else len(named & _heads(result)))
    metrics.inc("pin.cache.warm_starts",
                sum(result.warm_starts for result in results))


def pilot_cold_compiles(results) -> int:
    """Trace heads slice 0 compiled that no stored warm set named —
    all of them without a trace-store hit, none on a hit of this
    program's own entry; 0 when slice 0 left no result.  Read off
    counted ``results`` (:func:`count_warm_starts`)."""
    if not results or results[0].index != 0:
        return 0
    return len(_heads(results[0])) - results[0].warm_starts
