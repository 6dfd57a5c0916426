"""The warm store: the repo's one answer to "don't recompile" (§8).

    "The best approach for dramatically reducing the compilation
    overhead may be to share the code cache across all timeslices via
    shared memory.  This may add a little extra overhead by performing
    extra consistency checks from other slices, but we feel that the
    reduction in overhead will outweigh the costs."

One payload, two tiers, one view:

* **The payload** — :class:`WarmPayload`: the pilot slice's compiled
  traces as :class:`WarmTrace` records plus its promoted TC2 chains.
  What a record carries is the JIT backend's business
  (``jit.export_warm`` / ``jit.build_warm`` in :mod:`repro.pin`): the
  closure backend ships address and length only — closures over live VM
  state cannot cross a process — and rebuilds through an ordinary
  compile; the source backend ships the generated source text and the
  marshalled code object, and skips ``compile()`` when the locally
  regenerated text matches (the paper's "consistency check").  The
  payload is *advisory*: it is re-verified where it is consumed, every
  install goes through the ordinary ``CodeCache.insert``, and so
  compiles, compile logs, bubble accounting and every virtual-timing
  input are byte-identical to a cold run (``-spwarmcache 0``, the
  reference the parity tests compare against).
* **Memory tier** — :class:`WarmStore`, one per run.  ``lookup()``
  answers "is there a payload before any slice ran" (a disk hit: every
  slice, the pilot included, starts warm); ``fold(pilot_result)``
  freezes the pilot's exports into the payload every later slice — and
  every supervisor retry — ships with, so results are identical for any
  worker count and completion order.
* **Disk tier** — :class:`TraceStore` (``-sptracestore``): the frozen
  payload, content-addressed by :func:`store_key` (program digest or
  recording id, ISA/codegen fingerprint, and every config field that
  shapes compiled traces), one ``<key>.spwc`` file per entry: magic,
  SHA-256 of the payload, pickled ``{"traces", "chains"}`` sections.
  Written with :func:`repro.fsutil.atomic_write`, so concurrent writers
  race to a *complete* file; every load recomputes the digest and a
  mismatch evicts the entry and reports a miss; the directory is
  size-bounded with LRU eviction by access time.  The digest is unkeyed:
  it detects bit rot and truncation, **not** a hostile writer — hits are
  unpickled and source-backend code objects executed, so the directory
  must be as trusted as the code itself.
* **§8 attribution is a view** — :func:`charge_slices_in_order`
  (``-spsharedcache``) re-attributes compile cost over the slices'
  compile logs after the fact; it stores nothing.

Counters (``-spmetrics``): ``pin.cache.persistent_hits`` / ``_misses``
/ ``_saves`` / ``_evictions`` / ``_corrupt`` / ``_chain_drops``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
from dataclasses import dataclass

from ..fsutil import atomic_write, fsync_directory
from ..obs.metrics import NULL_METRICS


@dataclass(frozen=True)
class WarmTrace:
    """One transportable trace; ``source``/``code`` are backend-owned."""

    address: int
    num_ins: int
    #: Generated source text (source backend) — the consistency key.
    source: str | None = None
    #: ``marshal.dumps`` of the compiled code object (source backend).
    code: bytes | None = None


@dataclass(frozen=True)
class WarmPayload:
    """The frozen warm payload: trace records plus TC2 promotion chains
    (tuples of segment start addresses, installed as a promotion profile
    so warm slices start *hot*, not merely warm)."""

    traces: tuple = ()
    chains: tuple = ()


#: Entry-file magic + format revision.  Bump when the payload schema
#: changes shape.  Revision 2 pickles a section dict — ``traces`` (the
#: WarmTrace tuple) plus ``chains`` (TC2 promotion chains); other
#: revisions fail the magic check and evict like any corrupt file.
STORE_MAGIC = b"SPTS2\n"
_HEADER_LEN = len(STORE_MAGIC) + 32
ENTRY_SUFFIX = ".spwc"

#: Default size budget for a store directory (entry files only).
DEFAULT_STORE_LIMIT = 64 * 1024 * 1024


@functools.lru_cache(maxsize=None)
def isa_fingerprint() -> str:
    """Digest of every module that shapes compiled trace code.

    Hashing the *source* of the ISA encoding and both JIT backends makes
    the store self-invalidating: any change to instruction semantics or
    code generation changes the fingerprint, so old entries simply stop
    matching instead of feeding stale generated code to a new engine.
    """
    import inspect

    from ..isa import encoding, instructions
    from ..pin import engine, jit, pyjit, superblock, suppress, trace

    digest = hashlib.sha256()
    for module in (encoding, instructions, trace, jit, pyjit, suppress,
                   superblock, engine):
        digest.update(inspect.getsource(module).encode("utf-8"))
    return digest.hexdigest()


#: Config fields that shape compiled trace *code* (not results): the
#: JIT backend picks the code representation, the filter/suppression
#: settings change what instrumentation is woven in, linking keeps keys
#: honest if it ever changes code, and the TC2 threshold shapes which
#: promotion chains the payload carries.
_KEY_FIELDS = ("jit_backend", "spfilter", "spsuppress", "splinktraces",
               "sptc2")


def store_key(source_digest: str, config) -> str:
    """Content address of one program+config's warm payload.

    ``source_digest`` identifies the code being executed — a program
    pickle digest for live runs, a recording id for replays (the two
    deliberately key separate entries: a recording's slice shapes are
    its own).
    """
    fields = tuple(getattr(config, name, None) for name in _KEY_FIELDS)
    token = repr((source_digest, isa_fingerprint(), fields)).encode()
    return hashlib.sha256(token).hexdigest()


def _valid_chains(chains) -> bool:
    """Structural validity of a persisted TC2 chain section.

    Traces are re-verified per entry where they are consumed; chains
    have no such second line of defence, so a load checks the shape a
    promotion profile requires: a tuple of non-empty tuples of
    addresses.
    """
    if not isinstance(chains, tuple):
        return False
    for chain in chains:
        if not isinstance(chain, tuple) or not chain:
            return False
        for address in chain:
            if not isinstance(address, int) or isinstance(address, bool):
                return False
    return True


def _frame(sections: dict) -> bytes:
    payload = pickle.dumps(sections, pickle.HIGHEST_PROTOCOL)
    return STORE_MAGIC + hashlib.sha256(payload).digest() + payload


def _unframe(data: bytes) -> dict | None:
    """The verified, decoded sections of an entry file, or None."""
    if len(data) < _HEADER_LEN or not data.startswith(STORE_MAGIC):
        return None
    payload = data[_HEADER_LEN:]
    digest = data[len(STORE_MAGIC):_HEADER_LEN]
    if hashlib.sha256(payload).digest() != digest:
        return None
    try:
        sections = pickle.loads(payload)
        sections["traces"] = tuple(sections["traces"])
    except Exception:
        return None
    return sections


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

    def load(self, key: str) -> WarmPayload | None:
        """Return the verified warm payload for ``key``, or None.

        Counts a ``persistent_hit`` or ``persistent_miss``; a corrupt
        entry (bad magic, bad digest, undecodable payload) is evicted
        on the spot and reported as a miss — damaged bytes are never
        returned.  A hit refreshes the entry's access time, which is
        what the LRU eviction orders by.
        """
        path = self._path(key)
        sections = self._read(path)
        if sections is None:
            self.metrics.inc("pin.cache.persistent_misses")
            return None
        chains = sections.get("chains", ())
        if not _valid_chains(chains):
            # A bad TC2 section must not poison the tier-1 warm start:
            # drop the chains, keep the traces.
            self.metrics.inc("pin.cache.persistent_chain_drops")
            chains = ()
        try:
            os.utime(path)
        except OSError:
            pass  # evicted or unlinked concurrently; the payload stands
        self.metrics.inc("pin.cache.persistent_hits")
        return WarmPayload(sections["traces"], chains)

    def _read(self, path: str) -> dict | None:
        """The verified sections at ``path``; None when the entry is
        absent or corrupt (and then evicted)."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        sections = _unframe(data)
        if sections is None:
            self.metrics.inc("pin.cache.persistent_corrupt")
            self._unlink(path)
        return sections

    def _unlink(self, path: str) -> bool:
        try:
            os.unlink(path)
        except OSError:
            return False  # unlinked concurrently
        self.metrics.inc("pin.cache.persistent_evictions")
        return True

    def save(self, key: str, payload: WarmPayload) -> None:
        """Persist one frozen warm payload; enforce the size budget.

        Empty payloads are not stored (an empty entry would turn every
        future run into a useless "hit" that warms nothing).
        """
        if not payload.traces:
            return
        path = self._path(key)
        atomic_write(path, _frame({"traces": payload.traces,
                                   "chains": payload.chains}))
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
    """The run's :class:`TraceStore`, or None when not configured.

    The store only participates when the warm cache itself is on: the
    payload *is* the warm payload, and with ``-spwarmcache 0`` there is
    nothing to install it into.
    """
    if config.sptracestore is None or not config.spwarmcache:
        return None
    return TraceStore(config.sptracestore,
                      limit_bytes=config.sptracestore_limit,
                      metrics=metrics)


def _rewrite_entry(root, key: str, edit) -> None:
    path = TraceStore(root)._path(key)
    with open(path, "rb") as handle:
        data = handle.read()
    atomic_write(path, edit(data))


def damage_store_entry(root, key: str) -> None:
    """Flip one payload bit of a store entry (test/injection hook).

    Mirrors :func:`~repro.superpin.recording.damage_recording`: the
    entry keeps its magic and length but fails its digest, which a load
    must detect and evict.
    """
    _rewrite_entry(root, key, lambda data: (
        data[:_HEADER_LEN] + bytes([data[_HEADER_LEN] ^ 0x01])
        + data[_HEADER_LEN + 1:]))


def damage_store_chains(root, key: str) -> None:
    """Corrupt only the TC2 chain section of an entry (test hook).

    Rewrites the entry with a structurally invalid ``chains`` section
    and a *recomputed* (valid) digest: the file verifies, the traces
    decode, and only the chain validation can catch the rot — the load
    must drop the chains while still warming tier 1.
    """
    _rewrite_entry(root, key, lambda data: _frame(
        {**_unframe(data), "chains": ("not-a-chain",)}))


class WarmStore:
    """One run's warm tier: a memory-held payload over an optional disk
    entry (``disk`` + ``key``).  Frozen once — by a disk hit or by the
    first fold — so every slice, on any attempt, sees the same warm set.
    """

    def __init__(self, disk: TraceStore | None = None, key: str = ""):
        self._disk = disk
        self._key = key
        self._frozen: WarmPayload | None = None

    @classmethod
    def for_run(cls, config, source_digest: str,
                metrics=NULL_METRICS) -> WarmStore:
        """The store of one pipeline run (``-sptracestore`` or not)."""
        disk = trace_store_for(config, metrics)
        # An empty TraceStore is falsy (it has __len__): test identity.
        key = "" if disk is None else store_key(source_digest, config)
        return cls(disk, key)

    def lookup(self) -> WarmPayload | None:
        """The payload known before any slice ran (a disk hit), or None."""
        if self._frozen is None and self._disk is not None:
            self._frozen = self._disk.load(self._key)
        return self._frozen

    def fold(self, pilot) -> WarmPayload:
        """Freeze the pilot slice's exports into the run's payload.

        Dedupes (first wins) and sorts the exported traces for
        determinism, adopts the pilot's superblock chains, persists the
        payload to the disk tier, and strips the exports off ``pilot``
        so reports don't drag trace sources around.
        """
        if self._frozen is None:
            first: dict[tuple[int, int], WarmTrace] = {}
            for entry in pilot.warm_exports:
                first.setdefault((entry.address, entry.num_ins), entry)
            self._frozen = WarmPayload(
                tuple(first[shape] for shape in sorted(first)),
                tuple(tuple(chain) for chain in pilot.sb_chains))
            if self._disk is not None:
                self._disk.save(self._key, self._frozen)
        pilot.warm_exports = pilot.sb_chains = ()
        return self._frozen


def charge_slices_in_order(results) -> None:
    """§8 shared-code-cache attribution (``-spsharedcache``), as a view.

    Slices execute (possibly concurrently, in any completion order) with
    private caches; this pass walks the results in *slice index order*
    and leaves each trace's compile cost — keyed by ``(address,
    num_ins)``, so per-slice boundary splits never alias the shared body
    — with the lowest-indexed slice that compiled it.  Every other
    compilation becomes a ``shared_cache_reuse`` that pays only the
    consistency check.  Mutates the results in place; the figures are
    identical for any worker count.
    """
    compiled: set[tuple[int, int]] = set()
    for result in sorted(results, key=lambda r: r.index):
        compiles = compiled_ins = 0
        for shape in result.compile_log:
            if shape not in compiled:
                compiled.add(shape)
                compiles += 1
                compiled_ins += shape[1]
        result.compiles = compiles
        result.compiled_ins = compiled_ins
        result.shared_cache_reuses = len(result.compile_log) - compiles
