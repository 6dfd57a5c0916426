"""Write-ahead run journal and result-blob framing.

Two durability mechanisms share this module because they share a wire
discipline — every byte sequence that crosses a trust boundary (a
process boundary, a crash boundary) carries a length prefix and a
SHA-256 checksum, so a short read or a bit flip surfaces as a
structured error instead of a raw ``UnpicklingError``:

* **Framing** (:func:`frame_blob` / :func:`unframe_blob`) wraps every
  pickled slice-result blob returned by a worker process.  A damaged
  frame raises :class:`~repro.superpin.faults.CorruptResultFault`,
  which the supervisor's retry ladder already knows how to handle.

* The **run journal** (:class:`RunJournal`) makes in-flight runs
  crash-safe: as each slice completes, its (framed) result blob is
  appended to the journal and fsync'd, so a run killed at any instant
  leaves a journal whose valid prefix holds every slice that finished.
  ``-spresume`` then re-executes only the missing slices
  (:meth:`RunJournal.resume`), adopting the journaled results with
  byte-identical merged output.

Journal file layout (little-endian)::

    b"SPJL1\\n"  + run_key (64 ascii hex bytes) + b"\\n"     # header
    [ b"JE01" + u32 slice_index + u64 length + sha256 + blob ]*

The per-entry sha256 covers the entry header fields *and* the blob, so
a bit flip anywhere in an entry — including its slice index — ends the
valid prefix rather than relabeling or damaging an adopted result.

The header is written atomically (tmp + rename, fsync'd); entries are
append-only, each flushed and fsync'd before the append returns — the
write-ahead contract.  A torn tail (the crash hit mid-append) is
*tolerated*: the valid prefix is adopted and the file is truncated back
to it on resume.  A header that belongs to a different run — different
program, tool or result-affecting configuration — is a ``stale``
:class:`~repro.errors.RecordingCorruptError`: adopting another run's
slices would merge silently-wrong results.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct

from ..errors import RecordingCorruptError
from ..fsutil import atomic_write, fsync_directory
from ..obs.metrics import NULL_METRICS
from .switches import RESULT_FIELDS

#: Frame magic for worker result blobs ("SuperPin Framed Blob").
FRAME_MAGIC = b"SPFB"
_FRAME_HEADER = struct.Struct("<4sQ32s")

#: Journal file magic (format revision 1) and per-entry magic.
JOURNAL_MAGIC = b"SPJL1\n"
ENTRY_MAGIC = b"JE01"
_ENTRY_HEADER = struct.Struct("<4sIQ32s")

#: Length of the hex run key stored in the journal header.
_KEY_LEN = 64


def _entry_digest(slice_index: int, blob: bytes) -> bytes:
    """Entry checksum.  Covers the header fields *and* the blob: a bit
    flip in the slice index must fail verification, not silently
    relabel one slice's result as another's."""
    return hashlib.sha256(
        ENTRY_MAGIC + slice_index.to_bytes(4, "little")
        + len(blob).to_bytes(8, "little") + blob).digest()


# -- result-blob framing ------------------------------------------------------

def frame_blob(data: bytes) -> bytes:
    """Wrap ``data`` in a length-prefixed, checksummed frame."""
    return (_FRAME_HEADER.pack(FRAME_MAGIC, len(data),
                               hashlib.sha256(data).digest())
            + data)


def unframe_blob(blob: bytes) -> bytes:
    """Verify and strip a :func:`frame_blob` frame.

    Raises :class:`~repro.superpin.faults.CorruptResultFault` on any
    damage — missing magic, short read, length mismatch, checksum
    mismatch — so the supervisor's existing corrupt-result handling
    (retry, then degrade) applies uniformly.
    """
    from .faults import CorruptResultFault
    if len(blob) < _FRAME_HEADER.size:
        raise CorruptResultFault(
            f"result blob shorter than its frame header "
            f"({len(blob)} bytes)")
    magic, length, digest = _FRAME_HEADER.unpack_from(blob)
    if magic != FRAME_MAGIC:
        raise CorruptResultFault(
            f"result blob has bad frame magic {magic!r}")
    data = blob[_FRAME_HEADER.size:]
    if len(data) != length:
        raise CorruptResultFault(
            f"result blob truncated: frame declares {length} bytes, "
            f"{len(data)} present")
    if hashlib.sha256(data).digest() != digest:
        raise CorruptResultFault(
            "result blob failed its frame checksum (bit flip in "
            "transit)")
    return data


# -- run identity -------------------------------------------------------------

def run_key(source_digest: str, tool_name: str, config) -> str:
    """Identity of one run's *results*: program/artifact + tool + config.

    ``source_digest`` identifies what is being executed — a program
    pickle digest for live runs, a recording id for replays.  Two runs
    with the same key produce byte-identical slice results, which is
    the precondition for adopting each other's journal entries.  The
    config enters through :data:`~repro.superpin.switches.RESULT_FIELDS`
    only, so a resumed or replayed run may use a different execution
    strategy (workers, fault policy, observability) and still adopt the
    journaled results.
    """
    fields = tuple(getattr(config, name) for name in RESULT_FIELDS)
    token = repr((source_digest, tool_name, fields)).encode()
    return hashlib.sha256(token).hexdigest()


def program_digest(program) -> str:
    """Stable digest of a program image (for :func:`run_key`)."""
    return hashlib.sha256(
        pickle.dumps(program, pickle.HIGHEST_PROTOCOL)).hexdigest()


# -- the journal --------------------------------------------------------------

class RunJournal:
    """Append-only write-ahead journal of completed slice results."""

    def __init__(self, path, key: str, metrics=NULL_METRICS):
        self.path = os.fspath(path)
        self.key = key
        self.metrics = metrics
        self._handle = None

    # -- creation / resume -------------------------------------------------

    @classmethod
    def create(cls, path, key: str, metrics=NULL_METRICS) -> "RunJournal":
        """Start a fresh journal, atomically replacing any previous one."""
        journal = cls(path, key, metrics=metrics)
        atomic_write(journal.path,
                     JOURNAL_MAGIC + key.encode("ascii") + b"\n")
        fsync_directory(journal.path)
        journal._handle = open(journal.path, "ab")
        return journal

    @classmethod
    def resume(cls, path, key: str, metrics=NULL_METRICS
               ) -> tuple["RunJournal", dict[int, bytes]]:
        """Open an existing journal and adopt its valid entry prefix.

        Returns ``(journal, entries)`` where ``entries`` maps slice
        index to the journaled (framed) result blob.  A missing journal
        starts fresh with no entries.  A torn tail is truncated away;
        a wrong run key raises a ``stale``
        :class:`~repro.errors.RecordingCorruptError`.
        """
        path = os.fspath(path)
        if not os.path.exists(path):
            return cls.create(path, key, metrics=metrics), {}
        with open(path, "rb") as handle:
            data = handle.read()
        entries, valid_end = _scan(data, key, path)
        if valid_end < len(data):
            # Torn tail: keep the durable prefix, drop the partial
            # entry the crash interrupted (its slice simply re-runs).
            atomic_write(path, data[:valid_end])
        journal = cls(path, key, metrics=metrics)
        journal._handle = open(path, "ab")
        return journal, entries

    # -- the write-ahead contract ------------------------------------------

    def append(self, slice_index: int, blob: bytes) -> None:
        """Durably record one completed slice's result blob.

        The entry is flushed and fsync'd before this returns: once a
        slice is reported successful, a crash cannot lose it.
        """
        if self._handle is None:
            raise RecordingCorruptError(
                "journal is closed", kind="stale",
                section=f"entry_{slice_index}")
        entry = _ENTRY_HEADER.pack(ENTRY_MAGIC, slice_index, len(blob),
                                   _entry_digest(slice_index, blob)) + blob
        self._handle.write(entry)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.metrics.inc("superpin.journal.appends")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _scan(data: bytes, key: str, path: str
          ) -> tuple[dict[int, bytes], int]:
    """Validate a journal image; return (entries, end of valid prefix).

    Header damage is fatal (the whole file is untrustworthy); entry
    damage ends the valid prefix — everything before it is adopted,
    everything after is discarded (write-ahead means a torn tail can
    only be the *last* append).
    """
    header_len = len(JOURNAL_MAGIC) + _KEY_LEN + 1
    if len(data) < header_len:
        raise RecordingCorruptError(
            f"journal {path} shorter than its header", kind="truncated",
            section="header")
    if not data.startswith(JOURNAL_MAGIC):
        if data[:4] == JOURNAL_MAGIC[:4]:
            raise RecordingCorruptError(
                f"journal {path} written by an incompatible format "
                f"revision", kind="version", section="header")
        raise RecordingCorruptError(
            f"journal {path} has bad magic", kind="magic",
            section="header")
    stored = data[len(JOURNAL_MAGIC):len(JOURNAL_MAGIC) + _KEY_LEN]
    if stored != key.encode("ascii"):
        raise RecordingCorruptError(
            f"journal {path} belongs to a different run (key "
            f"{stored[:12]!r}... != {key[:12]!r}...): refusing to adopt "
            f"another run's slice results", kind="stale",
            section="header")
    entries: dict[int, bytes] = {}
    pos = header_len
    while pos < len(data):
        start = pos
        if pos + _ENTRY_HEADER.size > len(data):
            return entries, start
        magic, index, length, digest = _ENTRY_HEADER.unpack_from(data, pos)
        pos += _ENTRY_HEADER.size
        if magic != ENTRY_MAGIC or pos + length > len(data):
            return entries, start
        blob = data[pos:pos + length]
        pos += length
        if _entry_digest(index, blob) != digest:
            return entries, start
        entries[index] = blob
    return entries, pos


def damage_journal(path, kind: str) -> None:
    """Deterministically damage a journal (a test hook).

    ``truncate`` chops into the last entry (a torn tail — resume must
    re-execute that slice); ``stale`` ages the header's run key so
    resume must reject the file outright.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        data = handle.read()
    if kind == "truncate":
        cut = max(len(JOURNAL_MAGIC) + _KEY_LEN + 1, len(data) - 7)
        atomic_write(path, data[:cut])
    elif kind == "stale":
        start = len(JOURNAL_MAGIC)
        aged = (data[:start] + b"0" * _KEY_LEN
                + data[start + _KEY_LEN:])
        atomic_write(path, aged)
    else:
        raise ValueError(f"unknown journal damage kind {kind!r}")
