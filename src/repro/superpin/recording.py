"""Durable recording artifacts: record once, replay many (rr-style).

``-sprecord PATH`` serializes everything the slice phase needs — the
boundary snapshots (initial memory image included, as COW forks), the
slice boundary table with signatures, every interval's recorded syscall
stream, the nondeterminism seed and the post-run kernel — into one
versioned, content-addressed artifact.  :func:`~repro.superpin.runtime.
replay_recording` (``superpin replay -r PATH``) then runs any Pintool
against that artifact *without re-running the master*: the
slice/supervisor/merge machinery sources its
``(Boundary, Interval)`` specs from the artifact instead of a live
control phase.

Robustness is the spine.  The artifact is self-verifying: a manifest
lists every section with its offset, length and SHA-256 digest, plus a
``recording_id`` content-addressing the whole artifact.  Every load
path verifies all of it and raises a taxonomized
:class:`~repro.errors.RecordingCorruptError` (``magic`` / ``version`` /
``manifest`` / ``truncated`` / ``digest`` / ``shape``) on any damage —
never a wrong-but-clean replay.  When only individual *slice* sections
are damaged and the caller runs ``-spfaults degrade``, the load
tolerates them per-slice (:attr:`Recording.damaged`) and replay leaves
holes exactly like any other degraded slice.

File layout (little-endian)::

    b"SPREC1\\n" + u64 manifest_length + manifest JSON + section bytes

Sections (all pickled, protocol :data:`pickle.HIGHEST_PROTOCOL`):

* ``meta`` — run shape and the audit checkpoint table: exit code,
  instruction/syscall totals, per-boundary ``(icount, pc, cpu_hash)``
  checkpoints, per-interval stream digests / instruction spans /
  syscall counts, final architectural state, kernel seed, stdout, and
  the result-affecting config fields;
* ``kernel`` — the post-run kernel (stdout, files, layout);
* ``signatures`` — the ``num_slices - 1`` interior boundary signatures;
* ``slice_NNNN`` — one ``(Boundary, Interval)`` pair per slice.

Slice specs are unpickled *fresh on every access*: a slice run mutates
its boundary's COW memory fork, so replaying N tools (or retrying a
slice) must never share loaded ``Boundary`` objects.
"""

from __future__ import annotations

import bisect
import hashlib
import io
import json
import pickle
import struct
from dataclasses import dataclass, field

from ..errors import RecordingCorruptError
from ..fsutil import atomic_write
from ..machine.cpu import fingerprint_state
from ..obs.metrics import NULL_METRICS
from .control import (Boundary, Interval, MasterTimeline,
                      MIN_TIMESLICE_MSEC)
from .signature import QUICKREG_BLOCK_COUNT, Signature, STACK_WORDS
from .slices import RUNAWAY_FACTOR, RUNAWAY_SLACK
from .sysrecord import recorded_stream_digest

#: Artifact magic; the trailing revision digit is the format version.
MAGIC = b"SPREC1\n"
_LEN = struct.Struct("<Q")

#: Current artifact format version (bump on incompatible layout change).
FORMAT_VERSION = 1

#: ``meta["config"]`` of format 1: the result-affecting config of the
#: recording run, under the names and in the order the format was
#: defined with.  Nothing reads the table back, but the section is
#: hashed into ``recording_id``, so the names that have since stopped
#: being fields (one value was ever in use, or another field implies
#: it) keep their slot and that value: the same program and config
#: still record to the same id.
_META_CONFIG = (
    "spmsec", "spmp", "spsysrecs", "clock_hz", "jit_backend",
    "splinktraces", "spwarmcache", "spsharedcache", "spfilter",
    "spsuppress", "spsample", "spadaptive", "expected_duration_msec",
    "min_timeslice_msec", "signature_stack_words", "quickreg_block_count",
    "quickreg_adaptive", "slice_runaway_factor", "slice_runaway_slack",
)
_RETIRED_CONFIG = {
    "jit_backend": "closure", "splinktraces": True, "spwarmcache": True,
    "spsharedcache": False,
    "min_timeslice_msec": MIN_TIMESLICE_MSEC,
    "signature_stack_words": STACK_WORDS,
    "quickreg_block_count": QUICKREG_BLOCK_COUNT, "quickreg_adaptive": True,
    "slice_runaway_factor": RUNAWAY_FACTOR,
    "slice_runaway_slack": RUNAWAY_SLACK}

#: Sections whose damage is never tolerable — without them there is no
#: run shape to degrade around.
CORE_SECTIONS = ("meta", "kernel", "signatures")


def _slice_section(k: int) -> str:
    return f"slice_{k:04d}"


# -- saving -------------------------------------------------------------------

def save_recording(path, timeline: MasterTimeline,
                   signatures: list[Signature], config,
                   metrics=NULL_METRICS) -> dict:
    """Serialize one completed control+signature phase to ``path``.

    Returns the manifest (with ``recording_id``).  The write is atomic:
    a crash mid-save leaves the previous artifact (or nothing), never a
    torn one — and a torn artifact would be rejected on load anyway.
    """
    n = len(timeline.intervals)
    retired = dict(_RETIRED_CONFIG,
                   spadaptive=config.expected_duration_msec > 0)
    meta = {
        "num_slices": n,
        "exit_code": timeline.exit_code,
        "total_instructions": timeline.total_instructions,
        "total_syscalls": timeline.total_syscalls,
        "final_pc": timeline.final_pc,
        "final_cpu_hash": timeline.final_cpu_hash,
        "kernel_seed": getattr(timeline.kernel, "seed", None),
        "stdout": timeline.kernel.stdout_text(),
        "checkpoints": [
            (b.master_instructions, b.cpu_snapshot[0],
             fingerprint_state(*b.cpu_snapshot))
            for b in timeline.boundaries],
        "interval_digests": [
            recorded_stream_digest(i.records) for i in timeline.intervals],
        "interval_instructions": [i.instructions
                                  for i in timeline.intervals],
        "interval_syscalls": [i.syscalls for i in timeline.intervals],
        # ``spadaptive`` was throttling's on switch; ``-spexpected N``
        # alone is now, so the slot records N > 0.
        "config": {name: getattr(config, name, retired.get(name))
                   for name in _META_CONFIG},
    }
    sections: list[tuple[str, bytes]] = [
        ("meta", pickle.dumps(meta, pickle.HIGHEST_PROTOCOL)),
        ("kernel", pickle.dumps(timeline.kernel, pickle.HIGHEST_PROTOCOL)),
        ("signatures", pickle.dumps(list(signatures),
                                    pickle.HIGHEST_PROTOCOL)),
    ]
    for k in range(n):
        sections.append((_slice_section(k), pickle.dumps(
            (timeline.boundaries[k], timeline.intervals[k]),
            pickle.HIGHEST_PROTOCOL)))

    table = []
    offset = 0
    identity = hashlib.sha256()
    for name, data in sections:
        digest = hashlib.sha256(data).hexdigest()
        table.append({"name": name, "offset": offset,
                      "length": len(data), "sha256": digest})
        identity.update(digest.encode("ascii"))
        offset += len(data)
    manifest = {
        "format_version": FORMAT_VERSION,
        "num_slices": n,
        "recording_id": identity.hexdigest(),
        "sections": table,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(_LEN.pack(len(manifest_bytes)))
    out.write(manifest_bytes)
    for _, data in sections:
        out.write(data)
    atomic_write(path, out.getvalue())
    metrics.inc("superpin.recording.sections", len(sections))
    return manifest


# -- loading ------------------------------------------------------------------

@dataclass
class Recording:
    """A verified (or per-slice-degraded) loaded recording artifact."""

    path: str
    manifest: dict
    meta: dict
    #: Slice index -> the verification error for that slice's section.
    #: Non-empty only when the load ran with ``tolerate_damaged=True``.
    damaged: dict[int, RecordingCorruptError] = field(default_factory=dict)
    #: Raw verified section bytes, name -> payload.
    _sections: dict[str, bytes] = field(default_factory=dict, repr=False)

    @property
    def num_slices(self) -> int:
        return self.manifest["num_slices"]

    @property
    def recording_id(self) -> str:
        return self.manifest["recording_id"]

    def signatures(self) -> list[Signature]:
        """Fresh copies of the interior boundary signatures."""
        return pickle.loads(self._sections["signatures"])

    def kernel(self):
        """A fresh copy of the recorded post-run kernel."""
        return pickle.loads(self._sections["kernel"])

    def slice_spec(self, k: int) -> tuple[Boundary, Interval]:
        """Unpickle slice ``k``'s ``(Boundary, Interval)`` — fresh.

        Every call returns new objects: replay mutates a boundary's COW
        memory fork, so specs must never be shared across slice runs or
        tool replays.
        """
        if k in self.damaged:
            raise self.damaged[k]
        return pickle.loads(self._sections[_slice_section(k)])

    # -- random access (time travel) ---------------------------------------

    @property
    def total_instructions(self) -> int:
        """Master instructions the recorded run retired, end to end."""
        return self.meta["total_instructions"]

    def checkpoint(self, k: int) -> tuple[int, int, str]:
        """Boundary ``k``'s verified checkpoint triple.

        ``(master_instructions, pc, cpu_hash)`` from the meta section —
        available even for a damaged slice (the meta section must always
        verify), which is what lets degraded holes keep correct icount
        spans.
        """
        icount, pc, cpu_hash = self.meta["checkpoints"][k]
        return icount, pc, cpu_hash

    def slice_span(self, k: int) -> tuple[int, int]:
        """Half-open master-icount interval ``[start, end)`` slice ``k``
        re-executes."""
        start = self.meta["checkpoints"][k][0]
        return start, start + self.meta["interval_instructions"][k]

    def slice_for_icount(self, icount: int) -> int:
        """Index of the slice whose interval covers ``icount``.

        Bisects the verified checkpoint table: slice ``k`` covers
        ``[checkpoints[k], checkpoints[k] + interval_instructions[k])``.
        ``icount == total_instructions`` (the run's final state) maps to
        the last slice.  Out-of-range targets raise ``ValueError``.
        """
        total = self.total_instructions
        if not 0 <= icount <= total:
            raise ValueError(
                f"icount {icount} outside the recorded run "
                f"[0, {total}]")
        starts = [entry[0] for entry in self.meta["checkpoints"]]
        k = bisect.bisect_right(starts, icount) - 1
        if icount == total:
            k = self.num_slices - 1
        return k

    def build_timeline(self) -> MasterTimeline:
        """Materialize a fresh :class:`MasterTimeline` for one replay.

        Damaged slices get placeholder boundary/interval shells carrying
        only the shape data replay bookkeeping needs (instruction span
        for the deadline, boundary icount); the supervisor degrades them
        before any attempt touches the placeholders.
        """
        meta = self.meta
        boundaries: list[Boundary] = []
        intervals: list[Interval] = []
        for k in range(self.num_slices):
            if k in self.damaged:
                # Explicit hole sentinel (Boundary.is_hole): consumers
                # must never treat it as a real snapshot — the audit
                # reports it as a divergence and slice execution refuses
                # it outright instead of crashing on the register stub.
                boundaries.append(Boundary.hole(
                    index=k,
                    master_instructions=meta["checkpoints"][k][0]))
                intervals.append(Interval(
                    index=k,
                    instructions=meta["interval_instructions"][k],
                    syscalls=meta["interval_syscalls"][k]))
            else:
                boundary, interval = self.slice_spec(k)
                boundaries.append(boundary)
                intervals.append(interval)
        return MasterTimeline(
            boundaries=boundaries,
            intervals=intervals,
            exit_code=meta["exit_code"],
            total_instructions=meta["total_instructions"],
            total_syscalls=meta["total_syscalls"],
            kernel=self.kernel(),
            final_pc=meta["final_pc"],
            final_cpu_hash=meta["final_cpu_hash"],
        )


def load_recording(path, metrics=NULL_METRICS,
                   tolerate_damaged: bool = False) -> Recording:
    """Load and fully verify a recording artifact.

    Every section's digest is checked against the manifest before any
    payload is unpickled.  Core sections (``meta``/``kernel``/
    ``signatures``) must verify; a damaged *slice* section raises
    unless ``tolerate_damaged`` (the ``-spfaults degrade`` load mode),
    in which case it lands in :attr:`Recording.damaged` and replay
    degrades that slice.
    """
    path = str(path)

    def corrupt(message, kind, section=None) -> RecordingCorruptError:
        metrics.inc("superpin.recording.verify_failures")
        return RecordingCorruptError(f"{path}: {message}", kind=kind,
                                     section=section)

    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < len(MAGIC) + _LEN.size:
        raise corrupt("file shorter than its header", "truncated",
                      "manifest")
    if not blob.startswith(MAGIC):
        if blob[:5] == MAGIC[:5]:
            raise corrupt(
                f"format revision {blob[:7]!r} is not {MAGIC!r}",
                "version")
        raise corrupt(f"bad magic {blob[:7]!r}", "magic")
    (manifest_len,) = _LEN.unpack_from(blob, len(MAGIC))
    data_start = len(MAGIC) + _LEN.size + manifest_len
    if data_start > len(blob):
        raise corrupt("manifest extends past end of file", "truncated",
                      "manifest")
    try:
        manifest = json.loads(
            blob[len(MAGIC) + _LEN.size:data_start].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise corrupt(f"manifest is not valid JSON ({exc})",
                      "manifest") from exc
    if not isinstance(manifest, dict) or not all(
            key in manifest for key in
            ("format_version", "num_slices", "recording_id", "sections")):
        raise corrupt("manifest is missing required keys", "manifest")
    if manifest["format_version"] != FORMAT_VERSION:
        raise corrupt(
            f"format version {manifest['format_version']} != supported "
            f"{FORMAT_VERSION}", "version")

    data = blob[data_start:]
    n = manifest["num_slices"]
    expected = list(CORE_SECTIONS) + [_slice_section(k) for k in range(n)]
    by_name = {entry.get("name"): entry for entry in manifest["sections"]}
    if sorted(by_name) != sorted(expected):
        raise corrupt(
            f"section inventory {sorted(by_name)} does not match the "
            f"declared {n}-slice shape", "shape")

    sections: dict[str, bytes] = {}
    damaged: dict[int, RecordingCorruptError] = {}
    identity = hashlib.sha256()
    for name in expected:
        entry = by_name[name]
        identity.update(str(entry.get("sha256", "")).encode("ascii"))
        try:
            offset, length = int(entry["offset"]), int(entry["length"])
            if offset < 0 or length < 0 or offset + length > len(data):
                raise corrupt(
                    f"section spans [{offset}, {offset + length}) but "
                    f"only {len(data)} data bytes exist", "truncated",
                    name)
            payload = data[offset:offset + length]
            if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
                raise corrupt("section content does not match its "
                              "recorded sha256", "digest", name)
        except RecordingCorruptError as exc:
            if name in CORE_SECTIONS or not tolerate_damaged:
                raise
            damaged[int(name.split("_")[1])] = exc
            continue
        sections[name] = payload
    if identity.hexdigest() != manifest["recording_id"]:
        raise corrupt("recording_id does not content-address the "
                      "section digests", "manifest")

    try:
        meta = pickle.loads(sections["meta"])
    except Exception as exc:
        raise corrupt(f"meta section does not unpickle ({exc})",
                      "manifest", "meta") from exc
    if meta.get("num_slices") != n:
        raise corrupt(
            f"meta says {meta.get('num_slices')} slices, manifest says "
            f"{n} — boundary count mismatch", "shape", "meta")
    if len(meta.get("checkpoints", ())) != n:
        raise corrupt(
            f"{len(meta.get('checkpoints', ()))} checkpoints for "
            f"{n} boundaries", "shape", "meta")
    recording = Recording(path=path, manifest=manifest, meta=meta,
                          damaged=damaged, _sections=sections)
    if len(recording.signatures()) != max(0, n - 1):
        raise corrupt(
            f"{len(recording.signatures())} signatures for {n} slices "
            f"(expected {max(0, n - 1)})", "shape", "signatures")
    return recording


# -- deterministic damage (a test hook, applied after the save) ---------------

def damage_recording(path, kind: str, slice_index: int | None = None
                     ) -> None:
    """Deterministically damage a recording artifact.

    ``truncate`` chops the file mid-way through a slice section (the
    last one by default, or ``slice_index``'s), producing a short read
    the loader must reject (or degrade around) — note every *later*
    section is lost with the tail; ``corrupt`` flips one byte inside a
    single slice section (bit rot: only that section's digest fails,
    the rest of the artifact stays loadable); ``stale`` ages the
    manifest's format version, producing version skew.
    """
    path = str(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    (manifest_len,) = _LEN.unpack_from(blob, len(MAGIC))
    data_start = len(MAGIC) + _LEN.size + manifest_len
    manifest = json.loads(
        blob[len(MAGIC) + _LEN.size:data_start].decode("utf-8"))
    if kind == "truncate":
        name = (_slice_section(slice_index) if slice_index is not None
                else _slice_section(manifest["num_slices"] - 1))
        entry = next(e for e in manifest["sections"] if e["name"] == name)
        cut = data_start + entry["offset"] + entry["length"] // 2
        atomic_write(path, blob[:cut])
    elif kind == "corrupt":
        name = (_slice_section(slice_index) if slice_index is not None
                else _slice_section(manifest["num_slices"] - 1))
        entry = next(e for e in manifest["sections"] if e["name"] == name)
        at = data_start + entry["offset"] + entry["length"] // 2
        flipped = blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]
        atomic_write(path, flipped)
    elif kind == "stale":
        manifest["format_version"] = FORMAT_VERSION + 1
        new_manifest = json.dumps(manifest, sort_keys=True).encode("utf-8")
        atomic_write(path, MAGIC + _LEN.pack(len(new_manifest))
                     + new_manifest + blob[data_start:])
    else:
        raise ValueError(f"unknown recording damage kind {kind!r}")
