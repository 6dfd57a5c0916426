"""SuperPin: fork-parallelized dynamic instrumentation (the paper's core).

Public surface:

* :func:`run_superpin` — end-to-end SuperPin execution of a program+tool;
* :class:`SuperPinConfig` / :func:`parse_switches` — the ``-sp*`` switches;
* :class:`SPControl` — the tool-facing SP API;
* :class:`SharedArea` / :class:`AutoMerge` — cross-slice result memory;
* :func:`save_recording` / :func:`load_recording` /
  :func:`replay_recording` — durable "record once, replay many"
  artifacts, and :class:`~repro.superpin.journal.RunJournal` for
  crash-safe resumable runs;
* the lower-level phases (control process, signatures, slices, merge) for
  tests, ablations and extensions.
"""

from .api import END_SLICE_TOKEN, SliceToolContext, SPControl
from .audit import (AuditInputs, AuditReport, compare_run, Divergence,
                    perform_audit, record_reference,
                    reference_from_recording, ReferenceRun,
                    run_serial_baseline, SerialBaseline)
from .control import (Boundary, BoundaryReason, ControlProcess, Interval,
                      MasterTimeline)
from .faults import FaultKind, FaultPlan, FaultSpec
from .journal import (damage_journal, frame_blob, program_digest,
                      RunJournal, run_key, unframe_blob)
from .merge import merge_slices
from .parallel import (record_boundary_signature, record_signatures,
                       SliceTimings)
from .recording import (damage_recording, load_recording, Recording,
                        save_recording)
from .runtime import replay_recording, run_superpin, SuperPinReport
from .sharedmem import AutoMerge, resolve_shared_areas, SharedArea
from .signature import (DEFAULT_QUICK_REGS, DetectionStats, Lookahead,
                        record_signature, Signature, SignatureDetector)
from .slices import run_slice, SliceEnd, SliceMachine, SliceResult
from .supervisor import (slice_deadline, SliceAttempt, SliceOutcome,
                         supervise_slices, SupervisedSlices)
from .switches import (DEFAULT_CLOCK_HZ, FAULT_POLICIES, parse_switches,
                       SuperPinConfig)
from .sysrecord import PlaybackHandler, RecordedSyscall
from .timetravel import DebugSession, StopEvent, TimeTravelEngine
from .warmstore import (damage_store_entry, isa_fingerprint,
                        pilot_cold_compiles, store_key, trace_store_for,
                        TraceStore)

__all__ = [
    "END_SLICE_TOKEN", "SliceToolContext", "SPControl", "AuditInputs",
    "AuditReport", "compare_run", "Divergence", "perform_audit",
    "record_reference", "ReferenceRun", "run_serial_baseline",
    "SerialBaseline", "Boundary",
    "BoundaryReason", "ControlProcess", "Interval", "MasterTimeline",
    "FaultKind", "FaultPlan", "FaultSpec", "merge_slices",
    "record_boundary_signature", "record_signatures", "SliceTimings",
    "run_superpin", "SuperPinReport",
    "AutoMerge", "resolve_shared_areas",
    "SharedArea", "DEFAULT_QUICK_REGS", "DetectionStats", "Lookahead",
    "record_signature", "Signature",
    "SignatureDetector", "run_slice", "SliceEnd", "SliceMachine",
    "SliceResult",
    "slice_deadline", "SliceAttempt", "SliceOutcome", "supervise_slices",
    "SupervisedSlices", "DEFAULT_CLOCK_HZ", "FAULT_POLICIES",
    "parse_switches", "SuperPinConfig", "PlaybackHandler",
    "RecordedSyscall", "damage_journal", "frame_blob", "program_digest",
    "RunJournal", "run_key", "unframe_blob", "damage_recording",
    "load_recording", "Recording", "save_recording", "replay_recording",
    "reference_from_recording", "damage_store_entry", "isa_fingerprint",
    "pilot_cold_compiles", "store_key", "trace_store_for", "TraceStore",
    "DebugSession", "StopEvent", "TimeTravelEngine",
]
