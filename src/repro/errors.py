"""Exception hierarchy for the SuperPin reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Guest-visible machine faults (divide by zero, a word
that does not decode, a bad system call) derive from :class:`GuestFault`
— guest memory is demand-zero, so no access faults; host-side
misuse (bad assembler input, API misuse) derives from more specific classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class AssemblerError(ReproError):
    """Raised for malformed assembly input.

    Carries the one-based source line number when available.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded (immediate overflow)."""


class GuestFault(ReproError):
    """Base class for faults raised by guest code at run time."""

    def __init__(self, message: str, pc: int | None = None):
        self.pc = pc
        if pc is not None:
            message = f"pc={pc:#x}: {message}"
        super().__init__(message)


class IllegalInstruction(GuestFault):
    """Fetched word does not decode to a valid instruction."""


class ArithmeticFault(GuestFault):
    """Integer divide or modulo by zero."""


class SyscallError(GuestFault):
    """Guest invoked a system call with an invalid number or arguments."""


class LoaderError(ReproError):
    """Program image cannot be loaded (overlapping segments, no entry, ...)."""


class InstrumentationError(ReproError):
    """Pintool misused the instrumentation API."""


class DivergenceError(ReproError):
    """A SuperPin slice diverged from the master's recorded execution.

    This indicates either a signature false positive/negative or
    nondeterminism that escaped the record/replay net.
    """


class RunawaySliceError(ReproError):
    """A slice failed to detect its ending signature within its budget."""


class SliceDeadlineError(ReproError):
    """A slice exceeded its wall-clock deadline and was reaped.

    The supervised slice phase derives a deadline for every slice from
    its master instruction count plus a configurable floor; a worker
    that is still running past that deadline is terminated rather than
    allowed to stall the phase (the host-level analogue of the paper's
    §4.3 runaway guard).
    """


class SliceExecutionError(ReproError):
    """A slice could not be executed, even after supervision retries.

    Raised by the slice supervisor once a slice has exhausted its
    worker retries and the in-process fallback (policy ``retry``), or
    immediately on the first failure (policy ``failfast``).  Carries
    the slice index and the full attempt history so callers can see
    where and why each attempt died.  Raised parent-side only, so it
    never needs to survive a pickle across the worker boundary.
    """

    def __init__(self, message: str, index: int, attempts=()):
        self.index = index
        #: Sequence of ``SliceAttempt`` records, oldest first.
        self.attempts = list(attempts)
        super().__init__(message)


class MergeMismatchError(ReproError):
    """A slice's tool context does not line up with the control state.

    Raised by the merge phase when a slice returns a different number of
    shared-area locals than the control process registered areas — a
    truncated or stale tool context.  Silently zipping the two lists
    would drop area merges, corrupting the merged tool results (the
    ``tool.results`` divergence class of the audit); failing loudly with
    the slice index keeps the corruption diagnosable.
    """

    def __init__(self, message: str, slice_index: int | None = None):
        self.slice_index = slice_index
        super().__init__(message)


class RecordingCorruptError(ReproError):
    """A recording artifact or run journal failed integrity verification.

    Raised by every load path in :mod:`repro.superpin.recording` and
    :mod:`repro.superpin.journal` when an artifact does not verify.
    ``kind`` taxonomizes the corruption like the audit's divergence
    kinds:

    * ``magic``      — the file does not start with the format magic;
    * ``version``    — format version skew (written by a different,
      incompatible format revision);
    * ``manifest``   — the manifest is unreadable or self-inconsistent;
    * ``truncated``  — a section (or the manifest) extends past the end
      of the file: a short write or chopped tail;
    * ``digest``     — a section's content does not match its recorded
      SHA-256 digest: bit rot or tampering;
    * ``shape``      — section inventory disagrees with the manifest's
      slice count (boundary-count mismatch);
    * ``stale``      — the artifact belongs to a different run (journal
      run-key mismatch).

    ``section`` names the offending section (or journal entry) when one
    is identifiable.
    """

    KINDS = ("magic", "version", "manifest", "truncated", "digest",
             "shape", "stale")

    def __init__(self, message: str, kind: str = "manifest",
                 section: str | None = None):
        self.kind = kind
        self.section = section
        where = f" [section {section}]" if section else ""
        super().__init__(f"[{kind}]{where} {message}")


class CodeCacheOverflowError(ReproError):
    """A single compiled trace cannot fit in the code-cache bubble.

    Flushing cannot help: the trace needs more words than the entire
    bubble provides.  This indicates a bubble sized far below the
    trace-length limit (``MAX_TRACE_INS``) — a configuration problem,
    not a transient cache-pressure condition.
    """


class SelfModifyingCodeError(ReproError):
    """A guest store rewrote cached code where the engine cannot stop
    exactly after it: the storing instruction has calls after it.
    Raised instead of a wrong count."""


class ConfigError(ReproError):
    """Invalid SuperPin switch or configuration value."""


class TimeTravelError(ReproError):
    """A time-travel debugging request cannot be satisfied.

    Raised by :mod:`repro.superpin.timetravel` for targets outside the
    recorded run, for travel into a degraded (hole) slice of a
    ``tolerate_damaged`` recording, and for malformed debugger commands.
    The engine distinguishes these from :class:`RecordingCorruptError`
    (the artifact itself failed verification) and
    :class:`DivergenceError` (re-execution disagreed with the record).
    """

    def __init__(self, message: str, kind: str = "request"):
        #: ``request`` (bad target/command), ``hole`` (degraded slice),
        #: or ``state`` (engine cannot materialize the target state).
        self.kind = kind
        super().__init__(f"[{kind}] {message}")
