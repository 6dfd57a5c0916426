"""Deterministic fault injection for the supervised slice phase.

The supervisor's retry/degrade/deadline machinery only earns its keep if
it can be exercised on demand, in CI, without waiting for a real worker
to die.  A :class:`FaultPlan` — attached to
:class:`~repro.superpin.switches.SuperPinConfig` via ``fault_plan`` or
the ``-spinject`` switch — makes chosen slices misbehave in exactly the
ways the paper's control process must survive:

* ``crash``   — the worker process dies hard (``os._exit``), breaking
  the process pool; in-process attempts raise :class:`WorkerCrashFault`
  instead (the simulated analogue of a dead worker).
* ``hang``    — the worker sleeps past its per-slice deadline so the
  supervisor must reap it; in-process attempts raise
  :class:`~repro.errors.SliceDeadlineError` directly, since a
  single-threaded parent cannot preempt itself.
* ``corrupt`` — the worker returns an unpicklable garbage blob;
  in-process attempts raise :class:`CorruptResultFault`.
* ``runaway`` — the attempt raises
  :class:`~repro.errors.RunawaySliceError`, the §4.3/§4.4 failure mode
  of a slice that never finds its ending signature.
* ``tamper`` — the slice runs normally but its result is *silently*
  falsified (:func:`tamper_result`): instruction count, end-state
  fingerprint and syscall digest are wrong, yet the blob decodes fine
  and the supervisor sees a clean success.  Nothing in the pipeline
  can catch it — only the ``-spaudit`` differential oracle, which is
  exactly what it mutation-tests.

Every fault is scoped to one slice index and to its first ``attempts``
execution attempts (``None`` = every attempt, i.e. unrecoverable), so a
plan is fully deterministic: the same run replays the same faults.
A saved artifact is damaged after the run instead, by
:func:`~repro.superpin.recording.damage_recording`,
:func:`~repro.superpin.journal.damage_journal` and
:func:`~repro.superpin.warmstore.damage_store_entry`.

Spec strings (for ``-spinject`` and CI) are comma-separated
``kind@slice[:attempts]`` entries, with ``*`` for "every attempt"::

    crash@0            worker for slice 0 dies on its first attempt
    hang@2:*           slice 2 hangs on every attempt (unrecoverable)
    runaway@1:2        slice 1 raises RunawaySliceError on attempts 1-2
    tamper@1           slice 1's result is silently falsified
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass

from ..errors import (ConfigError, ReproError, RunawaySliceError,
                      SliceDeadlineError)


class FaultKind(enum.Enum):
    """What an injected fault does to the attempt it fires on."""

    CRASH = "crash"
    HANG = "hang"
    CORRUPT = "corrupt"
    RUNAWAY = "runaway"
    TAMPER = "tamper"


class WorkerCrashFault(ReproError):
    """In-process stand-in for a worker process that died mid-slice."""


class CorruptResultFault(ReproError):
    """A slice attempt produced an undecodable result blob."""


#: Returned by a worker in place of a pickled result when a ``corrupt``
#: fault fires; guaranteed not to unpickle (pickle data never starts
#: with ``\\xff``).
CORRUPT_BLOB = b"\xffsuperpin-injected-corrupt-result"


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: a kind, a target slice, an attempt window."""

    kind: FaultKind
    slice_index: int
    #: Fire on attempts 1..attempts; ``None`` fires on every attempt.
    attempts: int | None = 1
    #: How long a ``hang`` sleeps; far past any sane deadline so the
    #: supervisor must reap it (bounded, so a failed reap cannot leak a
    #: worker for ever).
    hang_seconds: float = 30.0

    def matches(self, index: int, attempt: int) -> bool:
        return (index == self.slice_index
                and (self.attempts is None or attempt <= self.attempts))


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of :class:`FaultSpec` entries."""

    specs: tuple[FaultSpec, ...] = ()

    def spec_for(self, index: int, attempt: int) -> FaultSpec | None:
        """First spec that fires for this (slice, attempt), else None."""
        for spec in self.specs:
            if spec.matches(index, attempt):
                return spec
        return None

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``kind@slice[:attempts]`` spec string (see module doc)."""
        specs = []
        for entry in filter(None, (e.strip() for e in text.split(","))):
            try:
                kind_text, _, rest = entry.partition("@")
                kind = FaultKind(kind_text)
                index_text, _, attempts_text = rest.partition(":")
                index = int(index_text)
                attempts: int | None = 1
                if attempts_text == "*":
                    attempts = None
                elif attempts_text:
                    attempts = int(attempts_text)
            except ValueError as exc:
                raise ConfigError(
                    f"bad fault spec {entry!r}: expected "
                    f"kind@slice[:attempts] with kind in "
                    f"{[k.value for k in FaultKind]}") from exc
            if index < 0 or (attempts is not None and attempts < 1):
                raise ConfigError(
                    f"bad fault spec {entry!r}: slice index must be >= 0 "
                    f"and attempts >= 1")
            specs.append(FaultSpec(kind=kind, slice_index=index,
                                   attempts=attempts))
        if not specs:
            raise ConfigError(f"empty fault spec {text!r}")
        return cls(specs=tuple(specs))


def tamper_result(result) -> None:
    """Silently falsify a :class:`~repro.superpin.slices.SliceResult`.

    The mutations are architectural lies — wrong instruction count,
    scrambled end-state fingerprint and syscall digest, shifted end pc —
    chosen so the result still decodes, merges and simulates cleanly.
    Deterministic, so the same run tampers the same way.
    """
    result.instructions += 1
    result.end_pc ^= 1
    if result.end_cpu_hash:
        result.end_cpu_hash = "tampered:" + result.end_cpu_hash[:16]
    if result.syscall_digest:
        result.syscall_digest = "tampered:" + result.syscall_digest[:16]


def maybe_inject(plan: FaultPlan | None, index: int, attempt: int,
                 where: str) -> FaultSpec | None:
    """Fire the plan's fault for this attempt, if any.

    ``where`` is ``"worker"`` inside a pool process (real crash, real
    sleep) or ``"inprocess"`` in the parent (simulated equivalents that
    must not take the parent down).  Returns the matched ``corrupt`` or
    ``tamper`` spec — for ``corrupt`` the caller substitutes
    :data:`CORRUPT_BLOB` (worker) or raises :class:`CorruptResultFault`
    (parent); for ``tamper`` it runs the slice and passes the result
    through :func:`tamper_result` — and None when no fault fires.
    """
    spec = plan.spec_for(index, attempt) if plan is not None else None
    if spec is None:
        return None
    if spec.kind is FaultKind.CRASH:
        if where == "worker":
            os._exit(13)
        raise WorkerCrashFault(
            f"injected crash: slice {index} attempt {attempt}")
    if spec.kind is FaultKind.HANG:
        if where == "worker":
            time.sleep(spec.hang_seconds)
            return None  # survived the sleep: deadline did not fire
        raise SliceDeadlineError(
            f"injected hang: slice {index} attempt {attempt} "
            f"(in-process attempts cannot be preempted, so the hang "
            f"surfaces as its own deadline error)")
    if spec.kind is FaultKind.RUNAWAY:
        raise RunawaySliceError(
            f"injected runaway: slice {index} attempt {attempt}")
    # FaultKind.CORRUPT / FaultKind.TAMPER: the caller corrupts the
    # result (loudly or silently, respectively).
    return spec
