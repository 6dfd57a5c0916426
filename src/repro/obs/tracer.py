"""Structured tracing: nested spans over a monotonic clock.

The paper's argument is a *timing* argument — §6 decomposes SuperPin's
overhead into pipeline delay, compilation slowdown and master slowdown —
so the runtime needs to see where its own wall-clock time goes.  A
:class:`Tracer` records **spans** (named intervals with key/value
arguments, nested phase → slice → attempt) and **instants** (point
events: a retry, a deadline reap, a lost worker) against one monotonic
origin, cheap enough to leave on for every run: a span costs two clock
reads, one small object and one list append.

Spans carry a **track** number — the rendering lane.  Track 0 is the
main (control) process; the master, once it overlaps the slices, draws
on :data:`MASTER_TRACK`; the parallel slice phase places each slice's
synthesized fork/run spans on the lowest concurrently-free track via
:class:`TrackAllocator`, so a Chrome-trace export shows the fan-out as
N parallel worker lanes (see :mod:`repro.obs.export`).

When a component must stay hot-path-clean, it takes the module's
:data:`NULL_TRACER` instead: a :class:`NullTracer` whose methods are
allocation-free no-ops, so disabled instrumentation costs one attribute
lookup and a no-op call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: The master's rendering lane while it overlaps the slice phase: above
#: the main track, clear of the slice lanes (1, 2, ...).
MASTER_TRACK = -1


@dataclass(slots=True)
class SpanRecord:
    """One closed span (or instant, when ``start == end``)."""

    #: Aggregation key ("slice_phase", "slice.run", ...); per-instance
    #: identity goes in ``args`` (e.g. ``{"slice": 3}``).
    name: str
    #: Coarse grouping for exporters: "phase", "slice", "attempt", ...
    cat: str
    #: Seconds since the tracer's origin (monotonic).
    start: float
    end: float
    #: Rendering lane: 0 = main process, >= 1 = parallel slice tracks.
    track: int
    #: Id of this span, unique within the tracer.
    span_id: int
    #: ``span_id`` of the enclosing open span, or 0 for a root span.
    parent_id: int
    #: Key/value attributes, or None (never mutated after close).
    args: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        return self.end == self.start


class Span:
    """An open span; use as a context manager or close explicitly."""

    __slots__ = ("_tracer", "name", "cat", "track", "args", "start",
                 "end", "span_id", "parent_id", "_closed")

    def __init__(self, tracer: "Tracer", name: str, cat: str, track: int,
                 args: dict | None):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.track = track
        self.args = args
        self.start = 0.0
        self.end = 0.0
        self.span_id = 0
        self.parent_id = 0
        self._closed = False

    @property
    def duration(self) -> float:
        """Seconds the span was open (0.0 until closed)."""
        return self.end - self.start

    def set(self, key: str, value) -> None:
        """Attach one key/value argument to the span."""
        if self.args is None:
            self.args = {}
        self.args[key] = value

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        stack = tracer._stack
        self.parent_id = stack[-1] if stack else 0
        stack.append(self.span_id)
        self.start = tracer.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        tracer = self._tracer
        stack = tracer._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        elif self.span_id in stack:  # out-of-order close: drop the tail
            del stack[stack.index(self.span_id):]
        self.end = tracer.now()
        tracer.records.append(SpanRecord(
            name=self.name, cat=self.cat, start=self.start,
            end=self.end, track=self.track, span_id=self.span_id,
            parent_id=self.parent_id, args=self.args))


class Tracer:
    """Records spans and instants against one monotonic origin."""

    enabled = True

    def __init__(self):
        self._origin = time.perf_counter()
        self._id = 0
        self._stack: list[int] = []
        self.records: list[SpanRecord] = []
        #: Human-readable lane names for exporters ({track: label}).
        self.track_names: dict[int, str] = {0: "main"}

    def _next_id(self) -> int:
        self._id += 1
        return self._id

    def now(self) -> float:
        """Seconds since the tracer's origin (monotonic)."""
        return time.perf_counter() - self._origin

    def span(self, name: str, cat: str = "phase", track: int = 0,
             args: dict | None = None) -> Span:
        """Open a span; nests under the innermost open span."""
        return Span(self, name, cat, track, args)

    def instant(self, name: str, cat: str = "event", track: int = 0,
                args: dict | None = None) -> None:
        """Record a point event at the current time."""
        now = self.now()
        stack = self._stack
        self.records.append(SpanRecord(
            name=name, cat=cat, start=now, end=now, track=track,
            span_id=self._next_id(),
            parent_id=stack[-1] if stack else 0, args=args))

    def add_span(self, name: str, start: float, end: float,
                 cat: str = "span", track: int = 0,
                 args: dict | None = None, parent_id: int = 0) -> int:
        """Record a span with explicit timestamps (already closed).

        Used to synthesize spans for work that ran elsewhere — a worker
        process reports durations, and the parent places them on the
        shared timeline.  Returns the new span's id so children can
        reference it.
        """
        span_id = self._next_id()
        self.records.append(SpanRecord(
            name=name, cat=cat, start=start, end=end, track=track,
            span_id=span_id, parent_id=parent_id, args=args))
        return span_id

    def name_track(self, track: int, name: str) -> None:
        """Label a rendering lane (shows as a thread name in Perfetto)."""
        self.track_names[track] = name

    def mark(self) -> int:
        """Bookmark for :meth:`records_since` (a record count)."""
        return len(self.records)

    def records_since(self, mark: int) -> list[SpanRecord]:
        return self.records[mark:]

    def total(self, name: str) -> float:
        """Total recorded seconds across spans called ``name``."""
        return sum(r.duration for r in self.records if r.name == name)


class _NullSpan:
    """Allocation-free stand-in for :class:`Span`."""

    __slots__ = ()

    duration = 0.0

    def set(self, key, value):
        pass

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: every method is allocation-free.

    Components default to :data:`NULL_TRACER` so uninstrumented runs
    (plain Pin mode, unit tests, library use) pay one attribute lookup
    and a no-op call per would-be span.
    """

    enabled = False
    #: Class attributes, shared and immutable — reads allocate nothing.
    records = ()
    track_names: dict[int, str] = {}

    def now(self):
        return 0.0

    def span(self, name, cat="phase", track=0, args=None):
        return _NULL_SPAN

    def instant(self, name, cat="event", track=0, args=None):
        pass

    def add_span(self, name, start, end, cat="span", track=0, args=None,
                 parent_id=0):
        return 0

    def name_track(self, track, name):
        pass

    def mark(self):
        return 0

    def records_since(self, mark):
        return ()

    def total(self, name):
        return 0.0


NULL_TRACER = NullTracer()


def ensure_tracer(tracer) -> Tracer:
    """Return ``tracer`` if it records, else a fresh :class:`Tracer`.

    Helpers whose return values are *views over the trace* (e.g. the
    slice-phase timings) call this so they keep working when the caller
    passed no tracer — the local tracer is then just their scratch pad.
    """
    if tracer is not None and tracer.enabled:
        return tracer
    return Tracer()


class TrackAllocator:
    """Assign time intervals to the lowest concurrently-free track.

    The parallel slice phase learns each slice's real execution window
    only at completion (the worker reports durations); placing those
    windows greedily on the first track whose previous occupant has
    ended reconstructs a compact timeline where concurrent slices land
    on different tracks — the trace renders with (about) one lane per
    busy worker.
    """

    def __init__(self, first_track: int = 1):
        self._first = first_track
        self._track_ends: list[float] = []

    def place(self, start: float, end: float) -> int:
        """Reserve and return a track for the interval [start, end]."""
        for i, busy_until in enumerate(self._track_ends):
            if busy_until <= start + 1e-9:
                self._track_ends[i] = end
                return self._first + i
        self._track_ends.append(end)
        return self._first + len(self._track_ends) - 1

    @property
    def num_tracks(self) -> int:
        return len(self._track_ends)
