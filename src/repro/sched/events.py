"""Discrete-event simulation of a SuperPin run on a multiprocessor.

Replays a :class:`~repro.superpin.control.MasterTimeline` and the
functional :class:`~repro.superpin.slices.SliceResult` statistics against
a :class:`~repro.sched.machine_model.MachineModel` and
:class:`~repro.sched.timing.CostModel`, reproducing the paper's timing
semantics (§3):

* the master runs its intervals, pays a fork at each boundary, and
  *stalls* when forking would exceed ``-spmp`` running slices;
* slice k becomes runnable when slice k+1 records its signature (the
  fork after interval k ends), or at master exit for the final slice;
* runnable slices progress under uniform processor sharing with
  hyperthreading/SMP effects;
* results merge in slice order; the run ends when the last slice has
  merged (the pipeline delay).

The fluid model is deterministic: every rate change (task arrival or
completion, master phase change) is an event at which all remaining
works are advanced piecewise-linearly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for annotations only (avoids an import cycle)
    from ..superpin.control import MasterTimeline
    from ..superpin.slices import SliceResult
    from ..superpin.switches import SuperPinConfig
from .machine_model import MachineModel, PAPER_MACHINE
from .stats import SliceSpan, TimingReport
from .timing import CostModel, DEFAULT_COST_MODEL, shared_cache_charges

_EPS = 1e-6


@dataclass
class _Phase:
    kind: str          # "fork" | "run"
    work: float
    slice_index: int   # the slice being forked, or the interval running


def simulate(timeline: "MasterTimeline",
             slice_results: "list[SliceResult]",
             config: "SuperPinConfig",
             machine: MachineModel = PAPER_MACHINE,
             cost: CostModel = DEFAULT_COST_MODEL,
             shared_code_cache: bool = False) -> TimingReport:
    """Simulate the run and return its :class:`TimingReport`; with
    ``shared_code_cache``, charge compiles as §8's cache shared across
    slices would (:func:`~repro.sched.timing.shared_cache_charges`)."""
    intervals = timeline.intervals
    boundaries = timeline.boundaries
    n_slices = len(intervals)
    results = {r.index: r for r in slice_results}

    # Master phase list: fork slice 0, then run/fork alternating.
    phases: list[_Phase] = [
        _Phase("fork", cost.fork_cycles(boundaries[0].resident_pages), 0)]
    for k, interval in enumerate(intervals):
        phases.append(_Phase("run", cost.master_interval_cycles(interval),
                             k))
        if k + 1 < n_slices:
            phases.append(_Phase(
                "fork", cost.fork_cycles(boundaries[k + 1].resident_pages),
                k + 1))

    charges = shared_cache_charges(slice_results) if shared_code_cache else {}
    slice_work = {k: cost.slice_cycles(results[k], charges.get(k))
                  for k in results}

    t = 0.0
    phase_idx = 0
    phase_remaining = phases[0].work if phases else 0.0
    master_finished = not phases
    master_stalled = False
    sleep_cycles = 0.0
    fork_cycles_spent = 0.0
    master_finish_time = 0.0

    #: slice -> remaining work, for runnable slices.
    running: dict[int, float] = {}
    #: (time, slice) heap of future runnable events.
    timers: list[tuple[float, int]] = []
    forked_at: dict[int, float] = {}
    runnable_at: dict[int, float] = {}
    completed_at: dict[int, float] = {}
    max_concurrent = 0

    #: Set when the master has exited but the final slice must wait for
    #: a slice slot before entering detection mode.
    pending_last: list[int] = []

    def try_unstall() -> None:
        nonlocal master_stalled
        if len(running) + len(timers) < config.spmp:
            if master_stalled:
                master_stalled = False
            elif pending_last:
                heapq.heappush(timers, (t, pending_last.pop()))

    def check_stall() -> None:
        """Entering a fork phase for slice k: gate on running slices.

        Forking slice k makes slice k-1 runnable; the master waits until
        a slot is free (paper: "stalls within the master application to
        avoid exceeding maximum number of slices").  Timer entries are
        slices already promoted but still paying their signature-record
        latency; they hold a slot too.
        """
        nonlocal master_stalled
        current = phases[phase_idx]
        if current.kind == "fork" and current.slice_index >= 1:
            if len(running) + len(timers) >= config.spmp:
                master_stalled = True

    if phases:
        check_stall()

    while (not master_finished) or running or timers or pending_last:
        master_busy = (not master_finished) and (not master_stalled)
        n_active = len(running) + (1 if master_busy else 0)
        rate = machine.task_rate(n_active) if n_active else 0.0
        max_concurrent = max(max_concurrent, len(running))

        # Candidate time deltas to the next event.
        dt = float("inf")
        if timers:
            dt = min(dt, timers[0][0] - t)
        if n_active and rate > 0:
            if master_busy:
                dt = min(dt, phase_remaining / rate)
            for work in running.values():
                dt = min(dt, work / rate)
        if dt == float("inf"):
            raise AssertionError("scheduler deadlock: no runnable events")
        dt = max(dt, 0.0)

        # Advance.
        t += dt
        if master_busy:
            advanced = dt * rate
            phase_remaining -= advanced
            if phases[phase_idx].kind == "fork":
                fork_cycles_spent += dt
        elif master_stalled and not master_finished:
            sleep_cycles += dt
        if rate > 0:
            for k in list(running):
                running[k] -= dt * rate

        # Timer firings: slices finish signature recording, become active.
        while timers and timers[0][0] <= t + _EPS:
            _, k = heapq.heappop(timers)
            running[k] = max(slice_work[k], _EPS)
            if runnable_at.get(k) is None:
                runnable_at[k] = t

        # Slice completions.
        for k in sorted(list(running)):
            if running[k] <= _EPS:
                del running[k]
                completed_at[k] = t
        try_unstall()

        # Master phase completion.
        if master_busy and phase_remaining <= _EPS:
            phase = phases[phase_idx]
            if phase.kind == "fork":
                forked_at[phase.slice_index] = t
                if phase.slice_index >= 1:
                    # The new slice records its signature, then the
                    # previous slice wakes and enters detection mode.
                    previous = phase.slice_index - 1
                    runnable_at[previous] = None  # set when timer fires
                    heapq.heappush(
                        timers, (t + cost.signature_record, previous))
            phase_idx += 1
            if phase_idx >= len(phases):
                master_finished = True
                master_finish_time = t
                # The final slice wakes on the master's exit condition,
                # still subject to the -spmp slot limit.
                last = n_slices - 1
                if last >= 0 and last not in completed_at:
                    runnable_at[last] = None
                    if len(running) + len(timers) < config.spmp:
                        heapq.heappush(timers, (t, last))
                    else:
                        pending_last.append(last)
            else:
                phase_remaining = phases[phase_idx].work
                check_stall()

    # Merge in slice order (paper §4.5); cheap, modelled serially.
    merge_done = master_finish_time
    merged_at: dict[int, float] = {}
    for k in range(n_slices):
        merge_done = max(completed_at[k], merge_done) + cost.merge_per_slice
        merged_at[k] = merge_done
    total = max(master_finish_time, merge_done)

    native = cost.native_cycles(timeline.total_instructions,
                                timeline.total_syscalls)
    spans = []
    for k in range(n_slices):
        # None is the "wake timer armed but never fired" placeholder;
        # map only that to 0.0.  ``or 0.0`` would also clobber a
        # legitimate wake at cycle 0.0 or any falsy value a cost model
        # produces.
        wake = runnable_at.get(k)
        spans.append(
            SliceSpan(index=k, forked_at=forked_at.get(k, 0.0),
                      runnable_at=wake if wake is not None else 0.0,
                      completed_at=completed_at[k], merged_at=merged_at[k],
                      work_cycles=slice_work[k]))
    return TimingReport(
        total_cycles=total,
        native_cycles=native,
        master_finish_cycles=master_finish_time,
        sleep_cycles=sleep_cycles,
        fork_cycles=fork_cycles_spent,
        spans=spans,
        max_concurrent_slices=max_concurrent,
    )
