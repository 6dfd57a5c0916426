"""SuperPin configuration switches.

Mirrors the paper's command-line interface (§5).  A switch multiplies
the test matrix, so each entry ends with why it is the user's choice:

======================= ==================================================
Switch                  Meaning — why it survives
======================= ==================================================
``-sp 1``               enable SuperPin — ``-sp 0`` is serial Pin, every
                        figure's baseline
``-spmsec <value>``     timeslice length in (virtual) milliseconds —
                        Figure 6's axis; the best value is the guest's
``-spmp <value>``       maximum number of *running* slices — Figure 7's
                        axis (the modeled processors)
``-spsysrecs <value>``  max syscall records per slice; 0 disables
                        recording — the §4.2 knob and its ablation
``-spworkers <value>``  host worker processes for the slice phase; 0
                        (default) runs slices in-process — the host's
``-spfaults <policy>``  slice fault policy: ``failfast`` (default),
                        ``retry`` or ``degrade`` — whether a partial
                        result will do is the user's call
``-spretries <value>``  worker re-executions per failed slice before the
                        in-process fallback — part of that call
``-spdeadline <secs>``  wall-clock deadline floor per slice (plus a
                        per-instruction allowance) — a slow host needs
                        more
``-spinject <spec>``    deterministic fault injection, e.g.
                        ``crash@0,hang@2:*`` (superpin.faults) — drives
                        the fault paths end to end
``-spclock <hz>``       virtual cycles per virtual second: converts
                        ``-spmsec`` to a master instruction budget —
                        the experiments' scale (only ratios of times
                        are reported)
``-spexpected <msec>``  expected run duration in virtual milliseconds;
                        N > 0 turns on §8 adaptive throttling (slices
                        shrink toward the expected end) — only the user
                        knows N
``-spjit <backend>``    slice JIT backend, ``closure`` (default) or
                        ``source`` — the frozen benchmark keys rows by it
``-sptrace <path>``     export the run's trace (repro.obs): ``*.jsonl``
                        event log, else Chrome-trace JSON — output
``-spmetrics <0|1>``    collect counters/gauges/histograms (off: the
                        null registry) — observing costs time
``-spaudit <0|1>``      differential replay audit against an
                        uninstrumented and a serial-Pin run (see
                        superpin.audit) — roughly doubles run time
``-spfilter <spec>``    selective instrumentation: ``routine:NAME`` /
                        ``range:LO-HI`` / ``opcode:CLASS`` terms (see
                        repro.pin.filter) — which code matters is the
                        user's question
``-spsuppress <0|1>``   redundancy suppression: one summarized call per
                        loop exit (see repro.pin.pyjit) — measured, each
                        value wins on some guest, and it changes the
                        reported analysis calls and virtual time
``-spsample <N>``       instrument every Nth slice only; 0 (default)
                        disables — tool results then cover the sampled
                        slices, an approximation the user opts into
``-sprecord <path>``    record once: save a content-addressed recording
                        artifact after the control and signature phases
                        (see superpin.recording; ``superpin replay``
                        replays it)
``-spjournal <path>``   write-ahead run journal of completed slices (see
                        superpin.journal)
``-spresume <0|1>``     resume from ``-spjournal``, re-executing only
                        the missing slices — these three name files only
                        the user can
``-sptracestore <dir>`` persistent cross-run store of the trace heads a
                        program's first slice compiled (an account, see
                        superpin.warmstore) — the frozen benchmark
                        drives it
``-sptracestorelimit``  its size budget in bytes (LRU eviction)
======================= ==================================================

§8's shared code cache is not a switch: every run has both virtual
accounts (:meth:`~repro.superpin.runtime.SuperPinReport.
shared_cache_timing`).  The signature's stack words and the slice
guards are module constants (``signature.STACK_WORDS``,
``slices.RUNAWAY_FACTOR`` / ``RUNAWAY_SLACK``,
``supervisor.DEADLINE_PER_INS`` / ``RETRY_BACKOFF``).

CI hook: the environment variable ``SUPERPIN_SPWORKERS`` overrides the
*default* of ``spworkers`` (explicit constructor arguments and parsed
switches always win).  The fault-injection CI job uses it to push the
whole test suite through the process-pool transport without editing
every test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..errors import ConfigError

#: Virtual cycles per virtual second.  The paper ran a 2.2 GHz Xeon; we
#: compress time so whole-suite experiments are tractable in pure Python.
#: Only ratios of times are reported, which clock scaling preserves.
DEFAULT_CLOCK_HZ = 10_000

#: Valid ``-spfaults`` policies (see :mod:`repro.superpin.supervisor`).
FAULT_POLICIES = ("failfast", "retry", "degrade")


def _default_spworkers() -> int:
    return int(os.environ.get("SUPERPIN_SPWORKERS", "0") or 0)


@dataclass
class SuperPinConfig:
    """All SuperPin tunables; defaults match the paper's."""

    sp: bool = True
    #: Timeslice interval in virtual milliseconds (paper default 1000).
    spmsec: int = 1000
    #: Maximum simultaneously *running* slices (paper default 8).
    spmp: int = 8
    #: Max syscall records per slice; 0 disables recording (paper: 1000).
    spsysrecs: int = 1000
    #: Host worker processes for the slice phase.  0 (the default) runs
    #: slices sequentially in-process; N > 0 fans them out over N
    #: processes with functionally identical results.  Distinct from
    #: ``spmp``, which bounds the *modeled* concurrency in the timing
    #: simulation.
    spworkers: int = field(default_factory=_default_spworkers)
    # --- slice supervision (fault isolation for the slice phase) ----------
    #: Fault policy for the slice phase: ``failfast`` aborts the run on
    #: the first slice failure (cancelling everything still queued);
    #: ``retry`` re-executes a failed slice up to ``spretries`` times in
    #: fresh workers, then once in-process, then raises; ``degrade``
    #: retries the same way but on final failure records the slice as a
    #: hole and completes the run with the surviving slices.
    spfaults: str = "failfast"
    #: Worker re-executions per failed slice before the in-process
    #: fallback (policies ``retry``/``degrade``).
    spretries: int = 2
    #: Wall-clock deadline floor per slice, in host seconds.
    slice_deadline_floor: float = 5.0
    #: Deterministic fault-injection plan (:class:`~repro.superpin.
    #: faults.FaultPlan`), or None.  A plan makes chosen slices crash,
    #: hang, corrupt their result, or go runaway on their first M
    #: attempts — the hook that makes the retry/degrade paths testable.
    fault_plan: object = None
    clock_hz: int = DEFAULT_CLOCK_HZ
    #: Expected run duration in virtual milliseconds (profile-guided,
    #: e.g. from a prior run).  N > 0 turns on §8 adaptive timeslice
    #: throttling: timeslices shrink toward the expected end of execution
    #: to cut the pipeline delay.  0 (the default) keeps every timeslice
    #: at ``spmsec``.
    expected_duration_msec: int = 0
    #: JIT backend used by slices: "closure" (threaded code) or
    #: "source" (generated Python, see repro.pin.pyjit).
    jit_backend: str = "closure"
    # --- observability (repro.obs) ----------------------------------------
    #: Trace export path, or None.  ``*.jsonl`` writes the JSONL event
    #: log; any other path writes Chrome-trace JSON for Perfetto.
    sptrace: str | None = None
    #: Collect metrics (counters/gauges/histograms).  Off by default:
    #: components then hold the allocation-free null registry.
    spmetrics: bool = False
    #: Read by bench/layers.py's engine probe only; 0 is the one legal
    #: value (the second translation cache and ``-sptc2`` were removed).
    sptc2: int = 0
    # --- differential replay audit (off by default) ------------------------
    #: Run the lockstep divergence oracle: a reference (uninstrumented)
    #: run records per-boundary architectural checkpoints and syscall
    #: stream digests, a serial-Pin run provides the tool baseline, and
    #: every slice's end state / replayed stream / merged results are
    #: compared.  The :class:`~repro.superpin.audit.AuditReport` lands
    #: on ``SuperPinReport.audit``.  Roughly doubles run time.
    spaudit: bool = False
    # --- selective instrumentation / suppression / sampling ----------------
    #: Instrumentation filter spec (see :func:`repro.pin.filter.
    #: parse_filter`), or None for full instrumentation.  Applied to the
    #: tool *before* it is copied into slices and before the audit
    #: captures its baseline, so every execution mode sees the same
    #: instrumentation and tool results stay bit-identical.
    spfilter: str | None = None
    #: Redundancy suppression: a loop form whose calls all declare a
    #: summary fires each once per loop exit instead of once per trip
    #: (see repro.pin.pyjit).  Results are bit-identical by the
    #: summary contract; the audit enforces it.
    spsuppress: bool = False
    #: Sampling period: instrument slice indices ``i % spsample == 0``
    #: only; other slices skip tool activation entirely.  0 disables.
    #: Unlike -spfilter/-spsuppress this *changes tool results* (they
    #: cover the sampled slices only), so the audit skips the
    #: tool-results comparison when sampling is on.
    spsample: int = 0
    # --- durable recordings and crash-safe runs (superpin.recording) -------
    #: Save a recording artifact to this path after the control and
    #: signature phases ("record once"; :func:`~repro.superpin.runtime.
    #: replay_recording` replays it).
    sprecord: str | None = None
    #: Write-ahead run journal path: every completed slice's result is
    #: appended durably, making the run crash-safe.
    spjournal: str | None = None
    #: Resume from the journal at ``spjournal``: adopt its valid entry
    #: prefix and re-execute only the missing slices.
    spresume: bool = False
    # --- persistent cross-run trace store (superpin.warmstore) -------------
    #: Directory of the persistent trace store, or None (off).  With the
    #: store configured the warm account looks the program's warm set
    #: up by content address: on a hit every slice — the first included
    #: — counts its ``warm_starts`` against the stored trace heads; on a
    #: miss the first slice's heads are saved for the next run.
    sptracestore: str | None = None
    #: Size budget (bytes) for the trace store directory; past it the
    #: least-recently-used entries are evicted.
    sptracestore_limit: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.spmsec <= 0:
            raise ConfigError(f"-spmsec must be positive, got {self.spmsec}")
        if self.spmp < 1:
            raise ConfigError(f"-spmp must be >= 1, got {self.spmp}")
        if self.spsysrecs < 0:
            raise ConfigError(
                f"-spsysrecs must be >= 0, got {self.spsysrecs}")
        if self.spworkers < 0:
            raise ConfigError(
                f"-spworkers must be >= 0, got {self.spworkers}")
        if self.spfaults not in FAULT_POLICIES:
            raise ConfigError(
                f"-spfaults must be one of {', '.join(FAULT_POLICIES)}, "
                f"got {self.spfaults!r}")
        if self.spretries < 0:
            raise ConfigError(
                f"-spretries must be >= 0, got {self.spretries}")
        if self.slice_deadline_floor <= 0:
            raise ConfigError(
                f"slice_deadline_floor must be positive, "
                f"got {self.slice_deadline_floor}")
        if self.clock_hz <= 0:
            raise ConfigError(
                f"clock_hz must be positive, got {self.clock_hz}")
        if self.expected_duration_msec < 0:
            raise ConfigError(
                f"-spexpected must be >= 0, "
                f"got {self.expected_duration_msec}")
        if self.jit_backend not in ("closure", "source"):
            raise ConfigError(
                f"jit_backend must be 'closure' or 'source', "
                f"got {self.jit_backend!r}")
        if self.spsample < 0:
            raise ConfigError(
                f"-spsample must be >= 0, got {self.spsample}")
        if self.sptc2:
            raise ConfigError(
                f"sptc2 must be 0 (the second translation cache was "
                f"removed), got {self.sptc2}")
        if self.spfilter is not None and not str(self.spfilter).strip():
            raise ConfigError("-spfilter spec must not be empty")
        for name, flag in (("sprecord", "-sprecord"),
                           ("spjournal", "-spjournal")):
            value = getattr(self, name)
            if value is not None and not str(value).strip():
                raise ConfigError(f"{flag} path must not be empty")
        if self.spresume and self.spjournal is None:
            raise ConfigError("-spresume requires -spjournal (there is no "
                              "journal to resume from)")
        if (self.sptracestore is not None
                and not str(self.sptracestore).strip()):
            raise ConfigError("-sptracestore path must not be empty")
        if self.sptracestore_limit <= 0:
            raise ConfigError(
                f"-sptracestorelimit must be positive, "
                f"got {self.sptracestore_limit}")

    @property
    def timeslice_cycles(self) -> int:
        """Timeslice interval in virtual cycles."""
        return max(1, self.spmsec * self.clock_hz // 1000)

    @property
    def timeslice_instructions(self) -> int:
        """Master instruction budget per timeslice (native CPI is 1)."""
        return self.timeslice_cycles

    def seconds(self, cycles: float) -> float:
        """Convert virtual cycles to virtual seconds."""
        return cycles / self.clock_hz


#: The fields that change what a run computes — its slices, tool results
#: and virtual account.  The rest only change how the run executes
#: (worker count, fault policy, observability, artifact paths), which the
#: ``spworkers`` parity property makes invisible in the results.  Read by
#: the run journal's key (:func:`repro.superpin.journal.run_key`) and the
#: figure harness's memo, so a run is reused exactly when it would
#: compute the same thing.
RESULT_FIELDS = (
    "spmsec", "spmp", "spsysrecs", "clock_hz", "jit_backend", "spfilter",
    "spsuppress", "spsample", "expected_duration_msec",
)


def _parse_inject(value: str):
    from .faults import FaultPlan
    return FaultPlan.parse(value)


_FLAG_PARSERS = {
    "-sp": ("sp", lambda v: bool(int(v))),
    "-spmsec": ("spmsec", int),
    "-spmp": ("spmp", int),
    "-spsysrecs": ("spsysrecs", int),
    "-spworkers": ("spworkers", int),
    "-spfaults": ("spfaults", str),
    "-spretries": ("spretries", int),
    "-spdeadline": ("slice_deadline_floor", float),
    "-spinject": ("fault_plan", _parse_inject),
    "-spclock": ("clock_hz", int),
    "-spexpected": ("expected_duration_msec", int),
    "-spjit": ("jit_backend", str),
    "-sptrace": ("sptrace", str),
    "-spmetrics": ("spmetrics", lambda v: bool(int(v))),
    "-spaudit": ("spaudit", lambda v: bool(int(v))),
    "-spfilter": ("spfilter", str),
    "-spsuppress": ("spsuppress", lambda v: bool(int(v))),
    "-spsample": ("spsample", int),
    "-sprecord": ("sprecord", str),
    "-spjournal": ("spjournal", str),
    "-spresume": ("spresume", lambda v: bool(int(v))),
    "-sptracestore": ("sptracestore", str),
    "-sptracestorelimit": ("sptracestore_limit", int),
}


def parse_switches(argv: list[str], **overrides) -> SuperPinConfig:
    """Parse paper-style switches (``['-sp', '1', '-spmsec', '500']``).

    Unknown switches raise :class:`ConfigError`; keyword ``overrides``
    win over parsed values (used by the test harness).
    """
    values: dict[str, object] = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in _FLAG_PARSERS:
            raise ConfigError(f"unknown SuperPin switch {flag!r}")
        if i + 1 >= len(argv):
            raise ConfigError(f"switch {flag!r} requires a value")
        name, parser = _FLAG_PARSERS[flag]
        try:
            values[name] = parser(argv[i + 1])
        except ValueError as exc:
            raise ConfigError(
                f"bad value {argv[i + 1]!r} for {flag!r}") from exc
        i += 2
    values.update(overrides)
    return SuperPinConfig(**values)  # type: ignore[arg-type]
