"""The traced pass: the per-layer account, measured from outside.

The live pipeline is driven phase by phase, in the order ``run_superpin``
runs it, with one of the benchmark's own spans around each call into a
layer's public function; further probes time single layers (engine
tiers, JIT backends, ``Memory.fork``, recording, trace store, journal,
audit, metrics, daemon).  Nothing here is inside the program.

Every probe declares the metrics it emits.  A probe that raises — a
later change deleted a backend, a switch or a phase function — turns
its metrics into ``null`` with a ``skipped`` reason; it never ends the
run.  End-to-end metrics never come from this pass: the untraced
reference runs it makes feed only ``bench.raw.*`` and the ``derived.*``
ratios, each of which is printed beside its base.

Times are calibrated like the untraced pass's: what is timed runs
between two runs of the calibration kernel and is scaled to the
reference host, so two commits' accounts can be compared although the
host's speed differs between them.
"""

import gc
import math
import os
import random
import statistics
import threading
import time

from bench import calib, e2e, oracle, stats
from bench.daemon import Daemon
from bench.oracle import require, require_equal
from bench.spans import duration, SpanRecorder
from bench.workloads import build_guest, NPROC, Workload

BACKENDS = ("closure", "source")
#: Cycles of the live operations: at least this many, more while time
#: lasts.
MIN_CYCLES = 5
CONFIG_REPEATS = 2
SERVE_JOBS = 60
BURST_JOBS = 12
#: ``goto`` targets of the time-travel probe, and how many of them are
#: visited a second time: fewer than the engine keeps micro-checkpoints
#: for (16), most recent first, so that a revisit finds its own.
TRAVEL_TARGETS = 100
TRAVEL_REVISITS = 12
FORK_REPEATS = 50
#: Cold-then-warm run pairs of the trace-store probe, each on a fresh store.
STORE_PAIRS = 3

RAW = ("native_s", "pin_s", "superpin_w0_s", "superpin_w2_s", "record_s",
       "replay_s", "goto_p50_ms", "serve_job_p50_ms")

#: Per-layer metric -> unit, in ``BENCHMARK.json`` order.
PER_LAYER = {
    "control.run_s": "s", "control.share": "ratio",
    "control.master_mips": "MIPS", "control.boundaries": "count",
    "control.syscalls_recorded": "count",
    "signature.record_s": "s", "signature.us_per_boundary": "us",
    "signature.quick_checks": "count", "signature.full_checks": "count",
    "signature.full_check_rate": "ratio",
    "slices.run_s": "s", "slices.count": "count", "slices.p50_ms": "ms",
    "slices.max_ms": "ms", "slices.mips": "MIPS",
    "slices.inexact": "count", "slices.fixed_cost_ms": "ms",
    "jit.compiles": "count", "jit.compiled_ins": "count",
    "jit.warm_starts": "count", "jit.warm_hit_rate": "ratio",
    **{f"jit.compile_us_per_ins.{b}": "us" for b in BACKENDS},
    "jit.slice_compile_s_est": "s", "jit.compile_share_est": "ratio",
    "engine.mips.interp": "MIPS",
    **{f"engine.mips.pinvm.{b}.{t}": "MIPS"
       for b in BACKENDS for t in ("t0", "t1", "t2")},
    "engine.mips.icount1": "MIPS", "engine.mips.icount2": "MIPS",
    "engine.linked_dispatch_rate": "ratio",
    "engine.tc2_dispatches": "count",
    "engine.tc2_mispredict_rate": "ratio",
    "engine.cache_hit_rate": "ratio",
    "tools.analysis_calls": "count", "tools.calls_per_kins": "1/kins",
    "tools.call_overhead_ns": "ns",
    "memory.fork_us": "us", "memory.cow_faults": "count",
    "memory.resident_pages": "count",
    "supervisor.pickle_s": "s", "supervisor.fork_s": "s",
    "supervisor.overhead_s": "s", "supervisor.parallelism": "ratio",
    "supervisor.attempts": "count", "supervisor.failed_attempts": "count",
    "merge.run_s": "s",
    "sched.simulate_s": "s", "sched.virtual_slowdown": "ratio",
    "sched.virtual_speedup_vs_pin": "ratio",
    "recording.save_s": "s", "recording.bytes": "bytes",
    "recording.bytes_per_slice": "bytes", "recording.load_s": "s",
    "replay.slice_s": "s", "timetravel.lastwrite_s": "s",
    "timetravel.goto_cold_ms": "ms", "timetravel.goto_warm_ms": "ms",
    "trace_store.save_s": "s", "trace_store.load_s": "s",
    "trace_store.bytes": "bytes", "trace_store.warm_saving_s": "s",
    "journal.overhead_s": "s", "audit.run_s": "s",
    "obs.metrics_overhead_ratio": "ratio",
    "serve.boot_s": "s", "serve.overhead_ms": "ms",
    "serve.jobs_failed": "count", "serve.burst_makespan_s": "s",
    "derived.slowdown_vs_native.w0": "ratio",
    "derived.slowdown_vs_native.w2": "ratio",
    "derived.speedup_vs_pin.w2": "ratio",
    "derived.phase_sum_over_e2e": "ratio",
    # Too unsteady on a shared host to carry a bound as end-to-end
    # metrics (interquartile spread over ten seeds of 10-25%).
    "demoted.goto_p90_ms": "ms", "demoted.stepback_p50_ms": "ms",
    "demoted.serve_job_p90_ms": "ms",
    "bench.calib_s": "s", "bench.trace_overhead_ratio": "ratio",
    "bench.rounds": "count",
    **{f"bench.raw.{name}": e2e.END_TO_END[name] for name in RAW},
}

#: Span names of the six driven phases, in pipeline order.
PHASES = ("tool.setup", "control.run", "signature.record",
          "slices.supervise", "merge.slices", "sched.simulate")


def emits(*names):
    """Declare the metrics a probe produces (nulled if it raises)."""
    def mark(fn):
        fn.emits = names
        return fn
    return mark


def timed(fn, *args, **kwargs):
    """``(wall seconds, result)`` of one call, after a collection."""
    gc.collect()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def mips(instructions: int, seconds: float) -> float:
    return instructions / seconds / 1e6


def balanced(ratios: list[float]) -> float:
    """One figure for per-cycle ratios whose even and odd cycles differ
    in which of the two runs went first (the second finds the host warm
    and reads about 5% faster): the geometric mean of the two medians."""
    medians = [statistics.median(group)
               for group in (ratios[0::2], ratios[1::2]) if group]
    return math.prod(medians) ** (1.0 / len(medians))


def on_reference_host(value: float, unit: str, factor: float) -> float:
    """Scale a measured value by the calibration factor of its probe."""
    if unit in ("s", "ms", "us", "ns"):
        return value * factor
    if unit == "MIPS":
        return value / factor
    return value


class Account:
    """One workload's traced pass: spans, probe values, skip reasons."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.kernel_seed = e2e.KERNEL_SEED + seed
        self.workdir = workdir
        self.spans = SpanRecorder()
        self.bracket = calib.Bracket()
        self.ops = oracle.Ops()
        self.values: dict[str, float] = {}
        self.skipped: dict[str, str] = {}
        #: Ratio metric -> what it is a ratio of, with the base's value.
        self.bases: dict[str, str] = {}
        #: Operation -> wall samples seen in this pass, as measured and
        #: scaled to the reference host.
        self.raw: dict[str, list[float]] = {}
        self.calibrated: dict[str, list[float]] = {}
        self.live = build_guest(workload.guest, workload.scale, seed)
        self.artifact = build_guest(workload.guest,
                                    workload.artifact_scale, seed)
        self.job = build_guest(workload.guest, workload.serve_scale, seed)
        #: Architectural references, set by the first cycle.
        self.arch = None
        self.pin_tool = None
        #: Driven runs, and per cycle the ratio of the driven run's
        #: phase sum and total to the untraced run beside it.
        self.driven = []
        self.drive_error = None
        self.cycles = 0
        self.phase_sum_ratios = []
        self.overhead_ratios = []
        #: ``(report, factor)`` of every two-worker run.
        self.two_worker_runs = []

    # -- plumbing -------------------------------------------------------------

    def probe(self, fn) -> None:
        """Run one measuring probe between two kernel runs and scale
        what it measured to the reference host."""
        self._run(fn, measures=True)

    def derive(self, fn) -> None:
        """Run one probe that computes from values already calibrated."""
        self._run(fn, measures=False)

    def _run(self, fn, measures: bool) -> None:
        """A failure nulls what the probe emits and is counted as
        skipped, not as a failed operation."""
        try:
            with self.spans.run(), self.spans.span("probe." + fn.__name__):
                if measures:
                    values, _, factor = self.bracket.timed(fn)
                    values = {name: on_reference_host(value,
                                                      PER_LAYER[name],
                                                      factor)
                              for name, value in values.items()}
                else:
                    values = fn()
            unknown = set(values) - set(fn.emits)
            require(not unknown, f"undeclared metrics {sorted(unknown)}")
            self.values.update(values)
        except Exception as error:
            reason = f"{type(error).__name__}: {error}"
            for name in fn.emits:
                if name not in self.values:
                    self.skipped[name] = reason

    def checked(self, label: str, check, *args) -> None:
        self.ops.attempt(label, check, *args)

    def sample(self, metric: str, fn, *args, **kwargs):
        """Time ``fn`` between kernel runs and keep the sample under
        ``metric``; returns ``(result, calibrated seconds, factor)``."""
        result, wall, factor = self.bracket.timed(
            lambda: fn(*args, **kwargs))
        self.raw.setdefault(metric, []).append(wall)
        self.calibrated.setdefault(metric, []).append(wall * factor)
        return result, wall * factor, factor

    def median(self, metric: str) -> float:
        return statistics.median(self.calibrated[metric])

    def default_config(self, **overrides):
        from repro.superpin import SuperPinConfig
        return SuperPinConfig(**{"spworkers": 0, **overrides})

    def superpin(self, guest, **config):
        """Untraced ``run_superpin`` of ``guest`` under the workload's
        tool; returns ``(wall, report, tool)``."""
        wall, (report, tool) = timed(e2e.run_live, guest.program,
                                     self.workload.tool, self.kernel_seed,
                                     **{"spworkers": 0, **config})
        return wall, report, tool

    # -- the driven pipeline --------------------------------------------------

    def drive(self) -> dict:
        """One live run, phase by phase, as ``run_superpin`` orders it."""
        from repro.machine import Kernel
        from repro.sched import simulate
        from repro.superpin import (ControlProcess, merge_slices,
                                    record_signatures, SliceToolContext,
                                    SPControl, supervise_slices)
        from repro.tools import TOOLS
        spans = self.spans
        config = self.default_config()
        with spans.run(), spans.span("run_superpin.driven") as root:
            with spans.span("tool.setup"):
                tool = TOOLS[self.workload.tool]()
                sp = SPControl(config)
                tool.setup(sp)
                template = SliceToolContext.from_control(tool, sp)
            with spans.span("control.run"):
                timeline = ControlProcess(
                    self.live.program, config,
                    kernel=Kernel(seed=self.kernel_seed)).run()
            with spans.span("signature.record"):
                signatures = record_signatures(timeline, config)
            with spans.span("slices.supervise") as phase:
                supervised = supervise_slices(timeline, signatures,
                                              template, sp, config)
            with spans.span("merge.slices"):
                merge_slices(sp, supervised.results)
                tool.fini()
            with spans.span("sched.simulate"):
                timing = simulate(timeline, supervised.results, config)
        # Sequential slices: lay their measured run times end to end
        # under the phase span, so its self time is the supervisor's.
        cursor = phase["start"]
        for slice_timing in supervised.timings:
            end = cursor + slice_timing.run_seconds
            spans.add("slice.run", cursor, end, parent=phase["id"],
                      slice=slice_timing.index)
            cursor = end
        phases = {s["name"]: duration(s) for s in spans.spans
                  if s["run"] == root["run"] and s["parent"] == root["id"]}
        return {"tool": tool, "timeline": timeline,
                "signatures": signatures, "supervised": supervised,
                "timing": timing, "phases": phases,
                "total": duration(root)}

    def check_driven(self, run: dict) -> None:
        timeline = run["timeline"]
        require_equal("driven architectural result", oracle.arch_result(
            timeline.total_instructions, timeline.exit_code,
            timeline.kernel.stdout_text()), self.arch)
        require(all(r.exact for r in run["supervised"].results),
                "a driven slice was inexact")
        require_equal("driven tool result",
                      oracle.tool_result(run["tool"]), self.pin_tool)

    def check_superpin(self, report, tool) -> None:
        oracle.check_report(report, self.arch, tool, self.pin_tool)

    def cycle(self) -> None:
        """Every live operation once, in the untraced pass's rotation,
        with the driven run beside the untraced run it mirrors."""
        w, program = self.workload, self.live.program
        arch, _, _ = self.sample("native_s", e2e.interpret, program,
                                 self.kernel_seed)
        (pin_arch, tool), _, _ = self.sample("pin_s", e2e.run_pin, program,
                                             w.tool, self.kernel_seed)
        if self.arch is None:
            self.arch, self.pin_tool = arch, oracle.tool_result(tool)
        self.checked("native", require_equal, "interpreter result", arch,
                     self.arch)
        self.checked("pin", require_equal, "pin result",
                     (pin_arch, oracle.tool_result(tool)),
                     (self.arch, self.pin_tool))
        run = None

        def driven() -> None:
            nonlocal run
            try:
                run, _, factor = self.sample("driven_s", self.drive)
                run["factor"] = factor
                self.driven.append(run)
                self.checked("driven", self.check_driven, run)
            except Exception as error:
                self.drive_error = error

        def untraced() -> None:
            (report, tool), _, _ = self.sample(
                "superpin_w0_s", e2e.run_live, program, w.tool,
                self.kernel_seed, spworkers=0)
            self.checked("superpin_w0", self.check_superpin, report, tool)

        # The driven run and the untraced run it mirrors are adjacent in
        # time, so their ratio is taken of the walls as measured (half
        # the spread of the calibrated ratio); which goes first
        # alternates, see :func:`balanced`.
        order = (driven, untraced) if self.cycles % 2 == 0 else (untraced,
                                                                  driven)
        self.cycles += 1
        for step in order:
            step()
        if run is not None:
            wall = self.raw["superpin_w0_s"][-1]
            self.phase_sum_ratios.append(
                sum(run["phases"][name] for name in PHASES) / wall)
            self.overhead_ratios.append(run["total"] / wall)
        (report, tool), wall, seconds = self.bracket.timed_split(
            lambda: e2e.run_live_split(program, w.tool, self.kernel_seed,
                                       spworkers=NPROC), NPROC)
        self.raw.setdefault("superpin_w2_s", []).append(wall)
        self.calibrated.setdefault("superpin_w2_s", []).append(seconds)
        self.checked("superpin_w2", self.check_superpin, report, tool)
        self.two_worker_runs.append((report, seconds / wall))

    @emits("control.run_s", "control.share", "control.master_mips",
           "control.boundaries", "control.syscalls_recorded",
           "signature.record_s", "signature.us_per_boundary",
           "signature.quick_checks", "signature.full_checks",
           "signature.full_check_rate", "slices.run_s", "slices.count",
           "slices.p50_ms", "slices.max_ms", "slices.mips",
           "slices.inexact", "jit.compiles", "jit.compiled_ins",
           "jit.warm_starts", "jit.warm_hit_rate",
           "engine.linked_dispatch_rate", "engine.tc2_dispatches",
           "engine.tc2_mispredict_rate", "engine.cache_hit_rate",
           "memory.cow_faults", "merge.run_s", "sched.simulate_s",
           "sched.virtual_slowdown", "derived.phase_sum_over_e2e",
           "bench.trace_overhead_ratio", "bench.rounds")
    def pipeline(self) -> dict:
        """The phase account: medians over the driven runs; counts from
        the first (they are deterministic)."""
        def phase(name):
            return statistics.median(run["factor"] * run["phases"][name]
                                     for run in self.driven)

        def slice_ms(pick):
            return 1e3 * statistics.median(
                run["factor"] * pick(t.run_seconds
                                     for t in run["supervised"].timings)
                for run in self.driven)

        if not self.driven:
            raise self.drive_error
        first = self.driven[0]
        timeline, supervised = first["timeline"], first["supervised"]
        results = supervised.results
        phase_sum = sum(phase(name) for name in PHASES)
        detections = [r.detection for r in results if r.detection]
        quick = sum(d.quick_checks for d in detections)
        full = sum(d.full_checks for d in detections)
        compiles = sum(r.compiles for r in results)
        warm = sum(r.warm_starts for r in results)
        traces = sum(r.traces_executed for r in results)
        tc2 = sum(r.tc2_dispatches for r in results)
        slice_seconds = statistics.median(
            run["factor"] * sum(t.run_seconds
                                for t in run["supervised"].timings)
            for run in self.driven)
        base = f"of superpin_w0_s {self.median('superpin_w0_s'):.4f} s"
        self.bases["derived.phase_sum_over_e2e"] = base
        self.bases["bench.trace_overhead_ratio"] = base
        self.bases["control.share"] = f"of the phase sum {phase_sum:.4f} s"
        return {
            "control.run_s": phase("control.run"),
            "control.share": phase("control.run") / phase_sum,
            "control.master_mips": mips(timeline.total_instructions,
                                        phase("control.run")),
            "control.boundaries": len(timeline.boundaries),
            "control.syscalls_recorded": sum(
                len(interval.records) for interval in timeline.intervals),
            "signature.record_s": phase("signature.record"),
            "signature.us_per_boundary": (
                1e6 * phase("signature.record")
                / max(1, len(first["signatures"]))),
            "signature.quick_checks": quick,
            "signature.full_checks": full,
            "signature.full_check_rate": full / quick if quick else 0.0,
            "slices.run_s": phase("slices.supervise"),
            "slices.count": len(results),
            "slices.p50_ms": slice_ms(statistics.median),
            "slices.max_ms": slice_ms(max),
            "slices.mips": mips(sum(r.instructions for r in results),
                                slice_seconds),
            "slices.inexact": sum(1 for r in results if not r.exact),
            "jit.compiles": compiles,
            "jit.compiled_ins": sum(r.compiled_ins for r in results),
            "jit.warm_starts": warm,
            "jit.warm_hit_rate": warm / compiles if compiles else 0.0,
            "engine.linked_dispatch_rate": (
                sum(r.linked_dispatches for r in results) / traces),
            "engine.tc2_dispatches": tc2,
            "engine.tc2_mispredict_rate": (
                sum(r.tc2_mispredicts for r in results) / tc2
                if tc2 else 0.0),
            "engine.cache_hit_rate": (
                sum(r.cache_hit_rate * r.traces_executed for r in results)
                / traces),
            "memory.cow_faults": sum(r.cow_faults for r in results),
            "merge.run_s": phase("merge.slices"),
            "sched.simulate_s": phase("sched.simulate"),
            "sched.virtual_slowdown": first["timing"].slowdown,
            "derived.phase_sum_over_e2e": balanced(self.phase_sum_ratios),
            "bench.trace_overhead_ratio": balanced(self.overhead_ratios),
            "bench.rounds": len(self.driven),
        }

    # -- reference runs: Pin, two workers ------------------------------------

    @emits("memory.fork_us", "memory.resident_pages")
    def memory(self) -> dict:
        """``Memory.fork()`` on the guest's end image."""
        from repro.machine import Interpreter, Kernel, load_program
        process = load_program(self.live.program,
                               Kernel(seed=self.kernel_seed))
        Interpreter(process).run()
        forks = []
        for _ in range(FORK_REPEATS):
            start = time.perf_counter()
            process.mem.fork()
            forks.append(time.perf_counter() - start)
        return {"memory.fork_us": 1e6 * statistics.median(forks),
                "memory.resident_pages": process.mem.resident_pages}

    @emits("tools.analysis_calls", "tools.calls_per_kins",
           "tools.call_overhead_ns")
    def serial_pin(self) -> dict:
        """Serial Pin with the tool against serial Pin with none."""
        from repro.machine import Kernel
        from repro.pin import Pintool, run_with_pin
        from repro.tools import TOOLS

        class NoTool(Pintool):
            def instrument_trace(self, trace, vm) -> None:
                pass

        wall, (result, vm, _) = timed(
            run_with_pin, self.live.program, TOOLS[self.workload.tool](),
            Kernel(seed=self.kernel_seed))
        bare, _ = timed(run_with_pin, self.live.program, NoTool(),
                        Kernel(seed=self.kernel_seed))
        self.pin_run = (result, vm.cache.stats)
        return {
            "tools.analysis_calls": result.analysis_calls,
            "tools.calls_per_kins": (1e3 * result.analysis_calls
                                     / result.instructions),
            "tools.call_overhead_ns": (1e9 * (wall - bare)
                                       / result.analysis_calls),
        }

    @emits("sched.virtual_speedup_vs_pin")
    def virtual_speedup(self) -> dict:
        """The paper's Figure 4 quantity, from the cost model alone."""
        from repro.sched import DEFAULT_COST_MODEL
        result, cache = self.pin_run
        pin_cycles = DEFAULT_COST_MODEL.pin_cycles(
            instructions=result.instructions, syscalls=result.syscalls,
            traces_executed=result.traces_executed,
            analysis_calls=result.analysis_calls,
            inline_checks=result.inline_checks, compiles=cache.compiles,
            compiled_ins=cache.compiled_ins)
        return {"sched.virtual_speedup_vs_pin": (
            pin_cycles / self.driven[0]["timing"].total_cycles)}

    @emits("supervisor.pickle_s", "supervisor.fork_s",
           "supervisor.overhead_s", "supervisor.parallelism",
           "supervisor.attempts", "supervisor.failed_attempts")
    def two_workers(self) -> dict:
        """The supervisor's account of the two-worker runs: medians of
        its clocks, counts from the last run."""
        def clock(pick):
            return statistics.median(
                factor * pick(report.wallclock_summary())
                for report, factor in self.two_worker_runs)

        report, _ = self.two_worker_runs[-1]
        supervision = report.supervision_summary()
        return {
            "supervisor.pickle_s": clock(
                lambda c: c["slice_pickle_seconds"]),
            "supervisor.fork_s": clock(lambda c: c["slice_fork_seconds"]),
            # Beyond a perfect split of the slice work over the workers.
            "supervisor.overhead_s": clock(
                lambda c: (c["slice_phase_seconds"]
                           - c["slice_run_seconds"] / NPROC)),
            "supervisor.parallelism": statistics.median(
                report.wallclock_summary()["measured_parallelism"]
                for report, _ in self.two_worker_runs),
            "supervisor.attempts": supervision["attempts"],
            "supervisor.failed_attempts": supervision["failed_attempts"],
        }

    @emits("engine.mips.interp", "derived.slowdown_vs_native.w0",
           "derived.slowdown_vs_native.w2", "derived.speedup_vs_pin.w2")
    def ratios(self) -> dict:
        """The paper's Figure 3/4/5 quantities in host time."""
        native, pin = self.median("native_s"), self.median("pin_s")
        w0 = self.median("superpin_w0_s")
        w2 = self.median("superpin_w2_s")
        for workers in ("w0", "w2"):
            self.bases[f"derived.slowdown_vs_native.{workers}"] = (
                f"of native_s {native:.4f} s")
        self.bases["derived.speedup_vs_pin.w2"] = (
            f"pin_s {pin:.4f} s over superpin_w2_s {w2:.4f} s")
        return {"engine.mips.interp": mips(self.arch["instructions"],
                                           native),
                "derived.slowdown_vs_native.w0": w0 / native,
                "derived.slowdown_vs_native.w2": w2 / native,
                "derived.speedup_vs_pin.w2": pin / w2}

    # -- single layers --------------------------------------------------------

    def engine_probe(self, backend: str, tier: str):
        """Uninstrumented PinVM: t0 no linking, t1 linking, t2 + TC2."""
        name = f"engine.mips.pinvm.{backend}.{tier}"

        @emits(name)
        def engine() -> dict:
            from repro.machine import Kernel, load_program
            from repro.pin import PinVM
            threshold = self.default_config().sptc2 if tier == "t2" else 0
            vm = PinVM(load_program(self.live.program,
                                    Kernel(seed=self.kernel_seed)),
                       jit_backend=backend, link_traces=tier != "t0",
                       tc2_threshold=threshold)
            wall, result = timed(vm.run)
            require_equal("instructions", result.instructions,
                          self.arch["instructions"])
            return {name: mips(result.instructions, wall)}
        return engine

    def icount_probe(self, tool_name: str):
        name = f"engine.mips.{tool_name}"

        @emits(name)
        def icount() -> dict:
            wall, (arch, tool) = timed(e2e.run_pin, self.live.program,
                                       tool_name, self.kernel_seed)
            require_equal("icount", tool.report()["icount"],
                          self.arch["instructions"])
            return {name: mips(arch["instructions"], wall)}
        return icount

    def compile_probe(self, backend: str):
        """Recompile every trace a finished run compiled, timing
        ``vm.jit.compile`` alone."""
        name = f"jit.compile_us_per_ins.{backend}"

        @emits(name)
        def compile_cost() -> dict:
            from repro.machine import Kernel
            from repro.pin import run_with_pin
            from repro.tools import TOOLS
            _, vm, _ = run_with_pin(
                self.live.program, TOOLS[self.workload.tool](),
                Kernel(seed=self.kernel_seed), jit_backend=backend)
            log = list(vm.cache.insert_log)
            wall, _ = timed(lambda: [vm.jit.compile(address)
                                     for address, _ in log])
            return {name: 1e6 * wall / sum(n for _, n in log)}
        return compile_cost

    @emits("jit.slice_compile_s_est", "jit.compile_share_est")
    def compile_share(self) -> dict:
        backend = self.default_config().jit_backend
        estimate = (self.values["jit.compiled_ins"] * 1e-6
                    * self.values[f"jit.compile_us_per_ins.{backend}"])
        self.bases["jit.compile_share_est"] = (
            f"of slices.run_s {self.values['slices.run_s']:.4f} s")
        return {"jit.slice_compile_s_est": estimate,
                "jit.compile_share_est": (estimate
                                          / self.values["slices.run_s"])}

    @emits("slices.fixed_cost_ms")
    def slice_fixed_cost(self) -> dict:
        """What one more slice costs: ten times fewer slices, same guest."""
        (report, tool), seconds, _ = self.sample(
            "superpin_w0_long_slices_s", e2e.run_live, self.live.program,
            self.workload.tool, self.kernel_seed, spworkers=0,
            spmsec=10_000)
        self.checked("spmsec", self.check_superpin, report, tool)
        fewer = self.values["slices.count"] - report.num_slices
        return {"slices.fixed_cost_ms": (
            1e3 * (self.median("superpin_w0_s") - seconds) / fewer)}

    @emits("recording.save_s", "recording.bytes",
           "recording.bytes_per_slice", "recording.load_s",
           "replay.slice_s", "timetravel.lastwrite_s",
           "timetravel.goto_cold_ms", "timetravel.goto_warm_ms",
           "demoted.goto_p90_ms", "demoted.stepback_p50_ms")
    def artifacts(self) -> dict:
        from repro.machine import Kernel
        from repro.superpin import (ControlProcess, load_recording,
                                    record_signatures, replay_recording,
                                    save_recording, TimeTravelEngine)
        from repro.tools import TOOLS
        w, spans = self.workload, self.spans
        path = os.path.join(self.workdir, "artifact.sprec")
        arch = e2e.interpret(self.artifact.program, self.kernel_seed)
        serial = {name: e2e.run_pin(self.artifact.program, name,
                                    self.kernel_seed)[1]
                  for name in {*w.replay_tools, w.tool, "memtrace"}}
        pinned = {name: oracle.tool_result(tool)
                  for name, tool in serial.items()}
        watched = e2e.seeded_write(serial["memtrace"], self.seed)

        wall, report, tool = self.superpin(self.artifact, sprecord=path)
        self.raw["record_s"] = [wall]
        self.checked("record", oracle.check_report, report, arch, tool,
                     pinned[w.tool])
        config = self.default_config(sprecord=path)
        timeline = ControlProcess(self.artifact.program, config,
                                  kernel=Kernel(seed=self.kernel_seed)
                                  ).run()
        signatures = record_signatures(timeline, config)
        with spans.span("recording.save") as save:
            save_recording(path, timeline, signatures, config)
        with spans.span("recording.load") as load:
            recording = load_recording(path)

        tools = [TOOLS[name]() for name in w.replay_tools]
        with spans.span("replay.recording") as replay:
            reports = replay_recording(path, tools, self.default_config())
        self.raw["replay_s"] = [duration(replay)]
        for name, report, tool in zip(w.replay_tools, reports, tools):
            self.checked("replay", oracle.check_report, report, arch,
                         tool, pinned[name])

        rng = random.Random(self.seed)
        engine = TimeTravelEngine(recording)
        total = engine.total_instructions
        targets = e2e.stratified(rng, total, TRAVEL_TARGETS)
        rng.shuffle(targets)
        visits = {"cold": [], "warm": []}
        landings = {}
        for kind, route in (("cold", targets),
                            ("warm", targets[-2:-2 - TRAVEL_REVISITS:-1])):
            for icount in route:
                with spans.span("timetravel.goto", kind=kind) as goto:
                    engine.goto(icount)
                visits[kind].append(1e3 * duration(goto))
                self.checked("goto", require_equal, f"landing {icount}",
                             engine.state_fingerprint(),
                             landings.setdefault(
                                 icount, engine.state_fingerprint()))
        steps = []
        # Far enough in that every step back stays inside the recording.
        engine.goto(max(targets))
        for _ in range(min(TRAVEL_TARGETS, engine.position)):
            with spans.span("timetravel.step_back") as step:
                engine.step_back(1)
            steps.append(1e3 * duration(step))
        self.raw["goto_p50_ms"] = visits["cold"]
        with spans.span("timetravel.last_write_before") as last_write:
            self.checked("last_write_before", e2e.check_last_write,
                         engine, watched,
                         rng.randrange(total // 2, total + 1))
        size = os.path.getsize(path)
        return {
            "recording.save_s": duration(save),
            "recording.bytes": size,
            "recording.bytes_per_slice": size / recording.num_slices,
            "recording.load_s": duration(load),
            "replay.slice_s": sum(r.slice_phase_seconds for r in reports),
            "timetravel.lastwrite_s": duration(last_write),
            "timetravel.goto_cold_ms": statistics.median(visits["cold"]),
            "timetravel.goto_warm_ms": statistics.median(visits["warm"]),
            "demoted.goto_p90_ms": stats.percentile(visits["cold"], 90),
            "demoted.stepback_p50_ms": statistics.median(steps),
        }

    @emits("trace_store.save_s", "trace_store.load_s", "trace_store.bytes",
           "trace_store.warm_saving_s")
    def trace_store(self) -> dict:
        """A cold run fills the persistent store; a warm run reads it."""
        from repro.superpin import (program_digest, store_key,
                                    trace_store_for)
        savings = []
        for pair in range(STORE_PAIRS):
            root = os.path.join(self.workdir, f"tracestore{pair}")
            cold, report, tool = self.superpin(self.live,
                                               sptracestore=root)
            self.checked("trace_store.cold", self.check_superpin, report,
                         tool)
            warm, report, tool = self.superpin(self.live,
                                               sptracestore=root)
            self.checked("trace_store.warm", self.check_superpin, report,
                         tool)
            savings.append(cold - warm)
        config = self.default_config(sptracestore=root)
        store = trace_store_for(config)
        key = store_key(program_digest(self.live.program), config)
        with self.spans.span("trace_store.load") as load:
            payload = store.load(key)
        require(payload is not None, "the cold run stored nothing")
        size = store.size_bytes()
        with self.spans.span("trace_store.save") as save:
            store.save("bench-copy", payload)
        return {"trace_store.save_s": duration(save),
                "trace_store.load_s": duration(load),
                "trace_store.bytes": size,
                "trace_store.warm_saving_s": statistics.median(savings)}

    def config_variants(self) -> dict:
        """Median calibrated seconds of the artifact guest under the
        default config and under each optional switch, run in rotation;
        a variant that raises maps to its exception."""
        variants = {
            "plain": {},
            "journal": {"spjournal": os.path.join(self.workdir,
                                                  "run.journal")},
            "audit": {"spaudit": True},
            "metrics": {"spmetrics": True},
        }
        failed = {}
        for _ in range(CONFIG_REPEATS):
            for name, config in variants.items():
                if name in failed:
                    continue
                try:
                    (report, _), _, _ = self.sample(
                        f"variant.{name}", e2e.run_live,
                        self.artifact.program, self.workload.tool,
                        self.kernel_seed, spworkers=0, **config)
                    require(report.all_exact, f"{name}: inexact")
                    if report.audit is not None:
                        require(not report.audit.divergences,
                                "audit found divergences")
                except Exception as error:
                    failed[name] = error
        return {name: failed.get(name) or self.median(f"variant.{name}")
                for name in variants}

    def variant_probe(self, metric: str, variant: str, combine):
        @emits(metric)
        def variant_cost() -> dict:
            walls = self.variant_walls
            for name in ("plain", variant):
                if isinstance(walls[name], Exception):
                    raise walls[name]
            self.bases[metric] = (f"against {walls['plain']:.4f} s "
                                  f"under the default config")
            return {metric: combine(walls[variant], walls["plain"])}
        return variant_cost

    @emits("serve.boot_s", "serve.overhead_ms", "serve.jobs_failed",
           "serve.burst_makespan_s", "demoted.serve_job_p90_ms")
    def serve(self) -> dict:
        w = self.workload
        _, pinned = e2e.run_pin(self.job.program, w.tool,
                                self.kernel_seed)
        spec = {"asm": self.job.source, "tool": w.tool,
                "seed": self.kernel_seed}
        direct = [self.superpin(self.job)[0] for _ in range(5)]
        boot, daemon = timed(Daemon, os.path.join(self.workdir, "serve"))
        try:
            walls, finals = [], []

            def client_loop(jobs: int) -> None:
                client = daemon.new_client()
                for _ in range(jobs):
                    start = time.perf_counter()
                    final = client.submit(spec)["final"]
                    walls.append(1e3 * (time.perf_counter() - start))
                    finals.append(final)

            threads = [threading.Thread(target=client_loop,
                                        args=(SERVE_JOBS // NPROC,))
                       for _ in range(NPROC)]
            with self.spans.span("serve.jobs"):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            with self.spans.span("serve.burst") as burst:
                queued = [daemon.client.submit(spec, stream=False)["job_id"]
                          for _ in range(BURST_JOBS)]
                finals += [daemon.client.wait(job) for job in queued]
        finally:
            daemon.stop()
        bad = sum(1 for final in finals
                  if final.get("event") != "done"
                  or final["result"]["tool_report"] != pinned.report())
        self.ops.attempted += len(finals)
        self.ops.failed += bad
        self.raw["serve_job_p50_ms"] = walls
        return {
            "demoted.serve_job_p90_ms": stats.percentile(walls, 90),
            "serve.boot_s": boot,
            "serve.overhead_ms": (statistics.median(walls)
                                  - 1e3 * statistics.median(direct)),
            "serve.jobs_failed": bad,
            "serve.burst_makespan_s": duration(burst),
        }

    @emits("bench.calib_s", *(f"bench.raw.{name}" for name in RAW))
    def harness(self) -> dict:
        """The kernel's median, and the uncalibrated median of every
        end-to-end operation this pass ran."""
        values = {"bench.calib_s": statistics.median(
            self.bracket.kernel_samples)}
        for name in RAW:
            if name in self.raw:
                values[f"bench.raw.{name}"] = statistics.median(
                    self.raw[name])
        return values

    # -- the run --------------------------------------------------------------

    def run(self, seconds: float, cycles: int | None) -> None:
        """Every probe once, then cycles of the live operations:
        ``cycles`` of them, or (at least ``MIN_CYCLES``) while
        ``seconds`` last."""
        start = time.perf_counter()
        # Lazy paths (pool start, first compiles) fill on a small guest.
        for workers in (0, NPROC):
            self.superpin(self.job, spworkers=workers)
        self.cycle()
        cycle_seconds = time.perf_counter() - start
        probe, derive = self.probe, self.derive
        probe(self.memory)
        probe(self.serial_pin)
        for backend in BACKENDS:
            for tier in ("t0", "t1", "t2"):
                probe(self.engine_probe(backend, tier))
            probe(self.compile_probe(backend))
        probe(self.icount_probe("icount1"))
        probe(self.icount_probe("icount2"))
        probe(self.artifacts)
        probe(self.trace_store)
        self.variant_walls = self.config_variants()
        derive(self.variant_probe("journal.overhead_s", "journal",
                                  lambda wall, plain: wall - plain))
        derive(self.variant_probe("audit.run_s", "audit",
                                  lambda wall, plain: wall - plain))
        derive(self.variant_probe("obs.metrics_overhead_ratio", "metrics",
                                  lambda wall, plain: wall / plain))
        probe(self.serve)
        done = 1
        while (done < cycles if cycles is not None else
               done < MIN_CYCLES or
               time.perf_counter() - start + cycle_seconds < seconds):
            self.cycle()
            done += 1
        derive(self.pipeline)
        derive(self.two_workers)
        derive(self.virtual_speedup)
        derive(self.slice_fixed_cost)
        derive(self.compile_share)
        derive(self.ratios)
        derive(self.harness)

    def metrics(self) -> dict:
        table = {}
        for name, unit in PER_LAYER.items():
            table[name] = {"value": self.values.get(name), "unit": unit}
            if name in self.bases:
                table[name]["base"] = self.bases[name]
            if name not in self.values:
                table[name]["skipped"] = self.skipped.get(
                    name, "no probe emitted it")
        return table


def run(workload: Workload, seed: int, seconds: float,
        cycles: int | None, workdir: str, trace_path: str) -> dict:
    """Run the traced pass and write its spans to ``trace_path``."""
    account = Account(workload, seed, workdir)
    account.run(seconds, cycles)
    account.spans.write(trace_path, {
        "workload": workload.name, "seed": seed,
        "note": "times are time.perf_counter() seconds of one process, "
                "as measured (not scaled to the reference host)"})
    ops = account.ops
    return {
        "workload": workload.name, "seed": seed, "pass": "layers",
        "attempted": ops.attempted, "failed": ops.failed,
        "failures": ops.failures, "metrics": account.metrics(),
    }
