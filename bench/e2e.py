"""The untraced pass: one workload's user journey, timed end to end.

Closed loop, one driving process, never more than ``NPROC`` workers or
client threads.  A run is a set-up (repeated, median reported), an
untimed reference stage, and then rounds; a round executes every timed
operation once, in a fixed rotation, with a collection before and a
calibration kernel run on either side of each.
Only default configs and stable entry points are used, so a later change
that flips a default shows up as a gain or a loss.
"""

import collections
import os
import random
import resource
import statistics
import threading
import time

from bench import calib, oracle, stats
from bench.daemon import Daemon
from bench.oracle import require, require_equal
from bench.workloads import build_guest, NPROC, Workload

#: End-to-end metric -> unit, in ``BENCHMARK.json`` order.
END_TO_END = {
    "setup_s": "s", "native_s": "s", "pin_s": "s", "superpin_w0_s": "s",
    "superpin_w2_s": "s", "record_s": "s", "replay_s": "s",
    "goto_p50_ms": "ms", "serve_job_p50_ms": "ms", "peak_rss_mb": "MiB",
}

MIN_ROUNDS = 5
STEPBACKS_PER_GROUP = 5
KERNEL_SEED = 42
#: Daemon jobs cycle through this many kernel seeds.
SERVE_SEEDS = 4


def import_program() -> None:
    """Import every package the journey uses (timed as part of set-up)."""
    import repro.machine  # noqa: F401
    import repro.pin  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.superpin  # noqa: F401
    import repro.tools  # noqa: F401
    import repro.workloads  # noqa: F401


def interpret(program, kernel_seed: int) -> dict:
    """The independent reference: the plain interpreter."""
    from repro.machine import Interpreter, Kernel, load_program
    kernel = Kernel(seed=kernel_seed)
    process = load_program(program, kernel)
    result = Interpreter(process).run()
    return oracle.arch_result(result.instructions, process.exit_code,
                              kernel.stdout_text())


def run_pin(program, tool_name: str, kernel_seed: int):
    """Serial Pin; returns ``(architectural result, tool)``."""
    from repro.machine import Kernel
    from repro.pin import run_with_pin
    from repro.tools import TOOLS
    tool = TOOLS[tool_name]()
    result, _, kernel = run_with_pin(program, tool,
                                     Kernel(seed=kernel_seed))
    return oracle.arch_result(result.instructions, result.exit_code,
                              kernel.stdout_text()), tool


def run_live(program, tool_name: str, kernel_seed: int, on_progress=None,
             **config):
    """``run_superpin`` under the default config plus ``config``;
    returns ``(report, tool)``."""
    from repro.machine import Kernel
    from repro.superpin import run_superpin, SuperPinConfig
    from repro.tools import TOOLS
    tool = TOOLS[tool_name]()
    report = run_superpin(program, tool, SuperPinConfig(**config),
                          kernel=Kernel(seed=kernel_seed),
                          on_progress=on_progress)
    return report, tool


class PhaseClock:
    """An ``on_progress`` callback that notes when each phase began, so
    the slice phase (the part of a run that uses the workers) can be
    timed from outside."""

    def __init__(self):
        self.began: dict[str, float] = {}

    def __call__(self, event: str, payload: dict) -> None:
        if event == "phase":
            self.began.setdefault(payload["phase"], time.perf_counter())

    def slice_seconds(self) -> float:
        """Seconds from the start of the slice phase to the start of
        the merge; 0 if the run announced neither."""
        try:
            return self.began["merge"] - self.began["slice"]
        except KeyError:
            return 0.0


def run_live_split(program, tool_name: str, kernel_seed: int, **config):
    """:func:`run_live`, returning ``((report, tool), seconds of the
    slice phase)`` for :meth:`~bench.calib.Bracket.timed_split`."""
    clock = PhaseClock()
    outcome = run_live(program, tool_name, kernel_seed, on_progress=clock,
                       **config)
    return outcome, clock.slice_seconds()


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Journey:
    """One workload's guests, references, samples and operations."""

    def __init__(self, workload: Workload, seed: int, workdir: str,
                 expected_path: str):
        self.workload = workload
        self.seed = seed
        self.kernel_seed = KERNEL_SEED + seed
        self.workdir = workdir
        self.expected_path = expected_path
        self.recording_path = os.path.join(workdir, "artifact.sprec")
        self.ops = oracle.Ops()
        #: metric -> calibrated samples / raw wall samples.  A timing
        #: has one sample per round; a latency has one list per round.
        self.samples = collections.defaultdict(list)
        self.raw = collections.defaultdict(list)
        self.bracket = calib.Bracket()
        self.daemon: Daemon | None = None
        self.boots = 0
        #: Architectural references, filled as the run learns them.
        self.live_arch = None
        self.live_tool = None
        self.landings = None
        self.goto_walls: list[float] = []

    # -- set-up ---------------------------------------------------------------

    def set_up(self) -> None:
        """Everything a run needs before its first operation: guests,
        the pinned expectations, a reachable daemon."""
        w = self.workload
        self.live = build_guest(w.guest, w.scale, self.seed)
        self.artifact = build_guest(w.guest, w.artifact_scale, self.seed)
        self.job = build_guest(w.guest, w.serve_scale, self.seed)
        self.expected = oracle.load_expected(self.expected_path)
        self.boots += 1
        self.daemon = Daemon(os.path.join(self.workdir,
                                          f"serve{self.boots}"))

    def timed_set_up(self, import_seconds: float) -> None:
        """Set up ``setup_repeats`` times; keep the last one running."""
        for _ in range(self.workload.setup_repeats):
            if self.daemon is not None:
                self.daemon.stop()
            _, wall, factor = self.bracket.timed(self.set_up)
            # Imports happen once per process: every sample carries them.
            wall += import_seconds
            self.raw["setup_s"].append(wall)
            self.samples["setup_s"].append(wall * factor)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()

    # -- timing ---------------------------------------------------------------

    def timed(self, metric: str, fn, check=None):
        """Attempt ``fn`` between two calibration runs, then check it;
        returns ``(outcome, factor)``."""
        outcome, wall, factor = self.bracket.timed(self.ops.attempt,
                                                   metric, fn)
        self.raw[metric].append(wall)
        self.samples[metric].append(wall * factor)
        if outcome is not None and check is not None:
            self.ops.verify(metric, check, outcome)
        return outcome, factor

    def timed_split(self, metric: str, fn, check) -> None:
        """:meth:`timed` for an operation that uses ``NPROC`` workers."""
        def attempt():
            return self.ops.attempt(metric, fn) or (None, 0.0)

        outcome, wall, calibrated = self.bracket.timed_split(attempt,
                                                             NPROC)
        self.raw[metric].append(wall)
        self.samples[metric].append(calibrated)
        if outcome is not None:
            self.ops.verify(metric, check, outcome)

    def pooled(self, metric: str, walls, factor: float) -> None:
        """Keep one round's latencies, in milliseconds."""
        self.raw[metric].append([1e3 * wall for wall in walls])
        self.samples[metric].append([1e3 * wall * factor
                                     for wall in walls])

    # -- reference stage (untimed, checked) -----------------------------------

    def references(self) -> None:
        """Independent results for the small guests, and a warm-up of
        every lazily initialised path (pool start, first compiles)."""
        w = self.workload
        attempt = self.ops.attempt
        self.artifact_arch = attempt("reference", interpret,
                                     self.artifact.program,
                                     self.kernel_seed)
        self.artifact_tools = {}
        for name in sorted({*w.replay_tools, w.tool, "memtrace"}):
            attempt("reference", self.artifact_reference, name)
        self.watch_address = attempt(
            "reference", seeded_write, self.artifact_tools["memtrace"],
            self.seed)
        self.job_results = {}
        for offset in range(SERVE_SEEDS):
            attempt("reference", self.job_reference,
                    self.kernel_seed + offset)
        for workers in (0, NPROC):
            attempt("reference", self.warm_up, workers)

    def artifact_reference(self, tool_name: str) -> None:
        arch, tool = run_pin(self.artifact.program, tool_name,
                             self.kernel_seed)
        require_equal(f"artifact guest under pin {tool_name}", arch,
                      self.artifact_arch)
        self.artifact_tools[tool_name] = tool

    def job_reference(self, kernel_seed: int) -> None:
        arch, tool = run_pin(self.job.program, self.workload.tool,
                             kernel_seed)
        require_equal("job guest under pin", arch,
                      interpret(self.job.program, kernel_seed))
        self.job_results[kernel_seed] = (arch, tool.report())

    def warm_up(self, workers: int) -> None:
        arch, want = self.job_results[self.kernel_seed]
        report, tool = run_live(self.job.program, self.workload.tool,
                                self.kernel_seed, spworkers=workers)
        require_equal("tool report", tool.report(), want)
        require_equal("instructions", report.timeline.total_instructions,
                      arch["instructions"])

    # -- the live operations --------------------------------------------------

    def native(self) -> dict:
        return interpret(self.live.program, self.kernel_seed)

    def check_native(self, arch: dict) -> None:
        if self.live_arch is None:
            self.live_arch = arch
        require_equal("interpreter result", arch, self.live_arch)

    def pin(self):
        return run_pin(self.live.program, self.workload.tool,
                       self.kernel_seed)

    def check_pin(self, outcome) -> None:
        arch, tool = outcome
        result = oracle.tool_result(tool)
        if self.live_tool is None:
            self.live_tool = result
        require_equal("pin architectural result", arch, self.live_arch)
        require_equal("pin tool result", result, self.live_tool)
        if "icount" in result:
            require_equal("icount", result["icount"],
                          arch["instructions"])

    def superpin(self):
        return run_live(self.live.program, self.workload.tool,
                        self.kernel_seed, spworkers=0)

    def superpin_parallel(self):
        return run_live_split(self.live.program, self.workload.tool,
                              self.kernel_seed, spworkers=NPROC)

    def check_superpin(self, outcome) -> None:
        report, tool = outcome
        oracle.check_report(report, self.live_arch, tool, self.live_tool)

    # -- the artifact operations ----------------------------------------------

    def record(self):
        return run_live(self.artifact.program, self.workload.tool,
                        self.kernel_seed, spworkers=0,
                        sprecord=self.recording_path)

    def check_record(self, outcome) -> None:
        report, tool = outcome
        oracle.check_report(
            report, self.artifact_arch, tool,
            oracle.tool_result(self.artifact_tools[self.workload.tool]))
        require(os.path.exists(self.recording_path),
                "no recording artifact was written")

    def replay(self):
        from repro.superpin import replay_recording, SuperPinConfig
        from repro.tools import TOOLS
        tools = [TOOLS[name]() for name in self.workload.replay_tools]
        reports = replay_recording(self.recording_path, tools,
                                   SuperPinConfig(spworkers=0))
        return reports, tools

    def check_replay(self, outcome) -> None:
        reports, tools = outcome
        for name, report, tool in zip(self.workload.replay_tools,
                                      reports, tools):
            oracle.check_report(
                report, self.artifact_arch, tool,
                oracle.tool_result(self.artifact_tools[name]))

    def time_travel(self, rng: random.Random) -> None:
        """Load the recording, then seeded ``goto``s (each landing is
        checked against a second engine's visit), groups of
        ``step_back(1)`` and one ``last_write_before``.  Every call is
        its own operation."""
        from repro.superpin import load_recording, TimeTravelEngine
        w = self.workload
        recording = load_recording(self.recording_path)
        engine = TimeTravelEngine(recording)
        witness = TimeTravelEngine(recording)
        total = engine.total_instructions
        targets = stratified(rng, total, w.gotos)
        rng.shuffle(targets)
        second_visits = targets[:]
        rng.shuffle(second_visits)
        landings: dict[int, str] = {}
        goto_walls = self.goto_walls = []

        def land(icount: int) -> None:
            start = time.perf_counter()
            engine.goto(icount)
            goto_walls.append(time.perf_counter() - start)
            landings[icount] = engine.state_fingerprint()

        def lands_again(icount: int) -> None:
            witness.goto(icount)
            require_equal(f"second landing at {icount}",
                          witness.state_fingerprint(), landings[icount])

        def step_back(target: int) -> None:
            engine.step_back(1)
            require_equal("position", engine.position, target)

        def group_lands(target: int) -> None:
            witness.goto(target)
            require_equal(f"step-back landing at {target}",
                          engine.state_fingerprint(),
                          witness.state_fingerprint())

        for icount in targets:
            self.ops.attempt("goto", land, icount)
        for icount in second_visits:
            self.ops.verify("goto", lands_again, icount)
        for origin in stratified(rng, total - STEPBACKS_PER_GROUP,
                                 w.stepback_groups):
            origin += STEPBACKS_PER_GROUP
            engine.goto(origin)
            for back in range(1, STEPBACKS_PER_GROUP + 1):
                self.ops.attempt("step_back", step_back, origin - back)
            self.ops.verify("step_back", group_lands,
                            origin - STEPBACKS_PER_GROUP)
        self.ops.attempt("last_write_before", check_last_write, engine,
                         self.watch_address,
                         rng.randrange(total // 2, total + 1))
        if self.landings is None:
            self.landings = oracle.sha256_text(
                repr(sorted(landings.items())))

    def timed_time_travel(self, rng: random.Random) -> None:
        _, factor = self.timed("timetravel_s",
                               lambda: self.time_travel(rng))
        self.pooled("goto_ms", self.goto_walls, factor)

    # -- the daemon jobs ------------------------------------------------------

    def serve(self, rng: random.Random) -> None:
        """``serve_jobs`` small jobs from ``NPROC`` closed-loop client
        threads: each sends its next job when the previous is done.
        Submit to ``done`` is the latency; every job is its own
        operation."""
        w = self.workload
        order = list(range(w.serve_jobs))
        rng.shuffle(order)
        pending = collections.deque(order)
        outcomes = []

        def clients() -> None:
            threads = [threading.Thread(target=client_loop)
                       for _ in range(NPROC)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        def client_loop() -> None:
            client = self.daemon.new_client()
            while True:
                try:
                    job = pending.popleft()
                except IndexError:
                    return
                kernel_seed = self.kernel_seed + job % SERVE_SEEDS
                spec = {"asm": self.job.source, "tool": w.tool,
                        "seed": kernel_seed}
                start = time.perf_counter()
                try:
                    final = client.submit(spec)["final"]
                except Exception as error:
                    final = error
                outcomes.append((time.perf_counter() - start,
                                 kernel_seed, final))

        _, _, factor = self.bracket.timed(clients)
        for _, kernel_seed, final in outcomes:
            self.ops.attempt("serve_job", self.check_job, kernel_seed,
                             final)
        self.pooled("serve_job_ms", [wall for wall, _, _ in outcomes],
                    factor)

    def check_job(self, kernel_seed: int, final) -> None:
        if isinstance(final, Exception):
            raise final
        require_equal("terminal event", final.get("event"), "done")
        result = final["result"]
        arch, report = self.job_results[kernel_seed]
        require_equal("exit code", result["exit_code"], arch["exit_code"])
        require(result["all_exact"], "job was not exact")
        require_equal("degraded slices", result["degraded_slices"], [])
        require_equal("tool report", result["tool_report"], report)

    # -- the run --------------------------------------------------------------

    def round(self, index: int) -> None:
        rng = random.Random(f"{self.seed}/{index}")
        self.timed("native_s", self.native, self.check_native)
        self.timed("pin_s", self.pin, self.check_pin)
        self.timed("superpin_w0_s", self.superpin, self.check_superpin)
        self.timed_split("superpin_w2_s", self.superpin_parallel,
                         self.check_superpin)
        self.timed("record_s", self.record, self.check_record)
        self.timed("replay_s", self.replay, self.check_replay)
        self.timed_time_travel(rng)
        self.serve(rng)

    def sizes(self) -> dict:
        w = self.workload
        return {"scale": w.scale, "artifact_scale": w.artifact_scale,
                "serve_scale": w.serve_scale, "gotos": w.gotos}

    def reference(self) -> dict:
        """What this run established, in the pinned file's shape."""
        return {
            "sizes": self.sizes(),
            "live": {"arch": self.live_arch, "tool": self.live_tool},
            "artifact": {
                "arch": self.artifact_arch,
                "tools": {name: oracle.tool_result(tool) for name, tool
                          in sorted(self.artifact_tools.items())}},
            "jobs": {str(seed): [arch, report] for seed, (arch, report)
                     in sorted(self.job_results.items())},
            "landings_sha256": self.landings,
        }

    def check_pinned(self, update: bool) -> None:
        """Seed 0's architectural results are also pinned in a file."""
        if self.seed != 0:
            return
        reference = self.reference()
        if update:
            oracle.write_expected(self.expected_path, reference)
        elif self.expected is not None:
            self.ops.attempt("pinned", oracle.check_expected,
                             self.expected, reference)

    def metrics(self) -> dict:
        """Every end-to-end metric: value, unit, quartiles, sample
        count and the uncalibrated value.  A timing's quartiles are
        those of its per-round samples; a latency's are those of its
        per-round percentiles."""

        def row(name, value, raw, spread_of, n):
            q1, q3 = stats.quartiles(spread_of)
            return {"value": value, "unit": END_TO_END[name], "q1": q1,
                    "q3": q3, "n": n, "raw": raw}

        table = {}
        for name in END_TO_END:
            if name.endswith("_s"):
                # A series is empty only when its every operation failed.
                sample = self.samples[name] or [0.0]
                table[name] = row(name, statistics.median(sample),
                                  statistics.median(self.raw[name]
                                                    or [0.0]),
                                  sample, len(sample))
        for name, series in (("goto_p50_ms", "goto_ms"),
                             ("serve_job_p50_ms", "serve_job_ms")):
            rounds = [r for r in self.samples[series] if r] or [[0.0]]
            pooled = [x for r in rounds for x in r]
            raw = [x for r in self.raw[series] for x in r] or [0.0]
            table[name] = row(name, statistics.median(pooled),
                              statistics.median(raw),
                              [statistics.median(r) for r in rounds],
                              len(pooled))
        rss = peak_rss_mb()
        table["peak_rss_mb"] = row("peak_rss_mb", rss, rss, [rss], 1)
        return {name: table[name] for name in END_TO_END}


def stratified(rng: random.Random, total: int, count: int) -> list[int]:
    """``count`` points of ``[0, total]``, one drawn from each of
    ``count`` equal strata: every seed covers the run evenly, so the
    cost of reaching a point varies with the point, not with the seed."""
    return [int((i + rng.random()) * total / count) for i in range(count)]


def seeded_write(memtrace, seed: int) -> int:
    """A seeded choice among the addresses a memtrace run saw written."""
    return random.Random(seed).choice(
        [ea for kind, ea in memtrace.stream if kind == "w"])


def check_last_write(engine, address: int, limit: int) -> None:
    """``last_write_before`` names the write that left ``address`` as it
    reads at ``limit``: one step past the hit the value is final."""
    hit = engine.last_write_before(address, limit)
    engine.goto(limit)
    want = engine.read_memory(address)
    if hit is None:
        engine.goto(0)
    else:
        require(hit.icount < limit, f"hit at {hit.icount} >= {limit}")
        engine.goto(hit.icount + 1)
    require_equal(f"value of {address:#x}", engine.read_memory(address),
                  want)


def run(workload: Workload, seed: int, seconds: float, rounds: int | None,
        workdir: str, expected_path: str, import_seconds: float,
        update_expected: bool = False) -> dict:
    """Run the untraced pass; ``rounds`` fixes the round count, else
    rounds continue (at least ``MIN_ROUNDS``) while ``seconds`` last."""
    journey = Journey(workload, seed, workdir, expected_path)
    try:
        journey.timed_set_up(import_seconds)
        journey.references()
        start = time.perf_counter()
        done = 0
        while True:
            journey.round(done)
            done += 1
            spent = time.perf_counter() - start
            if rounds is not None:
                if done >= rounds:
                    break
            elif done >= MIN_ROUNDS and spent + spent / done > seconds:
                break
        journey.check_pinned(update_expected)
    finally:
        journey.close()
    ops = journey.ops
    return {
        "workload": workload.name, "seed": seed, "pass": "e2e",
        "rounds": done, "attempted": ops.attempted, "failed": ops.failed,
        "failures": ops.failures, "metrics": journey.metrics(),
        "round_s": spent / done,
        "samples": {name: journey.samples[name] for name in END_TO_END
                    if name.endswith("_s")},
        "calib": {**stats.summarize(journey.bracket.kernel_samples),
                  "ref_s": calib.CALIB_REF_S},
        "sizes": journey.sizes(),
    }
