"""Command-line interface.

::

    superpin run -t icount2 -w gzip -- -sp 1 -spmsec 1000 -spmp 8
    superpin replay -r run.sprec -t icount2,itrace -- -spworkers 2
    superpin figure 3 [--scale 1.0] [--benchmarks gzip,gcc]
    superpin figure all
    superpin list
    superpin asm program.s [--tool icount2]

``superpin run`` mirrors the paper's invocation style: everything after
``--`` is parsed as SuperPin switches (§5's -sp/-spmsec/-spmp/-spsysrecs,
plus ``-spworkers N`` to fan the slice phase out over N host processes).
``superpin replay`` runs one or more tools against a ``-sprecord``
artifact without re-running the master program, and prints for each
the report ``superpin run`` prints.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, RecordingCorruptError
from .harness.figures import FIGURES
from .harness.report import render_figure
from .machine import Kernel, load_program
from .machine.interpreter import Interpreter
from .pin.pintool import run_with_pin
from .superpin import parse_switches, run_superpin, SuperPinConfig
from .tools import TOOLS
from .workloads import BENCHMARK_NAMES, build, positive_scale


def main(argv: list[str] | None = None) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``superpin list | head -1``): point stdout
        # at devnull, or the flush at exit raises again (the recipe in
        # the docs of Python's ``signal`` module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    return status


def _scale(text: str) -> float:
    """``--scale``'s type: :func:`~repro.workloads.positive_scale` of
    the number ``text`` spells."""
    try:
        return positive_scale(float(text))
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="superpin",
        description="SuperPin reproduction: fork-parallelized dynamic "
                    "instrumentation (CGO 2007)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one workload under a tool")
    run_p.add_argument("-t", "--tool", default="icount2",
                       choices=sorted(TOOLS))
    run_p.add_argument("-w", "--workload", required=True,
                       help="suite benchmark name (see 'superpin list')")
    run_p.add_argument("--scale", type=_scale, default=0.5,
                       help="duration scale factor (default 0.5)")
    run_p.add_argument("--gantt", action="store_true",
                       help="draw the slice schedule (the paper's Fig. 1)")
    # SuperPin switches (-sp/-spmsec/-spmp/-spsysrecs) are collected from
    # the unparsed remainder so the paper's flag style works verbatim.

    replay_p = sub.add_parser(
        "replay", help="replay tools against a -sprecord artifact")
    replay_p.add_argument("-r", "--recording", required=True,
                          help="recording artifact written by -sprecord")
    replay_p.add_argument("-t", "--tools", default="icount2",
                          help="comma-separated tool names (see "
                               "'superpin list')")

    debug_p = sub.add_parser(
        "debug", help="time-travel debugger over a -sprecord artifact")
    debug_p.add_argument("recording",
                         help="recording artifact written by -sprecord")
    debug_p.add_argument("--script", default=None,
                         help="batch command file (one command per line) "
                              "instead of the interactive REPL")
    # -sp* switches (degrade policy, metrics) ride in the unparsed
    # remainder, like 'run'.

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("which", choices=sorted(FIGURES) + ["all"])
    fig_p.add_argument("--scale", type=_scale, default=1.0)
    fig_p.add_argument("--benchmarks", default=None,
                       help="comma-separated subset (figures 3/4/5)")

    sub.add_parser("list", help="list workloads and tools")

    asm_p = sub.add_parser(
        "asm", help="assemble and run an .s file (or a .bin object)")
    asm_p.add_argument("file")
    asm_p.add_argument("-t", "--tool", default=None,
                       choices=sorted(TOOLS))
    asm_p.add_argument("-o", "--output", default=None,
                       help="write a binary object file instead of running")

    dump_p = sub.add_parser("objdump",
                            help="dump an object file (or .s source)")
    dump_p.add_argument("file")

    serve_p = sub.add_parser(
        "serve", help="run the persistent instrumentation daemon")
    serve_p.add_argument("--socket", required=True,
                         help="unix socket path to listen on")
    serve_p.add_argument("--state", required=True,
                         help="state directory (job log, shutdown exports)")
    serve_p.add_argument("--workers", type=int, default=1,
                         help="concurrent jobs (0: accept only)")
    serve_p.add_argument("--queue-depth", type=int, default=64,
                         help="admission-control queue bound")

    submit_p = sub.add_parser(
        "submit", help="submit one job to a running daemon")
    submit_p.add_argument("--socket", required=True)
    submit_p.add_argument("-t", "--tool", default="icount2",
                          choices=sorted(TOOLS))
    submit_p.add_argument("-w", "--workload", default=None,
                          help="suite benchmark name")
    submit_p.add_argument("--asm", default=None,
                          help="assembly source file to submit instead")
    submit_p.add_argument("--scale", type=_scale, default=0.25)
    submit_p.add_argument("--seed", type=int, default=42)
    submit_p.add_argument("--tenant", default="default")
    submit_p.add_argument("--no-stream", action="store_true",
                          help="enqueue and return without waiting")
    # -sp* switches ride in the unparsed remainder, like 'run'.

    status_p = sub.add_parser(
        "status", help="query (or manage) a running daemon")
    status_p.add_argument("--socket", required=True)
    status_p.add_argument("--job", default=None,
                          help="show one job instead of the summary")
    status_p.add_argument("--cancel", default=None, metavar="JOB",
                          help="cancel a queued or running job")
    status_p.add_argument("--shutdown", action="store_true",
                          help="stop the daemon gracefully")

    args, extra = parser.parse_known_args(argv)
    with_switches = {"run": _cmd_run, "replay": _cmd_replay,
                     "submit": _cmd_submit, "debug": _cmd_debug}
    if args.command in with_switches:
        try:
            return with_switches[args.command](args, extra)
        except BrokenPipeError:
            raise
        except (ConfigError, RecordingCorruptError, OSError) as error:
            # A bad -sp* switch, one the command cannot honour, or a
            # file it cannot read (or a recording that fails to verify).
            print(f"error: {error}", file=sys.stderr)
            return 2
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "list":
        return _cmd_list()
    return {"figure": _cmd_figure, "asm": _cmd_asm, "objdump": _cmd_objdump,
            "serve": _cmd_serve, "status": _cmd_status}[args.command](args)


def _switches(extra: list[str]) -> SuperPinConfig:
    """The SuperPin switches in what argparse left of the command line."""
    return parse_switches([s for s in extra if s != "--"])


def _cmd_run(args, extra: list[str]) -> int:
    if args.workload not in BENCHMARK_NAMES:
        print(f"unknown workload {args.workload!r}; see 'superpin list'",
              file=sys.stderr)
        return 2
    config = _switches(extra)
    built = build(args.workload, clock_hz=config.clock_hz,
                  scale=args.scale)
    tool = TOOLS[args.tool]()

    print(f"workload {args.workload} (scale {args.scale}): "
          f"{built.static_instructions} static instructions, "
          f"{built.rounds} rounds")
    report = run_superpin(built.program, tool, config,
                          kernel=Kernel(seed=42))
    return _print_report(report, tool, config, gantt=args.gantt)


def _print_report(report, tool, config: SuperPinConfig,
                  gantt: bool = False) -> int:
    """Print one run's report — a live run's, a replay's or serial Pin's
    (no slices, so no slice, detection, breakdown or host-time lines) —
    and return its exit status: 3 on a failed audit, else 0."""
    timing = report.timing
    seconds = config.seconds
    if not config.sp:
        print(f"mode: classic Pin ({report.timeline.total_instructions:,} "
              f"instructions, one instrumented process)")
    else:
        workers = (f"{config.spworkers} worker processes"
                   if config.spworkers else "sequential slice phase")
        print(f"mode: SuperPin ({config.spmp} max slices, "
              f"{config.spmsec} ms timeslice, {workers})")
        print(f"slices: {report.num_slices} "
              f"({sum(1 for s in report.slices if s.exact)} exact)")
    sup = report.supervision_summary()
    if (config.spfaults != "failfast" or config.fault_plan is not None
            or sup["failed_attempts"]):
        degraded = (", degraded: "
                    + ",".join(map(str, report.degraded_slices))
                    if report.degraded_slices else "")
        print(f"faults: policy {config.spfaults}, "
              f"{int(sup['attempts'])} attempts "
              f"({int(sup['failed_attempts'])} failed), "
              f"{int(sup['recovered_slices'])} slices recovered"
              f"{degraded}")
    if report.recording_path:
        verb = "wrote" if config.sprecord else "replayed"
        print(f"recording: {verb} {report.recording_path} "
              f"(id {report.recording_id[:12]})")
    if config.spjournal:
        resumed = report.resumed_slices
        state = (f"resumed {resumed} of {report.num_slices} slices"
                 if config.spresume else "fresh run")
        print(f"journal: {config.spjournal} ({state})")
    print(f"tool report: {tool.report()}")
    instr = report.instrumentation_summary()
    if config.spfilter is not None or config.spmetrics:
        parts = [f"{instr['analysis_calls']} analysis calls"]
        if config.spfilter is not None:
            parts.append(f"filter '{config.spfilter}' skipped "
                         f"{instr['skipped_callbacks']} callbacks "
                         f"({instr['fastpath_traces']} fast-path traces)")
        if config.spmetrics:
            counter = report.metrics.counter
            parts.append(
                f"{int(counter('pin.suppress.summarized_loops'))} "
                f"summarized loops saved "
                f"{int(counter('pin.suppress.suppressed_calls'))} calls")
        print("instrumentation: " + ", ".join(parts))
    if config.spsample > 0:
        samp = report.sampling_summary()
        print(f"sampling: 1/{samp['period']} slices instrumented "
              f"({samp['sampled_slices']} sampled, "
              f"{samp['skipped_slices']} tool-free) — tool report is an "
              f"approximation")
    jit = report.jit_summary()
    if jit is not None:
        print(f"jit: {jit['compiles']:,} compiles, {jit['pooled']:,} from "
              f"pooled skeletons, {jit['served']:,} without "
              f"re-instrumenting ({jit['served_cut']:,} cut by a "
              f"signature pc), {jit['readmitted']:,} re-admitted from the "
              f"trace store, {jit['hot']:,} hot "
              f"({jit['hot_share']:.0%} of instructions in generated "
              f"code, {jit['loop_share']:.0%} of trace executions inside "
              f"{jit['loop_builds']:,} loop forms, {jit['interned']:,} "
              f"from the process's code pool), {jit['seconds']:.2f} s")
    if report.timeline.master is not None:
        print(f"master: {report.timeline.master.summary()}")
    if not config.sp:
        print(f"virtual time: native {seconds(timing.native_cycles):.2f}s, "
              f"classic Pin {seconds(timing.total_cycles):.2f}s "
              f"(slowdown {timing.slowdown:.2f}x)")
    else:
        det = report.detection_summary()
        print(f"detection: {det['quick_checks']} quick checks, "
              f"{det['full_checks']} full "
              f"({det['full_check_rate']:.2%} escalation)")
        if timing is None:
            # Degraded runs have holes, so there is no timing simulation.
            print("virtual time: unavailable (degraded run)")
        else:
            shared = report.shared_cache_timing()
            print(f"virtual time: native "
                  f"{seconds(timing.native_cycles):.2f}s, "
                  f"superpin {seconds(timing.total_cycles):.2f}s "
                  f"(slowdown {timing.slowdown:.2f}x; "
                  f"{seconds(shared.total_cycles):.2f}s, "
                  f"{shared.slowdown:.2f}x with §8's shared code cache)")
            print("breakdown: " + ", ".join(
                f"{name} {seconds(value):.2f}s"
                for name, value in timing.breakdown().items()))
        wall = report.wallclock_summary()
        print(f"measured: control {wall['control_phase_seconds']:.3f}s, "
              f"signatures {wall['signature_phase_seconds']:.3f}s "
              f"({wall['master_overlap_seconds']:.3f}s of both beside "
              f"slices), slice phase {wall['slice_phase_seconds']:.3f}s "
              f"(run {wall['slice_run_seconds']:.3f}s, "
              f"pickle {wall['slice_pickle_seconds']:.3f}s, "
              f"transport {wall['transport_seconds']:.3f}s, "
              f"parallelism {wall['measured_parallelism']:.2f}x)")
        print(f"pipeline: first result after "
              f"{wall['first_result_seconds']:.3f}s, last "
              f"{wall['pipeline_delay_seconds']:.3f}s after the master "
              f"ended (pipeline delay)")
    if config.sptrace:
        from .obs import write_trace
        kind = write_trace(config.sptrace, report.trace, report.metrics)
        what = ("JSONL event log" if kind == "jsonl"
                else "Chrome trace (load in ui.perfetto.dev)")
        print(f"trace: wrote {what} to {config.sptrace}")
    if config.spmetrics or config.sptrace:
        print(report.trace_summary())
    if gantt and timing is not None:
        from .harness.report import gantt_chart
        print()
        print(gantt_chart(timing))
    if report.audit is not None:
        print(report.audit.summary())
        for divergence in report.audit.divergences[:10]:
            print(f"  {divergence}")
        if len(report.audit.divergences) > 10:
            print(f"  ... and {len(report.audit.divergences) - 10} more")
        if not report.audit.ok:
            # Distinct from argparse's 2: the run completed but failed
            # its audit.
            return 3
    return 0


def _cmd_replay(args, extra: list[str]) -> int:
    from .superpin import replay_recording

    names = [name.strip() for name in args.tools.split(",") if name.strip()]
    unknown = [name for name in names if name not in TOOLS]
    if not names or unknown:
        print(f"unknown tools: {', '.join(unknown) or '<none given>'}; "
              f"see 'superpin list'", file=sys.stderr)
        return 2
    config = _switches(extra)
    tools = [TOOLS[name]() for name in names]
    reports = replay_recording(args.recording, tools, config)
    status = 0
    for name, tool, report in zip(names, tools, reports):
        print(f"replay {name}:")
        status = max(status, _print_report(report, tool, config))
    return status


def _cmd_debug(args, extra: list[str]) -> int:
    from .errors import DivergenceError, TimeTravelError
    from .superpin import load_recording
    from .superpin.timetravel import DebugSession

    config = _switches(extra)
    recording = load_recording(args.recording,
                               tolerate_damaged=config.spfaults == "degrade")
    session = DebugSession(recording, config)
    if args.script:
        with open(args.script, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle.read().splitlines()]
        lines = [line for line in lines
                 if line and not line.startswith("#")]
    else:
        print(f"debug {args.recording}: {recording.num_slices} slices, "
              f"{recording.total_instructions} instructions "
              f"(id {recording.recording_id[:12]})")
        print("type 'help' for commands, 'quit' to leave")
        lines = _prompted("(ttd) ")
    # A script stops at its first error; the REPL reports it and goes on.
    for line in lines:
        if args.script:
            print(f"(ttd) {line}")
        try:
            output = session.execute(line)
        except TimeTravelError as error:
            print(f"error: {error}")
            if args.script:
                return 2
            continue
        except DivergenceError as error:
            print(f"divergence: {error}")
            if args.script:
                return 3
            continue
        if output is None:
            break
        for text in output:
            print(text)
    return 0


def _prompted(prompt: str):
    """The lines typed at ``prompt`` until end of input."""
    while True:
        try:
            yield input(prompt)
        except EOFError:
            print()
            return


def _cmd_serve(args) -> int:
    from .serve import ServeDaemon
    if args.workers < 0 or args.queue_depth <= 0:
        print("serve: --workers must be >= 0 and --queue-depth > 0",
              file=sys.stderr)
        return 2
    daemon = ServeDaemon(args.socket, args.state, workers=args.workers,
                         max_depth=args.queue_depth)
    print(f"serve: listening on {args.socket} "
          f"({args.workers} workers, queue depth {args.queue_depth}, "
          f"state {args.state})", flush=True)
    daemon.run()
    print("serve: stopped")
    return 0


def _cmd_submit(args, extra: list[str]) -> int:
    from .serve import ServeClient, ServeError
    if (args.workload is None) == (args.asm is None):
        print("submit: exactly one of -w/--workload or --asm",
              file=sys.stderr)
        return 2
    spec: dict = {"tool": args.tool, "seed": args.seed,
                  "switches": [s for s in extra if s != "--"]}
    if args.workload is not None:
        spec["workload"] = args.workload
        spec["scale"] = args.scale
    else:
        with open(args.asm, "r", encoding="utf-8") as handle:
            spec["asm"] = handle.read()
    client = ServeClient(args.socket)

    def on_event(event: dict) -> None:
        kind = event.get("event")
        if kind == "state":
            print(f"  {event['job_id']}: {event['state']}")
        elif kind == "progress" and event.get("kind") == "slice":
            payload = event.get("payload", {})
            print(f"  {event['job_id']}: slice "
                  f"{payload.get('completed')}/{payload.get('total')}")

    try:
        response = client.submit(spec, tenant=args.tenant,
                                 stream=not args.no_stream,
                                 on_event=on_event)
    except ServeError as error:
        print(f"submit rejected ({error.code}): {error}",
              file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot reach daemon: {error}", file=sys.stderr)
        return 2
    job_id = response["job_id"]
    if args.no_stream:
        print(f"queued {job_id}")
        return 0
    final = response["final"]
    if final["event"] == "failed":
        print(f"{job_id} failed: {final.get('error')}", file=sys.stderr)
        return 1
    result = final["result"]
    print(f"{job_id} done: exit {result['exit_code']}, "
          f"{result['num_slices']} slices")
    # Placement counters: how much of the job's compile work the
    # daemon's resident machine had done for an earlier job — decoding,
    # and instrumenting — and how much of its master ran as code the
    # resident master had kept (an exact run's slices retire the
    # master's instructions).
    counters = result["counters"]
    generated = counters.get("superpin.control.master.jit_instructions", 0)
    retired = counters.get("superpin.slices.instructions", 0)
    print(f"jit: {counters.get('pin.jit.compiles', 0):.0f} compiles, "
          f"{counters.get('pin.jit.skeleton_reuses', 0):.0f} from pooled "
          f"skeletons, "
          f"{counters.get('pin.jit.instrumentation_reuses', 0):.0f} served "
          f"from kept code, {counters.get('pin.jit.hot_compiles', 0):.0f} "
          f"hot; master {generated / retired if retired else 0.0:.0%} in "
          f"generated code")
    print(f"tool report: {result['tool_report']}")
    return 0


def _cmd_status(args) -> int:
    from .serve import ServeClient, ServeError
    client = ServeClient(args.socket)
    try:
        if args.shutdown:
            client.shutdown()
            print("daemon stopping")
            return 0
        if args.cancel is not None:
            response = client.cancel(args.cancel)
            print(f"{args.cancel}: {response.get('state')}")
            return 0
        if args.job is not None:
            job = client.status(args.job)["job"]
            print(f"{job['job_id']} [{job['tenant']}] {job['state']} "
                  f"tool={job['tool']} program={job['program']}")
            if job.get("error"):
                print(f"  error: {job['error']}")
            return 0
        snapshot = client.status()
        daemon = snapshot["daemon"]
        print(f"daemon: {daemon['running']} running, "
              f"{daemon['queue_depth']}/{daemon['max_depth']} queued, "
              f"{daemon['workers']} workers")
        for tenant, depth in sorted(daemon["queue_depths"].items()):
            print(f"  queue[{tenant}]: {depth}")
        kept, counters = daemon["residents"], daemon["counters"]
        print(f"  residents: {kept['idle_machines']} idle machines, "
              f"{kept['programs']} programs ({kept['slots']} slots); "
              + "; ".join(
                  f"{what} {counters.get(f'serve.{what}.hits', 0):.0f} hits"
                  f" / {counters.get(f'serve.{what}.misses', 0):.0f} misses"
                  for what in ("machines", "programs")))
        for name, histogram in daemon["histograms"].items():
            print(f"  {name}: mean "
                  f"{1e3 * histogram['total'] / histogram['count']:.2f} ms, "
                  f"max {1e3 * histogram['max']:.2f} ms "
                  f"over {histogram['count']} jobs")
        for job in snapshot["jobs"]:
            print(f"  {job['job_id']} [{job['tenant']}] {job['state']} "
                  f"{job['program']}/{job['tool']}")
        return 0
    except ServeError as error:
        print(f"daemon error ({error.code}): {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot reach daemon: {error}", file=sys.stderr)
        return 2


def _cmd_figure(args) -> int:
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    names = sorted(FIGURES) if args.which == "all" else [args.which]
    for name in names:
        fn = FIGURES[name]
        if name in ("3", "4", "5"):
            data = fn(scale=args.scale, benchmarks=benchmarks)
        elif name == "sigstats":
            data = fn(scale=min(args.scale, 0.5), benchmarks=benchmarks)
        else:
            data = fn(scale=args.scale)
        print(render_figure(data))
        print()
    return 0


def _cmd_list() -> int:
    print("workloads (synthetic SPEC2000 suite):")
    for name in BENCHMARK_NAMES:
        print(f"  {name}")
    print("tools:")
    for name in sorted(TOOLS):
        print(f"  {name}")
    return 0


def _load_any(path: str):
    """Load a program from assembly source or a binary object file."""
    from .isa import assemble, objfile
    with open(path, "rb") as handle:
        data = handle.read()
    if objfile.is_object_file(data):
        return objfile.loads(data, name=path)
    return assemble(data.decode("utf-8"), name=path)


def _cmd_asm(args) -> int:
    from .isa import objfile
    program = _load_any(args.file)
    if args.output:
        objfile.save(program, args.output)
        print(f"wrote {args.output} ({program.word_count()} words, "
              f"entry {program.entry:#x})")
        return 0
    kernel = Kernel(seed=42)
    if args.tool:
        tool = TOOLS[args.tool]()
        result, vm, kernel = run_with_pin(program, tool, kernel)
        print(f"exit code: {result.exit_code}")
        print(f"instructions: {result.instructions}")
        print(f"tool report: {tool.report()}")
    else:
        process = load_program(program, kernel)
        interp = Interpreter(process)
        interp.run(max_instructions=500_000_000)
        print(f"exit code: {process.exit_code}")
        print(f"instructions: {interp.total_instructions}")
    stdout = kernel.stdout_text()
    if stdout:
        print(f"stdout: {stdout!r}")
    return 0


def _cmd_objdump(args) -> int:
    from .isa import disassemble_range
    program = _load_any(args.file)
    print(f"{args.file}: entry {program.entry:#x}, "
          f"{len(program.segments)} segments, "
          f"{len(program.symbols)} symbols")
    for segment in program.segments:
        print(f"\nsegment {segment.name or '<anon>'} at "
              f"{segment.base:#x} ({len(segment.words)} words)")
        if segment.name == ".text":
            print(disassemble_range(list(segment.words), segment.base,
                                    program.symbols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
