"""The master is serial Pin's engine with no tool: one oracle, stressed.

The master runs as an uninstrumented ``PinVM`` under the JIT's own
policy — threaded code first, generated code and loop forms for what
the run proves hot, traces promoted in mid-run — with exact budgets and
``stop_after_syscall``.  Which lowering retired an instruction must be
invisible.  The oracle is the interpreter behind the same interface
(:class:`Oracle`, test-side): every lowering — as shipped, and with
every cached trace promoted at its first or sixteenth execution
(``promote_at``) — must yield the same ``MasterTimeline`` field by
field, the same ``recording_id``, and the same result run by run.
"""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GuestFault
from repro.isa import assemble
from repro.machine import Interpreter, Kernel, load_program
from repro.pin import jit, PinVM
from repro.pin.codecache import CodeCache
from repro.pin.engine import RunState
from repro.pin.jit import JitStats
from repro.pin.trace import MAX_TRACE_INS
from repro.superpin import (BoundaryReason, ControlProcess,
                            record_signatures, run_superpin,
                            SuperPinConfig)
from repro.superpin import control
from repro.superpin.recording import save_recording
from repro.superpin.slices import SliceMachine
from repro.tools import ICount2
from repro.workloads import SPEC2000
from repro.workloads.generators import build_workload

from ..conftest import MULTISLICE, promote_at
from .test_threads_superpin import THREADED

#: ``promote_at`` values: 0 is the shipped policy (whatever
#: ``--jit-hot-threshold`` says); n > 0 promotes every cached trace of
#: every engine to generated code at its n-th execution, and compiles
#: every repeated trace generated.
PROMOTE = (0, 1, 16)
SHIPPED = jit.HOT_EXECUTIONS_PER_COMPILE
#: Reference axis value: the master is the interpreter (:class:`Oracle`).
ORACLE = "oracle"


class Oracle:
    """The interpreter behind the master engine's interface: what
    ``ControlProcess.cuts`` asks of a ``PinVM``, answered by
    ``Interpreter(process, stop_after_syscall=True)``."""

    def __init__(self, process):
        self.process = process
        self._interp = Interpreter(process, stop_after_syscall=True)
        self._observers = []
        self.jit_stats = JitStats()
        self.cache = CodeCache()

    def add_syscall_observer(self, observer):
        self._observers.append(observer)

    @property
    def total_instructions(self):
        return self._interp.total_instructions

    @property
    def total_syscalls(self):
        return self._interp.total_syscalls

    def run(self, budget, exact_budget, stop_after_syscall):
        assert exact_budget and stop_after_syscall
        step = self._interp.run(budget)
        if step.outcome is not None:
            for observer in self._observers:
                observer(step.outcome)
        return SimpleNamespace(state=RunState(step.reason.value),
                               instructions=step.instructions)


def lowering(monkeypatch, promote) -> None:
    """Run the master (and every other engine) at one point of the
    axis: the oracle, the shipped policy, or ``promote_at(promote)``."""
    if promote == ORACLE:
        monkeypatch.setattr(control, "PinVM", Oracle)
    elif promote:
        promote_at(monkeypatch, promote)
    else:
        monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", SHIPPED)


def syscall_loop(syscall: str, trips: int = 1500, step: int = 3) -> str:
    """A loop with a syscall in its body (and a conditional side path,
    so generated code has a cold exit)."""
    return f"""
.entry main
main:
    li   s0, 0
    li   s1, {trips}
lp: addi t0, t0, {step}
    st   t0, 0x9000(s0)
    andi t1, s0, 63
    bnez t1, go
    muli t0, t0, 5
go: andi t1, s0, 255
    bnez t1, nx
{syscall}
sys:
nx: inc  s0
    blt  s0, s1, lp
    li   a0, SYS_EXIT
    mov  a1, t0
    syscall
.data
fname: .ascii "log"
"""


REPLAY_LOOP = syscall_loop("    li   a0, SYS_TIME\n    syscall")
FORCE_LOOP = syscall_loop(
    "    li   a0, SYS_OPEN\n    la   a1, fname\n    li   a2, 3\n"
    "    li   a3, 1\n    syscall\n    mov  a1, rv\n"
    "    li   a0, SYS_CLOSE\n    syscall")


#: A loop that is one trace branching to its own head — what generated
#: code runs as a loop form — five instructions a trip.
SELF_LOOP = """
.entry main
main:
    li   s0, 0
    li   s1, 1200
lp: addi t0, t0, 3
    st   t0, 0x9000(s0)
    add  t2, t2, t0
    inc  s0
    blt  s0, s1, lp
    li   a0, SYS_EXIT
    mov  a1, t2
    syscall
"""


def _suite(name: str, scale: float):
    return build_workload(SPEC2000[name], scale=scale).program


def _slices(n: int, **extra) -> SuperPinConfig:
    """``n``-instruction timeslices."""
    return SuperPinConfig(spmsec=n, clock_hz=1000, **extra)


#: name -> (program, config).  Timeslices of 97, 100 and 131
#: instructions are coprime to the loops' lengths, so over a run the
#: cuts visit every position of a loop body: mid-trace, the backward
#: branch itself, the syscall (``test_cuts_land_everywhere`` checks).
#: The first four are the bench's guests at their workloads' scales.
CASES = {
    "gzip": lambda: (_suite("gzip", 0.2), SuperPinConfig()),
    "gcc": lambda: (_suite("gcc", 0.03), SuperPinConfig()),
    "gcc-0.085": lambda: (_suite("gcc", 0.085), SuperPinConfig()),
    "mcf": lambda: (_suite("mcf", 0.1), SuperPinConfig()),
    "threads": lambda: (assemble(THREADED), _slices(500)),
    "replay-loop": lambda: (assemble(REPLAY_LOOP), _slices(131)),
    "force-loop": lambda: (assemble(FORCE_LOOP), _slices(100)),
    "sysrecs-0": lambda: (assemble(REPLAY_LOOP), _slices(700, spsysrecs=0)),
    "adaptive": lambda: (assemble(MULTISLICE), SuperPinConfig(
        spmsec=300, clock_hz=10_000, expected_duration_msec=2000)),
    "cuts-97": lambda: (assemble(REPLAY_LOOP), _slices(97)),
    "self-loop": lambda: (assemble(SELF_LOOP), _slices(97)),
}

#: The cases whose hot loops are single traces: there the parity below
#: is parity of the loop form (``repro.pin.pyjit``) with the interpreter.
LOOP_FORMS = ("gzip", "gcc", "mcf", "self-loop")


def build_timeline(monkeypatch, program, config, promote, seed=42):
    with monkeypatch.context() as patch:
        lowering(patch, promote)
        return ControlProcess(program, config,
                              kernel=Kernel(seed=seed)).run()


def timeline_view(timeline) -> dict:
    """Everything a slice, a recording or the audit reads off a
    timeline, keyed so a mismatch names its field."""
    view = {
        "exit_code": timeline.exit_code,
        "total_instructions": timeline.total_instructions,
        "total_syscalls": timeline.total_syscalls,
        "final_pc": timeline.final_pc,
        "final_cpu_hash": timeline.final_cpu_hash,
        "stdout": timeline.kernel.stdout_text(),
        "num_boundaries": len(timeline.boundaries),
    }
    for b in timeline.boundaries:
        key = f"boundary[{b.index}]."
        view[key + "reason"] = b.reason
        view[key + "cpu_snapshot"] = b.cpu_snapshot
        view[key + "master_instructions"] = b.master_instructions
        view[key + "resident_pages"] = b.resident_pages
        view[key + "memory"] = list(b.mem_fork._pages.items())
        view[key + "layout"] = b.layout_fork
        view[key + "threads"] = (
            None if b.thread_fork is None else
            (b.thread_fork.current_tid, list(b.thread_fork.ready),
             b.thread_fork.threads))
    for i in timeline.intervals:
        key = f"interval[{i.index}]."
        view[key + "instructions"] = i.instructions
        view[key + "syscalls"] = i.syscalls
        view[key + "records"] = i.records
        view[key + "record_classes"] = (i.replay_records, i.emulate_records)
        view[key + "stream_digest"] = i.stream_digest
        view[key + "master_cow_faults"] = i.master_cow_faults
        view[key + "end_reason"] = i.end_reason
        view[key + "is_last"] = i.is_last
    return view


def recording_id(timeline, config, path) -> str:
    signatures = record_signatures(timeline, config)
    return save_recording(str(path), timeline, signatures,
                          config)["recording_id"]


def assert_same_timeline(got, want, label) -> None:
    assert got.keys() == want.keys(), label
    for field in want:
        assert got[field] == want[field], f"{label}: {field}"


class TestTimelineParity:
    @pytest.mark.parametrize("promote", PROMOTE)
    @pytest.mark.parametrize("case", CASES)
    def test_every_threshold_pair_matches_the_reference(
            self, case, promote, monkeypatch, tmp_path):
        program, config = CASES[case]()
        reference = build_timeline(monkeypatch, program, config, ORACLE)
        assert reference.master.jit_instructions == 0
        want = timeline_view(reference)
        want_id = recording_id(reference, config, tmp_path / "ref.sprec")
        timeline = build_timeline(monkeypatch, program, config, promote)
        assert_same_timeline(timeline_view(timeline), want,
                             f"{case} {promote}")
        assert recording_id(timeline, config,
                            tmp_path / "master.sprec") == want_id
        assert timeline.master.code_invalidations == 0
        if promote:
            # The parity above means something only if generated code
            # really ran.
            assert timeline.master.jit_instructions > 0
            if case in LOOP_FORMS:
                assert timeline.master.loop_trips > 0

    def test_cuts_land_everywhere(self, monkeypatch):
        """The short-timeslice cases cut on the backward branch, on the
        syscall and mid-body — where a loop form or a trace must stop
        exactly."""
        program = assemble(REPLAY_LOOP)
        head, after_sys = program.symbol("lp"), program.symbol("sys")
        timeline = build_timeline(monkeypatch, program, _slices(97), 1)
        cut_pcs = {b.cpu_snapshot[0] for b in timeline.boundaries
                   if b.reason is BoundaryReason.TIMEOUT}
        assert head in cut_pcs                  # the branch retired last
        assert after_sys in cut_pcs             # the syscall retired last
        assert cut_pcs & set(range(head + 1, after_sys - 1))  # mid-body
        # ... out of generated code.
        master = timeline.master
        assert 3 * master.jit_instructions > master.instructions

    def test_shipped_thresholds_engage_on_a_long_loop(self, monkeypatch):
        """Serial Pin's heat policy, unpatched: gzip's loops are
        promoted in mid-run and run as loop forms."""
        program, config = CASES["gzip"]()
        master = build_timeline(monkeypatch, program, config, 0).master
        assert 2 * master.jit_instructions > master.instructions
        assert master.loop_trips > 0
        assert master.compiled_ins < 400

    @settings(max_examples=15, deadline=None)
    @given(budget=st.integers(min_value=1, max_value=400),
           promote=st.sampled_from(PROMOTE))
    def test_any_timeslice_any_loop(self, budget, promote):
        with pytest.MonkeyPatch.context() as monkeypatch:
            for source in (REPLAY_LOOP, FORCE_LOOP):
                program = assemble(source)
                want = timeline_view(build_timeline(
                    monkeypatch, program, _slices(budget), ORACLE))
                got = timeline_view(build_timeline(
                    monkeypatch, program, _slices(budget), promote))
                assert_same_timeline(got, want, f"{budget} {promote}")


def _engines(program, seed=7):
    """An interpreter and the master's engine over two loads of
    ``program``."""
    reference = Interpreter(load_program(program, Kernel(seed=seed)),
                            stop_after_syscall=True)
    master = PinVM(load_program(program, Kernel(seed=seed)))
    return reference, master


def _run(master, budget=None):
    outcomes = []
    master.syscall_observers[:] = [outcomes.append]
    result = master.run(budget, exact_budget=True, stop_after_syscall=True)
    return result, outcomes[-1] if outcomes else None


def _state(engine):
    process = engine.process
    return (process.cpu.snapshot(), process.exited, process.exit_code,
            engine.total_instructions, engine.total_syscalls,
            list(process.mem._pages.items()), process.mem.cow_faults)


class TestRunContract:
    """The master's ``PinVM.run(budget, exact_budget=True,
    stop_after_syscall=True)`` is ``Interpreter.run(budget)``, call for
    call."""

    HALTING = """
.entry main
main:
    li   t0, 0
    li   t1, 50
lp: inc  t0
    blt  t0, t1, lp
    mov  a0, t0
    halt
"""

    @settings(max_examples=20, deadline=None)
    @given(budgets=st.lists(st.integers(min_value=40, max_value=600),
                            min_size=1, max_size=6),
           promote=st.sampled_from(PROMOTE),
           source=st.sampled_from([REPLAY_LOOP, FORCE_LOOP, THREADED,
                                   HALTING]))
    def test_same_step_results(self, budgets, promote, source):
        with pytest.MonkeyPatch.context() as monkeypatch:
            lowering(monkeypatch, promote)
            reference, master = _engines(assemble(source))
            for turn in itertools.count():
                budget = budgets[turn % len(budgets)]
                want = reference.run(budget)
                got, outcome = _run(master, budget)
                assert (got.state.value, got.instructions) \
                    == (want.reason.value, want.instructions), turn
                assert (outcome and outcome.record) \
                    == (want.outcome and want.outcome.record), turn
                assert _state(master) == _state(reference), turn
                if got.state is RunState.EXIT:
                    break
            # ... and stays exited.
            assert _run(master, 10)[0].state is RunState.EXIT

    @pytest.mark.parametrize("budget", range(200, 210))
    def test_budgets_that_end_on_every_trip_of_a_loop_form(
            self, budget, monkeypatch):
        """Ten consecutive budgets over a five-instruction trip: the
        exact-mode allowance stops the loop form on every trip, at every
        distance from the budget's end."""
        promote_at(monkeypatch, 2)
        reference, master = _engines(assemble(SELF_LOOP))
        while True:
            want, (got, _) = reference.run(budget), _run(master, budget)
            assert (got.state.value, got.instructions) \
                == (want.reason.value, want.instructions)
            assert _state(master) == _state(reference)
            if got.state is RunState.EXIT:
                break
        assert master.jit_stats.loop_trips > 500

    def test_unbudgeted_run(self, monkeypatch):
        promote_at(monkeypatch, 2)
        reference, master = _engines(assemble(self.HALTING))
        want, (got, outcome) = reference.run(), _run(master)
        assert (got.state.value, got.instructions, outcome) \
            == (want.reason.value, want.instructions, None)
        assert _state(master) == _state(reference)
        assert master.jit_stats.hot_instructions > 0

    def test_hot_head_that_never_fits_the_budget(self, monkeypatch):
        """Forward progress: a hot loop whose trace is longer than what
        is left of the budget lands the tail on step traces — a budget
        is never overrun, and never spent on nothing."""
        promote_at(monkeypatch, 1)
        body = "\n".join("    addi t2, t2, 1" for _ in range(50))
        source = (".entry main\nmain:\n    li t0, 0\n    li t1, 400\n"
                  f"lp:\n{body}\n    inc t0\n    blt t0, t1, lp\n    halt\n")
        reference, master = _engines(assemble(source))
        for budget in (10, MAX_TRACE_INS - 1, MAX_TRACE_INS, 100, 131):
            want, (got, _) = reference.run(budget), _run(master, budget)
            assert (got.state, got.instructions) \
                == (RunState.BUDGET, want.instructions) \
                == (RunState.BUDGET, budget)
            assert _state(master) == _state(reference)
        assert master.jit_stats.hot_instructions > 0


class TestLazyHotTier:
    def test_thresholds_are_not_options(self):
        """Nor is which lowering a trace gets: no field names a hot
        threshold, the master, a backend, the removed second translation
        cache or the slice deadline."""
        import dataclasses
        assert not [f.name for f in dataclasses.fields(SuperPinConfig)
                    if any(word in f.name for word in (
                        "hot", "master", "backend", "jit", "tc2",
                        "deadline"))]


class TestEndToEnd:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_run_superpin_parity_and_clean_audit(self, workers,
                                                 monkeypatch):
        program = assemble(MULTISLICE)
        runs = {}
        for promote in (ORACLE, *PROMOTE):
            with monkeypatch.context() as patch:
                lowering(patch, promote)
                tool = ICount2()
                report = run_superpin(
                    program, tool, SuperPinConfig(
                        spmsec=500, clock_hz=10_000, spworkers=workers,
                        spaudit=True, spmetrics=True),
                    kernel=Kernel(seed=9))
            assert report.audit.ok, (promote, report.audit.summary())
            assert report.all_exact
            runs[promote] = (tool.report(), report.stdout,
                             report.exit_code, report.num_slices,
                             [s.instructions for s in report.slices],
                             report.timing.total_cycles)
            # One fold at the end of the control phase: four counters,
            # and the same four on the phase's span.
            want = report.timeline.master.counters()
            assert set(want) == {"jit_instructions", "compiled_ins",
                                 "loop_trips", "code_invalidations"}
            counters = report.metrics.counters
            assert {name: counters.get("superpin.control.master." + name, 0)
                    for name in want} == want
            span, = (r for r in report.trace.records
                     if r.name == "control_phase")
            assert span.args == want
        assert all(run == runs[ORACLE] for run in runs.values())


#: A loop of 400 trips a run — promoted on no run of its own (the mark
#: is 450 executions), compiled generated on a resident engine's second
#: — and the same text at the same addresses with other constants:
#: another program.
SHORT_LOOP = syscall_loop("    li   a0, SYS_TIME\n    syscall", trips=400)
OTHER_LOOP = syscall_loop("    li   a0, SYS_TIME\n    syscall", trips=400,
                          step=11)

class TestAResidentMaster:
    """A resident master is a fresh master, only sooner: whatever the
    engine ran before, a run on it yields the timeline of a run on an
    engine of its own — and of the oracle."""

    #: ``(name, source, config, kernel seed)``, in the order one
    #: resident runs them.
    RUNS = [
        ("seed-1", SHORT_LOOP, _slices(131, spaudit=True), 1),
        ("seed-2", SHORT_LOOP, _slices(131, spaudit=True), 2),
        ("seed-3", SHORT_LOOP, _slices(131, spaudit=True), 3),
        ("seed-4", SHORT_LOOP, _slices(97), 4),
        ("other", OTHER_LOOP, _slices(131, spaudit=True), 5),
        ("again", SHORT_LOOP, _slices(131, spaudit=True), 1),
        ("threads", THREADED, _slices(500), 9),
        ("after-threads", SHORT_LOOP, _slices(131), 3),
    ]
    #: Runs of the short loop on an engine that has seen it run before.
    WARM = {"seed-2", "seed-3", "seed-4", "again", "after-threads"}

    @staticmethod
    def master_run(monkeypatch, promote, run, engine=None):
        _, source, config, seed = run
        with monkeypatch.context() as patch:
            lowering(patch, promote)
            return ControlProcess(assemble(source), config,
                                  kernel=Kernel(seed=seed),
                                  master=engine).run()

    def test_every_run_is_the_run_on_an_engine_of_its_own(self,
                                                          monkeypatch):
        resident = SliceMachine()
        for run in self.RUNS:
            name = run[0]
            want = timeline_view(self.master_run(monkeypatch, ORACLE, run))
            alone = self.master_run(monkeypatch, 0, run)
            assert_same_timeline(timeline_view(alone), want, name)
            timeline = self.master_run(monkeypatch, 0, run,
                                       resident.master)
            assert_same_timeline(timeline_view(timeline), want, name)
            if name in self.WARM:
                # No loop of this guest earns generated code in one run.
                assert alone.master.jit_instructions == 0, name
                assert timeline.master.jit_instructions > 0, name
            if name == "other":
                # Generated at once, by the first program's heat — and
                # the first program's loop refused, word by word.
                assert timeline.master.jit_instructions > 0
                assert resident.master.jit_stats.rejects_words > 0
            if name == "again":
                # Generated from the first trip, by the heat it kept.  A
                # head has one skeleton, so where the other program
                # decoded another trace it is decoded again; every other
                # trace is reused.
                master = timeline.master
                stats = resident.master.jit_stats
                assert 2 * master.jit_instructions > master.instructions
                assert master.compiled_traces \
                    == stats.skeleton_reuses + stats.rejects_words
                assert stats.skeleton_reuses > 0 and stats.rejects_words > 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_through_the_pipeline(self, workers, monkeypatch, tmp_path):
        """The same, for whole runs (``-spworkers``, ``-sprecord``): the
        recording's content address covers every boundary's registers
        and memory words and every interval's records."""
        program = assemble(SHORT_LOOP)

        def pipeline(promote, seed, resident=None):
            with monkeypatch.context() as patch:
                lowering(patch, promote)
                tool = ICount2()
                report = run_superpin(
                    program, tool, _slices(
                        131, spworkers=workers,
                        sprecord=str(tmp_path / "r.sprec")),
                    kernel=Kernel(seed=seed), resident=resident)
            timeline = report.timeline
            return report, (
                report.recording_id, tool.report(), report.stdout,
                report.exit_code, report.all_exact,
                [s.instructions for s in report.slices],
                timeline.total_instructions, timeline.total_syscalls,
                timeline.final_pc, timeline.final_cpu_hash)

        resident = SliceMachine()
        for seed in (1, 2, 3, 4):
            _, want = pipeline(ORACLE, seed)
            alone, image = pipeline(0, seed)
            assert image == want
            report, image = pipeline(0, seed, resident)
            assert image == want and report.all_exact
        assert alone.timeline.master.jit_instructions == 0
        assert report.timeline.master.jit_instructions > 0


#: What follows the loop, and what the interpreter retires before the
#: fault: a divide by zero, or a word that does not decode right after
#: the loop's ``blt`` (a trace through the loop ends ahead of it).
FAULTS = {
    "div": ("    li   t2, 0\n    div  t3, t0, t2", 2 + 2 * 5 + 1),
    "fetch": ("    .word 0xff", 2 + 2 * 5),
}


class TestFaultParity:
    """On a guest fault every engine stops in the same place: ``cpu.pc``
    at the faulting instruction, which is not counted as retired."""

    @pytest.mark.parametrize("kind", FAULTS)
    def test_engines_agree_on_a_fault(self, kind, monkeypatch):
        tail, retired = FAULTS[kind]
        program = assemble(
            ".entry main\nmain:\n    li   t0, 0\n    li   t1, 5\n"
            f"lp: inc  t0\n    blt  t0, t1, lp\n{tail}\nbad:\n    halt\n")
        fault_pc = program.symbol("bad") - 1

        def load():
            return load_program(program, Kernel())

        promote_at(monkeypatch, 2)  # the loop is generated by then
        master = PinVM(load())
        engines = {
            "interpreter": Interpreter(load()),
            "closure": PinVM(load(), jit_backend="closure"),
            "source": PinVM(load(), jit_backend="source"),
            "master": master,
        }
        seen = {}
        for name, engine in engines.items():
            with pytest.raises(GuestFault):
                engine.run()
            seen[name] = (engine.process.cpu.snapshot(),
                          engine.total_instructions)
        assert master.jit_stats.hot_instructions > 0
        snapshot, count = seen["interpreter"]
        assert (snapshot[0], count) == (fault_pc, retired)
        for name in engines:
            assert seen[name] == seen["interpreter"], name
