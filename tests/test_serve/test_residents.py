"""The daemon's resident programs and machines, in-process (no socket).

A warm daemon is a cold daemon, only sooner: whatever ``Residents`` has
kept, a job's result is the one a daemon that has served nothing gives.
What a resident may carry across *runs* is held to the fresh-machine
oracle in ``tests/test_superpin/test_slice_machine.py``; here it is the
structure itself — exclusive checkout, drop on failure, the bound, and
that a program everyone shares is never written.
"""

import math
import pickle
import sys
import threading
from collections import OrderedDict

import pytest

import repro.superpin
from repro.errors import SliceExecutionError
from repro.isa import assemble
from repro.machine import Kernel
from repro.obs.metrics import metrics_for
from repro.pin import jit
from repro.serve.jobs import JobCancelled
from repro.serve.server import (build_job_config, job_result,
                                named_program, Residents,
                                RESIDENTS_PER_WORKER, run_job_spec)
from repro.tools import TOOLS
from tests.conftest import LOOP_SUM, MULTISLICE, placement_counter
from tests.test_superpin.test_slice_machine import Exploding, OTHER

#: In-process jobs (whatever SUPERPIN_SPWORKERS makes the default): the
#: ones that run on a resident.
SWITCHES = ["-spmsec", "500", "-spclock", "10000", "-spworkers", "0"]
PROGRAMS = {"multislice": MULTISLICE, "other": OTHER}


def spec_for(source, tool="icount2", seed=42, switches=()):
    return {"asm": source, "tool": tool, "seed": seed,
            "switches": [*SWITCHES, *switches]}


def new_residents(workers=1):
    return Residents(workers, metrics_for(True))


def serve(residents, spec, on_progress=None):
    """One job, as the daemon's job thread runs it: the client-visible
    result, and apart what depends on what its resident ran before —
    the placement counters, and how the master's tiers shared the run."""
    result = job_result(*run_job_spec(spec, residents,
                                      on_progress=on_progress))
    counters = result["counters"]
    placement = {name: counters.pop(name) for name in list(counters)
                 if placement_counter(name)}
    return result, placement


@pytest.fixture(scope="module")
def cold():
    """Each program's job on a daemon that has served nothing."""
    return {name: serve(new_residents(), spec_for(source))
            for name, source in PROGRAMS.items()}


class TestCheckout:
    def test_a_repeat_is_a_hit_and_reports_what_a_cold_job_reports(self,
                                                                   cold):
        residents = new_residents()
        counter = residents.metrics.counter
        for name in ("multislice", "other", "multislice", "multislice"):
            result, placement = serve(residents, spec_for(PROGRAMS[name]))
            assert result == cold[name][0]
        assert (counter("serve.programs.hits"),
                counter("serve.programs.misses")) == (2, 2)
        assert (counter("serve.machines.hits"),
                counter("serve.machines.misses")) == (2, 2)
        assert placement["pin.jit.skeleton_reuses"] \
            > cold["multislice"][1]["pin.jit.skeleton_reuses"]
        assert residents.kept() == {"slots": RESIDENTS_PER_WORKER,
                                    "programs": 2, "idle_machines": 2}

    def test_what_a_job_names(self):
        config = repro.superpin.SuperPinConfig()
        key, build = named_program({"asm": LOOP_SUM}, config)
        assert key == named_program({"asm": LOOP_SUM, "seed": 7,
                                     "tool": "icount1"}, config)[0]
        assert key != named_program({"asm": LOOP_SUM + "\n"}, config)[0]
        assert build().entry == build().entry
        gzip = {"workload": "gzip", "scale": 0.01}
        assert named_program(gzip, config)[0] == ("gzip", config.clock_hz,
                                                  0.01)
        assert named_program({"workload": "gzip"}, config)[0][2] == 0.25

    def test_two_jobs_at_once_hold_two_residents(self):
        residents = new_residents(workers=2)
        with residents.checkout("k", lambda: "program") as (_, first):
            with residents.checkout("k", lambda: "program") as (_, second):
                assert first is not second
        assert residents.kept()["idle_machines"] == 2
        with residents.checkout("k", lambda: "never") as (program, again):
            # (The one given back last: the warmest.)
            assert program == "program" and again is first
        assert residents.metrics.counter("serve.machines.hits") == 1


class TestServedItsInstrumentation:
    """Kept code is keyed by the tool's instrumentation digest, so an
    identical job is served what an earlier one verified."""

    @staticmethod
    def instrumentation(placement, result):
        return (result["counters"]["pin.jit.compiles"],
                placement["pin.jit.instrumentation_reuses"],
                placement["pin.jit.instrumentation_checks"])

    def test_an_identical_job_is_served_from_its_first_compile(self):
        """A one-slice job compiles every trace once: the first keeps
        it unverified, the second compares against it, and the third
        is served every compile — with the tool report of a run that no
        resident served."""
        spec = spec_for(LOOP_SUM)
        residents = new_residents()
        jobs = [serve(residents, spec) for _ in range(3)]
        compiles = jobs[0][0]["counters"]["pin.jit.compiles"]
        assert compiles > 0
        assert [self.instrumentation(placement, result)
                for result, placement in jobs] \
            == [(compiles, 0, 0), (compiles, 0, compiles),
                (compiles, compiles, 0)]
        tool = TOOLS["icount2"]()
        repro.superpin.run_superpin(assemble(LOOP_SUM), tool,
                                    build_job_config(spec),
                                    kernel=Kernel(seed=42))
        assert [result["tool_report"] for result, _ in jobs] \
            == [tool.report()] * 3

    def test_another_filter_is_compared_not_served(self):
        """Another ``-spfilter`` is another digest: its first job on the
        warm resident compares every compile, serves none, and reports
        what a cold job does."""
        plain = spec_for(LOOP_SUM)
        filtered = spec_for(LOOP_SUM, switches=["-spfilter", "opcode:mem"])
        cold, _ = serve(new_residents(), filtered)
        residents = new_residents()
        for _ in range(3):
            serve(residents, plain)
        result, placement = serve(residents, filtered)
        assert result == cold
        assert self.instrumentation(placement, result) \
            == (result["counters"]["pin.jit.compiles"], 0,
                result["counters"]["pin.jit.compiles"])


class LockedTable(OrderedDict):
    """``Residents._entries``, refusing to be read or written unless the
    structure's lock is held (CPython happens to run most of a short
    critical section without switching threads, so a stress test alone
    would not miss the lock)."""

    def __init__(self, lock):
        super().__init__()
        self.lock = lock


def _guarded(name):
    def method(self, *args, **kwargs):
        assert self.lock.locked(), f"{name}() without the lock"
        return getattr(OrderedDict, name)(self, *args, **kwargs)
    return method


for _name in ("get", "setdefault", "move_to_end", "popitem", "values",
              "__len__"):
    setattr(LockedTable, _name, _guarded(_name))


class TestExclusivity:
    THREADS, JOBS = 5, 6

    def test_never_two_holders_and_every_result_clean(self, cold,
                                                      monkeypatch):
        """More job threads than cores, a switch interval short enough
        to interleave them inside ``checkout``: a resident is never held
        twice, the table is never touched without the lock, no update of
        it is lost, every result is the cold one."""
        residents = new_residents(workers=self.THREADS)
        residents._entries = LockedTable(residents._lock)
        real_run = repro.superpin.run_superpin
        problems = []

        def held_run(*args, resident, **kwargs):
            held = vars(resident).setdefault("_held", threading.Lock())
            if not held.acquire(blocking=False):
                problems.append("a resident was held twice")
            try:
                return real_run(*args, resident=resident, **kwargs)
            finally:
                held.release()

        monkeypatch.setattr(repro.superpin, "run_superpin", held_run)
        names = list(PROGRAMS)

        def client(number):
            try:
                for job in range(self.JOBS):
                    name = names[(number + job) % 2]
                    result, _ = serve(residents, spec_for(PROGRAMS[name]))
                    if result != cold[name][0]:
                        problems.append(f"{name} differs from cold")
            except BaseException as error:  # noqa: BLE001 - reported
                problems.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(number,))
                       for number in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not problems
        counter = residents.metrics.counter
        jobs = self.THREADS * self.JOBS
        assert (counter("serve.machines.hits")
                + counter("serve.machines.misses")) == jobs
        assert (counter("serve.programs.hits")
                + counter("serve.programs.misses")) == jobs
        # Every resident ever built is idle again, and none was lost.
        assert residents.kept()["idle_machines"] \
            == counter("serve.machines.misses") <= 2 * self.THREADS
        assert counter("serve.machines.dropped") == 0


class TestAJobThatDidNotFinish:
    """Its resident is dropped whole — machine, lookahead and master:
    the next identical job is a cold one, down to the counters only a
    resident's history moves."""

    def check_next_job_is_cold(self, residents, cold):
        assert residents.kept()["idle_machines"] == 0
        assert residents.metrics.counter("serve.machines.dropped") == 1
        result, placement = serve(residents, spec_for(MULTISLICE))
        assert result == cold["multislice"][0]
        # (But ``pin.jit.intern_hits``: it counts the process's code
        # pool, which outlives any resident — and so depends on which
        # tests this process ran before.)
        want = dict(cold["multislice"][1])
        del placement["pin.jit.intern_hits"], want["pin.jit.intern_hits"]
        assert placement == want
        assert residents.kept()["idle_machines"] == 1
        # (Not vacuous: on a resident that ran the program before, the
        # master — serial Pin's engine — runs the loop generated from its
        # first trip, wherever the lowering policy generates code at all:
        # ``--jit-hot-threshold inf`` generates none, anywhere.)
        _, warm = serve(residents, spec_for(MULTISLICE))
        generated = "superpin.control.master.jit_instructions"
        if jit.HOT_EXECUTIONS_PER_COMPILE != math.inf:
            assert warm[generated] > cold["multislice"][1][generated] > 0

    def test_a_slice_that_raises_drops_the_resident(self, cold,
                                                    monkeypatch):
        monkeypatch.setitem(TOOLS, "exploding", Exploding)
        residents = new_residents()
        serve(residents, spec_for(MULTISLICE))
        with pytest.raises(SliceExecutionError):
            serve(residents, spec_for(MULTISLICE, tool="exploding"))
        self.check_next_job_is_cold(residents, cold)

    def test_a_cancelled_job_drops_the_resident(self, cold):
        residents = new_residents()
        serve(residents, spec_for(MULTISLICE))
        seen = []

        def cancel_mid_run(event, payload):
            seen.append(event)
            if event == "slice" and payload["completed"] == 2:
                raise JobCancelled("cancelled")

        with pytest.raises(JobCancelled):
            serve(residents, spec_for(MULTISLICE),
                  on_progress=cancel_mid_run)
        assert seen.count("slice") == 2
        self.check_next_job_is_cold(residents, cold)


class TestTheBound:
    def test_lru_over_three_times_as_many_programs_as_slots(self):
        residents = new_residents()
        slots = residents.slots
        sources = [LOOP_SUM.replace("li   t1, 100", f"li   t1, {100 + n}")
                   for n in range(3 * slots)]
        results = []
        for source in sources:
            results.append(serve(residents, spec_for(source))[0])
            kept = residents.kept()
            assert kept["programs"] <= slots
            assert kept["idle_machines"] <= slots
        counter = residents.metrics.counter
        assert counter("serve.machines.evictions") == 2 * slots
        assert residents.kept() == {"slots": slots, "programs": slots,
                                    "idle_machines": slots}
        # The most recent are still there; the first is a miss again,
        # and as right as it was.
        assert serve(residents, spec_for(sources[-1]))[0] == results[-1]
        assert counter("serve.machines.hits") == 1
        assert serve(residents, spec_for(sources[0]))[0] == results[0]
        assert (counter("serve.programs.misses"),
                counter("serve.machines.misses")) == (3 * slots + 1,) * 2


class TestProgramsAreReadOnly:
    @pytest.mark.parametrize("spec", [
        spec_for(MULTISLICE, "memtrace", switches=["-spfilter", "opcode:mem",
                                                   "-spaudit", "1"]),
        {"workload": "gzip", "scale": 0.01, "tool": "icount2",
         "switches": ["-spworkers", "0"]},
    ], ids=["asm", "workload"])
    def test_pickle_is_identical_after_ten_jobs(self, spec):
        residents = new_residents()
        serve(residents, spec)
        (program, _), = residents._entries.values()
        before = pickle.dumps(program)
        for seed in range(10):
            serve(residents, {**spec, "seed": seed})
        assert residents.metrics.counter("serve.programs.hits") == 10
        assert pickle.dumps(program) == before
