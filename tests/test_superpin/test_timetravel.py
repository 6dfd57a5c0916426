"""Time-travel debugging over recordings.

The contract under test: ``goto``/``step-back``/``reverse-continue``
resolve purely from the recording artifact (the master is never
re-run), and the materialized state at a given icount is byte-identical
across repeated visits, lowerings and linking — and equal to
the master's own state at that icount (interpreter ground truth).
"""

import builtins
import gc
import random
import shutil

import pytest

from repro.errors import (DivergenceError, RecordingCorruptError,
                          TimeTravelError)
from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.machine.cpu import fingerprint_state
from repro.machine.interpreter import Interpreter
from repro.superpin import (damage_recording, DebugSession, load_recording,
                            run_superpin, SuperPinConfig, TimeTravelEngine)
from repro.superpin.slices import PLACEMENT_COUNTERS
from repro.superpin.timetravel import CKPT_CACHE_SIZE
from repro.tools import ICount2
from tests.conftest import (all_generated, MULTISLICE, promote_at, unlinked,
                            without_loop_forms)

#: The JIT's own choice of lowering, and every trace generated
#: (``conftest.all_generated``).
JIT_BACKENDS = ["closure", "source"]
LINKING = [True, False]
#: 0: the shipped lowering rule; n: a landing's threaded traces are
#: promoted in mid-run at their n-th execution (``promote_at``).
PROMOTE = [0, 4]

#: Probe icounts: slice starts, syscall-exact landings (763/767/1534),
#: mid-loop interiors, a cross-slice point and the final state.
PROBES = [0, 500, 763, 767, 1534, 5000, 5001, 12345, 29922, 30690]

#: The MULTISLICE inner loop stores s2 at 0x9000+t0; address 0x9002 is
#: written with value 2 once per outer iteration (t0=2, s2=0+2).
WATCH_ADDR = 0x9002
WATCH_VALUE = 2


def _config(**kwargs):
    kwargs.setdefault("spmsec", 500)
    kwargs.setdefault("clock_hz", 10_000)
    return SuperPinConfig(**kwargs)


@pytest.fixture(scope="module")
def program():
    return assemble(MULTISLICE)


@pytest.fixture(scope="module")
def recorded(program, tmp_path_factory):
    path = tmp_path_factory.mktemp("ttd") / "run.sprec"
    run_superpin(program, ICount2(), _config(sprecord=str(path)),
                 kernel=Kernel(seed=42))
    return path


@pytest.fixture(scope="module")
def master_states(program):
    """Interpreter ground truth: the master's state at every probe."""
    out = {}
    for icount in PROBES:
        process = load_program(program, Kernel(seed=42))
        result = Interpreter(process).run(max_instructions=icount)
        assert result.instructions == icount
        out[icount] = process.cpu.snapshot()
    return out


def _engine(path):
    return TimeTravelEngine(load_recording(path), SuperPinConfig())


class TestGotoDeterminism:
    @pytest.mark.parametrize("backend", JIT_BACKENDS)
    @pytest.mark.parametrize("promote", PROMOTE)
    def test_repeated_visits_are_byte_identical(self, recorded, backend,
                                                promote, monkeypatch):
        if promote:
            promote_at(monkeypatch, promote)
        if backend == "source":
            all_generated(monkeypatch)
        tt = _engine(recorded)
        first = {}
        for icount in PROBES:
            tt.goto(icount)
            first[icount] = (tt.state_fingerprint(),
                             tuple(tt.read_memory(0x9000, 8)))
        # Revisit in reverse order: every landing must reproduce.
        for icount in reversed(PROBES):
            tt.goto(icount)
            assert (tt.state_fingerprint(),
                    tuple(tt.read_memory(0x9000, 8))) == first[icount], \
                f"icount {icount} drifted on revisit"

    @pytest.mark.parametrize("backend", JIT_BACKENDS)
    @pytest.mark.parametrize("promote", PROMOTE)
    def test_goto_matches_master_timeline(self, recorded, master_states,
                                          backend, promote, monkeypatch):
        """The replay-side landing equals the master's own state —
        without the master ever being re-run by the engine."""
        if promote:
            promote_at(monkeypatch, promote)
        if backend == "source":
            all_generated(monkeypatch)
        tt = _engine(recorded)
        for icount in PROBES:
            tt.goto(icount)
            pc, regs = master_states[icount]
            assert tt.registers() == (pc, regs), f"icount {icount}"
            assert tt.state_fingerprint() \
                == fingerprint_state(pc, regs)
        if promote and backend == "closure":
            assert tt.jit_stats.promotions > 0

    def test_goto_rejects_out_of_range(self, recorded):
        tt = _engine(recorded)
        with pytest.raises(TimeTravelError):
            tt.goto(-1)
        with pytest.raises(TimeTravelError):
            tt.goto(tt.total_instructions + 1)


class TestStepping:
    def test_step_and_step_back_are_inverse(self, recorded):
        tt = _engine(recorded)
        tt.goto(1000)
        mark = tt.state_fingerprint()
        tt.step(7)
        tt.step_back(7)
        assert tt.position == 1000
        assert tt.state_fingerprint() == mark

    def test_step_back_run_is_deterministic(self, recorded):
        """A run of single step-backs (the micro-checkpoint fast path)
        visits the same states a cold goto materializes."""
        tt = _engine(recorded)
        tt.goto(2000)
        walked = []
        for _ in range(25):
            tt.step_back()
            walked.append((tt.position, tt.state_fingerprint()))
        cold = _engine(recorded)
        for position, fingerprint in walked:
            cold.goto(position)
            assert cold.state_fingerprint() == fingerprint, position

    def test_step_back_across_slice_boundary(self, recorded):
        tt = _engine(recorded)
        start, _ = tt.recording.slice_span(1)
        tt.goto(start)
        tt.step_back()
        assert tt.position == start - 1
        tt.step()
        assert tt.position == start

    def test_step_past_end_rejected(self, recorded):
        tt = _engine(recorded)
        tt.goto(tt.total_instructions)
        with pytest.raises(TimeTravelError):
            tt.step()
        tt.goto(0)
        with pytest.raises(TimeTravelError):
            tt.step_back()


class TestWatchpoints:
    @pytest.mark.parametrize("backend", JIT_BACKENDS)
    @pytest.mark.parametrize("promote", PROMOTE)
    def test_watchpoint_in_the_past_finds_last_writer(self, recorded,
                                                      backend, promote,
                                                      monkeypatch):
        if promote:
            promote_at(monkeypatch, promote)
        if backend == "source":
            all_generated(monkeypatch)
        tt = _engine(recorded)
        hit = tt.last_write_before(WATCH_ADDR, 1534)
        assert hit is not None and hit.icount < 1534
        # The hit is the *about to write* point: the target word changes
        # to the known written value across that single instruction.
        tt.goto(hit.icount)
        assert tt.registers()[0] == hit.pc
        tt.step()
        assert tt.read_memory(WATCH_ADDR)[0] == WATCH_VALUE
        # No later write before the limit: probing between the hit and
        # the limit keeps resolving to the same writer.
        later = tt.last_write_before(WATCH_ADDR, hit.icount + 100)
        assert later is not None and later.icount == hit.icount

    def test_last_write_crosses_slices_backward(self, recorded):
        tt = _engine(recorded)
        tail_start, _ = tt.recording.slice_span(tt.recording.num_slices - 1)
        hit = tt.last_write_before(WATCH_ADDR, tail_start + 100)
        # The tail slice only runs the epilogue syscalls: the writer
        # lives in an earlier slice, found by the backward scan.
        assert hit is not None and hit.icount < tail_start

    def test_no_write_returns_none(self, recorded):
        tt = _engine(recorded)
        assert tt.last_write_before(0xdead00, 30000) is None
        assert tt.last_write_before(WATCH_ADDR, 0) is None

    def test_reverse_continue_to_watchpoint(self, recorded):
        tt = _engine(recorded)
        tt.goto(1534)
        tt.watchpoints.add(WATCH_ADDR)
        event = tt.reverse_continue()
        assert event.kind == "watchpoint"
        assert event.addr == WATCH_ADDR
        assert event.icount < 1534
        hit = tt.last_write_before(WATCH_ADDR, 1534)
        assert event.icount == hit.icount


class TestBreakpoints:
    def test_breakpoint_inside_replayed_syscall_interval(self, recorded):
        """Stopping on (and stepping over) a replayed syscall keeps the
        playback cursor consistent: the landing equals a direct goto."""
        tt = _engine(recorded)
        tt.goto(763)               # next instruction is a syscall
        syscall_pc = tt.registers()[0]
        tt.goto(0)
        tt.breakpoints.add(syscall_pc)
        event = tt.continue_()
        assert (event.kind, event.icount) == ("breakpoint", 763)
        assert tt.registers()[0] == syscall_pc
        # Step over the replayed syscall; cross-check against a cold
        # goto of the post-syscall state.
        tt.step()
        stepped = tt.state_fingerprint()
        cold = _engine(recorded)
        cold.goto(764)
        assert cold.state_fingerprint() == stepped
        # The same pc fires again one outer iteration later.
        event = tt.continue_()
        assert (event.kind, event.icount) == ("breakpoint", 1530)

    def test_continue_without_hits_runs_to_end(self, recorded):
        tt = _engine(recorded)
        tt.goto(0)
        event = tt.continue_()
        assert event.kind == "end"
        assert event.icount == tt.total_instructions

    def test_reverse_continue_without_hits_lands_at_start(self, recorded):
        tt = _engine(recorded)
        tt.goto(5000)
        event = tt.reverse_continue()
        assert (event.kind, event.icount) == ("start", 0)


class TestDegradedRecordings:
    @pytest.fixture()
    def damaged(self, recorded, tmp_path):
        path = tmp_path / "damaged.sprec"
        shutil.copy(recorded, path)
        damage_recording(path, "corrupt", slice_index=2)
        return path

    def test_goto_into_hole_is_taxonomized(self, damaged):
        with pytest.raises(RecordingCorruptError):
            load_recording(damaged)
        recording = load_recording(damaged, tolerate_damaged=True)
        tt = TimeTravelEngine(recording, SuperPinConfig())
        start, end = recording.slice_span(2)
        with pytest.raises(TimeTravelError) as info:
            tt.goto((start + end) // 2)
        assert info.value.kind == "hole"
        # Healthy slices on both sides stay reachable.
        tt.goto(start - 100)
        tt.goto(end + 100)

    def test_scans_skip_holes(self, damaged, recorded):
        recording = load_recording(damaged, tolerate_damaged=True)
        tt = TimeTravelEngine(recording, SuperPinConfig())
        start3, _ = recording.slice_span(3)
        tt.goto(start3 + 10)
        tt.watchpoints.add(WATCH_ADDR)
        event = tt.reverse_continue()
        # The writer inside slice 2 is unknowable; the scan skips the
        # hole and resolves in an earlier healthy slice.
        start2, _ = recording.slice_span(2)
        assert event.kind == "watchpoint"
        assert event.icount < start2


class TestDebugSession:
    SCRIPT = ["info", "goto 1534", "regs", "watch 0x9002",
              "reverse-continue", "mem 0x9000 4",
              "lastwrite 0x9002 1534", "step-back 2", "step 2", "regs"]

    def test_scripted_sessions_are_reproducible(self, recorded):
        recording = load_recording(recorded)
        outputs = []
        for _ in range(2):
            session = DebugSession(recording, SuperPinConfig())
            outputs.append([session.execute(line)
                            for line in self.SCRIPT])
        assert outputs[0] == outputs[1]

    def test_backends_produce_identical_transcripts(self, recorded,
                                                    monkeypatch):
        recording = load_recording(recorded)
        transcripts = []
        for backend in JIT_BACKENDS:
            with monkeypatch.context() as patch:
                if backend == "source":
                    all_generated(patch)
                session = DebugSession(recording, SuperPinConfig())
                transcripts.append([session.execute(line)
                                    for line in self.SCRIPT])
        assert transcripts[0] == transcripts[1]

    def test_unknown_command_raises(self, recorded):
        session = DebugSession(load_recording(recorded))
        with pytest.raises(TimeTravelError):
            session.execute("bogus 1 2 3")
        with pytest.raises(TimeTravelError):
            session.execute("goto notanumber")

    def test_quit_returns_none(self, recorded):
        session = DebugSession(load_recording(recorded))
        assert session.execute("quit") is None
        assert session.execute("") == []


# --- one resident machine per engine ----------------------------------------

#: A syscall every few instructions — time, getrandom, brk growth, a
#: write — around a little memory traffic in the heap they grow, so most
#: landings sit on, just before or just after a replayed or emulated
#: call.  (No mmap: the master maps around the code-cache bubble, the
#: plain interpreter this is compared with has none.)
SYSCALLS = """
.entry main
main:
    li   s0, 0
    li   s1, 600
loop:
    li   a0, SYS_TIME
    syscall
    mov  s3, rv
    li   a0, SYS_GETRANDOM
    la   a1, buf
    li   a2, 2
    syscall
    li   a0, SYS_BRK
    li   a1, 0
    syscall
    mov  s2, rv
    addi a1, s2, 16
    li   a0, SYS_BRK
    syscall
    ld   t0, buf(zero)
    st   t0, 0(s2)
    st   s3, 1(s2)
    ld   t1, 0(s2)
    add  s4, s4, t1
    andi t2, s0, 7
    st   s4, 0x9000(t2)
    andi t3, s0, 63
    bnez t3, quiet
    li   a0, SYS_WRITE
    li   a1, FD_STDOUT
    la   a2, buf
    li   a3, 1
    syscall
quiet:
    inc  s0
    blt  s0, s1, loop
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
.data
buf: .space 2
"""

GUESTS = {"multislice": MULTISLICE, "syscalls": SYSCALLS}
MEM_PROBE = (0x9000, 8)


def _landing(tt):
    return (tt.registers(), tt.state_fingerprint(),
            tuple(tt.read_memory(*MEM_PROBE)))


def _timeline(program, targets):
    """Interpreter ground truth at every target, in one ascending run."""
    process = load_program(program, Kernel(seed=42))
    interp, out, at = Interpreter(process), {}, 0
    for icount in targets:
        assert interp.run(max_instructions=icount - at).instructions \
            == icount - at
        at = icount
        pc, regs = process.cpu.snapshot()
        out[icount] = ((pc, regs), fingerprint_state(pc, regs),
                       tuple(process.mem.read_block(*MEM_PROBE)))
    return out


@pytest.fixture(scope="module", params=list(GUESTS))
def travelled(request, tmp_path_factory):
    """``(recording, interpreter timeline over a stride of targets)``."""
    program = assemble(GUESTS[request.param])
    path = tmp_path_factory.mktemp("machine") / f"{request.param}.sprec"
    run_superpin(program, ICount2(), _config(sprecord=str(path)),
                 kernel=Kernel(seed=42))
    recording = load_recording(path)
    total = recording.total_instructions
    assert recording.num_slices > 2
    targets = sorted({*range(0, total, total // 23), 763, 767, total})
    return recording, _timeline(program, targets)


def _fails_short(monkeypatch):
    """Every engine run retires one instruction less than it was asked
    to: the exact-budget check's ``DivergenceError``, registers moved."""
    from repro.pin.engine import PinVM
    run = PinVM.run

    def short(self, max_instructions=None, **kwargs):
        return run(self, max_instructions=max_instructions - 1, **kwargs)
    monkeypatch.setattr(PinVM, "run", short)


class TestOneMachinePerEngine:
    @pytest.mark.parametrize("backend", JIT_BACKENDS)
    @pytest.mark.parametrize("linking", LINKING)
    def test_any_order_lands_on_the_master_timeline(self, travelled,
                                                    backend, linking,
                                                    monkeypatch):
        """(a) A long-lived engine — whatever it visited before, and in
        whatever order — lands where the interpreter was, and so does
        an engine built for that one target."""
        if not linking:
            unlinked(monkeypatch)
        if backend == "source":
            all_generated(monkeypatch)
        recording, timeline = travelled
        config = SuperPinConfig()
        tt = TimeTravelEngine(recording, config)
        targets = sorted(timeline)
        shuffled = random.Random(7).sample(targets, len(targets))
        twice = [icount for icount in shuffled[::-1] for _ in range(2)]
        for order in (targets, targets[::-1], shuffled, twice):
            for icount in order:
                tt.goto(icount)
                assert _landing(tt) == timeline[icount], icount
        for icount in targets:
            fresh = TimeTravelEngine(recording, config)
            fresh.goto(icount)
            assert _landing(fresh) == timeline[icount], icount

    def test_a_revisited_slice_is_paid_for_once(self, travelled,
                                                monkeypatch):
        """(b) Nothing on the way to a landing is decoded, instrumented,
        compiled or ``compile()``d again — a revisit runs on the code
        the session cache kept — and one engine is one ``PinVM``."""
        from repro.pin.engine import PinVM
        recording, _ = travelled
        built = []
        init = PinVM.__init__
        monkeypatch.setattr(PinVM, "__init__", lambda self, *a, **kw: (
            built.append(self), init(self, *a, **kw))[1])
        gc.collect()
        alive = sum(type(obj) is PinVM for obj in gc.get_objects())
        tt = TimeTravelEngine(recording)
        start, _ = recording.slice_span(1)
        far = recording.slice_span(2)[0] + 10

        def revisit():
            """From slice 1's boundary (the landings in between have
            pushed every checkpoint of it out of the cache) to 300
            instructions in; returns the compiles it made and what the
            session counted."""
            for step in range(CKPT_CACHE_SIZE):
                tt.goto(far + step)
            before = tt.stats()
            compiled = tt._machine.vm.cache.stats.compiles
            tt.goto(start + 300)
            after = tt.stats()
            assert after["superpin.timetravel.from_boundary"] \
                == before["superpin.timetravel.from_boundary"] + 1
            return (tt._machine.vm.cache.stats.compiles - compiled,
                    {name: after[name] - before[name] for name in after})

        for _ in range(3):
            revisit()
        compiled = []
        compile_ = builtins.compile
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "compile", lambda *a, **kw: (
                compiled.append(a), compile_(*a, **kw))[1])
            compiles, spent = revisit()
        assert not compiled
        assert compiles == 0
        assert spent["superpin.timetravel.warm_landings"] == 1
        assert spent["superpin.timetravel.cache_flushes"] == 0
        assert spent["pin.jit.skeleton_reuses"] == 0
        rng = random.Random(3)
        for _ in range(100):
            tt.goto(rng.randrange(recording.total_instructions + 1))
        gc.collect()
        assert len(built) == 1
        assert sum(type(obj) is PinVM for obj in gc.get_objects()) \
            == alive + 1

    def test_reads_after_a_scan_are_the_landings(self, recorded):
        """(c) A scan takes the machine; the position it left is read
        back from that landing's own checkpoint."""
        recording = load_recording(recorded)
        session = DebugSession(recording)
        session.execute("goto 1534")
        regs = session.execute("regs")
        mem = session.execute("mem 0x9000 8")
        assert session.execute("lastwrite 0x9002") \
            == DebugSession(recording).execute("lastwrite 0x9002 1534")
        assert session.execute("regs") == regs
        assert session.execute("mem 0x9000 8") == mem

    #: Where the ``syscall`` after ``li a0, SYS_TIME`` and, two traces
    #: on, ``inc s0`` are about to execute: each runs once per outer
    #: iteration of MULTISLICE.  X is a pc nothing executes.
    BREAKS = {"A": 763, "B": 771}

    @pytest.mark.parametrize("script", [
        "break A; continue; break B; continue; delete A; reverse-continue",
        # Every slice scanned twice under {X} with no landing on its
        # traces in between (the end is in the epilogue, the start runs
        # nothing) — so verified, and served from the third compile on —
        # before B is set:
        "goto END; break X; reverse-continue; goto END; reverse-continue; "
        "break B; goto END; reverse-continue; delete X; continue"])
    def test_changing_breakpoints_between_scans(self, recorded, script):
        """(c) Every hit is the one a new engine per command finds: what
        a scan kept under one breakpoint set is compared, not served,
        under another (with the breakpoints left out of ``Jit.template``
        the first script raises ``InstrumentationError`` and the second
        silently runs past B)."""
        recording = load_recording(recorded)
        tt = TimeTravelEngine(recording)
        pcs = {"X": 0xdead}
        for name, icount in self.BREAKS.items():
            tt.goto(icount)
            pcs[name] = tt.registers()[0]
        tt.goto(0)
        stops = []
        for command in script.split("; "):
            verb, _, name = command.partition(" ")
            if verb == "break":
                tt.breakpoints.add(pcs[name])
            elif verb == "delete":
                tt.breakpoints.discard(pcs[name])
            elif verb == "goto":
                tt.goto(tt.total_instructions)
            else:
                fresh = TimeTravelEngine(recording)
                fresh.breakpoints |= tt.breakpoints
                fresh.goto(tt.position)
                run = {"continue": TimeTravelEngine.continue_,
                       "reverse-continue":
                       TimeTravelEngine.reverse_continue}[verb]
                assert run(tt) == run(fresh), command
                assert _landing(tt) == _landing(fresh), command
                stops.append(tt.registers()[0])
        assert pcs["B"] in stops

    def test_a_failed_advance_leaves_no_live_state(self, recorded,
                                                   monkeypatch):
        """(d) The in-place advance moved the registers and raised: the
        position is where it was, and so is what is read there."""
        recording = load_recording(recorded)
        tt = TimeTravelEngine(recording)
        tt.goto(1000)
        with monkeypatch.context() as patch:
            _fails_short(patch)
            with pytest.raises(DivergenceError):
                tt.goto(1500)
        fresh = TimeTravelEngine(recording)
        fresh.goto(1000)
        assert tt.position == 1000
        assert _landing(tt) == _landing(fresh)
        tt.goto(1500)
        fresh.goto(1500)
        assert _landing(tt) == _landing(fresh)

    def test_a_failed_scan_leaves_no_live_state(self, recorded,
                                                monkeypatch):
        """(d) The scan ran on the machine the landing was on."""
        recording = load_recording(recorded)
        tt = TimeTravelEngine(recording)
        tt.goto(1000)
        tt.watchpoints.add(WATCH_ADDR)
        with monkeypatch.context() as patch:
            _fails_short(patch)
            with pytest.raises(DivergenceError):
                tt.continue_()
        fresh = TimeTravelEngine(recording)
        fresh.watchpoints.add(WATCH_ADDR)
        fresh.goto(1000)
        assert tt.position == 1000
        assert _landing(tt) == _landing(fresh)
        assert tt.continue_() == fresh.continue_()
        assert _landing(tt) == _landing(fresh)

    def test_two_engines_share_a_recording_not_a_machine(self, travelled):
        """(e) The bench's engine and witness, interleaved."""
        recording, timeline = travelled
        engine = TimeTravelEngine(recording)
        witness = TimeTravelEngine(recording)
        targets = random.Random(11).sample(sorted(timeline), len(timeline))
        for mine, theirs in zip(targets, targets[::-1]):
            engine.goto(mine)
            witness.goto(theirs)
            assert _landing(engine) == timeline[mine]
            assert _landing(witness) == timeline[theirs]
        assert engine._machine is not witness._machine
        assert engine._machine.vm is not witness._machine.vm

    def test_a_hole_is_refused_before_the_machine_moves(self, recorded,
                                                        tmp_path):
        """(f) The live state and the position survive."""
        path = tmp_path / "damaged.sprec"
        shutil.copy(recorded, path)
        damage_recording(path, "corrupt", slice_index=2)
        recording = load_recording(path, tolerate_damaged=True)
        tt = TimeTravelEngine(recording)
        start, end = recording.slice_span(2)
        tt.goto(start - 100)
        landing, spent = _landing(tt), tt.stats()
        with pytest.raises(TimeTravelError):
            tt.goto((start + end) // 2)
        assert tt.position == start - 100
        assert _landing(tt) == landing
        assert tt.stats() == spent  # nothing was materialized again

    def test_a_cached_landing_is_refreshed_not_reforked(self, recorded,
                                                        monkeypatch):
        from repro.machine.memory import Memory
        tt = TimeTravelEngine(load_recording(recorded))
        tt.goto(1534)
        forks = []
        fork = Memory.fork
        monkeypatch.setattr(Memory, "fork", lambda self: (
            forks.append(self), fork(self))[1])
        tt.goto(1534)
        tt.goto(1600)
        assert len(forks) == 1  # the new landing's, none for the old

    def test_the_session_says_what_it_reexecuted(self, recorded):
        recording = load_recording(recorded)
        session = DebugSession(recording, SuperPinConfig(spmetrics=True))
        for line in ("goto 1534", "step 3", "step-back 2", "goto 20000",
                     "watch 0x9002", "reverse-continue", "regs"):
            session.execute(line)
        tt = session.engine
        stats = tt.stats()
        spent = {name.rpartition(".")[2]: value
                 for name, value in stats.items()
                 if name.startswith("superpin.timetravel.")}
        assert set(spent) == {"gotos", "in_place", "from_checkpoint",
                              "from_boundary", "reexecuted_instructions",
                              "scans", "scanned_slices", "warm_landings",
                              "cache_flushes"}
        assert spent["gotos"] == (spent["in_place"]
                                  + spent["from_checkpoint"]
                                  + spent["from_boundary"])
        assert spent["in_place"] >= 1 and spent["from_boundary"] >= 2
        assert spent["warm_landings"] >= 2 and spent["cache_flushes"] == 0
        assert spent["scans"] == 1 and spent["scanned_slices"] >= 1
        assert spent["reexecuted_instructions"] > 20000 - 15000
        assert set(stats) - {f"superpin.timetravel.{name}"
                             for name in spent} == set(PLACEMENT_COUNTERS)
        assert stats["pin.jit.skeleton_reuses"] > 0
        assert tt.metrics.counters == stats
        assert session.execute("stats") == [
            f"{name} = {value}" for name, value in stats.items()]
        quiet = TimeTravelEngine(recording)
        quiet.goto(1534)
        assert not quiet.metrics.enabled and quiet.stats()[
            "superpin.timetravel.gotos"] == 1


class TestUnderSuppression:
    """Loop forms summarize wherever they can, but a landing attaches
    nothing and a scan's calls are not summarizable, so nothing a
    session sees moves against one with no loop form."""

    def test_landings_and_scans_equal_without(self, program, tmp_path,
                                              monkeypatch):
        def session(loop_forms):
            if not loop_forms:
                without_loop_forms(monkeypatch)
            path = tmp_path / f"loops{int(loop_forms)}.sprec"
            run_superpin(program, ICount2(), _config(sprecord=str(path)),
                         kernel=Kernel(seed=42))
            tt = TimeTravelEngine(load_recording(path))
            seen = []
            for icount in PROBES:
                tt.goto(icount)
                seen.append((tt.state_fingerprint(),
                             tuple(tt.read_memory(0x9000, 8))))
            hit = tt.last_write_before(WATCH_ADDR, 1534)
            seen.append((hit.icount, hit.pc))
            tt.goto(0)
            tt.breakpoints.add(hit.pc)
            event = tt.continue_()
            seen.append((event.kind, event.icount))
            tt.breakpoints.clear()
            tt.goto(20000)
            tt.watchpoints.add(WATCH_ADDR)
            event = tt.reverse_continue()
            seen.append((event.kind, event.icount, event.addr))
            return seen
        assert session(True) == session(False)
