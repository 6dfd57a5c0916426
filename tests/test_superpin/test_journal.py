"""Write-ahead run journal: framing, resume, torn tails, crash safety.

The headline property is at the bottom: a run SIGKILLed mid-flight
leaves a journal whose valid prefix holds every completed slice, and
``-spresume`` finishes the run with output byte-identical to a run
that was never interrupted.
"""

import os
import pathlib
import pickle
import signal
import subprocess
import sys

import pytest

from repro.errors import ConfigError, RecordingCorruptError
from repro.isa import assemble
from repro.machine import Kernel
from repro.superpin import (damage_journal, frame_blob, program_digest,
                            run_key, run_superpin, RunJournal,
                            SuperPinConfig, unframe_blob)
from repro.superpin.faults import CorruptResultFault
from repro.tools import ICount2, ITrace
from tests.conftest import all_generated, MULTISLICE, RESULT_FIELD_VALUES

from .test_supervisor import _slice_fingerprint, WORKER_MODES

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _config(**kwargs):
    kwargs.setdefault("spmsec", 500)
    kwargs.setdefault("clock_hz", 10_000)
    kwargs.setdefault("spmetrics", True)
    return SuperPinConfig(**kwargs)


@pytest.fixture(scope="module")
def program():
    return assemble(MULTISLICE)


@pytest.fixture(scope="module")
def baseline(program):
    """An uninterrupted, journal-free run to compare everything against."""
    tool = ICount2()
    report = run_superpin(program, tool, _config(),
                          kernel=Kernel(seed=42))
    return report, tool


class TestFraming:
    def test_roundtrip(self):
        data = pickle.dumps({"hello": list(range(100))})
        assert unframe_blob(frame_blob(data)) == data

    def test_short_blob(self):
        with pytest.raises(CorruptResultFault):
            unframe_blob(b"SPFB")

    def test_bad_magic(self):
        framed = bytearray(frame_blob(b"payload"))
        framed[0] ^= 0xFF
        with pytest.raises(CorruptResultFault):
            unframe_blob(bytes(framed))

    def test_truncated_payload(self):
        framed = frame_blob(b"payload bytes here")
        with pytest.raises(CorruptResultFault):
            unframe_blob(framed[:-3])

    def test_bit_flip(self):
        framed = bytearray(frame_blob(b"payload bytes here"))
        framed[-1] ^= 0x01
        with pytest.raises(CorruptResultFault):
            unframe_blob(bytes(framed))


class TestRunKey:
    def test_sensitive_to_results_identity(self, program):
        base = run_key(program_digest(program), "ICount2", _config())
        assert run_key("other-digest", "ICount2", _config()) != base
        assert run_key(program_digest(program), "ITrace",
                       _config()) != base
        assert run_key(program_digest(program), "ICount2",
                       _config(spmsec=250)) != base

    @pytest.mark.parametrize("name,value", RESULT_FIELD_VALUES)
    def test_sensitive_to_every_result_field(self, program, name, value):
        digest = program_digest(program)
        assert run_key(digest, "ICount2", _config(**{name: value})) \
            != run_key(digest, "ICount2", _config())

    def test_invariant_under_execution_strategy(self, program):
        """Worker count, fault policy and observability do not change
        slice *results*, so a resumed run may change them freely."""
        digest = program_digest(program)
        base = run_key(digest, "ICount2", _config())
        assert run_key(digest, "ICount2",
                       _config(spworkers=2, spfaults="degrade",
                               spmetrics=False,
                               spjournal="/elsewhere.spjl")) == base


class TestJournalFile:
    KEY = "ab" * 32

    def test_create_append_resume_roundtrip(self, tmp_path):
        path = tmp_path / "run.spjl"
        blobs = {0: b"zero", 3: b"three" * 10, 1: b"one"}
        with RunJournal.create(path, self.KEY) as journal:
            for index, blob in blobs.items():
                journal.append(index, blob)
        journal, entries = RunJournal.resume(path, self.KEY)
        journal.close()
        assert entries == blobs

    def test_missing_journal_starts_fresh(self, tmp_path):
        journal, entries = RunJournal.resume(tmp_path / "new.spjl",
                                             self.KEY)
        journal.close()
        assert entries == {}

    def test_torn_tail_is_truncated_and_appendable(self, tmp_path):
        path = tmp_path / "run.spjl"
        with RunJournal.create(path, self.KEY) as journal:
            journal.append(0, b"kept")
            journal.append(1, b"torn away")
        damage_journal(path, "truncate")
        journal, entries = RunJournal.resume(path, self.KEY)
        assert entries == {0: b"kept"}
        journal.append(1, b"rewritten")  # the file healed in place
        journal.close()
        journal, adopted = RunJournal.resume(path, self.KEY)
        journal.close()
        assert adopted == {0: b"kept", 1: b"rewritten"}

    def test_stale_key_is_refused(self, tmp_path):
        path = tmp_path / "run.spjl"
        RunJournal.create(path, self.KEY).close()
        with pytest.raises(RecordingCorruptError) as info:
            RunJournal.resume(path, "cd" * 32)
        assert info.value.kind == "stale"

    def test_damaged_key_is_refused(self, tmp_path):
        path = tmp_path / "run.spjl"
        RunJournal.create(path, self.KEY).close()
        damage_journal(path, "stale")
        with pytest.raises(RecordingCorruptError) as info:
            RunJournal.resume(path, self.KEY)
        assert info.value.kind == "stale"


class TestResume:
    def test_spresume_requires_spjournal(self):
        with pytest.raises(ConfigError):
            SuperPinConfig(spresume=True)

    def test_fresh_run_journals_every_slice(self, program, baseline,
                                            tmp_path):
        base_report, base_tool = baseline
        path = tmp_path / "run.spjl"
        tool = ICount2()
        report = run_superpin(program, tool,
                              _config(spjournal=str(path)),
                              kernel=Kernel(seed=42))
        assert tool.total == base_tool.total
        assert report.metrics.counters["superpin.journal.appends"] \
            == report.num_slices
        assert report.resumed_slices == 0

    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_full_resume_reexecutes_nothing(self, program, baseline,
                                            tmp_path, spworkers):
        """Resuming a completed run adopts every slice from the journal
        — under either worker mode, since the run key deliberately
        excludes execution strategy."""
        base_report, base_tool = baseline
        path = tmp_path / "run.spjl"
        run_superpin(program, ICount2(), _config(spjournal=str(path)),
                     kernel=Kernel(seed=42))
        tool = ICount2()
        report = run_superpin(program, tool,
                              _config(spjournal=str(path), spresume=True,
                                      spworkers=spworkers),
                              kernel=Kernel(seed=42))
        assert report.resumed_slices == report.num_slices
        assert report.metrics.counters[
            "superpin.journal.resumed_slices"] == report.num_slices
        assert tool.total == base_tool.total
        assert _slice_fingerprint(report) \
            == _slice_fingerprint(base_report)
        assert report.stdout == base_report.stdout

    def test_partial_resume_after_torn_tail(self, program, baseline,
                                            tmp_path):
        base_report, base_tool = baseline
        path = tmp_path / "run.spjl"
        run_superpin(program, ICount2(), _config(spjournal=str(path)),
                     kernel=Kernel(seed=42))
        damage_journal(path, "truncate")
        tool = ICount2()
        report = run_superpin(program, tool,
                              _config(spjournal=str(path),
                                      spresume=True),
                              kernel=Kernel(seed=42))
        assert report.resumed_slices == report.num_slices - 1
        assert tool.total == base_tool.total
        assert _slice_fingerprint(report) \
            == _slice_fingerprint(base_report)

    def test_closure_journal_resumes_under_source(self, program, baseline,
                                                  tmp_path, monkeypatch):
        """The lowering changes how a slice runs, not what it computes:
        a run with every trace generated adopts every slice a run of the
        JIT's own choice journaled, and merges the report it computes."""
        base_report, base_tool = baseline
        path = tmp_path / "run.spjl"
        run_superpin(program, ICount2(), _config(spjournal=str(path)),
                     kernel=Kernel(seed=42))
        all_generated(monkeypatch)
        source_tool = ICount2()
        run_superpin(program, source_tool, _config(),
                     kernel=Kernel(seed=42))
        tool = ICount2()
        report = run_superpin(program, tool,
                              _config(spjournal=str(path), spresume=True),
                              kernel=Kernel(seed=42))
        assert report.resumed_slices == report.num_slices
        assert tool.report() == source_tool.report() == base_tool.report()
        assert report.stdout == base_report.stdout

    def test_resume_with_wrong_tool_is_stale(self, program, tmp_path):
        path = tmp_path / "run.spjl"
        run_superpin(program, ICount2(), _config(spjournal=str(path)),
                     kernel=Kernel(seed=42))
        with pytest.raises(RecordingCorruptError) as info:
            run_superpin(program, ITrace(),
                         _config(spjournal=str(path), spresume=True),
                         kernel=Kernel(seed=42))
        assert info.value.kind == "stale"


#: The slice whose begin-callback SIGKILLs the child run.
KILL_AT = 3

_CHILD = """
import sys
from repro.isa import assemble
from repro.machine import Kernel
from repro.superpin import run_superpin, SuperPinConfig
from repro.tools import ICount2
from tests.conftest import MULTISLICE, sigkill_at_slice

journal = sys.argv[1]
tool = ICount2()

# The killer lives in tests.conftest so the journaled slice contexts
# that reference it unpickle cleanly in the resuming parent process.
# The wrapper deletes itself before delegating: the tool's instance
# dict must stay free of __main__-local objects or the journaled
# results would not unpickle anywhere else.
def setup(sp):
    del tool.setup
    tool.setup(sp)
    sp.SP_AddSliceBeginFunction(sigkill_at_slice)

tool.setup = setup
# spworkers pinned to 0: the kill must land on the *run*, not a worker
# (the fault-injection CI job moves the spworkers default to 2).
run_superpin(assemble(MULTISLICE), tool,
             SuperPinConfig(spmsec=500, clock_hz=10_000,
                            spworkers=0, spfaults="failfast",
                            spjournal=journal),
             kernel=Kernel(seed=42))
raise SystemExit("unreachable: the run should have been killed")
"""


class TestCrashResume:
    def test_sigkill_mid_run_resumes_byte_identical(self, program,
                                                    baseline, tmp_path):
        """The crash-safety headline: SIGKILL the run mid-flight (no
        atexit, no cleanup), then -spresume must adopt exactly the
        completed slices and finish with output identical to a run that
        was never interrupted."""
        base_report, base_tool = baseline
        path = tmp_path / "run.spjl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)])
        env["SUPERPIN_TEST_KILL_AT"] = str(KILL_AT)
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, str(path)],
            env=env, cwd=REPO_ROOT, capture_output=True, timeout=120)
        assert child.returncode == -signal.SIGKILL, child.stderr.decode()
        assert path.exists()

        tool = ICount2()
        report = run_superpin(program, tool,
                              _config(spjournal=str(path),
                                      spresume=True),
                              kernel=Kernel(seed=42))
        # Slices run in order sequentially, so exactly the pre-kill
        # prefix was durably journaled.
        assert report.resumed_slices == KILL_AT
        assert report.metrics.counters[
            "superpin.journal.resumed_slices"] == KILL_AT
        assert tool.total == base_tool.total
        assert report.exit_code == base_report.exit_code
        assert report.stdout == base_report.stdout
        assert _slice_fingerprint(report) \
            == _slice_fingerprint(base_report)
        journaled = [outcome.index for outcome in report.slice_outcomes
                     if any(a.where == "journal"
                            for a in outcome.attempts)]
        assert journaled == list(range(KILL_AT))
