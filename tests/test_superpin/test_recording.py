"""Durable recording artifacts: record once, replay many.

Parity is the contract: replaying a recorded run must reproduce the
live run's tool output and slice fingerprints — across worker modes
and JIT backends — with the master re-executed exactly zero times.
Damage must surface as a taxonomized
:class:`~repro.errors.RecordingCorruptError` (or a per-slice degrade
under ``-spfaults degrade``), never as a wrong-but-clean replay.
"""

import pytest

from repro.errors import ConfigError, RecordingCorruptError
from repro.isa import assemble
from repro.machine import Kernel
from repro.superpin import (damage_recording, FaultKind, FaultPlan,
                            load_recording,
                            parse_switches, replay_recording,
                            run_superpin, RunJournal, run_key,
                            program_digest, SuperPinConfig)
from repro.tools import ICount2, ITrace
from tests.conftest import MULTISLICE

from .test_supervisor import _slice_fingerprint, WORKER_MODES

JIT_BACKENDS = ["closure", "source"]


def _config(**kwargs):
    kwargs.setdefault("spmsec", 500)
    kwargs.setdefault("clock_hz", 10_000)
    kwargs.setdefault("spmetrics", True)
    return SuperPinConfig(**kwargs)


@pytest.fixture(scope="module")
def program():
    return assemble(MULTISLICE)


@pytest.fixture(scope="module")
def recorded(program, tmp_path_factory):
    """One live recorded run: (artifact path, live report, live tool)."""
    path = tmp_path_factory.mktemp("rec") / "run.sprec"
    tool = ICount2()
    report = run_superpin(program, tool, _config(sprecord=str(path)),
                          kernel=Kernel(seed=42))
    return path, report, tool


@pytest.fixture(scope="module")
def live_itrace(program):
    tool = ITrace()
    run_superpin(program, tool, _config(), kernel=Kernel(seed=42))
    return tool


class TestRecordArtifact:
    def test_report_carries_artifact_identity(self, recorded):
        path, report, _ = recorded
        assert report.recording_path == str(path)
        recording = load_recording(path)
        assert recording.recording_id == report.recording_id
        assert recording.num_slices == report.num_slices
        assert not recording.damaged

    def test_section_counter(self, recorded):
        _, report, _ = recorded
        # meta + kernel + signatures + one section per slice.
        assert report.metrics.counters["superpin.recording.sections"] \
            == 3 + report.num_slices

    def test_loads_are_independent(self, recorded):
        """Slice specs must be fresh objects on every access (a slice
        run mutates its boundary's COW fork)."""
        path, _, _ = recorded
        recording = load_recording(path)
        a, b = recording.slice_spec(0), recording.slice_spec(0)
        assert a[0] is not b[0]
        assert a[1] is not b[1]


class TestReplayParity:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    @pytest.mark.parametrize("jit_backend", JIT_BACKENDS)
    def test_replay_matches_live_run(self, recorded, spworkers,
                                     jit_backend):
        path, live_report, live_tool = recorded
        tool = ICount2()
        report = replay_recording(path, tool, _config(
            spworkers=spworkers, jit_backend=jit_backend))
        assert tool.total == live_tool.total
        assert report.exit_code == live_report.exit_code
        assert report.stdout == live_report.stdout
        assert _slice_fingerprint(report) \
            == _slice_fingerprint(live_report)

    def test_master_never_reruns(self, recorded):
        """The whole point of the artifact: zero control/signature work
        on replay — counter-verified, and no such span exists."""
        path, live_report, _ = recorded
        report = replay_recording(path, ICount2(), _config())
        assert report.metrics.counters[
            "superpin.recording.replayed_slices"] == live_report.num_slices
        spans = {record.name for record in report.trace.records}
        assert "replay_load" in spans
        assert "control_phase" not in spans
        assert "signature_phase" not in spans

    def test_replay_many_tools_one_artifact(self, recorded, live_itrace):
        """Record once, replay many: a tool that never saw the live run
        gets byte-identical analysis out of the artifact."""
        path, _, live_icount = recorded
        icount, itrace = ICount2(), ITrace()
        reports = replay_recording(path, [icount, itrace], _config())
        assert len(reports) == 2
        assert icount.total == live_icount.total
        assert itrace.trace == live_itrace.trace

    def test_replay_audit_is_free_and_green(self, recorded):
        """-spaudit on a replay compares against the artifact's recorded
        checkpoints: no serial baseline, no divergences."""
        path, _, _ = recorded
        report = replay_recording(path, ICount2(), _config(spaudit=True))
        assert report.audit is not None
        assert report.audit.ok
        assert report.audit.checks > 0

    def test_replay_streams_the_live_phase_events(self, program, recorded):
        """One pipeline: a replay announces the phases a live run does,
        minus the two the artifact replaces."""
        path, _, _ = recorded

        def phases(run):
            seen = []
            run(lambda event, payload: event == "phase"
                and seen.append(payload["phase"]))
            return seen
        live = phases(lambda cb: run_superpin(
            program, ICount2(), _config(), kernel=Kernel(seed=42),
            on_progress=cb))
        replay = phases(lambda cb: replay_recording(
            path, ICount2(), _config(), on_progress=cb))
        assert live == ["control", "signature", "slice", "merge", "timing"]
        assert replay == live[2:]

    def test_tampered_replay_audit_leaves_divergence_instants(self,
                                                              recorded):
        """A replay's -spaudit publishes like a live run's: counters and
        the ``audit.divergence`` instants on the trace."""
        path, _, _ = recorded
        report = replay_recording(path, ICount2(), _config(
            spaudit=True, fault_plan=FaultPlan.parse("tamper@1")))
        assert not report.audit.ok
        instants = [r for r in report.trace.records
                    if r.name == "audit.divergence"]
        assert any(r.args["slice"] == 1 for r in instants)
        assert len(instants) == len(report.audit.divergences) \
            == report.metrics.counters["superpin.audit.divergences"]

    def test_replay_rejects_spfilter(self, recorded):
        path, _, _ = recorded
        with pytest.raises(ConfigError):
            replay_recording(path, ICount2(), _config(spfilter="all"))

    def test_replay_rejects_sprecord(self, recorded, tmp_path):
        """A replay asked to record would only re-serialize the artifact
        it was given."""
        path, _, _ = recorded
        with pytest.raises(ConfigError, match="-sprecord"):
            replay_recording(path, ICount2(),
                             _config(sprecord=str(tmp_path / "again.sprec")))
        assert not (tmp_path / "again.sprec").exists()


class TestTheFormatIsFrozen:
    """``recording_id`` hashes ``meta["config"]``, whose slots outlive
    the config fields they were named after
    (``recording._RETIRED_CONFIG``).  The ids below were recorded before
    eight fields left ``SuperPinConfig``; the same program and config
    must keep recording to them.  ``-spexpected N`` is what
    ``-spadaptive 1 -spexpected N`` was, so it keeps that run's id."""

    @pytest.mark.parametrize("switches,recording_id", [
        ([], "fa3bc31d74ed56b6f3db40b94c05f206"
             "8c5643c98e9cfc8c19dc09a14e913f72"),
        (["-spexpected", "6000"], "3bffb2bbbf6c8797f52fbfe89be05f69"
                                  "80d69506649432137d652f4fb1b91586"),
    ], ids=["default", "throttled"])
    def test_recording_id_is_pinned(self, program, tmp_path, switches,
                                    recording_id):
        config = parse_switches(
            switches + ["-sprecord", str(tmp_path / "run.sprec")])
        report = run_superpin(program, ICount2(), config,
                              kernel=Kernel(seed=42))
        assert report.recording_id == recording_id


class TestDamageDetection:
    """Every damage kind must be caught at load, taxonomized."""

    @pytest.fixture
    def artifact(self, recorded, tmp_path):
        path, _, _ = recorded
        copy = tmp_path / "damaged.sprec"
        copy.write_bytes(path.read_bytes())
        return copy

    def test_truncate_is_rejected(self, artifact):
        damage_recording(artifact, "truncate", slice_index=3)
        with pytest.raises(RecordingCorruptError) as info:
            load_recording(artifact)
        assert info.value.kind == "truncated"
        assert info.value.section == "slice_0003"

    def test_stale_version_is_rejected(self, artifact):
        damage_recording(artifact, "stale")
        with pytest.raises(RecordingCorruptError) as info:
            load_recording(artifact)
        assert info.value.kind == "version"

    def test_bad_magic_is_rejected(self, artifact):
        blob = artifact.read_bytes()
        artifact.write_bytes(b"GARBAGE" + blob[7:])
        with pytest.raises(RecordingCorruptError) as info:
            load_recording(artifact)
        assert info.value.kind == "magic"

    def test_bit_flip_in_section_is_rejected(self, artifact):
        blob = bytearray(artifact.read_bytes())
        blob[-10] ^= 0x40
        artifact.write_bytes(bytes(blob))
        with pytest.raises(RecordingCorruptError) as info:
            load_recording(artifact)
        assert info.value.kind == "digest"

    def test_verify_failures_counter(self, artifact):
        from repro.obs.metrics import MetricsRegistry
        damage_recording(artifact, "stale")
        metrics = MetricsRegistry()
        with pytest.raises(RecordingCorruptError):
            load_recording(artifact, metrics=metrics)
        assert metrics.counters[
            "superpin.recording.verify_failures"] == 1

    def test_corrupt_flips_one_section_only(self, artifact):
        """Unlike truncate (which loses the tail), bit rot confines to
        one section: every other slice stays loadable."""
        damage_recording(artifact, "corrupt", slice_index=2)
        with pytest.raises(RecordingCorruptError) as info:
            load_recording(artifact)
        assert info.value.kind == "digest"
        assert info.value.section == "slice_0002"
        recording = load_recording(artifact, tolerate_damaged=True)
        assert set(recording.damaged) == {2}
        assert recording.slice_spec(3)

    def test_degraded_replay_audit_reports_hole(self, artifact,
                                                recorded):
        """Regression: a degraded placeholder boundary (pc sentinel -1)
        used to crash ``fingerprint_state`` inside the replay audit;
        the hole is now its own divergence kind."""
        _, live_report, _ = recorded
        last = live_report.num_slices - 1
        damage_recording(artifact, "corrupt", slice_index=last)
        report = replay_recording(artifact, ICount2(), _config(
            spfaults="degrade", spaudit=True))
        assert report.degraded_slices == [last]
        assert report.audit is not None
        assert not report.audit.ok
        kinds = {d.kind for d in report.audit.divergences}
        assert "boundary.hole" in kinds

    def test_replay_twice_has_zero_playback_drift(self, recorded):
        """Re-forked slice specs mean fresh cursors and fresh record
        objects: two replays consume identical syscall streams with no
        leftover-record drift."""
        path, _, _ = recorded
        first = replay_recording(path, ICount2(), _config())
        second = replay_recording(path, ICount2(), _config())
        for s1, s2 in zip(first.slices, second.slices):
            assert s1.syscall_digest == s2.syscall_digest
            assert s1.leftover_records == 0 == s2.leftover_records
            assert (s1.end_pc, s1.end_cpu_hash) \
                == (s2.end_pc, s2.end_cpu_hash)

    def test_tolerant_load_confines_slice_damage(self, artifact,
                                                 recorded):
        """Damage to the *last* slice section lands in .damaged; core
        sections still verify and every other slice stays loadable."""
        _, live_report, _ = recorded
        last = live_report.num_slices - 1
        damage_recording(artifact, "truncate", slice_index=last)
        recording = load_recording(artifact, tolerate_damaged=True)
        assert set(recording.damaged) == {last}
        assert recording.slice_spec(0)
        with pytest.raises(RecordingCorruptError):
            recording.slice_spec(last)

    def test_spinject_truncate_damages_saved_recording(self, program,
                                                       tmp_path):
        """-spinject truncate@K fires *after* the artifact is saved —
        the run itself completes clean, the artifact it leaves behind
        is damaged (models post-hoc bit rot in CI)."""
        path = tmp_path / "run.sprec"
        config = parse_switches(["-spinject", "truncate@3",
                                 "-sprecord", str(path),
                                 "-spmsec", "500"])
        config.clock_hz = 10_000
        tool = ICount2()
        report = run_superpin(program, tool, config,
                              kernel=Kernel(seed=42))
        assert not report.degraded_slices  # the run was untouched
        assert tool.total > 0
        with pytest.raises(RecordingCorruptError) as info:
            load_recording(path)
        assert info.value.kind == "truncated"
        assert info.value.section == "slice_0003"

    def test_spinject_stale_ages_recording_and_journal(self, program,
                                                       tmp_path):
        rec = tmp_path / "run.sprec"
        jrn = tmp_path / "run.spjl"
        config = parse_switches(["-spinject", "stale@0",
                                 "-sprecord", str(rec),
                                 "-spjournal", str(jrn),
                                 "-spmsec", "500"])
        config.clock_hz = 10_000
        run_superpin(program, ICount2(), config, kernel=Kernel(seed=42))
        with pytest.raises(RecordingCorruptError) as info:
            load_recording(rec)
        assert info.value.kind == "version"
        key = run_key(program_digest(program), "ICount2", config)
        with pytest.raises(RecordingCorruptError) as info:
            RunJournal.resume(jrn, key)
        assert info.value.kind == "stale"

    def test_artifact_kinds_never_fire_on_slice_attempts(self):
        """truncate/stale are artifact faults: spec_for must never
        inject them into a slice attempt."""
        config = parse_switches(["-spinject", "truncate@0:*,stale@1:*"])
        plan = config.fault_plan
        for k in range(4):
            assert plan.spec_for(k, 1) is None
        assert [s.kind for s in plan.artifact_specs()] \
            == [FaultKind.TRUNCATE, FaultKind.STALE]

    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_degrade_replay_leaves_hole(self, artifact, recorded,
                                        spworkers):
        path, live_report, live_tool = recorded
        last = live_report.num_slices - 1
        damage_recording(artifact, "truncate", slice_index=last)
        # Anything but degrade must reject the artifact outright...
        with pytest.raises(RecordingCorruptError):
            replay_recording(artifact, ICount2(), _config(
                spworkers=spworkers, spfaults="retry"))
        # ...degrade replays around the hole, exactly like any other
        # degraded slice: survivors merge, timing is unavailable.
        tool = ICount2()
        report = replay_recording(artifact, tool, _config(
            spworkers=spworkers, spfaults="degrade"))
        assert report.degraded_slices == [last]
        assert report.timing is None
        hole = live_report.slices[last]
        assert tool.total == live_tool.total - hole.instructions
