"""End-to-end daemon coverage: a real ``superpin serve`` subprocess.

Each test boots the daemon as a child process on a fresh unix socket,
talks to it with :class:`repro.serve.ServeClient`, and kills it at the
end.  The headline properties:

- three submissions (two identical + one distinct, the last two
  concurrent) all complete, and the second identical job starts warm on
  the machine the first left resident (``serve.machines.hits``, more
  ``pin.jit.skeleton_reuses``) and reports what the first did; the
  daemon leaves no trace store behind;
- a job that names a program the daemon has run runs on the machines
  that job left behind (``pin.jit.skeleton_reuses > 0`` on a one-slice
  guest) and reports what it reported cold; a restarted daemon has kept
  nothing;
- admission control rejects past the queue bound with a clean error;
- queued and running jobs cancel;
- SIGKILL mid-job loses nothing durable: a restart on the same state
  dir recovers every accepted-but-unfinished job and runs it.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.cli import main
from repro.serve import ServeClient, ServeError
from tests.conftest import LOOP_SUM, MULTISLICE

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))

#: Fast asm-based specs (the suite workloads are too slow for a unit
#: gate); seeds/switches pinned so identical specs are identical runs.
FAST_SWITCHES = ["-spmsec", "500", "-spclock", "10000"]
IDENTICAL = {"asm": MULTISLICE, "tool": "icount2", "seed": 42,
             "switches": FAST_SWITCHES}
DISTINCT = {"asm": LOOP_SUM, "tool": "icount1", "seed": 42,
            "switches": FAST_SWITCHES}
#: A job still running when a cancel or a SIGKILL sent once it leaves
#: the queue lands: some 300 slices, run in the daemon.  A tenth of
#: this scale can end inside the status and cancel round trips (it did,
#: in about 75 ms, after ``tests/test_pin`` had run in the same pytest).
LONG = {"workload": "gzip", "scale": 6, "tool": "icount2", "seed": 42,
        "switches": ["-spworkers", "0"]}


class Daemon:
    """One serve subprocess bound to a short-lived socket path."""

    def __init__(self, workers=1, queue_depth=64, root=None):
        # pytest tmp_path easily exceeds the ~108-byte AF_UNIX limit.
        self.root = root or tempfile.mkdtemp(dir="/tmp", prefix="spsrv-")
        self.socket = os.path.join(self.root, "d.sock")
        self.state = os.path.join(self.root, "state")
        self.workers = workers
        self.queue_depth = queue_depth
        self.proc = None

    def start(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", self.socket, "--state", self.state,
             "--workers", str(self.workers),
             "--queue-depth", str(self.queue_depth)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        client = self.client()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise AssertionError(
                    "daemon died at startup:\n"
                    + self.proc.communicate()[0].decode())
            if os.path.exists(self.socket):
                try:
                    if client.ping():
                        return self
                except OSError:
                    pass
            time.sleep(0.05)
        raise AssertionError("daemon never became reachable")

    def client(self, timeout=180.0) -> ServeClient:
        return ServeClient(self.socket, timeout=timeout)

    def sigkill(self):
        self.proc.kill()
        self.proc.wait(timeout=10)

    def stop(self):
        if self.proc is None or self.proc.poll() is not None:
            return
        try:
            self.client(timeout=30.0).shutdown()
            self.proc.wait(timeout=30)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=10)


@pytest.fixture()
def daemon():
    booted = []

    def boot(**kwargs):
        instance = Daemon(**kwargs)
        booted.append(instance)
        return instance.start()

    yield boot
    for instance in booted:
        instance.stop()
    # (A revived daemon reuses its predecessor's root: remove each once.)
    for root in dict.fromkeys(instance.root for instance in booted):
        shutil.rmtree(root, ignore_errors=True)


def _reuses(final):
    return final["result"]["counters"]["pin.jit.skeleton_reuses"]


class TestServiceSmoke:
    def test_three_jobs_second_identical_starts_warm(self, daemon):
        server = daemon(workers=2)
        client = server.client()
        # Job 1 runs cold and leaves its machine resident.
        first = client.submit(IDENTICAL, tenant="alice")["final"]
        assert first["event"] == "done"
        assert client.status()["daemon"]["counters"][
            "serve.machines.hits"] == 0

        # Jobs 2 (identical) and 3 (distinct) run concurrently.
        finals = {}

        def run(name, spec, tenant):
            finals[name] = server.client().submit(
                spec, tenant=tenant)["final"]

        threads = [
            threading.Thread(target=run,
                             args=("same", IDENTICAL, "alice")),
            threading.Thread(target=run,
                             args=("other", DISTINCT, "bob")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert finals["same"]["event"] == "done"
        assert finals["other"]["event"] == "done"
        # The warm-start proof, through the daemon path: the identical
        # job ran on the machine job 1 gave back, and reused more.
        assert _reuses(finals["same"]) > _reuses(first) > 0
        assert (finals["same"]["result"]["tool_report"]
                == first["result"]["tool_report"])

        snapshot = client.status()
        states = {job["job_id"]: job["state"]
                  for job in snapshot["jobs"]}
        assert sorted(states) == ["j0001", "j0002", "j0003"]
        assert set(states.values()) == {"done"}
        counters = snapshot["daemon"]["counters"]
        assert counters["serve.jobs.submitted"] == 3
        assert counters["serve.jobs.completed"] == 3
        assert counters["serve.machines.hits"] == 1

        # Graceful shutdown writes the state-dir exports the CI job
        # uploads as its artifact.
        server.stop()
        assert os.path.exists(os.path.join(server.state, "metrics.json"))
        assert not os.path.exists(os.path.join(server.state, "trace_store"))

    def test_streams_progress_events(self, daemon):
        server = daemon(workers=1)
        events = []
        final = server.client().submit(
            IDENTICAL, on_event=lambda e: events.append(e))["final"]
        assert final["event"] == "done"
        kinds = {event.get("event") for event in events}
        assert {"state", "progress", "metrics", "done"} <= kinds
        slices = [event for event in events
                  if event.get("event") == "progress"
                  and event.get("kind") == "slice"]
        assert slices
        last = slices[-1]["payload"]
        assert last["completed"] == last["total"] > 1


class TestResidents:
    def test_a_then_b_then_a_and_a_restart(self, daemon):
        """DISTINCT is a one-slice guest: nothing within a cold job of
        it can reuse anything, so a reuse is another job's work."""
        server = daemon(workers=1)
        client = server.client()
        # (In-process: only those slices run on the daemon's machines.)
        one_slice, other = ({**spec, "switches": FAST_SWITCHES
                             + ["-spworkers", "0"]}
                            for spec in (DISTINCT, IDENTICAL))
        first, other, again = (client.submit(spec)["final"] for spec in
                               (one_slice, other, one_slice))
        assert {f["event"] for f in (first, other, again)} == {"done"}
        assert first["result"]["num_slices"] == 1
        assert _reuses(first) == 0 < _reuses(again)
        assert again["result"]["tool_report"] \
            == first["result"]["tool_report"]

        snapshot = client.status()["daemon"]
        counters = snapshot["counters"]
        assert (counters["serve.programs.hits"],
                counters["serve.programs.misses"]) == (1, 2)
        assert (counters["serve.machines.hits"],
                counters["serve.machines.misses"]) == (1, 2)
        assert counters["serve.machines.dropped"] == 0
        assert snapshot["residents"]["idle_machines"] == 2
        for name in ("serve.job.queue_wait_seconds",
                     "serve.job.run_seconds"):
            assert snapshot["histograms"][name]["count"] == 3
        job = client.status("j0003")["job"]
        assert 0 <= job["queue_wait_seconds"] and 0 < job["run_seconds"] \
            <= snapshot["histograms"]["serve.job.run_seconds"]["max"]

        # A new process has kept nothing: cold again, and as right.
        server.sigkill()
        revived = daemon(workers=1, root=server.root)
        cold = revived.client().submit(one_slice)["final"]
        assert cold["event"] == "done" and _reuses(cold) == 0
        assert cold["result"]["tool_report"] \
            == first["result"]["tool_report"]
        revived.stop()
        with open(os.path.join(revived.state, "metrics.json")) as handle:
            exported = json.load(handle)
        assert exported["counters"]["serve.machines.misses"] == 1
        assert exported["histograms"]["serve.job.run_seconds"]["count"] == 1

    def test_submit_prints_the_compiles_served_from_kept_code(
            self, daemon, tmp_path, capsys):
        """``superpin submit``'s ``jit:`` line: a one-slice job keeps,
        the next identical one compares, and the third is served every
        compile."""
        server = daemon(workers=1)
        source = tmp_path / "one_slice.s"
        source.write_text(DISTINCT["asm"])
        lines = []
        for _ in range(3):
            assert main(["submit", "--socket", server.socket,
                         "--asm", str(source), "-t", "icount1", "--",
                         *FAST_SWITCHES, "-spworkers", "0"]) == 0
            out = capsys.readouterr().out
            lines.append(re.search(
                r"^jit: (\d+) compiles, \d+ from pooled skeletons, "
                r"(\d+) served from kept code, \d+ hot; master",
                out, re.M).groups())
        (compiles,) = {compiles for compiles, _ in lines}
        assert int(compiles) > 0
        assert [served for _, served in lines] == ["0", "0", compiles]


class TestSerialJobs:
    def test_a_serial_job_is_serial_pin(self, daemon, monkeypatch):
        """``-sp 0`` goes through the daemon's front door like any job:
        it reports what serial Pin reports, with the engine's counters
        (the daemon forces ``-spmetrics 1``, which serial Pin honours);
        a switch serial Pin cannot honour is a bad spec."""
        from repro.isa import assemble
        from repro.machine import Kernel
        from repro.pin import run_with_pin
        from repro.tools import ICount2
        # The worker default moves with the environment; the daemon's
        # own must not make -spworkers 2 its default.
        monkeypatch.delenv("SUPERPIN_SPWORKERS", raising=False)
        server = daemon(workers=1)
        client = server.client()
        spec = {"asm": MULTISLICE, "tool": "icount2", "seed": 42,
                "switches": ["-sp", "0"]}
        final = client.submit(spec)["final"]
        assert final["event"] == "done", final
        tool = ICount2()
        result, _, _ = run_with_pin(assemble(MULTISLICE), tool,
                                    Kernel(seed=42))
        assert final["result"]["tool_report"] \
            == json.loads(json.dumps(tool.report()))
        assert final["result"]["exit_code"] == result.exit_code
        assert final["result"]["num_slices"] == 0
        assert final["result"]["counters"]["pin.cache.compiles"] > 0
        with pytest.raises(ServeError) as excinfo:
            client.submit({**spec, "switches": ["-sp", "0", "-spworkers",
                                                "2"]}, stream=False)
        assert excinfo.value.code == "bad_spec"
        assert "-spworkers" in str(excinfo.value)


class TestAdmissionAndCancel:
    def test_queue_full_rejected(self, daemon):
        # workers=0: accept-only mode, so the queue fills determinately.
        server = daemon(workers=0, queue_depth=2)
        client = server.client()
        for _ in range(2):
            client.submit(IDENTICAL, stream=False)
        with pytest.raises(ServeError) as excinfo:
            client.submit(IDENTICAL, stream=False)
        assert excinfo.value.code == "queue_full"
        snapshot = client.status()
        assert snapshot["daemon"]["queue_depth"] == 2
        assert snapshot["daemon"]["counters"]["serve.jobs.rejected"] == 1

    def test_bad_spec_rejected(self, daemon):
        server = daemon(workers=0)
        with pytest.raises(ServeError) as excinfo:
            server.client().submit({"workload": "no-such-workload"},
                                   stream=False)
        assert excinfo.value.code == "bad_spec"

    def test_unknown_job(self, daemon):
        server = daemon(workers=0)
        with pytest.raises(ServeError) as excinfo:
            server.client().status("j9999")
        assert excinfo.value.code == "unknown_job"

    def test_cancel_queued_job(self, daemon):
        server = daemon(workers=0)
        client = server.client()
        job_id = client.submit(IDENTICAL, stream=False)["job_id"]
        response = client.cancel(job_id)
        assert response["state"] == "failed"
        job = client.status(job_id)["job"]
        assert job["state"] == "failed"
        assert job["error"] == "cancelled"
        assert client.status()["daemon"]["queue_depth"] == 0

    def test_cancel_running_job(self, daemon):
        server = daemon(workers=1)
        client = server.client()
        # Cancellation preempts the job at its next progress event.
        job_id = client.submit(LONG, stream=False)["job_id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(job_id)["job"]["state"] != "queued":
                break
            time.sleep(0.02)
        response = client.cancel(job_id)
        assert response["state"] in ("cancelling", "failed")
        final = client.wait(job_id)
        assert final["event"] == "failed"
        assert "cancelled" in final["error"]


class TestCrashRecovery:
    def test_sigkill_midjob_restart_recovers(self, daemon):
        server = daemon(workers=1)
        client = server.client()
        running_id = client.submit(LONG, stream=False)["job_id"]
        queued_id = client.submit(IDENTICAL, stream=False)["job_id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(running_id)["job"]["state"] != "queued":
                break
            time.sleep(0.02)
        server.sigkill()

        # Restart on the same state dir: both the mid-flight job and
        # the queued one were durably accepted but never durably
        # finished, so both come back and run to completion.
        revived = daemon(workers=1, root=server.root)
        client = revived.client()
        for job_id in (running_id, queued_id):
            final = client.wait(job_id)
            assert final["event"] == "done", final
        snapshot = client.status()
        assert snapshot["daemon"]["counters"]["serve.jobs.recovered"] == 2
        states = {job["job_id"]: job["state"]
                  for job in snapshot["jobs"]}
        assert states == {running_id: "done", queued_id: "done"}

    def test_accept_only_queue_survives_sigkill(self, daemon):
        server = daemon(workers=0)
        client = server.client()
        ids = [client.submit(IDENTICAL, stream=False)["job_id"]
               for _ in range(3)]
        server.sigkill()
        revived = daemon(workers=0, root=server.root)
        snapshot = revived.client().status()
        states = {job["job_id"]: job["state"]
                  for job in snapshot["jobs"]}
        assert states == {job_id: "queued" for job_id in ids}
        assert snapshot["daemon"]["queue_depth"] == 3


class TestProtocolEdges:
    def test_garbage_line_is_a_protocol_error(self, daemon):
        import socket as socket_module
        server = daemon(workers=0)
        sock = socket_module.socket(socket_module.AF_UNIX,
                                    socket_module.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(server.socket)
        sock.sendall(b"this is not json\n")
        reader = sock.makefile("rb")
        from repro.serve import decode_line
        response = decode_line(reader.readline())
        assert response["ok"] is False
        assert response["code"] == "protocol"
        sock.close()

    def test_daemon_exit_code_on_shutdown(self, daemon):
        server = daemon(workers=0)
        server.client().shutdown()
        assert server.proc.wait(timeout=30) == 0
