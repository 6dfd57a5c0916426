"""Unit coverage for the daemon's scheduling state: queues, log, wire.

Everything here runs without a daemon process — the queue, the durable
job log and the protocol codec are plain synchronous objects, so their
fairness/admission/recovery properties get exact, fast assertions.
"""

import json

import pytest

from repro.serve import (decode_line, encode_line, Job, JobLog, JobQueue,
                         ProtocolError, QueueFull, recover_jobs,
                         validate_request)


def _job(job_id, tenant="default"):
    return Job(job_id=job_id, tenant=tenant,
               spec={"workload": "gzip", "tool": "icount2"})


class TestJobQueue:
    def test_fifo_within_one_tenant(self):
        queue = JobQueue(max_depth=8)
        for i in range(3):
            queue.push(_job(f"j{i}"))
        assert [queue.pop().job_id for _ in range(3)] == \
            ["j0", "j1", "j2"]
        assert queue.pop() is None

    def test_round_robin_across_tenants(self):
        # Tenant A floods 4 jobs before B and C submit one each; the
        # drain order must interleave tenants, not serve A's backlog
        # first.
        queue = JobQueue(max_depth=16)
        for i in range(4):
            queue.push(_job(f"a{i}", tenant="alice"))
        queue.push(_job("b0", tenant="bob"))
        queue.push(_job("c0", tenant="carol"))
        order = []
        while True:
            job = queue.pop()
            if job is None:
                break
            order.append(job.job_id)
        assert order == ["a0", "b0", "c0", "a1", "a2", "a3"]

    def test_admission_control(self):
        queue = JobQueue(max_depth=2)
        queue.push(_job("j1"))
        queue.push(_job("j2", tenant="other"))
        with pytest.raises(QueueFull):
            queue.push(_job("j3"))
        # Depth is global, so draining one admits one.
        assert queue.pop() is not None
        queue.push(_job("j3"))

    def test_remove_for_cancellation(self):
        queue = JobQueue(max_depth=8)
        keep, drop = _job("keep"), _job("drop")
        queue.push(keep)
        queue.push(drop)
        assert queue.remove(drop) is True
        assert queue.remove(drop) is False
        assert queue.pop() is keep
        assert queue.pop() is None

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            JobQueue(max_depth=0)


class TestJobLog:
    def test_submit_then_finish_round_trip(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        log = JobLog(path)
        first, second = _job("j0001"), _job("j0002", tenant="bob")
        log.submitted(first)
        log.submitted(second)
        first.state = "done"
        log.finished(first)
        log.close()
        recovered = recover_jobs(path)
        # j0001 finished durably; only j0002 comes back, queued.
        assert [job.job_id for job in recovered] == ["j0002"]
        assert recovered[0].state == "queued"
        assert recovered[0].tenant == "bob"
        assert recovered[0].spec == second.spec

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        log = JobLog(path)
        job = _job("j0001")
        log.submitted(job)
        job.state = "failed"
        job.error = "boom"
        log.finished(job)
        log.close()
        # Chop the terminal record mid-line: the job must come back —
        # the daemon died before the transition was durable, so the
        # safe reading is "still pending".
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 10])
        recovered = recover_jobs(path)
        assert [j.job_id for j in recovered] == ["j0001"]

    def test_garbage_lines_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        lines = [
            b"\xff\xfe not json",
            json.dumps({"kind": "submit", "job_id": "j1",
                        "spec": {"workload": "gzip"}}).encode(),
            json.dumps(["not", "an", "object"]).encode(),
            json.dumps({"kind": "submit", "spec": {}}).encode(),
        ]
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert [j.job_id for j in recover_jobs(path)] == ["j1"]

    def test_missing_log_is_empty(self, tmp_path):
        assert recover_jobs(tmp_path / "absent.jsonl") == []


class TestProtocol:
    def test_codec_round_trip(self):
        obj = {"op": "submit", "job": {"workload": "gzip"}, "n": 3}
        assert decode_line(encode_line(obj)) == obj

    def test_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{nope\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2]\n")

    def test_validate_ops(self):
        assert validate_request({"op": "ping"}) == "ping"
        assert validate_request(
            {"op": "submit",
             "job": {"workload": "gzip", "tool": "icount2"}}) == "submit"
        with pytest.raises(ProtocolError):
            validate_request({"op": "explode"})
        with pytest.raises(ProtocolError):
            validate_request({"op": "submit"})
        with pytest.raises(ProtocolError):
            validate_request({"op": "cancel"})
        with pytest.raises(ProtocolError):
            validate_request({"op": "submit", "tenant": "",
                              "job": {"workload": "gzip"}})

    def test_validate_job_specs(self):
        bad_specs = [
            {},  # neither workload nor asm
            {"workload": "gzip", "asm": "halt"},  # both
            {"workload": "gzip", "tool": 7},
            {"workload": "gzip", "switches": "-spworkers 2"},
            {"workload": "gzip", "scale": -1},
            {"workload": "gzip", "seed": "forty-two"},
        ]
        for spec in bad_specs:
            with pytest.raises(ProtocolError):
                validate_request({"op": "submit", "job": spec})


class TestSpecChecks:
    def test_semantic_rejections(self):
        from repro.serve.server import check_job_spec
        assert check_job_spec({"workload": "gzip"}) is None
        assert "unknown tool" in check_job_spec(
            {"workload": "gzip", "tool": "nope"})
        assert "unknown workload" in check_job_spec({"workload": "nope"})
        assert "bad switches" in check_job_spec(
            {"workload": "gzip", "switches": ["-spworkers", "banana"]})

    def test_daemon_config_defaults(self, tmp_path):
        from repro.serve.server import build_job_config
        store = str(tmp_path / "ts")
        config = build_job_config({"workload": "gzip"}, store)
        assert config.spmetrics is True
        assert config.sptracestore == store
        # A job naming its own store keeps it.
        mine = str(tmp_path / "mine")
        config = build_job_config(
            {"workload": "gzip", "switches": ["-sptracestore", mine]},
            store)
        assert config.sptracestore == mine


class _Wire:
    """The writer half of a client connection: what was written, one
    entry a ``write``."""

    def __init__(self):
        self.writes = []
        self.drains = 0

    def write(self, data):
        self.writes.append(data)

    async def drain(self):
        self.drains += 1


class TestEventStream:
    """``ServeDaemon._stream``: a job's events reach the loop together
    (its thread held the GIL), and leave it together."""

    @staticmethod
    def stream(tmp_path, scenario):
        import asyncio
        from repro.serve.server import ServeDaemon

        async def main():
            daemon = ServeDaemon(tmp_path / "d.sock", tmp_path / "state",
                                 workers=0)
            daemon._stop, daemon._kick = asyncio.Event(), asyncio.Event()
            wire = _Wire()
            queue = daemon._subscribe("j0001")
            streaming = asyncio.ensure_future(daemon._stream(queue, wire))
            await scenario(daemon)
            await asyncio.wait_for(streaming, timeout=10)
            return wire

        return asyncio.run(main())

    @staticmethod
    def progress(n):
        return {"event": "progress", "job_id": "j0001", "n": n}

    def test_what_has_queued_goes_out_in_one_write_in_order(self, tmp_path):
        events = [self.progress(n) for n in range(9)] + [
            {"event": "done", "job_id": "j0001", "result": {}}]

        async def ten_events_at_once(daemon):
            for event in events:
                daemon._emit("j0001", event)

        wire = self.stream(tmp_path, ten_events_at_once)
        assert wire.writes == [b"".join(map(encode_line, events))]
        assert wire.drains == 1

    def test_a_shutdown_ends_a_stream_without_a_terminal_event(self,
                                                               tmp_path):
        import asyncio

        async def shutdown_mid_job(daemon):
            daemon._emit("j0001", self.progress(0))
            await asyncio.sleep(0)      # the stream takes it
            daemon._emit("j0001", self.progress(1))
            assert not await daemon._handle_request("shutdown", {}, _Wire())

        wire = self.stream(tmp_path, shutdown_mid_job)
        assert b"".join(wire.writes) == b"".join(
            encode_line(self.progress(n)) for n in (0, 1))

    def test_a_stream_that_starts_after_the_shutdown_ends_at_once(
            self, tmp_path):
        async def already_stopping(daemon):
            daemon._stop.set()

        assert self.stream(tmp_path, already_stopping).writes == []
