"""Service smoke test: boot the daemon, prove identical jobs report
identically and the resident machines' saving.

The CI `service-smoke` job's driver (also runnable locally):

    python benchmarks/service_smoke.py --artifacts service-smoke

Boots `superpin serve` as a subprocess, submits three concurrent jobs
through the client — two identical gzip runs plus one distinct mcf
run — and asserts:

- all three complete, and the two identical jobs report identically.

Those three fan their slices out (``-spworkers 2``), so nothing they run
touches the daemon's in-process machines.  Two more identical jobs
*without* ``-spworkers`` follow, one after the other, and the daemon's
``status`` must then show that the second ran on what the first left
behind — ``serve.machines.hits >= 1``, ``serve.programs.hits >= 1``,
``pin.jit.skeleton_reuses`` above the first's — with an identical tool
report; both jobs' ``run_seconds`` are printed.

Last, a job small enough to be one slice, none of whose loops runs
often enough in one run to earn generated code, goes in again and again
(a dozen times at most).  Kept code is keyed by the tool's
instrumentation digest, equal for identical jobs, and its one slice
compiles every trace once: the first job keeps each trace unverified,
the second compares each with what the first left attached
(``pin.jit.instrumentation_checks`` equal to its compiles), and the
smoke requires of the third that it is *served* — ``instrumentation_
checks == 0`` and ``instrumentation_reuses`` equal to its compiles (a
daemon that forgets kept code between jobs, or keys it by anything
that differs between identical jobs, reads 0 reuses).  It stops at the
first job from the third on whose master ran generated code
(``superpin.control.master.jit_instructions > 0`` — the resident master
is serial Pin's engine and keeps its ``Jit.heat`` over its life, and a
compile it serves from kept code costs nothing to repay, so the loop is
lowered generated after a few jobs),
prints which one that was, and fails if none did; every one must report
what the first reported.

On success the daemon is shut down gracefully and its state dir (job
log, metrics export) is copied to ``--artifacts`` for
upload.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve import ServeClient  # noqa: E402

IDENTICAL = {"workload": "gzip", "scale": 0.15, "tool": "icount2",
             "seed": 42, "switches": ["-spworkers", "2"]}
DISTINCT = {"workload": "mcf", "scale": 0.15, "tool": "icount1",
            "seed": 42, "switches": ["-spworkers", "2"]}
#: The job that runs in the daemon's own process, on its residents.
INPROCESS = {"workload": "gzip", "scale": 0.15, "tool": "icount2",
             "seed": 42}
#: One slice, and no loop that arrives 1,000 times in one run.
ONE_SLICE = {"workload": "gzip", "scale": 0.01, "tool": "icount2",
             "seed": 42}
REPEATS = 12


def boot_daemon(socket_path, state_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", socket_path, "--state", state_dir,
         "--workers", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    client = ServeClient(socket_path, timeout=600.0)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit("daemon died at startup:\n"
                             + proc.communicate()[0].decode())
        try:
            if os.path.exists(socket_path) and client.ping():
                return proc, client
        except OSError:
            pass
        time.sleep(0.1)
    raise SystemExit("daemon never became reachable")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifacts", default=None,
                        help="copy the daemon state dir here on success")
    args = parser.parse_args(argv)

    root = tempfile.mkdtemp(dir="/tmp", prefix="spsmoke-")
    socket_path = os.path.join(root, "d.sock")
    state_dir = os.path.join(root, "state")
    proc, client = boot_daemon(socket_path, state_dir)
    try:
        # Enqueue all three before anything finishes: one worker drains
        # them j1 -> j3 -> j2 (round-robin across the two tenants).
        j1 = client.submit(IDENTICAL, tenant="alice",
                           stream=False)["job_id"]
        j2 = client.submit(IDENTICAL, tenant="alice",
                           stream=False)["job_id"]
        j3 = client.submit(DISTINCT, tenant="bob",
                           stream=False)["job_id"]
        print(f"queued {j1} {j2} (identical) + {j3} (distinct)")
        finals = {job_id: client.wait(job_id) for job_id in (j1, j2, j3)}
        for job_id, final in finals.items():
            if final["event"] != "done":
                raise SystemExit(f"{job_id} failed: {final}")
            result = final["result"]
            print(f"{job_id}: exit {result['exit_code']}, "
                  f"{result['num_slices']} slices")

        problems = []
        if (finals[j1]["result"]["tool_report"]
                != finals[j2]["result"]["tool_report"]):
            problems.append("identical jobs produced different reports")

        # Two identical in-process jobs, the second after the first is
        # done: it runs on the machine the first gave back.
        cold, warm = (client.submit(INPROCESS, tenant="alice")["final"]
                      for _ in range(2))
        status = client.status()
        counters = status["daemon"]["counters"]
        records = {job["job_id"]: job for job in status["jobs"]}
        reuses = {}
        for name, final in (("first in-process", cold),
                            ("second", warm)):
            if final["event"] != "done":
                raise SystemExit(f"in-process job failed: {final}")
            job_counters = final["result"]["counters"]
            reuses[name] = job_counters["pin.jit.skeleton_reuses"]
            print(f"{final['job_id']} ({name}): run "
                  f"{records[final['job_id']]['run_seconds']:.3f} s, "
                  f"{reuses[name]:.0f} of "
                  f"{job_counters['pin.jit.compiles']:.0f} compiles from "
                  f"pooled skeletons")
        print("daemon: " + ", ".join(
            f"{name} {counters[name]:.0f}" for name in sorted(counters)
            if name.startswith(("serve.machines.", "serve.programs."))))
        if counters["serve.machines.hits"] < 1:
            problems.append("no job ran on a resident machine")
        if counters["serve.programs.hits"] < 1:
            problems.append("no job found its program resident")
        if reuses["second"] <= reuses["first in-process"]:
            problems.append("the second job reused no more than the first")
        if warm["result"]["tool_report"] != cold["result"]["tool_report"]:
            problems.append("warm and cold jobs produced different reports")

        # The same small job until its master runs generated code.
        first = hot_at = None
        for number in range(1, REPEATS + 1):
            final = client.submit(ONE_SLICE, tenant="alice")["final"]
            if final["event"] != "done":
                raise SystemExit(f"one-slice job failed: {final}")
            result = final["result"]
            job_counters = result["counters"]
            first = first or result
            if (result["num_slices"], result["tool_report"]) \
                    != (1, first["tool_report"]):
                problems.append(f"one-slice job {number} reports "
                                f"{result['num_slices']} slices, "
                                f"{result['tool_report']}")
            compiles = job_counters["pin.jit.compiles"]
            checks = job_counters["pin.jit.instrumentation_checks"]
            served = job_counters["pin.jit.instrumentation_reuses"]
            if number == 2 and checks != compiles:
                problems.append(f"the second one-slice job compared "
                                f"{checks:.0f} of {compiles:.0f} compiles "
                                f"with what the first left attached")
            if number == 3:
                print(f"{final['job_id']} (one-slice job 3): {served:.0f} "
                      f"of {compiles:.0f} compiles served from kept code")
                if checks or served != compiles:
                    problems.append(
                        f"the third one-slice job was served {served:.0f} "
                        f"of {compiles:.0f} compiles ({checks:.0f} "
                        f"compared)")
            if (number >= 3 and job_counters[
                    "superpin.control.master.jit_instructions"]):
                hot_at = number
                break
        if hot_at is None:
            problems.append(f"the master never ran generated code in "
                            f"{REPEATS} identical jobs")
        else:
            generated = job_counters[
                "superpin.control.master.jit_instructions"]
            print(f"{final['job_id']} (one-slice job {hot_at}): the master "
                  f"turned hot, {generated:.0f} of "
                  f"{job_counters['superpin.slices.instructions']:.0f} "
                  f"instructions in generated code")
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1

        client.shutdown()
        proc.wait(timeout=60)
        if args.artifacts:
            shutil.copytree(state_dir, args.artifacts,
                            dirs_exist_ok=True)
            print(f"copied daemon state to {args.artifacts}")
        print("service smoke passed")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
