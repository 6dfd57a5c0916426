"""Boot and stop a ``python -m repro serve`` daemon for the benchmark."""

import os
import subprocess
import sys
import time

from bench.workloads import NPROC

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


class Daemon:
    """One daemon subprocess and a client for it."""

    def __init__(self, state_dir: str):
        from repro.serve import ServeClient
        os.makedirs(state_dir, exist_ok=True)
        # A unix socket path is limited to ~100 bytes; a relative one
        # (daemon and clients share the cwd) stays short in any checkout.
        self.socket_path = os.path.relpath(
            os.path.join(state_dir, "d.sock"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.socket_path,
             "--state", os.path.join(state_dir, "state"),
             "--workers", str(NPROC)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
        self.client = ServeClient(self.socket_path, timeout=120.0)
        try:
            self._await_ping()
        except BaseException:
            self.stop()
            raise

    def _await_ping(self) -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("serve daemon died at start-up")
            try:
                if (os.path.exists(self.socket_path)
                        and self.client.ping()):
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("serve daemon never became reachable")

    def new_client(self):
        from repro.serve import ServeClient
        return ServeClient(self.socket_path, timeout=120.0)

    def stop(self) -> None:
        """Shut the daemon down and wait until it has ended."""
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=30.0)
            except Exception:
                self.proc.kill()
        self.proc.wait()
