"""Fixed pure-Python calibration kernel.

The benchmark host is shared: identical runs swing by 10-20% with what
the neighbours do.  Every timed operation is therefore bracketed by this
kernel — list, dict and int work of the kind the system under test does
— and its wall time is scaled by how slow the kernel ran around it.

The kernel must stay frozen and must import nothing from ``repro``: a
change to the program under test may not move the yardstick.
"""

import gc
import os
import time

#: Seconds the kernel took on the host that recorded ``BENCH_11.json``.
#: A calibrated time reads "seconds on that host".
CALIB_REF_S = 0.1

# Host speed here moves in episodes of about half a second; a kernel run
# much shorter than that is a noisier yardstick than the operation it
# brackets (measured: 0.05 s runs leave 16% interquartile spread on a
# 1.3 s operation, 0.1 s runs 12%).
_KERNEL_STEPS = 400_000


def kernel(steps: int = _KERNEL_STEPS) -> int:
    """Deterministic list/dict/int churn; returns a checksum."""
    table: dict[int, int] = {}
    window: list[int] = []
    x = 12345
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 1023] = i
        window.append(x >> 7)
        if len(window) > 512:
            window = window[256:]
    return x + len(table) + len(window)


def measure() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def measure_parallel(workers: int) -> float:
    """Wall seconds until ``workers`` forked children have each run the
    kernel once: ``CALIB_REF_S`` when the host has that many cores to
    give, up to ``workers`` times that when it has one."""
    start = time.perf_counter()
    children = []
    for _ in range(workers):
        pid = os.fork()
        if pid == 0:
            try:
                kernel()
            finally:
                os._exit(0)
        children.append(pid)
    for pid in children:
        os.waitpid(pid, 0)
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Multiplier that turns a wall time measured between two kernel
    runs into reference-host seconds."""
    return CALIB_REF_S / ((before + after) / 2.0)


class Bracket:
    """Times calls between kernel runs.

    The kernel run after one call is the run before the next, so a
    sequence of timed calls costs one kernel run each.
    """

    def __init__(self):
        #: Every kernel run's wall seconds, in order.
        self.kernel_samples: list[float] = []
        #: Every parallel kernel run's wall seconds, in order.
        self.parallel_samples: list[float] = []
        self._before: float | None = None

    def kernel_run(self) -> float:
        seconds = measure()
        self.kernel_samples.append(seconds)
        return seconds

    def open(self) -> None:
        """Run the kernel now: what ran last is no longer adjacent."""
        self._before = self.kernel_run()

    def timed(self, fn, *args):
        """``(result, wall seconds, factor)`` of ``fn(*args)``, run
        after a collection; ``wall * factor`` is the calibrated time."""
        if self._before is None:
            self.open()
        gc.collect()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = self.kernel_run()
        scale = factor(self._before, after)
        self._before = after
        return result, wall, scale

    def timed_split(self, fn, workers: int):
        """Like :meth:`timed`, for a call that does part of its work on
        ``workers`` processes at once.

        The cores this host gives a process that asks for several come
        and go in spells of minutes that a one-process kernel run does
        not see: two workers finish in anything from half to all of the
        time one would take.  So ``fn`` returns ``(result, seconds)``,
        the wall seconds of its parallel part, and that part is scaled
        by the kernel run on ``workers`` processes, the rest by the
        kernel run on one.  Returns ``(result, wall seconds, calibrated
        seconds)``.
        """
        before = measure_parallel(workers)
        (result, parallel), wall, scale = self.timed(fn)
        after = measure_parallel(workers)
        self.parallel_samples += [before, after]
        return result, wall, ((wall - parallel) * scale
                              + parallel * factor(before, after))
