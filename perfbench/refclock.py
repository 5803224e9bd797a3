"""Host speed, sampled while the workload runs, as the unit of the pass times.

This host's neighbours slow it down in phases of seconds to minutes, and a
slow phase slows every process on it alike, so raw pass times spread across
runs as much as the host's speed does.  While a ``RefClock`` is active, a
timer interrupts each process that does the workload's work every 50 ms and
times a fixed pure-Python loop (about 1 ms) in thread CPU time, on the CPU
that process is running on at that moment.  A stage's time divided by the
median loop time of the samples taken while it ran is the stage's length in
reference loops: a change to the package moves the stage's time and not the
loop's, a slow phase of the host moves both.

The benchmark process samples itself.  Processes forked while the clock is
active (the pool workers) sample themselves too and write their samples to
memory shared with the benchmark process; a stage during which they took
samples is measured by theirs, any other stage by the benchmark process's.
The samples take about 2% of each process's time, in every pass alike.
"""

from __future__ import annotations

import bisect
import mmap
import os
import signal
import statistics
import time

LOOP_N = 12_000          # iterations of the reference loop, about 1 ms
PERIOD_S = 0.05          # timer interval between samples
MIN_SAMPLES = 5          # fewer samples in a stage: take the nearest ones instead
CHILDREN = 64            # forked processes one clock follows; later ones do not sample
CHILD_SAMPLES = 8192     # samples kept per forked process, 400 s at 50 ms
_SLOT = 1 + 2 * CHILD_SAMPLES   # per child: count, then (stamp, loop) pairs

_active = None           # the RefClock whose ``with`` block is running


def reference_loop(n: int = LOOP_N) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _time_loop() -> tuple[float, float]:
    t0, c0 = time.perf_counter(), time.thread_time()
    reference_loop()
    c1, t1 = time.thread_time(), time.perf_counter()
    return (t0 + t1) / 2, c1 - c0


def _before_fork() -> None:
    if _active is not None:
        _active._forks += 1


def _after_fork_in_child() -> None:
    if _active is not None and _active._forks <= CHILDREN:
        _active._start_in_child()


# subprocess.run forks without these hooks, so the set-up probes never sample.
os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)


class RefClock:
    """Context manager: samples the reference loop while it is active.

    ``loop_s(start, end)`` gives the median loop time of the samples taken
    between two ``time.perf_counter()`` readings.
    """

    def __init__(self):
        self.stamps: list[float] = []        # this process's samples
        self.loops: list[float] = []
        self.child_stamps: list[float] = []  # the forked processes' samples
        self.child_loops: list[float] = []
        self._forks = 0
        self._shared = None
        self._slots = None
        self._slot = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        stamp, loop = _time_loop()
        self.stamps.append(stamp)
        self.loops.append(loop)

    def _start_in_child(self) -> None:
        self._slot = (self._forks - 1) * _SLOT
        self._slots[self._slot] = 0
        signal.signal(signal.SIGALRM, self._sample_in_child)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample_in_child(self, signum, frame) -> None:
        stamp, loop = _time_loop()
        n = int(self._slots[self._slot])
        if n < CHILD_SAMPLES:
            self._slots[self._slot + 1 + 2 * n] = stamp
            self._slots[self._slot + 2 + 2 * n] = loop
            self._slots[self._slot] = n + 1

    def __enter__(self) -> "RefClock":
        global _active
        self._shared = mmap.mmap(-1, CHILDREN * _SLOT * 8)
        self._slots = memoryview(self._shared).cast("d")
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        _active = self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = None
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        samples = []
        for child in range(min(self._forks, CHILDREN)):
            base = child * _SLOT
            samples += [(self._slots[base + 1 + 2 * i], self._slots[base + 2 + 2 * i])
                        for i in range(int(self._slots[base]))]
        samples.sort()
        self.child_stamps = [stamp for stamp, _ in samples]
        self.child_loops = [loop for _, loop in samples]
        self._slots.release()
        self._shared.close()

    def loop_s(self, start: float, end: float) -> float:
        for stamps, loops in ((self.child_stamps, self.child_loops), (self.stamps, self.loops)):
            lo = bisect.bisect_left(stamps, start)
            hi = bisect.bisect_right(stamps, end)
            if hi - lo >= MIN_SAMPLES:
                return statistics.median(loops[lo:hi])
        if len(self.stamps) < MIN_SAMPLES:
            raise RuntimeError("the reference clock took too few samples")
        mid = bisect.bisect_left(self.stamps, (start + end) / 2)
        lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.stamps) - MIN_SAMPLES))
        return statistics.median(self.loops[lo:lo + MIN_SAMPLES])
