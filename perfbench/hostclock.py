"""Host-speed-corrected timing: CPU time rescaled to a reference host.

On a shared host the speed at which this process runs Python drifts by up
to 1.8x within a minute, with no CPU steal to show for it (other tenants
share the cores' caches and execution units).  A raw time then measures
the host as much as the program.  So the benchmark times the program in
*reference seconds*:

* While a ``HostClock`` runs, a timer interrupts the main thread every
  ``PERIOD_S`` of process CPU time and runs one calibration burst, a
  fixed pure-Python loop of the kind the library spends its time in
  (dict lookups, integer bit operations), half on a dict that stays in
  the core's cache and half on one that does not, because the library's
  large steps (group closures, the subset DP of ``mad_exact``) slow down
  with the host's memory traffic more than its small ones do.  The
  burst's duration, measured in the same thread, is how fast the host
  runs Python now.
* Each stretch of main-thread CPU time between two bursts is converted at
  the speed the bursts at its two ends show: its length times
  ``REF_BURST_S`` over their mean duration.  Burst time itself is left
  out.
* A reference second is therefore a CPU second on a host on which one
  burst takes ``REF_BURST_S``.  The calibration code never changes with
  the library, so a slower library shows in full, while the host's drift
  cancels.

Main-thread CPU time, not wall time, is the base: the workloads are
single-threaded and CPU-bound (jobs=1), and CPU time leaves out the
stretches when another process held the core.  Time the program spends
waiting (sleep, I/O, other processes) is therefore not counted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter, thread_time

PERIOD_S = 0.05  # CPU seconds between bursts
BURST_ITERATIONS = 2000  # per table
# a burst's duration on the reference host: the fastest tenth of bursts
# on a 2-vCPU Xeon at 2.0 GHz under CPython 3.11 (the median is ~3.6 ms)
REF_BURST_S = 0.0025

# 2^10 keys stay in the core's cache; 2^16 keys (a few MiB) do not
_TABLES: tuple[tuple[dict[int, int], int], ...] = (({}, 0x3FF), ({}, 0xFFFF))


def burst() -> float:
    """One calibration burst; returns its main-thread CPU seconds."""
    acc = 12345
    t0 = thread_time()
    for table, mask in _TABLES:
        for i in range(BURST_ITERATIONS):
            key = (i * 40503 + acc) & mask
            acc = (acc ^ table.get(key, key)) * 33 & 0xFFFFFFFF
            table[key] = acc >> 7
    return thread_time() - t0


class HostClock:
    """Times a region, and intervals inside it, in reference seconds.

    Use as a context manager around the timed region; take ``stamp()``
    at the edges of each operation inside it, and convert afterwards with
    ``ref_seconds(a, b)``.  ``wall_s`` and ``cpu_s`` give the raw wall
    and main-thread CPU time of the region, bursts included, for the
    record.
    """

    def __init__(self):
        # one entry per burst: main-thread CPU time at its start and end
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._durations: list[float] = []
        self._busy = False
        self._old_handler = None
        self.start = self.end = 0.0
        self.wall_s = self.cpu_s = 0.0

    def _burst(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = thread_time()
        duration = burst()
        self._starts.append(t0)
        self._ends.append(thread_time())
        self._durations.append(duration)
        self._busy = False

    def __enter__(self) -> "HostClock":
        burst()  # fill the tables, so the first kept burst is like the rest
        self._burst()
        self._old_handler = signal.signal(signal.SIGPROF, self._burst)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        self._wall0 = perf_counter()
        self.start = self.stamp()
        return self

    def __exit__(self, *exc) -> None:
        self.end = self.stamp()
        self.wall_s = perf_counter() - self._wall0
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old_handler)
        self._burst()
        self.cpu_s = self.end - self.start

    @staticmethod
    def stamp() -> float:
        return thread_time()

    def ref_seconds(self, a: float | None = None, b: float | None = None) -> float:
        """Reference seconds of the program's CPU time between two stamps.

        Defaults to the whole region.  Stamps are taken outside bursts,
        so every stretch lies between two of them.
        """
        a = self.start if a is None else a
        b = self.end if b is None else b
        total = 0.0
        k = max(0, bisect.bisect_right(self._ends, a) - 1)
        while k + 1 < len(self._starts) and self._ends[k] < b:
            lo = max(a, self._ends[k])
            hi = min(b, self._starts[k + 1])
            if hi > lo:
                mean = (self._durations[k] + self._durations[k + 1]) / 2.0
                total += (hi - lo) * REF_BURST_S / mean
            k += 1
        return total

    def host_factor(self) -> float:
        """Median burst over ``REF_BURST_S``: 1.0 at reference speed."""
        return statistics.median(self._durations) / REF_BURST_S
