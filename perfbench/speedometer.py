"""Correct CPU times for the shared machine's changing speed.

On a shared virtual machine the same single-threaded work takes up to
about 1.6x more CPU time in some stretches than in others: the host
switches between a fast and a slow state every few seconds (another
tenant on the sibling hardware thread, or frequency changes).  A run of
under a minute sees an unpredictable mix of both, so its raw CPU time
can differ by 20 % from the next run's on identical inputs.

The speedometer samples the machine while the program runs: every
PERIOD_S of CPU time a SIGPROF handler times the probe, a short fixed
mix of Python calls, float arithmetic and 8-element numpy products,
like the program's own work.  A block of work measured with measure()
reports

* cpu_s: its CPU seconds (main thread), minus the time spent probing;
* norm_s: the same work in reference seconds, each slice of CPU time
  between probes scaled by REF_NS / (that slice's probe time).  One
  reference second is the time in which the probe would run
  1e9 / REF_NS times.

On identical inputs (eight repeats of a 12 s fit phase) this brought
the spread from 13.6-17.2 s of raw CPU time to 11.6-12.0 reference
seconds; a pure float loop as the probe only got to 12.2-13.3.  The
probe touches nothing of the program's, so draws are unchanged.
"""

import math
import signal
import time

import numpy as np

PERIOD_S = 0.02
PROBE_STEPS = 20
# about the median probe time on the 2-core Xeon VM the benchmark was
# defined on; it sets the unit, and cancels in any comparison of runs
REF_NS = 90_000

_VEC = np.arange(8.0)
_MAT = np.ones((8, 8))


def _step(u, v):
    return u * v + 1.0


def probe_ns():
    """CPU nanoseconds of one fixed probe."""
    clock = time.thread_time_ns
    t0 = clock()
    s = 0.0
    for i in range(PROBE_STEPS):
        s += _step(math.sqrt(i + 1.0), 1.5)
        s += float(_VEC @ _VEC)
        s += (_MAT @ _VEC)[3]
        s += {"k": i}["k"]
    return clock() - t0


class Block:
    """One measured stretch of work; see Speedometer.measure."""

    def __init__(self, meter):
        self._meter = meter
        self.cpu_s = 0.0
        self.probes = []

    def __enter__(self):
        self._first = len(self._meter.probes)
        self._t0 = time.thread_time_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.thread_time_ns()
        self.probes = self._meter.probes[self._first:]
        self.cpu_s = (t1 - self._t0 - sum(self.probes)) / 1e9
        return False

    @property
    def norm_s(self):
        if not self.probes:
            return self.cpu_s
        return self.cpu_s * sum(REF_NS / p for p in self.probes) / len(
            self.probes)


class Speedometer:
    """Context manager that probes the machine every PERIOD_S CPU seconds."""

    def __init__(self):
        self.probes = []

    def _on_signal(self, signum, frame):
        self.probes.append(probe_ns())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def measure(self):
        return Block(self)
