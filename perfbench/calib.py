"""Calibration probe: wall times scaled to the machine's speed at the moment.

The benchmark runs on a few cores of a shared host, and the speed those
cores give Python code drifts by up to 1.5x, over seconds and over
minutes.  Process time tracks wall time through it, so the slowdown is in
the cores themselves, not in scheduling.  A fixed probe -- Fraction
arithmetic, tuples and a dict, the operations minrep spends its time in,
and no minrep code -- slows down with the program.  While a command runs
a timer fires every PERIOD_S and runs the probe once in the same thread;
the probe's mean time over the command gives the speed it ran at.

A calibrated time is the wall time, less the probes' own time, multiplied
by REF_S over the probes' mean time: the seconds the work would have
taken on a core that runs the probe in REF_S, an uncontended core of the
2-vCPU Xeon VM the benchmark was defined on.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
REF_S = 0.0027   # probe time on an uncontended core of the reference machine
ONCE_PROBES = 7


def _work() -> int:
    d = {}
    x = Fraction(1, 3)
    for i in range(400):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)
        d[(i % 97, i % 13)] = x.numerator % 1000003
        x = Fraction(x.numerator % 10 ** 12, x.denominator % 10 ** 12 + 1)
    return len(d)


def probe() -> float:
    """Seconds for one run of the probe."""
    t = time.perf_counter()
    _work()
    return time.perf_counter() - t


def calibrated_once(wall_s: float) -> float:
    """`wall_s`, just measured, in reference seconds, from probes run now.

    For work too short to sample, such as one interpreter's set-up.
    """
    return wall_s * REF_S / statistics.median(probe() for _ in range(ONCE_PROBES))


class Sampler:
    """Times the work done while active, sampling the probe as it goes.

    The probe runs once on entry, before the clock starts, and then every
    PERIOD_S of wall time; `work_s` is the wall time in between, less the
    probes' own time.
    """

    def __init__(self):
        self.probe_s = 0.0   # wall time spent in probes, handler included
        self.probes = 0
        self.work_s = 0.0

    def _fire(self, signum=None, frame=None):
        t = time.perf_counter()
        _work()
        self.probe_s += time.perf_counter() - t
        self.probes += 1

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        self._fire()
        self._first_s = self.probe_s
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._old)
        self.work_s = wall_s - (self.probe_s - self._first_s)
        return False

    def calibrated(self) -> float:
        """`work_s` in reference seconds."""
        return self.work_s * REF_S * self.probes / self.probe_s
