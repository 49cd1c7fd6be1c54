"""Machine-speed probe, sampled during a timed run to rescale its wall time.

On a shared machine the speed of one CPU drifts by up to 2x within tens of
seconds, and the other tenants set that drift, not the program.  A fixed
piece of pure-Python work (``probe``: exact fractions, tuple-keyed dict
stores, small allocations, like the program's own inner loops) is timed
every PERIOD_S seconds from a SIGALRM handler in the same process, so it
runs on the same CPU as the workload and within a fraction of a second of
it.  Each stretch of workload time between two probes is rescaled by
REFERENCE_PROBE_S over the probe time around it: the result is the time the
work would take on a machine where one probe takes REFERENCE_PROBE_S, with
the probes' own time left out.  Set-up, too short to sample, is rescaled by
the median of SETUP_PROBES probes taken right after it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.25
SETUP_PROBES = 3
# the probe time the rescaled seconds refer to: about the fastest probe time
# seen on a 2-CPU Xeon container, so rescaled times read close to the wall
# times of a quiet machine
REFERENCE_PROBE_S = 0.003


def probe() -> float:
    """Seconds one fixed piece of work takes now."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 600):
        f = Fraction(i, i + 7)
        acc += f * f
        table[(i % 31, i % 17)] = acc
    return time.perf_counter() - start


def speed_factor() -> float:
    """REFERENCE_PROBE_S over the median of SETUP_PROBES probes taken now."""
    return REFERENCE_PROBE_S / statistics.median(probe() for _ in range(SETUP_PROBES))


class Sampler:
    """Probe times at the start, every PERIOD_S while running, and at the end."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each probe
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append((start, start + probe()))
        self._busy = False

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def slowdown(self) -> float:
        """Mean probe time over REFERENCE_PROBE_S: 2.0 means half speed."""
        times = [end - start for start, end in self.samples]
        return sum(times) / len(times) / REFERENCE_PROBE_S

    def rescaled(self, t0: float, t1: float) -> float:
        """Work time inside [t0, t1] at the reference speed, probes excluded.

        The speed of the stretch between probes i and i+1 is taken from the
        median of probes i-2 .. i+3, so one probe slowed by an interrupt
        does not skew it."""
        times = [end - start for start, end in self.samples]
        total = 0.0
        for i in range(len(self.samples) - 1):
            gap = min(self.samples[i + 1][0], t1) - max(self.samples[i][1], t0)
            if gap > 0:
                local = statistics.median(times[max(0, i - 2) : i + 4])
                total += gap * REFERENCE_PROBE_S / local
        return total
