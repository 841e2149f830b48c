"""Host-speed probe: scales host times to a fixed reference speed.

A shared host runs other tenants on the same cores.  While they are busy,
every instruction of ours takes longer, by up to 2x, in phases that last
from a fraction of a second to minutes.  The host exposes no hardware
counters, so host time is the only clock, and even the fastest of a run's
measurements cannot see past a slow phase that covers the whole run.

The probe times a fixed loop of interpreter work every ``INTERVAL_S`` of
wall time, from a ``SIGALRM`` handler, so its samples interleave with the
measured work and go through the same slow and fast phases.  A host time
is scaled by ``REFERENCE_S`` over the mean probe time around it: it then
reads what it would on a host where the probe loop takes ``REFERENCE_S``.
A change to the measured code moves the scaled time as it moves the host
time; a change in the host's load mostly does not.

The handler costs about 1% of the main thread.  Timers are not inherited
across ``fork``, so child processes (the serve daemon) are not probed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

#: Wall time between two probes.
INTERVAL_S = 0.01
#: Iterations of the probe loop.
LOOPS = 2000
#: Probe time of the reference speed: the probe's time on the quiet
#: 2-vCPU Xeon host the benchmark was tuned on, so that scaled times read
#: like host times there.
REFERENCE_S = 115e-6
#: A window shorter than this is widened around its middle, so a short
#: span (one serve job) still averages several probes.
MIN_SPAN_S = 0.1


class SpeedProbe:
    """Samples the host's speed from a wall-clock timer signal."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.seconds: List[float] = []

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._tick()
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, *_: object) -> None:
        begin = time.perf_counter()
        total = 0
        for index in range(LOOPS):
            total += index * index % 7
        self.times.append(begin)
        self.seconds.append(time.perf_counter() - begin)

    @property
    def started(self) -> float:
        return self.times[0]

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean probe time in [start, end]
        (``time.perf_counter`` values)."""
        half = max(end - start, MIN_SPAN_S) / 2.0
        middle = (start + end) / 2.0
        low = bisect.bisect_left(self.times, middle - half)
        high = bisect.bisect_right(self.times, middle + half)
        window = self.seconds[low:high] or self.seconds
        return REFERENCE_S / statistics.fmean(window)
