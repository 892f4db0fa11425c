"""Machine-speed probe, and times scaled to a reference speed.

The shared host this benchmark was tuned on (2 vCPUs) ran the same code
about 1.6 times slower for stretches of seconds to minutes, and CPU time
rose with wall time, so the slowdown does not come from waiting.  Raw
medians of two runs a few minutes apart differed by more than any useful
regression bound.  So between timed intervals the benchmark times a
fixed probe that shares no code with rqet, for at least PROBE_SHARE of
the elapsed time.  Each interval is reported at the speed where the
probe takes PROBE_REF_S: its wall time times PROBE_REF_S over the probe
time during it, taken as the mean of the median probe just before and
the median probe just after it.  (The host switched between a fast and
a slow mode; the mean follows an interval that spans a switch better
than either side alone.)  The report keeps the raw times next to the
scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

PROBE_REF_S = 0.010
PROBE_SHARE = 0.05
PROBES_PER_GAP = 2


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy ops."""
    import numpy as np

    t0 = perf_counter()
    a = np.ones(16)
    s = 0.0
    for _ in range(2000):
        b = a * 1.0001 + 0.5
        s += float(b[3])
        a = b - 0.5
    x = 0
    for i in range(80000):
        x += i * i
    return perf_counter() - t0


class SpeedProbe:
    """Probe gaps around a sequence of timed intervals; gaps[i] precedes interval i."""

    def __init__(self) -> None:
        self.start = perf_counter()
        self.probe_s = 0.0
        self.gaps: list[list[float]] = []
        self.gap()

    def gap(self) -> None:
        """Probe after an interval: PROBES_PER_GAP times, then until the share is met."""
        taken = []
        while len(taken) < PROBES_PER_GAP or self.probe_s < PROBE_SHARE * (perf_counter() - self.start):
            taken.append(probe())
            self.probe_s += taken[-1]
        self.gaps.append(taken)

    def scaled(self, times: list[float]) -> list[float]:
        """Interval i at reference speed, from the gaps on either side of it."""
        during = [(statistics.median(self.gaps[i]) + statistics.median(self.gaps[i + 1])) / 2
                  for i in range(len(times))]
        return [t * PROBE_REF_S / p for t, p in zip(times, during)]

    def factor(self) -> float:
        """Reference over the median of every probe taken."""
        return PROBE_REF_S / statistics.median(p for gap in self.gaps for p in gap)
