"""A CPU-speed probe, for reporting CPU-bound figures at a reference speed.

On a shared host the same code runs up to twice as slow for seconds to
minutes at a time (co-tenants on the sibling hyperthreads).  Each
process of the benchmark therefore times a fixed SHA-256 chain, a few
tenths of a millisecond of work, every :data:`PERIOD_S` seconds (or
between in-process rounds).  A probe that took :data:`REFERENCE_S`
means the CPU ran at reference speed; the median probe over a stretch
of time divided by ``REFERENCE_S`` is that stretch's slowdown factor.
CPU-bound figures are reported at reference speed (times divided by the
factor, rates multiplied by it), and their raw values are kept in the
run's record.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
import time
from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

PROBE_LINKS = 300
#: probe duration at reference CPU speed: a typical state of the 2-vCPU
#: Xeon VM the benchmark was tuned on (its fastest state is ~1.3e-4)
REFERENCE_S = 2.0e-4
PERIOD_S = 0.05
#: probes averaged into the rate of the reference clock
SMOOTHING = 5
#: probes taken on each side of a stretch of work timed as a whole
BRACKET_PROBES = 3


def probe() -> float:
    """Seconds one fixed SHA-256 chain takes on this CPU right now."""
    digest = b"perfbench"
    started = time.perf_counter()
    for __ in range(PROBE_LINKS):
        digest = hashlib.sha256(digest).digest()
    return time.perf_counter() - started


def bracket() -> List[float]:
    """Probes for one side of a stretch of work timed as a whole."""
    return [probe() for __ in range(BRACKET_PROBES)]


def slowdown(probes: Sequence[float]) -> float:
    """Median probe time against reference speed: 1.0 is reference.

    The median, because a probe that lands on a CPU waking from idle, or
    is interrupted, reads slow while the work around it did not.
    """
    return statistics.median(probes) / REFERENCE_S


class SpeedLog:
    """Probe samples ``(time, seconds)`` of this process's CPU.

    It also keeps a *reference clock*: time as a CPU at reference speed
    would have counted it, advancing at ``1 / slowdown`` of wall time,
    the slowdown being that of the last SMOOTHING probes and holding
    until the next probe.  Readings never change once taken, so a time
    read live and the same time read after the run agree.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._times: List[float] = []
        self._reference: List[float] = []
        self._rates: List[float] = []

    def sample(self) -> float:
        seconds = probe()
        now = time.perf_counter()
        self._reference.append(self.reference(now) if self._times else 0.0)
        self._times.append(now)
        self.samples.append((now, seconds))
        self._rates.append(1.0 / slowdown(
            [recent for __, recent in self.samples[-SMOOTHING:]]))
        return seconds

    def reference(self, at: float) -> float:
        """Reference-clock reading at ``perf_counter()`` time ``at``."""
        if not self._times:
            self.sample()
        index = max(0, bisect_right(self._times, at) - 1)
        return (self._reference[index]
                + (at - self._times[index]) * self._rates[index])

    def current_slowdown(self) -> float:
        if not self._rates:
            self.sample()
        return 1.0 / self._rates[-1]

    def factor(self, start: float, end: Optional[float] = None) -> float:
        """Slowdown against reference speed over ``[start, end]``."""
        end = time.perf_counter() if end is None else end
        window = [seconds for at, seconds in self.samples
                  if start <= at <= end]
        return slowdown(window or [self.sample()])

    async def run(self) -> None:
        """Probe every PERIOD_S seconds until cancelled."""
        while True:
            self.sample()
            await asyncio.sleep(PERIOD_S)
