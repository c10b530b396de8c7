"""Machine-speed normalisation: why the bounded times here repeat.

The sandbox this benchmark is accepted on flips between two CPU speed
states about 1.3x apart and stays in one for seconds to tens of seconds
(probed: the same pure-Python loop takes 8.2 ms or 10.4 ms, in CPU time
as much as in wall time; whole ``order_join`` passes run at 40 or at
52 stmt/s). A 12 s run catches an arbitrary mix of the two, so plain
wall-clock medians of ten runs on unchanged code spread by 0.07-0.23 of
their median (perf/README.md has the table) - wider than any bound the
benchmark may declare, let alone the differences it has to resolve.
Planning, execution and a plain interpreter loop slow down by the
*same* factor, so the harness interleaves a fixed probe kernel with the
statements and divides every measured interval by the speed factor of
the probes around it. The plain wall-clock values are reported beside
the normalised ones on every run.

The factor is ``probe CPU time / NOMINAL_S``; CPU time (not wall) so a
probe that loses the GIL or the core mid-way is not misread as a slow
machine. On a machine that runs the kernel in ``NOMINAL_S`` the
reported times are plain wall-clock times; elsewhere they are times
*at that reference speed*. Both sides of any comparison run the same
probe, so ratios between commits do not depend on the constant.
"""

from __future__ import annotations

import bisect
import time
from typing import List

# CPU seconds of one ``_kernel()`` in this sandbox's fast state.
NOMINAL_S = 0.0008
# A client probes again once this much time has passed since its last
# probe: far below the seconds-long speed states, under 2 % overhead.
PROBE_SPACING_S = 0.05


def _kernel() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class SpeedClock:
    """Probe samples of one thread and the integral over them."""

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._factors: List[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        _kernel()
        cpu = time.thread_time() - cpu
        self._starts.append(start)
        self._factors.append(cpu / NOMINAL_S)
        self._ends.append(time.perf_counter())

    def due(self, now: float) -> bool:
        return not self._ends or now - self._ends[-1] >= PROBE_SPACING_S

    def _gap_factor(self, gap: int) -> float:
        """Speed factor of the stretch before probe ``gap`` (gap ``n``
        is the stretch after the last probe): the mean of its
        neighbours."""
        factors = self._factors
        if gap == 0:
            return factors[0]
        if gap == len(factors):
            return factors[-1]
        return (factors[gap - 1] + factors[gap]) / 2.0

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` spent outside probes, at
        reference speed."""
        if not self._factors:
            return end - start
        total = 0.0
        gap = bisect.bisect_right(self._ends, start)
        cursor = start
        while cursor < end:
            # Gap ``gap`` runs from probe gap-1's end to probe gap's start.
            if gap < len(self._starts):
                stop = min(end, self._starts[gap])
            else:
                stop = end
            if stop > cursor:
                total += (stop - cursor) / self._gap_factor(gap)
            if gap >= len(self._starts):
                break
            cursor = max(cursor, self._ends[gap])
            gap += 1
        return total
