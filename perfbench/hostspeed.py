"""How fast the shared host is running while a region is timed.

The benchmark's host is a VM whose speed swings by tens of percent over
seconds as other tenants load the machine, and CPU time swings with it.
:class:`HostSpeed` times a fixed pure-Python kernel (a binary heap of
tuples, dict updates and float arithmetic, the operations the
simulator's hot loops are made of) in samples of equal length just
before a timed region, every :data:`INTERVAL_S` during it (from a
``SIGALRM`` handler, between two bytecodes of the region), and just after
it.  The mean time per kernel
round is the host's speed over the region; the parent scales the times
the region measured by a reference round time over it.

Sampling inside the region takes about 1.5% of its wall time; that time is
measured and subtracted from the region's wall and CPU time.  The
kernel touches only its own objects, so it cannot change a result.
"""

from __future__ import annotations

import heapq
import random
import signal
import time
from contextlib import contextmanager
from typing import List

#: Seconds between two samples inside a region.
INTERVAL_S = 0.1
#: Kernel rounds of one sample (about 1.5 ms).
ROUNDS = 3_000
#: Samples taken just before and just after a region.
SAMPLES_AROUND = 8


def kernel(rounds: int = ROUNDS) -> float:
    """Seconds per round of the fixed kernel, measured over ``rounds`` rounds.

    Set-up (the heap filled to its steady size) happens before the clock
    starts, so a sample's cost per round does not depend on its length.
    """
    rng = random.Random(7)
    draw = rng.random
    queue = [(draw(), -i) for i in range(64)]
    heapq.heapify(queue)
    bins: dict = {}
    total = 0.0
    pushpop = heapq.heappushpop
    start = time.perf_counter()
    for i in range(rounds):
        value, j = pushpop(queue, (draw(), i))
        bins[j & 255] = bins.get(j & 255, 0.0) + value
        total += value * 1.5
    return (time.perf_counter() - start) / rounds


class HostSpeed:
    """Kernel samples around and during one timed region."""

    def __init__(self) -> None:
        #: Seconds per kernel round, one entry per sample.
        self.round_s: List[float] = []
        #: Wall and CPU seconds the samples took inside the region.
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def sample(self) -> None:
        """Samples just before or just after the region."""
        self.round_s.extend(kernel() for _ in range(SAMPLES_AROUND))

    def _tick(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.round_s.append(kernel())
        self.spent_s += time.perf_counter() - wall0
        self.spent_cpu_s += time.process_time() - cpu0

    @contextmanager
    def during(self):
        """Sample every :data:`INTERVAL_S` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def mean_round_s(self) -> float:
        return sum(self.round_s) / len(self.round_s)
