"""Scale host seconds to a reference speed of the shared host.

On a host shared with other tenants the same pure-Python work runs up to
half again as slow in phases lasting from seconds to minutes. A fixed
reference loop, timed right before and right after each timed section,
measures the host's current speed; the section's host seconds are scaled by
REFERENCE_SECONDS over the mean of those two timings. The loop is part of the
benchmark, never of the program, so a change to snnkit cannot move it.
"""

import statistics
from fractions import Fraction
from heapq import heappop, heappush
from time import perf_counter as clock

# The reference loop's time on an idle 2-core Intel Xeon (Python 3.11).
REFERENCE_SECONDS = 0.02


def reference_work() -> int:
    """Dict, set, heap, integer and Fraction work, like an event-driven step."""
    slots: dict[int, dict[int, int]] = {}
    heap: list[tuple[int, int]] = []
    active: set[int] = set()
    acc = 0
    f = Fraction(0)
    for i in range(1, 36_000):
        k = (i * 7919) % 997
        slot = slots.setdefault(k % 31, {})
        slot[k] = slot.get(k, 0) + (i & 7) - 3
        active.add(k)
        if i % 5 == 0:
            heappush(heap, ((i * 31) % 1009, k))
        if i % 7 == 0 and heap:
            acc += heappop(heap)[1]
        if i % 50 == 0:
            f = f / 2 + Fraction(k, 1 + i % 13)
            slots.pop(k % 31, None)
            active.discard(k)
    return acc + len(active) + f.denominator.bit_length()


def time_reference() -> float:
    start = clock()
    reference_work()
    return clock() - start


class SpeedGauge:
    def __init__(self):
        self.timings = [time_reference()]

    def scale(self, seconds: float) -> float:
        """Reference seconds for a section that just took `seconds` on the host."""
        self.timings.append(time_reference())
        return seconds * REFERENCE_SECONDS * 2 / (self.timings[-2] + self.timings[-1])

    def speed(self) -> float:
        """Host speed relative to the reference, from the median timing."""
        return REFERENCE_SECONDS / statistics.median(self.timings)
