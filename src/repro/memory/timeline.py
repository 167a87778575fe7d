"""Reservation timelines: the contention primitive of the memory model.

Every serial resource in the memory system (an interconnect port, a DRAM
data bus, an L2 tag pipeline) is modelled as a :class:`Timeline`:
requests reserve the resource and the timeline returns when service
actually starts. Queueing delay and utilization fall out of the
reservations without per-cycle simulation.

Reservations are *gap-filling*: the timeline keeps a short list of free
intervals, so a request reserving far in the future (e.g. a DRAM access
serialized behind a metadata fetch) does not block the idle time before
it for requests that arrive later but want earlier service. Without
this, rare latency events punch dead holes into shared buses and
throughput collapses artificially. The list is bounded: when it grows
past :data:`MAX_FREE_INTERVALS`, the oldest gap is forgotten (treated as
busy) — old gaps are almost never reachable by later requests anyway.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

_INF = float("inf")
_END = itemgetter(1)

#: Upper bound on tracked free intervals per timeline. Bounds the cost
#: of a reservation; dropping the oldest gap only forgoes backfill
#: opportunities far in the past.
MAX_FREE_INTERVALS = 24


class Timeline:
    """A serially reusable resource with gap-filling reservations."""

    __slots__ = ("_free", "busy_time")

    def __init__(self) -> None:
        # Sorted, disjoint free intervals; the last one is open-ended.
        self._free: list[tuple[float, float]] = [(0.0, _INF)]
        self.busy_time = 0.0

    def reserve(self, at: float, duration: float) -> float:
        """Reserve ``duration`` units starting no earlier than ``at``;
        returns the actual service start time."""
        if duration <= 0:
            return max(at, 0.0)
        free = self._free
        # First fit, starting at the first gap that does not end before
        # ``at``: an earlier gap cannot hold a positive duration (even
        # with rounding, ``at + duration >= at``). Gaps are sorted and
        # disjoint, so their ends are sorted too.
        first = bisect_left(free, at, 0, len(free) - 1, key=_END)
        for index in range(first, len(free)):
            start, end = free[index]
            begin = start if start > at else at
            if begin + duration <= end:
                self.busy_time += duration
                replacement = []
                if start < begin:
                    replacement.append((start, begin))
                if begin + duration < end:
                    replacement.append((begin + duration, end))
                free[index : index + 1] = replacement
                if len(free) > MAX_FREE_INTERVALS:
                    del free[0]
                return begin
        raise AssertionError("open-ended timeline should always fit")

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time the resource was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
