"""Reservation timelines: the contention primitive of the memory model.

Every serial resource in the memory system (an interconnect port, a DRAM
data bus, an L2 tag pipeline) is modelled as a :class:`Timeline`:
requests reserve the resource and the timeline returns when service
actually starts. Queueing delay and utilization fall out of the
reservations without per-cycle simulation.

Reservations are *gap-filling*: a request reserving far in the future
(e.g. a DRAM access serialized behind a metadata fetch) does not block
the idle time before it for requests that arrive later but want earlier
service. Without this, rare latency events punch dead holes into shared
buses and throughput collapses artificially.

The free time is an open-ended *tail* (everything after the last
reservation) plus a short sorted list of closed *gaps* before it. A
reservation is first fit over the gaps, then the tail:

* one that starts at or after the tail start (most of them) is O(1): it
  leaves at most one new gap behind and moves the tail;
* one that would end after the last gap ends is O(1) too: no gap can
  hold it, so it takes the tail start;
* any other one bisects to the first gap not ending before it and scans
  forward; if no gap fits it takes the tail start.

The list is bounded: when the free intervals (gaps plus tail) grow past
:data:`MAX_FREE_INTERVALS`, the oldest gap is forgotten (treated as
busy) — old gaps are almost never reachable by later requests anyway.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

_INF = float("inf")
_END = itemgetter(1)

#: Upper bound on tracked free intervals per timeline, tail included.
#: Bounds the cost of a reservation; dropping the oldest gap only
#: forgoes backfill opportunities far in the past.
MAX_FREE_INTERVALS = 24


class Timeline:
    """A serially reusable resource with gap-filling reservations."""

    __slots__ = ("_gaps", "_tail", "busy_time")

    def __init__(self) -> None:
        # Sorted, disjoint closed free intervals, all ending before the
        # open tail [_tail, inf).
        self._gaps: list[tuple[float, float]] = []
        self._tail = 0.0
        self.busy_time = 0.0

    @property
    def free_intervals(self) -> list[tuple[float, float]]:
        """A copy of every free interval in order, the open tail last."""
        return [*self._gaps, (self._tail, _INF)]

    def reserve(self, at: float, duration: float) -> float:
        """Reserve ``duration`` units starting no earlier than ``at``;
        returns the actual service start time."""
        if duration <= 0:
            return max(at, 0.0)
        tail = self._tail
        if at >= tail:
            # No gap can hold it: every gap ends before the tail starts.
            if at > tail:
                gaps = self._gaps
                gaps.append((tail, at))
                if len(gaps) >= MAX_FREE_INTERVALS:
                    del gaps[0]
            self._tail = at + duration
            self.busy_time += duration
            return at
        gaps = self._gaps
        # A gap holds the request only if it ends at or after
        # ``at + duration`` (rounding is monotonic, so a later start
        # never ends earlier); gaps are sorted and disjoint, so their
        # ends are sorted too, and the last gap decides whether any can.
        if gaps and at + duration <= gaps[-1][1]:
            # First fit, starting at the first gap that does not end
            # before ``at``: an earlier gap cannot hold a positive
            # duration (even with rounding, ``at + duration >= at``).
            for index in range(bisect_left(gaps, at, key=_END), len(gaps)):
                start, end = gaps[index]
                begin = start if start > at else at
                stop = begin + duration
                if stop <= end:
                    self.busy_time += duration
                    if start < begin:
                        gaps[index] = (start, begin)
                        if stop < end:
                            gaps.insert(index + 1, (stop, end))
                            if len(gaps) >= MAX_FREE_INTERVALS:
                                del gaps[0]
                    elif stop < end:
                        gaps[index] = (stop, end)
                    else:
                        del gaps[index]
                    return begin
        self._tail = tail + duration
        self.busy_time += duration
        return tail

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time the resource was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
