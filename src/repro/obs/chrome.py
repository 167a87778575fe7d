"""Chrome trace_event emitter for visual timeline inspection.

Produces the JSON object format understood by ``chrome://tracing`` /
Perfetto: one process per SM, one thread row per scheduler holding the
run-length-encoded stall-category timeline, plus one extra row per SM
for assist-warp lifetimes. Timestamps are simulated cycles (rendered as
microseconds by the viewer, which only affects axis labels).

The collector samples rather than archives: once ``max_events`` events
have been emitted it stops recording and counts the drops, so tracing a
long run cannot exhaust memory. Event emission is deterministic — the
SMs feed slots in simulation order and the trailing open segments are
flushed in (sm, scheduler) order.
"""

from __future__ import annotations

from repro.gpu.stats import StallCat

#: Synthetic thread row (per SM) carrying assist-warp lifetime events.
ASSIST_TID = 255

_CAT_NAMES = [cat.name.lower() for cat in StallCat]


class ChromeTraceCollector:
    """Accumulates trace_event dicts; export with :meth:`export`."""

    def __init__(self, max_events: int = 200_000) -> None:
        self.max_events = max_events
        self.events: list[dict] = []
        self.dropped = 0
        # Per (sm, sched): [clock, segment_start, segment_cat].
        self._lanes: dict[tuple[int, int], list[int]] = {}

    # ------------------------------------------------------------------
    def _emit(self, event: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def note_slot(self, sm: int, sched: int, cat: int, n: int) -> None:
        """Advance scheduler ``sched``'s timeline by ``n`` cycles of
        category ``cat`` (called by the SM as it counts them)."""
        lane = self._lanes.get((sm, sched))
        if lane is None:
            self._lanes[(sm, sched)] = [n, 0, cat]
            return
        if cat == lane[2]:
            lane[0] += n
            return
        self._close(sm, sched, lane)
        lane[1] = lane[0]
        lane[0] += n
        lane[2] = cat

    def _close(self, sm: int, sched: int, lane: list[int]) -> None:
        duration = lane[0] - lane[1]
        if duration <= 0:
            return
        self._emit({
            "name": _CAT_NAMES[lane[2]],
            "cat": "slots",
            "ph": "X",
            "pid": sm,
            "tid": sched,
            "ts": lane[1],
            "dur": duration,
        })

    def assist_event(self, sm: int, task: str, line: int, start: int,
                     end: int, completed: bool) -> None:
        """One assist warp's lifetime, from trigger to retire/cancel."""
        self._emit({
            "name": f"{task}:{line}" if completed else f"{task}:{line} (cancelled)",
            "cat": "assist",
            "ph": "X",
            "pid": sm,
            "tid": ASSIST_TID,
            "ts": start,
            "dur": max(1, end - start),
        })

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Close all open slot segments (call once, at end of run)."""
        for (sm, sched) in sorted(self._lanes):
            self._close(sm, sched, self._lanes[(sm, sched)])
        self._lanes.clear()

    def export(self) -> dict:
        """JSON-ready trace_event object-format payload."""
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "metadata": {"clock": "simulated-cycles",
                         "dropped_events": self.dropped},
        }
