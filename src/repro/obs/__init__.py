"""``repro.obs`` — the zero-cost-when-disabled observability layer.

The paper's argument rests on knowing where cycles go (Figs. 1, 2,
7-13); this package makes that auditable. One :class:`RunObservation`
per traced run bundles

* a :class:`~repro.obs.ledger.StallLedger` charging every SM issue slot
  to exactly one refined stall category and one responsible warp,
* a :class:`~repro.obs.registry.MetricsRegistry` of named counters and
  histograms fed by the memory hierarchy, DRAM channels, interconnect
  and CABA controllers, and
* optionally a :class:`~repro.obs.chrome.ChromeTraceCollector` sampling
  warp/assist-warp timelines for ``chrome://tracing``.

Tracing is off by default and gated behind ``REPRO_TRACE=1`` (or the
``trace=True`` runner argument / ``repro trace`` CLI subcommand). With
tracing off the instrumented components pay only a handful of ``is not
None`` checks, a cost included in every untraced (``--trace 0``)
metric of ``perfbench/run.py``. Observation never
feeds back into simulation, so traced and untraced runs produce
bit-identical statistics (enforced by ``tests/obs``).
"""

from __future__ import annotations

import os

from repro.obs.chrome import ChromeTraceCollector
from repro.obs.ledger import (
    ASSIST_WARP,
    CAT_LABELS,
    NO_WARP,
    SLOT_OF_CAT,
    StallCat,
    StallLedger,
)
from repro.obs.registry import MetricsRegistry

__all__ = [
    "ASSIST_WARP",
    "CAT_LABELS",
    "ChromeTraceCollector",
    "MetricsRegistry",
    "NO_WARP",
    "RunObservation",
    "SLOT_OF_CAT",
    "StallCat",
    "StallLedger",
    "trace_enabled",
]


def trace_enabled() -> bool:
    """Whether ``REPRO_TRACE`` asks for the observability layer."""
    return os.environ.get("REPRO_TRACE", "0") not in ("", "0")


class RunObservation:
    """Everything observed about one traced simulation run.

    Components hold a reference and call the ``record_*`` hooks; the
    simulator calls :meth:`finalize` once at end of run to snapshot the
    aggregate counters and close the chrome timelines.
    """

    def __init__(self, n_sms: int, n_schedulers: int,
                 chrome: bool = False,
                 max_chrome_events: int = 200_000) -> None:
        self.ledger = StallLedger(n_sms, n_schedulers)
        self.registry = MetricsRegistry()
        self.chrome = (
            ChromeTraceCollector(max_events=max_chrome_events)
            if chrome else None
        )
        self.ledger.chrome = self.chrome

    @classmethod
    def for_config(cls, config, chrome: bool = False) -> "RunObservation":
        return cls(config.n_sms, config.schedulers_per_sm, chrome=chrome)

    # ------------------------------------------------------------------
    # Component hooks (only reached when tracing is enabled)
    # ------------------------------------------------------------------
    def record_fill(self, fill, now: float) -> None:
        """One L1 load lookup resolved (hit or freshly issued miss)."""
        reg = self.registry
        reg.histogram("mem.fill_latency").record(
            int(fill.ready_time - now)
        )
        source = ("l1", "l2", "dram")[fill.source]
        reg.counter(f"mem.fills_{source}").inc()
        if fill.needs_assist:
            reg.counter("mem.fills_need_assist").inc()

    def record_dram(self, mc_id: int, bursts: int, is_write: bool,
                    queue_cycles: float) -> None:
        """One DRAM line transfer scheduled on channel ``mc_id``."""
        reg = self.registry
        reg.histogram("dram.queue_cycles").record(int(queue_cycles))
        reg.histogram("dram.bursts_per_access").record(bursts)

    def record_icnt_reply(self, mc_id: int, flits: int,
                          queue_cycles: float) -> None:
        """One crossbar reply reserved (the contended direction)."""
        reg = self.registry
        reg.histogram("icnt.reply_flits").record(flits)
        reg.histogram("icnt.reply_queue_cycles").record(int(queue_cycles))

    def assist_event(self, sm_id: int, task: str, line: int, start: int,
                     end: int, completed: bool) -> None:
        """One assist warp retired (or was cancelled)."""
        self.registry.histogram("caba.assist_lifetime").record(
            max(0, end - start)
        )
        if self.chrome is not None:
            self.chrome.assist_event(sm_id, task, line, start, end,
                                     completed)

    # ------------------------------------------------------------------
    def finalize(self, stats, memory, sms) -> None:
        """Snapshot end-of-run aggregates into the registry."""
        reg = self.registry
        reg.set_counters("slots", {
            slot.name.lower(): count
            for slot, count in stats.slot_totals().items()
        })
        reg.set_counters("sim", stats.counters())
        reg.counter("sim.cycles").set(stats.cycles)
        reg.set_counters("traffic", vars(memory.stats))
        dram = {"reads": 0, "writes": 0, "read_bursts": 0,
                "write_bursts": 0, "metadata_bursts": 0,
                "row_hits": 0, "row_misses": 0}
        for mc in memory.mcs:
            for key in dram:
                dram[key] += getattr(mc.stats, key)
        reg.set_counters("dram", dram)
        reg.set_counters("icnt", {
            "request_flits": memory.crossbar.request_flits,
            "reply_flits": memory.crossbar.reply_flits,
        })
        caba_totals: dict[str, int] = {}
        for sm in sms:
            if sm.caba is None or not hasattr(sm.caba, "stats"):
                continue
            for key, value in vars(sm.caba.stats).items():
                caba_totals[key] = caba_totals.get(key, 0) + value
        if caba_totals:
            reg.set_counters("caba", caba_totals)
        if self.chrome is not None:
            self.chrome.flush()

    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Deterministic JSON-ready payload (rides on ``RunResult.obs``)."""
        payload = {
            "ledger": self.ledger.export(),
            "metrics": self.registry.export(),
        }
        if self.chrome is not None:
            payload["chrome"] = self.chrome.export()
        return payload
