"""``repro.obs`` — the stall ledger: where every issue slot went.

The paper argues from Fig. 1's issue-slot breakdown: which slots stall
on memory, and which idle slots assist warps can take. A traced run
carries a :class:`~repro.obs.ledger.StallLedger` that charges every SM
issue slot to exactly one refined stall category and one responsible
warp, and reconciles bit-exactly with ``SmStats.slots``
(``repro.verify.invariants``). The ledger optionally holds a
:class:`~repro.obs.chrome.ChromeTraceCollector`, a ``chrome://tracing``
timeline of the same slots plus assist-warp lifetimes.

Tracing is off by default and turned on by ``REPRO_TRACE`` (an on/off
knob, :mod:`repro.knobs`), the ``trace=True`` runner argument, or the
``repro trace`` subcommand. With tracing off the SMs and the CABA
controller pay only a handful of ``is not None`` checks, a cost
included in every untraced (``--trace 0``) metric of
``perfbench/run.py``; the memory hierarchy does not know tracing
exists. Observation never feeds back into simulation, so traced and
untraced runs produce bit-identical statistics (enforced by
``tests/obs``).
"""

from __future__ import annotations

from repro.knobs import env_flag
from repro.obs.chrome import ChromeTraceCollector
from repro.obs.ledger import (
    ASSIST_WARP,
    CAT_LABELS,
    NO_WARP,
    SLOT_OF_CAT,
    StallCat,
    StallLedger,
)

__all__ = [
    "ASSIST_WARP",
    "CAT_LABELS",
    "ChromeTraceCollector",
    "NO_WARP",
    "SLOT_OF_CAT",
    "StallCat",
    "StallLedger",
    "trace_enabled",
]


def trace_enabled() -> bool:
    """Whether ``REPRO_TRACE`` asks for the stall ledger."""
    return env_flag("REPRO_TRACE")
