"""``repro.obs`` — reading where every issue slot went.

The paper argues from Fig. 1's issue-slot breakdown: which slots stall
on memory, and which idle slots assist warps can take. Every run counts
each SM issue slot under one of ten refined
:class:`~repro.gpu.stats.StallCat` categories (``SmStats.stalls``), and
every :class:`~repro.harness.runner.RunResult` carries those counts, so
a cached run explains itself as well as a fresh one. This package turns
them into artifacts: :mod:`repro.obs.export` writes the JSON/CSV files
and the CLI table of ``repro trace``, and
:class:`~repro.obs.chrome.ChromeTraceCollector` is the opt-in
``chrome://tracing`` timeline of the same slots plus assist-warp
lifetimes (``repro trace --chrome``), fed by the SMs and the CABA
controllers only when attached. The timeline never feeds back into
simulation and is never persisted.
"""

from __future__ import annotations

from repro.obs.chrome import ChromeTraceCollector

__all__ = ["ChromeTraceCollector"]
