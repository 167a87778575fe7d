"""SoA-vs-reference simulator differential (``repro check``).

``REPRO_SOA`` selects between the screened issue path
(:mod:`repro.gpu.soa`) and the reference issue scan. The two are
contractually byte-identical; this pass replays small traced runs in
both modes and compares everything the paper's figures are built
from — the full stats object (per-SM slot counters included), memory
traffic, and the stall ledger's per-(category, warp) charges.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Sequence

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness.runner import clear_caches, run_app
from repro.verify.report import CheckResult
from repro.workloads.tracegen import TraceScale

#: Memory-bound + compute-leaning pair; the modes diverge (if they ever
#: do) in the issue scan, which these two stress from opposite sides.
DEFAULT_APPS: tuple[str, ...] = ("PVC", "MM")


@contextmanager
def _soa_mode(flag: str):
    prior = os.environ.get("REPRO_SOA")
    os.environ["REPRO_SOA"] = flag
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop("REPRO_SOA", None)
        else:
            os.environ["REPRO_SOA"] = prior


def _fingerprint(run) -> tuple:
    raw = run.raw
    return (
        repr(raw.stats),
        "".join(repr(sm.__dict__) for sm in raw.stats.sms),
        raw.memory.stats.dram_reads,
        raw.memory.stats.dram_writes,
        raw.obs.export() if raw.obs is not None else None,
    )


def soa_differential(
    apps: Sequence[str] = DEFAULT_APPS,
    algorithm: str = "bdi",
    config: GPUConfig | None = None,
    scale: TraceScale | None = None,
) -> list[CheckResult]:
    """Replay each app in both ``REPRO_SOA`` modes and diff the runs."""
    config = config or GPUConfig.small()
    scale = scale or TraceScale(work=0.25, waves=0.25)
    results: list[CheckResult] = []
    for app in apps:
        design = designs.caba(algorithm)
        prints = {}
        for flag in ("0", "1"):
            with _soa_mode(flag):
                clear_caches()
                run = run_app(
                    app, design, config=config, scale=scale,
                    use_cache=False, keep_raw=True, trace=True,
                )
            prints[flag] = _fingerprint(run)
        reference, vectorized = prints["0"], prints["1"]
        failure = ""
        if vectorized != reference:
            parts = ("stats", "sm_stats", "dram_reads", "dram_writes",
                     "obs")
            diverged = [
                part for part, r, v in
                zip(parts, reference, vectorized) if r != v
            ]
            failure = f"modes diverge in: {', '.join(diverged)}"
        results.append(CheckResult(
            name=f"soa.differential.{app}.{design.name}",
            passed=not failure,
            checked=1,
            detail=failure,
        ))
    return results
