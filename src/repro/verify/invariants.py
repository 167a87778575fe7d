"""Simulator conservation invariants, checked on real replayed runs.

Every check replays a small simulation with ``keep_raw=True`` and
asserts an accounting identity that must hold by construction:

* **Issue slots** — every SM's stall counts (``SmStats.stalls``) sum to
  exactly ``cycles * schedulers_per_sm``: no issue slot is lost or
  double-charged, including slept, fast-forwarded and extrapolated
  ones.
* **MSHRs** — every allocated MSHR is released (completed runs), or
  still accounted in the in-flight maps (truncated runs), and the used
  counters match the in-flight maps entry for entry.
* **Interconnect flits** — flits counted in equal the port-cycles
  reserved: each flit occupies exactly one cycle of one port timeline.
* **DRAM bursts** — bursts charged to the stats equal the data-bus
  cycles reserved, channel by channel.
* **Compressed caches** — no set ever exceeds its byte budget or tag
  count, and incremental occupancy accounting matches a re-sum
  (:meth:`~repro.memory.compressed_cache.CompressedCache.audit`).
* **Host link** (capacity mode only) — spill bursts charged to the
  host-link stats equal the host-bus cycles reserved, so every spilled
  access the hierarchy observed also paid for host bandwidth.

These identities connect independently-maintained counters, so a bug in
either side (or a code path that forgets to charge one) breaks them.

:func:`check_scenarios` extends the same replay/check loop to the
diversity scenarios: capacity-mode runs with a budget tight enough to
force real spill traffic, and prefetch/memoization scenario runs (exact
and interval-sampled) — proving the slot count still closes when assist
warps come from a scenario controller rather than the compression
subroutine library, and that extrapolated sampled slots stay accounted.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness.runner import clear_caches, run_app
from repro.memory.compressed_cache import CompressedCache
from repro.verify.report import CheckResult
from repro.workloads.tracegen import TraceScale

#: Apps spanning memory-bound (PVC), compute/memory mixed (MM) and
#: compute-bound (CONS) behaviour — same trio the golden-stats suite
#: replays.
DEFAULT_APPS: tuple[str, ...] = ("PVC", "MM", "CONS")

DEFAULT_ALGORITHMS: tuple[str, ...] = (
    "bdi", "fpc", "cpack", "bestofall",
)


def _check_run(
    label: str, result, config: GPUConfig
) -> list[CheckResult]:
    """All conservation checks for one keep_raw run."""
    raw = result.raw
    memory = raw.memory
    stats = raw.stats
    out: list[CheckResult] = []

    # 1. Issue-slot conservation (every slot counted exactly once).
    failure = ""
    expected = stats.cycles * config.schedulers_per_sm
    for sm_id, sm in enumerate(stats.sms):
        attributed = sum(sm.stalls)
        if attributed != expected:
            failure = (
                f"SM {sm_id}: {attributed} slots attributed, expected "
                f"{expected} (= {stats.cycles} cycles x "
                f"{config.schedulers_per_sm} schedulers)"
            )
            break
    out.append(CheckResult(
        name=f"invariant.slots.{label}", passed=not failure,
        checked=len(stats.sms), detail=failure,
    ))

    # 2. MSHR conservation.
    traffic = memory.stats
    inflight = sum(len(per_sm) for per_sm in memory._inflight)
    failure = ""
    if traffic.mshr_allocs != traffic.mshr_releases + inflight:
        failure = (
            f"{traffic.mshr_allocs} allocs != {traffic.mshr_releases} "
            f"releases + {inflight} in flight"
        )
    elif not raw.truncated and inflight:
        failure = f"completed run left {inflight} MSHRs in flight"
    else:
        for sm_id, per_sm in enumerate(memory._inflight):
            if memory._mshr_used[sm_id] != len(per_sm):
                failure = (
                    f"SM {sm_id}: used counter "
                    f"{memory._mshr_used[sm_id]} != "
                    f"{len(per_sm)} in-flight entries"
                )
                break
    out.append(CheckResult(
        name=f"invariant.mshr.{label}", passed=not failure,
        checked=traffic.mshr_allocs, detail=failure,
    ))

    # 3. Interconnect flit conservation (each flit = one port-cycle).
    xbar = memory.crossbar
    counted = xbar.request_flits + xbar.reply_flits
    reserved = sum(
        port.busy_time
        for port in xbar._request_ports + xbar._reply_ports
    )
    failure = ""
    if not math.isclose(counted, reserved, rel_tol=1e-9, abs_tol=1e-6):
        failure = (
            f"{counted} flits counted but {reserved} port-cycles reserved"
        )
    out.append(CheckResult(
        name=f"invariant.flits.{label}", passed=not failure,
        checked=counted, detail=failure,
    ))

    # 4. DRAM burst conservation, per channel.
    failure = ""
    bursts = 0
    for mc in memory.mcs:
        bursts += mc.stats.total_bursts
        charged = mc.stats.total_bursts * mc.burst_cycles
        if not math.isclose(charged, mc.bus.busy_time,
                            rel_tol=1e-9, abs_tol=1e-6):
            failure = (
                f"MC {mc.mc_id}: {mc.stats.total_bursts} bursts charge "
                f"{charged} bus cycles but {mc.bus.busy_time} reserved"
            )
            break
    out.append(CheckResult(
        name=f"invariant.dram.{label}", passed=not failure,
        checked=bursts, detail=failure,
    ))

    # 5. Compressed-cache budgets (only present under tag_mult > 1).
    compressed = [
        cache
        for cache in list(memory._l1s) + list(memory._l2_banks)
        if isinstance(cache, CompressedCache)
    ]
    problems = [p for cache in compressed for p in cache.audit()]
    out.append(CheckResult(
        name=f"invariant.cache.{label}",
        passed=not problems,
        checked=len(compressed),
        detail="; ".join(problems[:3]),
    ))

    # 6. Host-link burst conservation (capacity mode only): every spill
    #    burst charged to the stats reserved host-bus cycles.
    host = getattr(memory, "host", None)
    if host is not None:
        charged = host.stats.total_bursts * host.burst_cycles
        failure = ""
        if not math.isclose(charged, host.bus.busy_time,
                            rel_tol=1e-9, abs_tol=1e-6):
            failure = (
                f"{host.stats.total_bursts} host bursts charge {charged} "
                f"bus cycles but {host.bus.busy_time} reserved"
            )
        elif (host.stats.reads + host.stats.writes) == 0 \
                and host.stats.total_bursts:
            failure = (
                f"{host.stats.total_bursts} host bursts but no host "
                "accesses counted"
            )
        out.append(CheckResult(
            name=f"invariant.hostlink.{label}", passed=not failure,
            checked=host.stats.total_bursts, detail=failure,
        ))
    return out


def check_invariants(
    apps: Sequence[str] = DEFAULT_APPS,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    config: GPUConfig | None = None,
    scale: TraceScale | None = None,
) -> list[CheckResult]:
    """Replay ``apps x algorithms`` runs and check conservation.

    Each pair runs the CABA design for that algorithm; additionally one
    compressed-cache design (L2, 2x tags) runs per app so the cache
    budget invariant sees a populated :class:`CompressedCache`.
    """
    config = config or GPUConfig.small()
    scale = scale or TraceScale(work=0.25, waves=0.25)
    results: list[CheckResult] = []
    clear_caches()
    for app in apps:
        design_points = [
            designs.caba(algorithm) for algorithm in algorithms
        ]
        design_points.append(designs.caba_cache("l2", 2))
        for design in design_points:
            run = run_app(
                app, design, config=config, scale=scale,
                use_cache=False, keep_raw=True,
            )
            results.extend(
                _check_run(f"{app}.{design.name}", run, config)
            )
    return results


def check_scenarios(
    config: GPUConfig | None = None,
    scale: TraceScale | None = None,
    budget_fraction: float = 0.25,
) -> list[CheckResult]:
    """Conservation checks on capacity-mode and scenario runs.

    Replays, with ``keep_raw=True``:

    * capacity-mode PVC under the baseline and under CABA-BDI, with a
      device budget of ``budget_fraction`` of the footprint — tight
      enough that lines really spill *even compressed* and the host
      link carries traffic (a vacuity check asserts both), so the
      host-link burst identity is exercised for real on both the plain
      and the compressed-DRAM spill paths;
    * the prefetch and memoization scenarios with assist warps on,
      exact mode — the slot/MSHR/flit/DRAM identities must close when
      assist warps come from scenario controllers;
    * both scenarios again under interval sampling — extrapolated slots
      must stay counted, keeping the slot identity exact on sampled
      runs.
    """
    from repro.gpu.sampling import SampleConfig
    from repro.harness.runner import run_spec, scenario_spec
    from repro.memory.hostlink import CapacityConfig
    from repro.workloads import get_app
    from repro.workloads.tracegen import footprint_extents

    config = config or GPUConfig.small()
    scale = scale or TraceScale(work=0.25, waves=0.25)
    results: list[CheckResult] = []
    clear_caches()

    # -- Capacity mode: budget at a fraction of the footprint ----------
    extents = footprint_extents(get_app("PVC"), config, scale)
    total_lines = sum(lines for _, lines in extents)
    budget = max(
        config.line_size,
        int(total_lines * config.line_size * budget_fraction),
    )
    for design in (designs.base(), designs.caba("bdi")):
        run = run_app(
            "PVC", design, config=config, scale=scale,
            use_cache=False, keep_raw=True,
            capacity=CapacityConfig(device_bytes=budget),
        )
        label = f"capacity.PVC.{design.name}"
        results.extend(_check_run(label, run, config))
        cap = run.capacity or {}
        vacuous = (
            cap.get("spill_lines", 0) <= 0
            or cap.get("host_bursts", 0) <= 0
        )
        results.append(CheckResult(
            name=f"invariant.spill.{label}",
            passed=not vacuous,
            checked=cap.get("host_bursts", 0),
            detail=(
                f"budget {budget} B spilled {cap.get('spill_lines', 0)} "
                f"lines, {cap.get('host_bursts', 0)} host bursts"
                if vacuous else ""
            ),
        ))

    # -- Prefetch/memoization scenarios: exact and sampled -------------
    sample = SampleConfig(warmup=100, measure=300, skip=1200)
    for kind in ("prefetch", "memoization"):
        for mode, knob in (("exact", None), ("sampled", sample)):
            spec = scenario_spec(kind, config, sample=knob)
            run = run_spec(spec, use_cache=False, keep_raw=True)
            label = f"scenario.{kind}.{mode}"
            results.extend(_check_run(label, run, config))
            stats = run.scenario or {}
            active = (
                stats.get("prefetches_issued", 0) > 0
                if kind == "prefetch"
                else stats.get("lookups", 0) > 0
            )
            results.append(CheckResult(
                name=f"invariant.assist.{label}",
                passed=active,
                checked=stats.get(
                    "prefetches_issued", stats.get("lookups", 0)
                ),
                detail="" if active else (
                    f"assist controller idle in {kind} run: {stats}"
                ),
            ))
    return results
