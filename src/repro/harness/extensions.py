"""Section 7 extension studies (memoization, prefetching), capacity
mode, and ablations.

These exercise the CABA framework beyond the bandwidth-compression case
study:

* :func:`memoization_study` — a redundancy-parameterized compute-bound
  kernel where assist warps hash inputs, probe a shared-memory LUT and
  let parents skip redundant regions (Section 7.1).
* :func:`prefetch_study` — a latency-bound streaming kernel where
  assist warps run a per-warp stride prefetcher in idle memory-pipeline
  slots (Section 7.2).
* :func:`capacity_study` — compression for memory *capacity* (after
  Buddy Compression): stored footprints placed against a device budget,
  spilled lines charged host-link transfers.
* :func:`ablation_study` — design-choice sweeps for the compression
  mechanism: throttling, store-buffer capacity, the low-priority AWB
  partition, and decompression priority.

The scenario studies run through the same RunSpec engine as every
figure (parallel dispatch, persistent caching, sampling, stall counts); the
kernel builders themselves live in :mod:`repro.harness.scenarios`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro import design as designs
from repro.core.params import CabaParams
from repro.gpu.config import GPUConfig
from repro.harness.figures import ALGORITHM_ORDER, FigureResult, run_figure
from repro.harness.runner import RunSpec, geomean, scenario_spec
from repro.memory.hostlink import CapacityConfig
from repro.workloads.tracegen import TraceScale


# ----------------------------------------------------------------------
# Memoization (Section 7.1)
# ----------------------------------------------------------------------
def memoization_study(
    config: GPUConfig | None = None,
    redundancies: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.95),
    region_len: int = 8,
) -> FigureResult:
    """Cycle-time speedup from memoization vs. input redundancy."""
    config = config if config is not None else GPUConfig.small()
    specs = [
        scenario_spec("memoization", config, assist=False,
                      region_len=region_len)
    ]
    specs += [
        scenario_spec("memoization", config, redundancy=redundancy,
                      region_len=region_len)
        for redundancy in redundancies
    ]
    result = FigureResult(
        figure="memo",
        title="Memoization with assist warps (Section 7.1)",
        columns=["redundancy", "speedup", "lut_hit_rate", "skipped_instrs"],
    )
    base, *assisted = run_figure(result, specs)
    for redundancy, run in zip(redundancies, assisted):
        result.rows.append({
            "redundancy": redundancy,
            "speedup": base.cycles / run.cycles if run.cycles else 0.0,
            "lut_hit_rate": run.scenario["lut_hit_rate"],
            "skipped_instrs": run.scenario["skipped_instrs"],
        })
    result.summary["max_speedup"] = max(r["speedup"] for r in result.rows)
    result.notes = (
        "Paper (qualitative): memoization trades computation for storage; "
        "benefit grows with input redundancy in compute-bound kernels."
    )
    return result


# ----------------------------------------------------------------------
# Prefetching (Section 7.2)
# ----------------------------------------------------------------------
def prefetch_study(
    config: GPUConfig | None = None,
    distances: Sequence[int] = (1, 2, 4),
) -> FigureResult:
    """Speedup from assist-warp stride prefetching on a latency-bound
    stream, sweeping the prefetch distance."""
    config = config if config is not None else GPUConfig.small()
    specs = [scenario_spec("prefetch", config, assist=False)]
    specs += [
        scenario_spec("prefetch", config, distance=distance)
        for distance in distances
    ]
    result = FigureResult(
        figure="prefetch",
        title="Stride prefetching with assist warps (Section 7.2)",
        columns=["distance", "speedup", "prefetches", "l1_hit_gain"],
    )
    base, *assisted = run_figure(result, specs)
    base_hits = base.scenario["l1_load_hits"]
    for distance, run in zip(distances, assisted):
        result.rows.append({
            "distance": distance,
            "speedup": base.cycles / run.cycles if run.cycles else 0.0,
            "prefetches": run.scenario["prefetches_issued"],
            "l1_hit_gain": run.scenario["l1_load_hits"] - base_hits,
        })
    result.summary["max_speedup"] = max(r["speedup"] for r in result.rows)
    result.notes = (
        "Paper (qualitative): assist warps enable fine-grained stride "
        "prefetching with throttling in idle memory-pipeline slots."
    )
    return result


# ----------------------------------------------------------------------
# Capacity-mode compression (Buddy Compression regime)
# ----------------------------------------------------------------------
def capacity_study(
    config: GPUConfig | None = None,
    apps: Sequence[str] = ("PVC", "MM", "ATTN", "ST3D"),
    algorithms: Sequence[str] | None = None,
    budget_fraction: float = 0.5,
    scale: TraceScale | None = None,
) -> FigureResult:
    """Effective capacity and spill traffic per algorithm under a
    device-memory budget.

    The budget is ``budget_fraction`` of each app's *uncompressed*
    footprint, so every app is equally capacity-pressured: without
    compression roughly half the lines spill to the host link, and each
    algorithm is judged by how much of that spill its compression
    avoids (plus the slowdown the residual host traffic costs).
    """
    from repro.workloads.tracegen import footprint_extents
    from repro.workloads.apps import get_app

    config = config if config is not None else GPUConfig.small()
    algorithms = (
        tuple(algorithms) if algorithms is not None else ALGORITHM_ORDER
    )
    scale = scale if scale is not None else TraceScale()

    budgets = {}
    for app in apps:
        extents = footprint_extents(get_app(app), config, scale)
        lines = sum(length for _, length in extents)
        budgets[app] = max(
            config.line_size,
            int(lines * config.line_size * budget_fraction),
        )

    def cap(app):
        return CapacityConfig(device_bytes=budgets[app])

    specs = []
    for app in apps:
        specs.append(RunSpec(app, designs.base(), config, scale=scale,
                             capacity=cap(app)))
        for algorithm in algorithms:
            specs.append(RunSpec(app, designs.caba(algorithm), config,
                                 scale=scale, capacity=cap(app)))
    result = FigureResult(
        figure="capacity",
        title=(
            "Capacity-mode compression: effective capacity and spill "
            "traffic (device budget = "
            f"{budget_fraction:.0%} of footprint)"
        ),
        columns=["app", "algorithm", "effective_capacity", "spill_fraction",
                 "spill_bursts", "host_bus_util", "speedup_vs_base"],
    )
    runs = iter(run_figure(result, specs))
    per_algo: dict[str, list[float]] = {a: [] for a in algorithms}
    for app in apps:
        base = next(runs)
        base_row = {
            "app": app,
            "algorithm": "none",
            "effective_capacity":
                base.capacity["effective_capacity_ratio"],
            "spill_fraction": base.capacity["spill_fraction"],
            "spill_bursts": base.capacity["host_bursts"],
            "host_bus_util": base.capacity["host_bus_utilization"],
            "speedup_vs_base": 1.0,
        }
        result.rows.append(base_row)
        for algorithm in algorithms:
            run = next(runs)
            speedup = run.ipc / base.ipc if base.ipc else 0.0
            per_algo[algorithm].append(speedup)
            result.rows.append({
                "app": app,
                "algorithm": algorithm,
                "effective_capacity":
                    run.capacity["effective_capacity_ratio"],
                "spill_fraction": run.capacity["spill_fraction"],
                "spill_bursts": run.capacity["host_bursts"],
                "host_bus_util": run.capacity["host_bus_utilization"],
                "speedup_vs_base": speedup,
            })
    for algorithm in algorithms:
        result.summary[f"geomean_speedup_{algorithm}"] = geomean(
            per_algo[algorithm]
        )
    result.notes = (
        "Buddy Compression regime: compression extends effective device "
        "capacity; lines past the budget pay host-link transfers."
    )
    return result


# ----------------------------------------------------------------------
# MD-cache size sweep (Section 4.3.2 sizing rationale)
# ----------------------------------------------------------------------
def md_cache_sweep(
    config: GPUConfig | None = None,
    apps: Sequence[str] = ("PVC", "mst", "SS"),
    sizes_kb: Sequence[int] = (1, 2, 4, 8, 16),
) -> FigureResult:
    """Hit rate and speedup vs. MD-cache capacity.

    The paper picks 8 KB as "sufficient for an 85% average hit rate";
    this sweep shows the knee of that curve."""
    config = config if config is not None else GPUConfig.small()
    result = FigureResult(
        figure="mdsweep",
        title="MD-cache capacity sweep (Section 4.3.2)",
        columns=["size_kb", "avg_hit_rate", "geomean_speedup"],
    )
    specs = []
    for size_kb in sizes_kb:
        cfg = replace(config, md_cache_size=size_kb * 1024)
        for app in apps:
            specs.append(RunSpec(app, designs.base(), cfg))
            specs.append(RunSpec(app, designs.caba(), cfg))
    runs = iter(run_figure(result, specs))
    for size_kb in sizes_kb:
        rates, speedups = [], []
        for app in apps:
            base = next(runs)
            caba = next(runs)
            if caba.md_cache_hit_rate is not None:
                rates.append(caba.md_cache_hit_rate)
            speedups.append(caba.ipc / base.ipc if base.ipc else 0.0)
        result.rows.append({
            "size_kb": size_kb,
            "avg_hit_rate": sum(rates) / len(rates) if rates else 0.0,
            "geomean_speedup": geomean(speedups),
        })
    result.notes = (
        "Paper: an 8 KB 4-way MD cache suffices (85% average hit rate)."
    )
    return result


# ----------------------------------------------------------------------
# Warp-scheduler study (GTO vs. LRR, Table 1 uses GTO)
# ----------------------------------------------------------------------
def scheduler_study(
    config: GPUConfig | None = None,
    apps: Sequence[str] = ("PVC", "MM", "RAY", "bfs"),
) -> FigureResult:
    """Compare the GTO baseline scheduler against loose round-robin,
    with and without CABA compression."""
    config = config if config is not None else GPUConfig.small()
    result = FigureResult(
        figure="scheduler",
        title="Warp scheduler sensitivity (GTO vs. LRR)",
        columns=["scheduler", "geomean_base_ipc", "geomean_caba_speedup"],
    )
    policies = ("gto", "lrr")
    specs = []
    for policy in policies:
        cfg = replace(config, scheduler=policy)
        for app in apps:
            specs.append(RunSpec(app, designs.base(), cfg))
            specs.append(RunSpec(app, designs.caba(), cfg))
    runs = iter(run_figure(result, specs))
    for policy in policies:
        ipcs, speedups = [], []
        for app in apps:
            base = next(runs)
            caba = next(runs)
            ipcs.append(base.ipc)
            speedups.append(caba.ipc / base.ipc if base.ipc else 0.0)
        result.rows.append({
            "scheduler": policy,
            "geomean_base_ipc": geomean(ipcs),
            "geomean_caba_speedup": geomean(speedups),
        })
    result.notes = (
        "CABA's benefit is scheduler-robust; Table 1's baseline uses GTO."
    )
    return result


# ----------------------------------------------------------------------
# Ablations of the compression mechanism
# ----------------------------------------------------------------------
def ablation_study(
    config: GPUConfig | None = None,
    apps: Sequence[str] = ("PVC", "MM", "sp"),
    only: Sequence[str] | None = None,
) -> FigureResult:
    """Design-choice ablations for CABA-BDI (geomean over ``apps``).

    ``only`` restricts the run to a subset of variant labels."""
    config = config if config is not None else GPUConfig.small()
    variants: list[tuple[str, CabaParams]] = [
        ("default", CabaParams()),
        ("l2_uncompressed", CabaParams()),  # Section 6.5 selective option
        ("no_throttling", CabaParams(throttling_enabled=False)),
        ("store_buffer_4", CabaParams(store_buffer_lines=4)),
        ("store_buffer_64", CabaParams(store_buffer_lines=64)),
        ("low_slots_1", CabaParams(low_priority_slots=1)),
        ("low_slots_8", CabaParams(low_priority_slots=8)),
        ("deploy_width_1", CabaParams(deploy_width=1)),
        ("deploy_width_4", CabaParams(deploy_width=4)),
        ("decomp_low_priority",
         CabaParams(decompression_high_priority=False)),
    ]
    result = FigureResult(
        figure="ablations",
        title="CABA design-choice ablations (CABA-BDI)",
        columns=["variant", "geomean_speedup", "compressed_store_fraction"],
    )
    if only is not None:
        variants = [(l, p) for l, p in variants if l in set(only)]

    def variant_point(label):
        return (
            designs.caba_l2_uncompressed()
            if label == "l2_uncompressed"
            else designs.caba()
        )

    specs = []
    for label, params in variants:
        point = variant_point(label)
        for app in apps:
            specs.append(RunSpec(app, designs.base(), config))
            specs.append(RunSpec(app, point, config, params=params))
    runs = iter(run_figure(result, specs))
    for label, params in variants:
        speedups = []
        compressed = uncompressed = 0
        for app in apps:
            base = next(runs)
            run = next(runs)
            speedups.append(run.ipc / base.ipc if base.ipc else 0.0)
            compressed += run.lines_compressed
            uncompressed += max(0, run.l1_stores - run.lines_compressed)
        total_stores = compressed + uncompressed
        frac = compressed / total_stores if total_stores else 0.0
        result.rows.append({
            "variant": label,
            "geomean_speedup": geomean(speedups),
            "compressed_store_fraction": frac,
        })
    result.notes = (
        "Blocking (high-priority) decompression, dynamic throttling and a "
        "modest store buffer are the paper's stated design choices."
    )
    return result
