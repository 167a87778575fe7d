"""Per-figure experiment harnesses.

One function per table/figure of the paper's evaluation. Each returns a
:class:`FigureResult` whose rows are plain dicts, so the benchmark
drivers can both print the paper-style table (via
:mod:`repro.harness.report`) and assert on the headline shapes.

All simulation-based figures accept a machine ``config`` (default: the
fast ``GPUConfig.small()``) and an ``apps`` subset so smoke runs stay
cheap; passing ``GPUConfig.medium()`` or the full Table-1 config and the
full app lists reproduces the paper-scale study (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro import design as designs
from repro.compression import make_algorithm
from repro.design import DesignPoint
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Kernel
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.stats import SLOT_LABELS, Slot
from repro.harness.parallel import run_specs
from repro.harness.runner import RunResult, RunSpec, geomean
from repro.workloads.apps import (
    COMPRESSION_APPS,
    FIGURE1_APPS,
    get_app,
)
from repro.workloads.tracegen import build_kernel


@dataclass
class FigureResult:
    """A reproduced table/figure: labelled rows plus summary values."""

    figure: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    notes: str = ""
    #: Non-empty when any run of the figure was interval-sampled —
    #: sampled timing is approximate (≤2 % on certified points; see
    #: repro.gpu.sampling), and reports must say so rather than pass
    #: extrapolated numbers off as exact. Set by :func:`run_figure`,
    #: so a figure that simulates nothing always reads as exact.
    sampled: str = ""

    def to_entry(self) -> dict:
        """The JSON dump entry: what ``repro check --parity`` and
        ``scripts/render_results.py`` read back."""
        return {
            "title": self.title,
            "columns": self.columns,
            "rows": self.rows,
            "summary": self.summary,
            "notes": self.notes,
            "sampled": self.sampled,
        }

    @classmethod
    def from_entry(cls, figure: str, entry: dict) -> "FigureResult":
        """Rebuild a result from a dump entry. An entry from before
        dumps recorded ``sampled`` reads as exact."""
        result = cls(figure, entry["title"], entry["columns"],
                     entry["rows"], entry["summary"],
                     entry.get("notes", ""))
        result.sampled = entry.get("sampled", "")
        return result


def sample_label(specs: Sequence[RunSpec]) -> str:
    """The ``sampled`` label of a figure over ``specs``: empty unless
    some run is interval-sampled."""
    for spec in specs:
        sample = spec.sample
        if sample is not None:
            return (
                f"interval-sampled {sample.warmup}:{sample.measure}:"
                f"{sample.skip} ({sample.detail_fraction:.0%} detail) — "
                "timing values are extrapolated, not exact"
            )
    return ""


def run_figure(
    result: FigureResult, specs: Sequence[RunSpec]
) -> list[RunResult]:
    """Run ``specs`` for ``result`` through the shared parallel engine,
    labelling ``result`` when any of them is interval-sampled. The
    figure id names the batch in failure reports."""
    result.sampled = sample_label(specs)
    return run_specs(specs, label=result.figure)


def _default_config(config: GPUConfig | None) -> GPUConfig:
    return config if config is not None else GPUConfig.small()


# ----------------------------------------------------------------------
# Figure 1: issue-cycle breakdown vs. off-chip bandwidth
# ----------------------------------------------------------------------
def fig1_cycle_breakdown(
    config: GPUConfig | None = None,
    apps: Sequence[str] = FIGURE1_APPS,
    bw_scales: Sequence[float] = (0.5, 1.0, 2.0),
) -> FigureResult:
    """Breakdown of total issue cycles at 1/2x, 1x and 2x bandwidth."""
    config = _default_config(config)
    columns = ["app", "category", "bw"] + [
        SLOT_LABELS[s] for s in Slot
    ]
    result = FigureResult(
        figure="fig1",
        title="Breakdown of total issue cycles (Figure 1)",
        columns=columns,
    )
    memory_stall_fracs: dict[float, list[float]] = {s: [] for s in bw_scales}
    runs = iter(run_figure(result, [
        RunSpec(name, designs.base(), config.with_bandwidth_scale(scale))
        for name in apps for scale in bw_scales
    ]))
    for name in apps:
        app = get_app(name)
        for scale in bw_scales:
            run = next(runs)
            row = {
                "app": name,
                "category": app.category,
                "bw": scale,
            }
            for slot in Slot:
                row[SLOT_LABELS[slot]] = run.slot_breakdown[slot]
            result.rows.append(row)
            if app.category == "memory":
                memory_stall_fracs[scale].append(
                    run.slot_breakdown[Slot.MEMORY_STALL]
                    + run.slot_breakdown[Slot.DATA_STALL]
                )
    for scale, fracs in memory_stall_fracs.items():
        if fracs:
            result.summary[f"mem+dep_stalls@{scale}x"] = sum(fracs) / len(fracs)
    result.notes = (
        "Paper: memory + data-dependence stalls dominate memory-bound "
        "apps (~61% at 1x), shrink with 2x bandwidth, grow at 1/2x."
    )
    return result


# ----------------------------------------------------------------------
# Figure 2: statically unallocated registers
# ----------------------------------------------------------------------
def fig2_unallocated_registers(
    config: GPUConfig | None = None,
    apps: Sequence[str] = FIGURE1_APPS,
) -> FigureResult:
    """Fraction of the register file left unallocated per application.

    Uses the paper's reference machine (128 KB register file, 1536
    threads, 8 blocks per SM) regardless of the simulation config, as
    the figure is a static property of the full architecture.
    """
    config = config if config is not None else GPUConfig()
    result = FigureResult(
        figure="fig2",
        title="Fraction of statically unallocated registers (Figure 2)",
        columns=["app", "blocks_per_sm", "limiting_factor", "unallocated"],
    )
    fractions = []
    for name in apps:
        app = get_app(name)
        kernel = build_kernel(app, config)
        occ = compute_occupancy(config, kernel)
        frac = occ.unallocated_register_fraction
        fractions.append(frac)
        result.rows.append({
            "app": name,
            "blocks_per_sm": occ.blocks_per_sm,
            "limiting_factor": occ.limiting_factor,
            "unallocated": frac,
        })
    result.summary["average_unallocated"] = sum(fractions) / len(fractions)
    result.notes = "Paper: on average 24% of the register file is unallocated."
    return result


# ----------------------------------------------------------------------
# Figure 5: the BDI worked example
# ----------------------------------------------------------------------
def fig5_bdi_example() -> FigureResult:
    """The PVC cache line of Figure 5: 64 B -> 17 B under BDI."""
    words = [
        0x00, 0x80001D000, 0x10, 0x80001D008,
        0x20, 0x80001D010, 0x30, 0x80001D018,
    ]
    data = b"".join(w.to_bytes(8, "little") for w in words)
    bdi = make_algorithm("bdi", line_size=64)
    line = bdi.compress(data)
    result = FigureResult(
        figure="fig5",
        title="BDI compression of a PVC cache line (Figure 5)",
        columns=["encoding", "compressed_bytes", "saved_bytes", "round_trip"],
    )
    result.rows.append({
        "encoding": line.encoding,
        "compressed_bytes": line.size_bytes,
        "saved_bytes": line.line_size - line.size_bytes,
        "round_trip": bdi.decompress(line) == data,
    })
    result.summary["compressed_bytes"] = line.size_bytes
    result.notes = "Paper: 64-byte line -> 17 bytes (47 bytes saved)."
    return result


# ----------------------------------------------------------------------
# Figures 7/8/9: the five designs
# ----------------------------------------------------------------------
def _design_study(
    result: FigureResult,
    config: GPUConfig,
    apps: Sequence[str],
    points: Sequence[DesignPoint],
) -> dict[str, dict[str, RunResult]]:
    """Run every app under every design for ``result``; results keyed
    [app][design].

    The full (app x design) matrix is enumerated up front and submitted
    through the shared parallel engine, so independent points simulate
    concurrently when the engine has workers."""
    results = run_figure(result, [
        RunSpec(name, point, config) for name in apps for point in points
    ])
    table: dict[str, dict[str, RunResult]] = {}
    it = iter(results)
    for name in apps:
        table[name] = {point.name: next(it) for point in points}
    return table


def fig7_performance(
    config: GPUConfig | None = None,
    apps: Sequence[str] = COMPRESSION_APPS,
    algorithm: str = "bdi",
) -> FigureResult:
    """Normalized performance of the five designs (Figure 7)."""
    config = _default_config(config)
    points = designs.figure7_designs(algorithm)
    names = [p.name for p in points]
    result = FigureResult(
        figure="fig7",
        title="Normalized performance of CABA (Figure 7)",
        columns=["app"] + names,
    )
    runs = _design_study(result, config, apps, points)
    per_design: dict[str, list[float]] = {n: [] for n in names}
    for app in apps:
        base = runs[app]["Base"]
        row = {"app": app}
        for name in names:
            speedup = runs[app][name].ipc / base.ipc if base.ipc else 0.0
            row[name] = speedup
            per_design[name].append(speedup)
        result.rows.append(row)
    for name in names:
        result.summary[f"geomean_{name}"] = geomean(per_design[name])
    result.notes = (
        "Paper: CABA-BDI +41.7% avg (up to 2.6x), 2.8% under Ideal-BDI, "
        "9.9% over HW-BDI-Mem, 1.6% under HW-BDI."
    )
    return result


def fig8_bandwidth(
    config: GPUConfig | None = None,
    apps: Sequence[str] = COMPRESSION_APPS,
    algorithm: str = "bdi",
) -> FigureResult:
    """DRAM bandwidth utilization of the five designs (Figure 8)."""
    config = _default_config(config)
    points = designs.figure7_designs(algorithm)
    names = [p.name for p in points]
    result = FigureResult(
        figure="fig8",
        title="Memory bandwidth utilization (Figure 8)",
        columns=["app"] + names,
    )
    runs = _design_study(result, config, apps, points)
    sums = {n: 0.0 for n in names}
    for app in apps:
        row = {"app": app}
        for name in names:
            util = runs[app][name].bandwidth_utilization
            row[name] = util
            sums[name] += util
        result.rows.append(row)
    for name in names:
        result.summary[f"avg_{name}"] = sums[name] / len(apps)
    result.notes = (
        "Paper: CABA-BDI reduces average utilization from 53.6% to 35.6%."
    )
    return result


def fig9_energy(
    config: GPUConfig | None = None,
    apps: Sequence[str] = COMPRESSION_APPS,
    algorithm: str = "bdi",
) -> FigureResult:
    """Normalized energy of the five designs (Figure 9)."""
    config = _default_config(config)
    points = designs.figure7_designs(algorithm)
    names = [p.name for p in points]
    result = FigureResult(
        figure="fig9",
        title="Normalized energy consumption (Figure 9)",
        columns=["app"] + names,
    )
    runs = _design_study(result, config, apps, points)
    per_design: dict[str, list[float]] = {n: [] for n in names}
    dram_drop = []
    for app in apps:
        base_energy = runs[app]["Base"].energy_total
        row = {"app": app}
        for name in names:
            normalized = (
                runs[app][name].energy_total / base_energy
                if base_energy else 0.0
            )
            row[name] = normalized
            per_design[name].append(normalized)
        result.rows.append(row)
        base_dram = (
            runs[app]["Base"].energy.dram_dynamic
            + runs[app]["Base"].energy.dram_static
        )
        caba_dram = (
            runs[app][points[3].name].energy.dram_dynamic
            + runs[app][points[3].name].energy.dram_static
        )
        if base_dram:
            dram_drop.append(1.0 - caba_dram / base_dram)
    for name in names:
        result.summary[f"avg_{name}"] = (
            sum(per_design[name]) / len(per_design[name])
        )
    if dram_drop:
        result.summary["avg_dram_energy_reduction"] = (
            sum(dram_drop) / len(dram_drop)
        )
    result.notes = (
        "Paper: CABA-BDI cuts system energy 22.2% (29.5% DRAM power), "
        "within ~3.6% of HW-BDI and ~4% of Ideal-BDI."
    )
    return result


# ----------------------------------------------------------------------
# Figures 10/11: algorithm flexibility
# ----------------------------------------------------------------------
ALGORITHM_ORDER = ("fpc", "bdi", "cpack", "bestofall")


def fig10_algorithms(
    config: GPUConfig | None = None,
    apps: Sequence[str] = COMPRESSION_APPS,
    algorithms: Sequence[str] = ALGORITHM_ORDER,
) -> FigureResult:
    """Speedup of CABA with different compression algorithms (Figure 10)."""
    config = _default_config(config)
    labels = {a: designs.caba(a).name for a in algorithms}
    result = FigureResult(
        figure="fig10",
        title="Speedup with different compression algorithms (Figure 10)",
        columns=["app"] + [labels[a] for a in algorithms],
    )
    per_algo: dict[str, list[float]] = {a: [] for a in algorithms}
    points = [designs.base()] + [designs.caba(a) for a in algorithms]
    runs = iter(run_figure(result, [
        RunSpec(app, point, config) for app in apps for point in points
    ]))
    for app in apps:
        base = next(runs)
        row = {"app": app}
        for algo in algorithms:
            run = next(runs)
            speedup = run.ipc / base.ipc if base.ipc else 0.0
            row[labels[algo]] = speedup
            per_algo[algo].append(speedup)
        result.rows.append(row)
    for algo in algorithms:
        result.summary[f"geomean_{labels[algo]}"] = geomean(per_algo[algo])
    result.notes = (
        "Paper: CABA-FPC +20.7%, CABA-C-Pack +35.2%, CABA-BDI +41.7%; "
        "BestOfAll can beat each single algorithm."
    )
    return result


def fig11_compression_ratio(
    apps: Sequence[str] = COMPRESSION_APPS,
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    line_size: int = 128,
    sample_lines: int = 400,
) -> FigureResult:
    """Compression ratios per algorithm on each app's data (Figure 11).

    Computed by running the real algorithms over a deterministic sample
    of each application's generated lines (burst-granularity ratio, as
    the paper measures it).
    """
    from repro.harness.runner import plane_for_app

    result = FigureResult(
        figure="fig11",
        title="Compression ratio of algorithms with CABA (Figure 11)",
        columns=["app"] + [a.upper() for a in algorithms],
    )
    sums = {a: 0.0 for a in algorithms}
    total_bursts = sample_lines * -(-line_size // 32)
    for app_name in apps:
        app = get_app(app_name)
        row = {"app": app_name}
        for algo in algorithms:
            # The sampled image is batch-compressed through the shared
            # plane machinery (and its caches).
            plane = plane_for_app(app, algo, sample_lines, line_size)
            compressed_bursts = sum(
                plane.bursts(line_addr) for line_addr in range(sample_lines)
            )
            ratio = total_bursts / compressed_bursts
            row[algo.upper()] = ratio
            sums[algo] += ratio
        result.rows.append(row)
    for algo in algorithms:
        result.summary[f"avg_{algo}"] = sums[algo] / len(apps)
    result.notes = (
        "Paper: BDI ~2.1x average; LPS/JPEG/MUM/nw compress better with "
        "FPC or C-Pack; MM/PVC/PVR better with BDI; BestOfAll is the "
        "upper envelope."
    )
    return result


# ----------------------------------------------------------------------
# Figure 12: bandwidth sensitivity
# ----------------------------------------------------------------------
def fig12_bw_sensitivity(
    config: GPUConfig | None = None,
    apps: Sequence[str] = COMPRESSION_APPS,
    algorithm: str = "bdi",
    scales: Sequence[float] = (0.5, 1.0, 2.0),
) -> FigureResult:
    """Base vs CABA at 1/2x, 1x and 2x off-chip bandwidth (Figure 12)."""
    config = _default_config(config)
    labels = []
    for scale in scales:
        tag = {0.5: "1/2x", 1.0: "1x", 2.0: "2x"}.get(scale, f"{scale}x")
        labels.append((scale, f"{tag}-Base", f"{tag}-CABA"))
    columns = ["app"]
    for _, b, c in labels:
        columns += [b, c]
    result = FigureResult(
        figure="fig12",
        title="Sensitivity of CABA to memory bandwidth (Figure 12)",
        columns=columns,
    )
    # Normalize against 1x-Base, as the paper does.
    per_label: dict[str, list[float]] = {}
    specs = []
    for app in apps:
        specs.append(RunSpec(app, designs.base(),
                             config.with_bandwidth_scale(1.0)))
        for scale, _, _ in labels:
            scaled = config.with_bandwidth_scale(scale)
            specs.append(RunSpec(app, designs.base(), scaled))
            specs.append(RunSpec(app, designs.caba(algorithm), scaled))
    runs = iter(run_figure(result, specs))
    for app in apps:
        ref = next(runs)
        row = {"app": app}
        for scale, base_label, caba_label in labels:
            b = next(runs)
            c = next(runs)
            row[base_label] = b.ipc / ref.ipc if ref.ipc else 0.0
            row[caba_label] = c.ipc / ref.ipc if ref.ipc else 0.0
            per_label.setdefault(base_label, []).append(row[base_label])
            per_label.setdefault(caba_label, []).append(row[caba_label])
        result.rows.append(row)
    for label, values in per_label.items():
        result.summary[f"geomean_{label}"] = geomean(values)
    result.notes = (
        "Paper: CABA at each bandwidth outperforms its baseline; "
        "1x-CABA is roughly equivalent to doubling the bandwidth."
    )
    return result


# ----------------------------------------------------------------------
# Figure 13: cache compression
# ----------------------------------------------------------------------
def fig13_cache_compression(
    config: GPUConfig | None = None,
    apps: Sequence[str] = COMPRESSION_APPS,
    algorithm: str = "bdi",
) -> FigureResult:
    """CABA-based L1/L2 cache compression with 2x/4x tags (Figure 13)."""
    config = _default_config(config)
    points = [
        designs.caba(algorithm),
        designs.caba_cache("l1", 2, algorithm),
        designs.caba_cache("l1", 4, algorithm),
        designs.caba_cache("l2", 2, algorithm),
        designs.caba_cache("l2", 4, algorithm),
    ]
    names = [p.name for p in points]
    result = FigureResult(
        figure="fig13",
        title="Speedup of cache compression with CABA (Figure 13)",
        columns=["app"] + names,
    )
    per_design: dict[str, list[float]] = {n: [] for n in names}
    runs = iter(run_figure(result, [
        RunSpec(app, point, config) for app in apps for point in points
    ]))
    for app in apps:
        by_point = [next(runs) for _ in points]
        baseline = by_point[0]
        row = {"app": app}
        for point, run in zip(points, by_point):
            rel = run.ipc / baseline.ipc if baseline.ipc else 0.0
            row[point.name] = rel
            per_design[point.name].append(rel)
        result.rows.append(row)
    for name in names:
        result.summary[f"geomean_{name}"] = geomean(per_design[name])
    result.notes = (
        "Paper: cache-sensitive apps gain from extra effective capacity; "
        "L1 compression can hurt (decompression on every hit)."
    )
    return result


# ----------------------------------------------------------------------
# Table 1 and the MD-cache study
# ----------------------------------------------------------------------
def tab1_system_config(config: GPUConfig | None = None) -> FigureResult:
    """Echo the simulated system parameters (Table 1)."""
    config = config if config is not None else GPUConfig()
    t = config.dram_timing
    result = FigureResult(
        figure="tab1",
        title="Major parameters of the simulated system (Table 1)",
        columns=["parameter", "value"],
    )
    rows = [
        ("SMs", config.n_sms),
        ("threads/warp", config.warp_size),
        ("warps/SM", config.warps_per_sm),
        ("registers/SM", config.registers_per_sm),
        ("shared memory/SM (KB)", config.smem_per_sm // 1024),
        ("schedulers/SM (GTO)", config.schedulers_per_sm),
        ("core clock (GHz)", config.core_clock_ghz),
        ("L1 (KB, ways)", f"{config.l1_size // 1024}, {config.l1_assoc}"),
        ("L2 (KB, ways)", f"{config.l2_size // 1024}, {config.l2_assoc}"),
        ("memory channels", config.n_mcs),
        ("banks/channel", config.banks_per_mc),
        ("peak bandwidth (GB/s)", config.dram_bw_gbps),
        ("tCL/tRP/tRC/tRAS", f"{t.tCL}/{t.tRP}/{t.tRC}/{t.tRAS}"),
        ("tRCD/tRRD/tCDLR/tWR", f"{t.tRCD}/{t.tRRD}/{t.tCDLR}/{t.tWR}"),
    ]
    result.rows = [{"parameter": k, "value": v} for k, v in rows]
    return result


def md_cache_study(
    config: GPUConfig | None = None,
    apps: Sequence[str] = COMPRESSION_APPS,
    algorithm: str = "bdi",
) -> FigureResult:
    """MD-cache hit rates under CABA (Section 4.3.2: 85% average)."""
    config = _default_config(config)
    result = FigureResult(
        figure="mdcache",
        title="Metadata cache hit rate (Section 4.3.2)",
        columns=["app", "md_hit_rate"],
    )
    rates = []
    runs = iter(run_figure(result, [
        RunSpec(app, designs.caba(algorithm), config) for app in apps
    ]))
    for app in apps:
        run = next(runs)
        if run.md_cache_hit_rate is None:
            continue
        rates.append(run.md_cache_hit_rate)
        result.rows.append({"app": app, "md_hit_rate": run.md_cache_hit_rate})
    if rates:
        result.summary["average_hit_rate"] = sum(rates) / len(rates)
    result.notes = "Paper: 8KB 4-way MD cache hits 85% on average."
    return result


# ----------------------------------------------------------------------
# The experiment registry
# ----------------------------------------------------------------------
#: Machine configurations by ``--config`` name.
CONFIGS = {
    "small": GPUConfig.small,
    "medium": GPUConfig.medium,
    "full": GPUConfig,
}


def _extensions():
    # repro.harness.extensions imports this module.
    from repro.harness import extensions

    return extensions


#: Every experiment, in paper order: id -> thunk(config). ``repro
#: figure`` and ``scripts/run_experiments.py`` read it, and every id
#: has a claim generator in :data:`repro.verify.parity.PARITY`.
EXPERIMENTS = {
    "tab1": lambda config: tab1_system_config(),
    "fig1": lambda config: fig1_cycle_breakdown(config),
    "fig2": lambda config: fig2_unallocated_registers(),
    "fig5": lambda config: fig5_bdi_example(),
    "fig7": lambda config: fig7_performance(config),
    "fig8": lambda config: fig8_bandwidth(config),
    "fig9": lambda config: fig9_energy(config),
    "fig10": lambda config: fig10_algorithms(config),
    "fig11": lambda config: fig11_compression_ratio(),
    "fig12": lambda config: fig12_bw_sensitivity(config),
    "fig13": lambda config: fig13_cache_compression(config),
    "mdcache": lambda config: md_cache_study(config),
    "memo": lambda config: _extensions().memoization_study(config),
    "prefetch": lambda config: _extensions().prefetch_study(config),
    "capacity": lambda config: _extensions().capacity_study(config),
    "ablations": lambda config: _extensions().ablation_study(config),
    "scheduler": lambda config: _extensions().scheduler_study(config),
    "mdsweep": lambda config: _extensions().md_cache_sweep(config),
}
