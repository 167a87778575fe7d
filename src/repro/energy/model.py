"""Activity-based energy model (the GPUWattch/CACTI substitute).

Figure 9's claims are *relative*: compression reduces energy mainly by
cutting DRAM traffic and execution time, CABA costs a few percent more
than dedicated hardware because assist warps run through the general
pipelines, and the MD cache adds a small overhead. An activity-counter
model with per-event energies plus leakage reproduces exactly those
relationships; the per-event values below are order-of-magnitude figures
for a ~32 nm GPU (events in picojoules, leakage in watts), consistent
with the published GPUWattch/CACTI breakdowns the paper relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.design import DesignPoint
from repro.gpu.config import GPUConfig


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (pJ) and static power (W)."""

    alu_op_pj: float = 25.0
    sfu_op_pj: float = 100.0
    register_access_pj: float = 6.0
    instruction_issue_pj: float = 12.0
    shared_access_pj: float = 30.0
    l1_access_pj: float = 60.0
    l2_access_pj: float = 180.0
    icnt_flit_pj: float = 80.0
    dram_burst_pj: float = 900.0
    md_cache_access_pj: float = 8.0
    #: Dedicated-hardware BDI-class (de)compression per line (from the
    #: paper's Synopsys 65 nm synthesis scaled to 32 nm — tiny next to a
    #: DRAM access).
    hw_decompress_line_pj: float = 40.0
    hw_compress_line_pj: float = 80.0
    #: Static (leakage + constant) power for the whole chip and DRAM.
    chip_static_w: float = 18.0
    dram_static_w: float = 8.0


@dataclass
class EnergyBreakdown:
    """Energy per component, in joules."""

    core_dynamic: float = 0.0
    l1: float = 0.0
    l2: float = 0.0
    interconnect: float = 0.0
    dram_dynamic: float = 0.0
    compression: float = 0.0
    metadata: float = 0.0
    static: float = 0.0
    dram_static: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.core_dynamic + self.l1 + self.l2 + self.interconnect
            + self.dram_dynamic + self.compression + self.metadata
            + self.static + self.dram_static
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "core_dynamic": self.core_dynamic,
            "l1": self.l1,
            "l2": self.l2,
            "interconnect": self.interconnect,
            "dram_dynamic": self.dram_dynamic,
            "compression": self.compression,
            "metadata": self.metadata,
            "static": self.static,
            "dram_static": self.dram_static,
            "total": self.total,
        }


class EnergyModel:
    """Computes an :class:`EnergyBreakdown` from a finished simulation."""

    def __init__(self, params: EnergyParams | None = None) -> None:
        self.params = params if params is not None else EnergyParams()

    def evaluate(self, result, config: GPUConfig, design: DesignPoint) -> EnergyBreakdown:
        """Energy for one :class:`~repro.gpu.simulator.SimulationResult`."""
        p = self.params
        stats = result.stats
        memory = result.memory
        counters = stats.counters()
        pj = EnergyBreakdown()

        pj.core_dynamic = (
            counters["alu_ops"] * p.alu_op_pj
            + counters["sfu_ops"] * p.sfu_op_pj
            + counters["instructions"] * p.instruction_issue_pj
            + (counters["register_reads"] + counters["register_writes"])
            * p.register_access_pj
            + counters["shared_accesses"] * p.shared_access_pj
        )
        l1_accesses = memory.stats.l1_loads + memory.stats.l1_stores
        pj.l1 = l1_accesses * p.l1_access_pj
        pj.l2 = memory.stats.l2_accesses * p.l2_access_pj
        pj.interconnect = memory.crossbar.total_flits() * p.icnt_flit_pj

        bursts = memory.dram_bursts()
        pj.dram_dynamic = (bursts["read"] + bursts["write"]) * p.dram_burst_pj
        pj.metadata = bursts["metadata"] * p.dram_burst_pj
        md_accesses = sum(
            mc.metadata_cache.accesses
            for mc in memory.mcs
            if mc.metadata_cache is not None
        )
        pj.metadata += md_accesses * p.md_cache_access_pj

        pj.compression = self._compression_energy(memory, design)

        seconds = stats.cycles / (config.core_clock_ghz * 1e9)
        # Scale leakage with machine size relative to the Table-1 chip.
        size_scale = config.n_sms / 15
        pj_total_static = p.chip_static_w * size_scale * seconds * 1e12
        pj_dram_static = p.dram_static_w * (config.n_mcs / 6) * seconds * 1e12

        joule = 1e-12
        return EnergyBreakdown(
            core_dynamic=pj.core_dynamic * joule,
            l1=pj.l1 * joule,
            l2=pj.l2 * joule,
            interconnect=pj.interconnect * joule,
            dram_dynamic=pj.dram_dynamic * joule,
            compression=pj.compression * joule,
            metadata=pj.metadata * joule,
            static=pj_total_static * joule,
            dram_static=pj_dram_static * joule,
        )

    def _compression_energy(self, memory, design: DesignPoint) -> float:
        """Dedicated-hardware (de)compression energy in pJ.

        CABA's compression work is already charged through its assist
        instructions (issue + ALU + register + L1 energy), which is why
        CABA lands a few percent above HW designs in total energy; the
        ideal design pays nothing.
        """
        if not design.compression_enabled or design.ideal:
            return 0.0
        p = self.params
        energy = 0.0
        if design.decompress_at in ("mc", "core_hw"):
            energy += memory.stats.lines_decompressed * p.hw_decompress_line_pj
        if design.compress_at in ("mc_hw", "core_hw"):
            energy += memory.stats.lines_compressed * p.hw_compress_line_pj
        return energy
