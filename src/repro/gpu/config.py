"""Simulated machine configuration (Table 1 of the paper).

The default :class:`GPUConfig` reproduces the paper's baseline: a
Fermi-class GPU with 15 SMs, two warp schedulers per SM (GTO), 48 warps
per SM, a 128 KB register file, 16 KB L1s, a 768 KB shared L2 and six
GDDR5 memory controllers totalling 177.4 GB/s. ``GPUConfig.small()``
yields a proportionally scaled machine used by the unit tests so full
runs stay fast; normalized metrics (speedups, utilizations, ratios) are
robust to this scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class DramTiming:
    """GDDR5 timing parameters in memory-controller cycles (Table 1)."""

    tCL: int = 12
    tRP: int = 12
    tRC: int = 40
    tRAS: int = 28
    tRCD: int = 12
    tRRD: int = 6
    tCDLR: int = 5
    tWR: int = 12

    @property
    def row_hit_latency(self) -> int:
        """Command-to-data latency when the row is already open."""
        return self.tCL

    @property
    def row_miss_latency(self) -> int:
        """Precharge + activate + CAS for a row-buffer conflict."""
        return self.tRP + self.tRCD + self.tCL

    @property
    def row_empty_latency(self) -> int:
        """Activate + CAS when the bank is precharged."""
        return self.tRCD + self.tCL


@dataclass(frozen=True)
class GPUConfig:
    """Top-level machine description consumed by the simulator."""

    # --- Core organization -------------------------------------------------
    n_sms: int = 15
    warp_size: int = 32
    warps_per_sm: int = 48
    max_blocks_per_sm: int = 8
    max_threads_per_sm: int = 1536
    registers_per_sm: int = 32768
    smem_per_sm: int = 32 * 1024
    schedulers_per_sm: int = 2
    scheduler: str = "gto"
    core_clock_ghz: float = 1.4

    # --- SFU throughput (one new SFU op per this many cycles per SM) -------
    sfu_initiation_interval: int = 4

    # --- Caches -------------------------------------------------------------
    line_size: int = 128
    l1_size: int = 16 * 1024
    l1_assoc: int = 4
    l1_mshrs: int = 32
    l1_latency: int = 28
    l2_size: int = 768 * 1024
    l2_assoc: int = 16
    l2_latency: int = 32
    shared_mem_latency: int = 24
    #: Latency of assist-warp L1-local accesses (reading a just-arrived
    #: compressed fill from the fill/merge buffers and writing the
    #: expanded line back) — shorter than a full L1 load-use round trip.
    assist_l1_latency: int = 12

    # --- Interconnect (one crossbar per direction, Table 1) -----------------
    icnt_latency: int = 16
    icnt_flit_bytes: int = 32

    # --- Memory system -------------------------------------------------------
    n_mcs: int = 6
    banks_per_mc: int = 16
    dram_bw_gbps: float = 177.4
    burst_bytes: int = 32
    dram_timing: DramTiming = field(default_factory=DramTiming)
    dram_queue_depth: int = 32

    # --- Metadata cache for compression (Section 4.3.2) ---------------------
    md_cache_size: int = 8 * 1024
    md_cache_assoc: int = 4
    #: Cache lines covered by one metadata cache line. 4 bits of burst-count
    #: metadata per line -> a 64 B metadata line covers 128 data lines.
    md_lines_per_entry: int = 128

    # --- Simulation control --------------------------------------------------
    max_cycles: int = 2_000_000

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def bytes_per_cycle_per_mc(self) -> float:
        """DRAM data-bus bandwidth per controller in bytes per core cycle."""
        total = self.dram_bw_gbps * 1e9 / (self.core_clock_ghz * 1e9)
        return total / self.n_mcs

    @property
    def burst_cycles(self) -> float:
        """Core cycles one 32-byte burst occupies a controller's data bus."""
        return self.burst_bytes / self.bytes_per_cycle_per_mc

    @property
    def bursts_per_line(self) -> int:
        return -(-self.line_size // self.burst_bytes)

    @property
    def l1_sets(self) -> int:
        return self.l1_size // (self.line_size * self.l1_assoc)

    @property
    def l2_sets_per_mc(self) -> int:
        per_mc = self.l2_size // self.n_mcs
        return per_mc // (self.line_size * self.l2_assoc)

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_bandwidth_scale(self, scale: float) -> "GPUConfig":
        """The paper's 1/2x / 1x / 2x off-chip bandwidth sensitivity knob."""
        if scale <= 0:
            raise ValueError(f"bandwidth scale must be positive, got {scale}")
        return replace(self, dram_bw_gbps=self.dram_bw_gbps * scale)

    @classmethod
    def small(cls) -> "GPUConfig":
        """A scaled machine for fast tests: 2 SMs, 2 MCs, smaller caches.

        Per-SM and per-MC ratios (warps per scheduler, bandwidth per
        controller, cache per SM) match the full configuration so the
        bottleneck structure carries over.
        """
        return cls(
            n_sms=3,
            warps_per_sm=16,
            max_blocks_per_sm=4,
            max_threads_per_sm=512,
            registers_per_sm=12288,
            smem_per_sm=8 * 1024,
            l1_size=8 * 1024,
            l1_mshrs=32,
            l2_size=64 * 1024,
            n_mcs=1,
            dram_bw_gbps=177.4 / 6,
            # One channel sees every line here (the full machine spreads
            # them over six MD caches), so the MD cache keeps full size.
            md_cache_size=8 * 1024,
            max_cycles=400_000,
        )

    @classmethod
    def medium(cls) -> "GPUConfig":
        """A mid-size machine for the benchmark harness: 6 SMs, 3 MCs."""
        return cls(
            n_sms=6,
            warps_per_sm=32,
            max_blocks_per_sm=8,
            max_threads_per_sm=1024,
            registers_per_sm=24576,
            smem_per_sm=16 * 1024,
            l1_size=16 * 1024,
            l2_size=256 * 1024,
            n_mcs=2,
            dram_bw_gbps=177.4 * 2 / 6,
            md_cache_size=8 * 1024,
            max_cycles=1_000_000,
        )
