"""The global memory system: L1s, crossbar, L2 banks, GDDR5 channels.

This module glues the memory components into the three-level hierarchy of
Section 4.2 (private L1s, a shared banked L2, GDDR5 DRAM) and implements
the design-point-specific compression placement:

* ``Base`` moves full lines everywhere.
* ``HW-*-Mem`` stores compressed lines in DRAM only and decompresses at
  the memory controller (extra fixed latency, full-size interconnect
  replies).
* ``HW-*``, ``CABA-*`` and ``Ideal-*`` keep L2 and the interconnect
  compressed; decompression happens at the core — in fixed hardware
  latency, via an assist warp (the fill is marked ``needs_assist`` and
  the CABA controller gates the load), or for free (ideal).

Timing uses reservation timelines (see :mod:`repro.memory.timeline`), so
a load's entire downstream trajectory is computed at request time; the
SM schedules completion events from the returned times.

The design point is resolved once, at construction, into plain
attributes the request paths read: whether lines carry compressed sizes,
whether L2 and its replies are compressed, where a compressed fill is
decompressed and the fixed latency that adds, the store-side
compression rule, and whether each tag store is a plain
:class:`~repro.memory.cache.Cache` or a Fig. 13
:class:`~repro.memory.compressed_cache.CompressedCache` (which takes a
size on every access and may evict several lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.design import DesignPoint
from repro.gpu.config import GPUConfig
from repro.memory.cache import Cache
from repro.memory.compressed_cache import CompressedCache
from repro.memory.dram import MemoryController
from repro.memory.hostlink import CapacityModel, HostLink
from repro.memory.image import MemoryImage
from repro.memory.interconnect import CONTROL_BYTES, Crossbar
from repro.memory.metadata import MetadataCache
from repro.memory.timeline import Timeline

#: Cycles an L2 bank's tag pipeline is occupied per access.
L2_TAG_CYCLES = 2.0

#: Deepest level a fill travelled to (LineFill.source / warp.mem_source).
MEM_SRC_L1 = 0
MEM_SRC_L2 = 1
MEM_SRC_DRAM = 2


class LineFill(NamedTuple):
    """Timing outcome for one line of a load.

    ``ready_time`` is when the requesting load may complete — unless
    ``needs_assist`` is set, in which case the CABA controller must run a
    decompression assist warp starting at ``fill_time`` and the load
    completes when the subroutine does. Immutable; a named tuple because
    every load builds one, and a frozen dataclass costs several times
    as much to construct.
    """

    line: int
    fill_time: float
    ready_time: float
    needs_assist: bool
    encoding: str
    size_bytes: int
    merged: bool = False
    from_l1: bool = False
    #: Deepest level serving the line (MEM_SRC_*; splits the SM's
    #: DRAM waits from on-chip waits).
    source: int = MEM_SRC_L2


@dataclass
class TrafficStats:
    """System-wide traffic counters."""

    l1_loads: int = 0
    l1_load_hits: int = 0
    l1_stores: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    mshr_stalls: int = 0
    mshr_allocs: int = 0  # MSHR entries taken by L1 misses
    mshr_releases: int = 0  # MSHR entries freed at fill completion
    rmw_reads: int = 0  # partial writes into compressed lines (Sec. 4.2.2)
    lines_decompressed: int = 0  # compressed lines expanded somewhere
    lines_compressed: int = 0  # store lines written in compressed form
    host_reads: int = 0  # capacity mode: spilled-line fetches over the host link
    host_writes: int = 0  # capacity mode: spilled-line writebacks to host


class MemorySystem:
    """Design-point-aware three-level memory hierarchy."""

    def __init__(
        self,
        config: GPUConfig,
        design: DesignPoint,
        image: MemoryImage,
        capacity: CapacityModel | None = None,
    ) -> None:
        if image.line_size != config.line_size:
            raise ValueError("image line size differs from config line size")
        self.config = config
        self.design = design
        self.image = image
        self.stats = TrafficStats()

        # The design, resolved once: the request paths below read plain
        # attributes instead of re-deriving these per request.
        self._line_size = config.line_size
        self._n_mcs = config.n_mcs
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        self._l1_mshrs = config.l1_mshrs
        self._line_bursts = config.bursts_per_line
        self._burst_bytes = image.burst_bytes
        self._compression = design.compression_enabled
        self._compress_dram = design.compress_dram
        # Fig. 13 tag-extended stores take each line's size on access.
        self._l1_sized = design.l1_tag_mult > 1
        self._l2_sized = design.l2_tag_mult > 1
        # L2 banks and their interconnect replies hold compressed sizes.
        self._l2_compressed = (
            design.compress_interconnect and not design.l2_store_uncompressed
        )
        self._l2_store_uncompressed = design.l2_store_uncompressed
        # Who decompresses a compressed fill, and the fixed hardware
        # latency each place adds (0 where it adds none).
        algo = image.algorithm
        hw = algo.hw_decompression_latency if algo and not design.ideal else 0
        where = design.decompress_at
        self._l1_assist = self._l1_sized and where == "core_assist"
        self._l1_decompress = hw if self._l1_sized and where == "core_hw" else 0
        self._mc_decompress = hw if where == "mc" else 0
        self._core_decompress = (
            hw if where == "core_hw" and design.compress_interconnect else 0
        )
        self._assist_decompress = where == "core_assist"
        self._counts_decompress = where != "none"
        # Whether a store is kept compressed, and travels compressed, no
        # matter what the core did; a store the core compressed is also
        # kept compressed (and, with a compressed L2, travels so).
        self._store_compressed = design.compression_enabled and (
            design.ideal or design.compress_at in ("mc_hw", "core_hw")
        )
        self._wire_compressed = self._l2_compressed and (
            design.ideal or design.compress_at == "core_hw"
        )
        # Partial writes into compressed DRAM lines read them first.
        self._rmw = design.compress_dram and not design.ideal

        # Capacity mode: lines the placement plan spilled to host memory
        # bypass the GDDR5 controllers and travel the host link instead.
        self.capacity = capacity
        if capacity is not None:
            self.host: HostLink | None = HostLink(
                capacity.config, config.burst_cycles
            )
            self._spilled = capacity.plan.spilled
        else:
            self.host = None
            self._spilled = frozenset()

        self._l1s = [self._make_l1(i) for i in range(config.n_sms)]
        self._inflight: list[dict[int, LineFill]] = [
            {} for _ in range(config.n_sms)
        ]
        self._mshr_used = [0] * config.n_sms
        #: Bumped whenever an SM's MSHR/in-flight state changes (every
        #: allocation and release). Keys the SM's memoized MSHR stalls;
        #: a single stalled load is re-checked against the MSHR count
        #: and its blocking line instead (SM._issue_global_load).
        self.mshr_epoch = [0] * config.n_sms

        self.crossbar = Crossbar(
            config.n_mcs, latency=config.icnt_latency,
            flit_bytes=config.icnt_flit_bytes,
        )
        self._l2_banks = [self._make_l2(i) for i in range(config.n_mcs)]
        self._l2_tag = [Timeline() for _ in range(config.n_mcs)]
        self.mcs = [
            MemoryController(
                mc_id=i,
                burst_cycles=config.burst_cycles,
                timing=config.dram_timing,
                n_banks=config.banks_per_mc,
                metadata_cache=self._make_md_cache(),
            )
            for i in range(config.n_mcs)
        ]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_l1(self, sm_id: int):
        cfg = self.config
        if self._l1_sized:
            return CompressedCache(
                cfg.l1_sets, cfg.l1_assoc, cfg.line_size,
                tag_mult=self.design.l1_tag_mult,
            )
        return Cache(cfg.l1_sets, cfg.l1_assoc, name=f"l1[{sm_id}]")

    def _make_l2(self, mc: int):
        cfg = self.config
        if self._l2_sized:
            return CompressedCache(
                cfg.l2_sets_per_mc, cfg.l2_assoc, cfg.line_size,
                tag_mult=self.design.l2_tag_mult,
            )
        return Cache(cfg.l2_sets_per_mc, cfg.l2_assoc, name=f"l2[{mc}]")

    def _make_md_cache(self) -> MetadataCache | None:
        if not self.design.needs_metadata:
            return None
        cfg = self.config
        return MetadataCache(
            size_bytes=cfg.md_cache_size,
            assoc=cfg.md_cache_assoc,
            lines_per_entry=cfg.md_lines_per_entry,
        )

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------
    def mshr_available(self, sm_id: int, line: int) -> bool:
        """Whether a miss on ``line`` could be tracked right now."""
        return (
            line in self._inflight[sm_id]
            or self._mshr_used[sm_id] < self._l1_mshrs
        )

    def load(self, sm_id: int, line: int, now: float) -> LineFill | None:
        """Issue a load for one line; ``None`` means MSHRs are full
        (structural memory stall — the SM must replay the instruction)."""
        stats = self.stats
        stats.l1_loads += 1

        # In-flight lines first: the L1 tag is allocated at request time,
        # so a probe would otherwise claim the data already arrived.
        pending = self._inflight[sm_id].get(line)
        if pending is not None:
            return LineFill(
                pending.line, pending.fill_time, pending.ready_time,
                pending.needs_assist, pending.encoding, pending.size_bytes,
                True, False, pending.source,
            )

        l1 = self._l1s[sm_id]
        if l1.hit(line):
            stats.l1_load_hits += 1
            if self._compression:
                info = self.image.info(line)
                size = info.size_bytes
                encoding = info.encoding
            else:
                size = self._line_size
                encoding = "uncompressed"
            fill_time = now + self._l1_latency
            ready = fill_time
            needs_assist = False
            if encoding != "uncompressed":
                needs_assist = self._l1_assist
                ready += self._l1_decompress
            if self._l1_sized:
                # Another SM's store may have changed the line's size.
                l1.resize(line, size)
            return LineFill(
                line, fill_time, ready, needs_assist, encoding, size,
                False, True, MEM_SRC_L1,
            )

        if self._mshr_used[sm_id] >= self._l1_mshrs:
            stats.mshr_stalls += 1
            return None

        fill = self._miss_path(line, now)
        self._mshr_used[sm_id] += 1
        stats.mshr_allocs += 1
        self._inflight[sm_id][line] = fill
        self.mshr_epoch[sm_id] += 1
        if self._l1_sized:
            l1.access(line, fill.size_bytes)
        else:
            l1.access(line)
        return fill

    def _miss_path(self, line: int, now: float) -> LineFill:
        """Compute the full downstream trajectory of an L1 miss."""
        stats = self.stats
        mc = line % self._n_mcs
        if self._compression:
            info = self.image.info(line)
            size = info.size_bytes
            encoding = info.encoding
        else:
            size = self._line_size
            encoding = "uncompressed"
        compressed = encoding != "uncompressed"

        t_mc = self.crossbar.send_request(mc, now + 1.0, CONTROL_BYTES)
        t_tag = self._l2_tag[mc].reserve(t_mc, L2_TAG_CYCLES) + L2_TAG_CYCLES
        stats.l2_accesses += 1
        l2_size = size if self._l2_compressed else self._line_size
        if self._l2_sized:
            hit, victims = self._l2_banks[mc].access(line, l2_size)
        else:
            hit, victim, dirty = self._l2_banks[mc].access(line)
            victims = ((victim, True),) if dirty else ()
        if hit:
            stats.l2_hits += 1
            t_data = t_tag + self._l2_latency
        else:
            bursts = (
                -(-size // self._burst_bytes)
                if self._compress_dram else self._line_bursts
            )
            if line in self._spilled:
                t_data = self.host.transfer(
                    t_tag + self._l2_latency, bursts, is_write=False
                )
                stats.host_reads += 1
            else:
                t_data = self.mcs[mc].access(
                    t_tag + self._l2_latency, line // self._n_mcs, bursts,
                    is_write=False,
                )
                stats.dram_reads += 1
            if compressed:
                t_data += self._mc_decompress
        # Compressed L2 banks can evict on hits too (a line growing in
        # place pushes LRU lines over the data budget).
        if victims:
            self._write_back_victims(mc, victims, t_tag)

        fill_time = self.crossbar.send_reply(mc, t_data, l2_size)

        # With the Section 6.5 uncompressed-L2 option, only fills that
        # actually came from (compressed) DRAM need expanding; L2 hits
        # serve ready-to-use data.
        ready = fill_time
        needs_assist = False
        if compressed and (not self._l2_store_uncompressed or not hit):
            if self._counts_decompress:
                stats.lines_decompressed += 1
            needs_assist = self._assist_decompress
            ready += self._core_decompress
        return LineFill(
            line, fill_time, ready, needs_assist, encoding, size,
            False, False, MEM_SRC_L2 if hit else MEM_SRC_DRAM,
        )

    def _write_back_victims(
        self, mc: int, victims: tuple[tuple[int, bool], ...], at: float
    ) -> None:
        """Send dirty L2 victims to DRAM (off the critical path)."""
        for victim, dirty in victims:
            if not dirty:
                continue
            bursts = (
                self.image.bursts_of(victim)
                if self._compress_dram else self._line_bursts
            )
            if victim in self._spilled:
                self.host.transfer(at, bursts, is_write=True)
                self.stats.host_writes += 1
                continue
            self.mcs[mc].access(
                at, victim // self._n_mcs, bursts, is_write=True
            )
            self.stats.dram_writes += 1

    def complete_fill(self, sm_id: int, line: int) -> None:
        """Release the MSHR tracking ``line`` (called at fill time)."""
        if self._inflight[sm_id].pop(line, None) is not None:
            self._mshr_used[sm_id] -= 1
            self.stats.mshr_releases += 1
            self.mshr_epoch[sm_id] += 1

    def drain_inflight(self) -> None:
        """Release every in-flight MSHR (end-of-kernel drain).

        Demand fills always complete before their warp retires, so this
        is a no-op on plain runs; prefetch-scenario runs can finish with
        assist-issued fills still outstanding, whose completion events
        fall in the dead time after the last warp — their MSHRs drain
        here so allocation/release accounting closes on completed runs.
        """
        for sm_id, per_sm in enumerate(self._inflight):
            for line in list(per_sm):
                self.complete_fill(sm_id, line)

    # ------------------------------------------------------------------
    # Store path
    # ------------------------------------------------------------------
    def store(
        self,
        sm_id: int,
        line: int,
        now: float,
        full_line: bool = True,
        compressed_by_core: bool = False,
    ) -> float:
        """Write one line towards L2/DRAM; returns the L2-update time.

        ``compressed_by_core`` marks stores whose data was compressed at
        the core (HW-at-core designs, or a completed CABA compression
        assist warp). With MC-side compression the line travels
        uncompressed on the interconnect but is recorded compressed.
        """
        stats = self.stats
        stats.l1_stores += 1
        mc = line % self._n_mcs

        # Write-evict L1 (global stores do not allocate in the L1).
        self._l1s[sm_id].invalidate(line)

        stored_compressed = self._store_compressed or (
            compressed_by_core and self._compression
        )
        if stored_compressed:
            stats.lines_compressed += 1
        info = self.image.record_store(line, compressed=stored_compressed)

        wire_compressed = self._wire_compressed or (
            compressed_by_core and self._l2_compressed
        )
        wire_bytes = info.size_bytes if wire_compressed else self._line_size
        t_mc = self.crossbar.send_request(mc, now, wire_bytes)
        t_tag = self._l2_tag[mc].reserve(t_mc, L2_TAG_CYCLES) + L2_TAG_CYCLES

        stats.l2_accesses += 1
        if self._l2_sized:
            l2_size = info.size_bytes if self._l2_compressed else self._line_size
            hit, victims = self._l2_banks[mc].access(line, l2_size, True)
        else:
            hit, victim, dirty = self._l2_banks[mc].access(line, True)
            victims = ((victim, True),) if dirty else ()
        done = t_tag
        if hit:
            stats.l2_hits += 1
        elif not full_line and self._rmw and info.is_compressed:
            # Partial write into a compressed line: fetch + decompress
            # before merging (the Section 4.2.2 worst case).
            bursts = -(-info.size_bytes // self._burst_bytes)
            if line in self._spilled:
                done = self.host.transfer(t_tag, bursts, is_write=False)
            else:
                done = self.mcs[mc].access(
                    t_tag, line // self._n_mcs, bursts, is_write=False
                )
            stats.rmw_reads += 1
        # Hits may evict as well: a store that grows a compressed line in
        # place can push the set's LRU lines over the data budget.
        if victims:
            self._write_back_victims(mc, victims, done)
        return done

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def bandwidth_utilization(self, elapsed: float) -> float:
        """Paper Fig. 8 metric: mean DRAM data-bus busy fraction."""
        if not self.mcs:
            return 0.0
        return sum(mc.utilization(elapsed) for mc in self.mcs) / len(self.mcs)

    def md_cache_hit_rate(self) -> float | None:
        """Aggregate MD-cache hit rate, or None when no MD cache exists."""
        caches = [mc.metadata_cache for mc in self.mcs if mc.metadata_cache]
        accesses = sum(c.accesses for c in caches)
        if not caches or accesses == 0:
            return None
        hits = sum(c.accesses - c.misses for c in caches)
        return hits / accesses

    def dram_bursts(self) -> dict[str, int]:
        out = {
            "read": sum(mc.stats.read_bursts for mc in self.mcs),
            "write": sum(mc.stats.write_bursts for mc in self.mcs),
            "metadata": sum(mc.stats.metadata_bursts for mc in self.mcs),
        }
        if self.host is not None:
            out["host"] = self.host.stats.total_bursts
        return out
