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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True, slots=True)
class LineFill:
    """Timing outcome for one line of a load.

    ``ready_time`` is when the requesting load may complete — unless
    ``needs_assist`` is set, in which case the CABA controller must run a
    decompression assist warp starting at ``fill_time`` and the load
    completes when the subroutine does.
    """

    line: int
    fill_time: float
    ready_time: float
    needs_assist: bool
    encoding: str
    size_bytes: int
    merged: bool = False
    from_l1: bool = False
    #: Deepest level serving the line (MEM_SRC_*; observability only).
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
        #: Observability layer (repro.obs.RunObservation); None = off.
        self.obs = None

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

        algo = image.algorithm
        self._hw_decompress = algo.hw_decompression_latency if algo else 0
        self._hw_compress = algo.hw_compression_latency if algo else 0

    def attach_observer(self, obs) -> None:
        """Install the observability layer on the hierarchy and its
        components (crossbar, memory controllers)."""
        self.obs = obs
        self.crossbar.obs = obs
        for mc in self.mcs:
            mc.obs = obs

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_l1(self, sm_id: int):
        cfg = self.config
        if self.design.l1_tag_mult > 1:
            return CompressedCache(
                cfg.l1_sets, cfg.l1_assoc, cfg.line_size,
                tag_mult=self.design.l1_tag_mult,
            )
        return Cache(cfg.l1_sets, cfg.l1_assoc, name=f"l1[{sm_id}]")

    def _make_l2(self, mc: int):
        cfg = self.config
        if self.design.l2_tag_mult > 1:
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
    # Address mapping
    # ------------------------------------------------------------------
    def mc_of(self, line: int) -> int:
        return line % self.config.n_mcs

    def _local(self, line: int) -> int:
        return line // self.config.n_mcs

    # ------------------------------------------------------------------
    # Size helpers
    # ------------------------------------------------------------------
    def _stored_size(self, line: int) -> tuple[int, str]:
        """Size/encoding of ``line`` as held in the compressed levels."""
        if not self.design.compression_enabled:
            return self.config.line_size, "uncompressed"
        info = self.image.info(line)
        return info.size_bytes, info.encoding

    def _dram_bursts(self, line: int) -> int:
        if self.design.compress_dram:
            return self.image.bursts_of(line)
        return self.config.bursts_per_line

    def _l1_fill_size(self, size_bytes: int) -> int:
        """Bytes the L1 stores for a line of compressed size ``size_bytes``."""
        if self.design.l1_compressed:
            return size_bytes
        return self.config.line_size

    # ------------------------------------------------------------------
    # Cache access adapters (plain vs. compressed tag stores)
    # ------------------------------------------------------------------
    @staticmethod
    def _cache_access(cache, line, size, is_write, allocate=True):
        """Uniform (hit, victims) access over Cache / CompressedCache."""
        if isinstance(cache, CompressedCache):
            result = cache.access(line, size, is_write=is_write, allocate=allocate)
            return result.hit, list(result.evicted)
        result = cache.access(line, is_write=is_write, allocate=allocate)
        victims = []
        if result.evicted_line is not None:
            victims.append((result.evicted_line, result.evicted_dirty))
        return result.hit, victims

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------
    def mshr_available(self, sm_id: int, line: int) -> bool:
        """Whether a miss on ``line`` could be tracked right now."""
        return (
            line in self._inflight[sm_id]
            or self._mshr_used[sm_id] < self.config.l1_mshrs
        )

    def load(self, sm_id: int, line: int, now: float) -> LineFill | None:
        """Issue a load for one line; ``None`` means MSHRs are full
        (structural memory stall — the SM must replay the instruction)."""
        cfg = self.config
        design = self.design
        self.stats.l1_loads += 1

        # In-flight lines first: the L1 tag is allocated at request time,
        # so a probe would otherwise claim the data already arrived.
        pending = self._inflight[sm_id].get(line)
        if pending is not None:
            return LineFill(
                line=pending.line,
                fill_time=pending.fill_time,
                ready_time=pending.ready_time,
                needs_assist=pending.needs_assist,
                encoding=pending.encoding,
                size_bytes=pending.size_bytes,
                merged=True,
                source=pending.source,
            )

        l1 = self._l1s[sm_id]
        if l1.probe(line):
            self.stats.l1_load_hits += 1
            size, encoding = self._stored_size(line)
            needs_assist = (
                design.l1_compressed
                and design.decompress_at == "core_assist"
                and encoding != "uncompressed"
            )
            ready = now + cfg.l1_latency
            if (
                design.l1_compressed
                and design.decompress_at == "core_hw"
                and encoding != "uncompressed"
                and not design.ideal
            ):
                ready += self._hw_decompress
            # Touch LRU state.
            self._cache_access(l1, line, self._l1_fill_size(size), False)
            fill = LineFill(
                line=line,
                fill_time=now + cfg.l1_latency,
                ready_time=ready,
                needs_assist=needs_assist,
                encoding=encoding,
                size_bytes=size,
                from_l1=True,
                source=MEM_SRC_L1,
            )
            if self.obs is not None:
                self.obs.record_fill(fill, now)
            return fill

        if self._mshr_used[sm_id] >= cfg.l1_mshrs:
            self.stats.mshr_stalls += 1
            return None

        fill = self._miss_path(sm_id, line, now)
        self._mshr_used[sm_id] += 1
        self.stats.mshr_allocs += 1
        self._inflight[sm_id][line] = fill
        self.mshr_epoch[sm_id] += 1
        self._cache_access(
            l1, line, self._l1_fill_size(fill.size_bytes), False
        )
        if self.obs is not None:
            self.obs.record_fill(fill, now)
        return fill

    def _miss_path(self, sm_id: int, line: int, now: float) -> LineFill:
        """Compute the full downstream trajectory of an L1 miss."""
        cfg = self.config
        design = self.design
        mc = self.mc_of(line)
        size, encoding = self._stored_size(line)
        compressed = encoding != "uncompressed"

        t_mc = self.crossbar.send_request(mc, now + 1.0, CONTROL_BYTES)
        t_tag = self._l2_tag[mc].reserve(t_mc, L2_TAG_CYCLES) + L2_TAG_CYCLES
        self.stats.l2_accesses += 1
        l2_compressed = (
            design.compress_interconnect and not design.l2_store_uncompressed
        )
        l2_size = size if l2_compressed else cfg.line_size
        hit, victims = self._cache_access(
            self._l2_banks[mc], line, l2_size, is_write=False
        )
        if hit:
            self.stats.l2_hits += 1
            t_data = t_tag + cfg.l2_latency
        else:
            if line in self._spilled:
                t_dram = self.host.transfer(
                    t_tag + cfg.l2_latency, self._dram_bursts(line),
                    is_write=False,
                )
                self.stats.host_reads += 1
            else:
                t_dram = self.mcs[mc].access(
                    t_tag + cfg.l2_latency, self._local(line),
                    self._dram_bursts(line), is_write=False,
                )
                self.stats.dram_reads += 1
            if design.decompress_at == "mc" and compressed and not design.ideal:
                t_dram += self._hw_decompress
            t_data = t_dram
        # Compressed L2 banks can evict on hits too (a line growing in
        # place pushes LRU lines over the data budget).
        self._write_back_victims(mc, victims, t_tag)

        reply_bytes = size if l2_compressed else cfg.line_size
        fill_time = self.crossbar.send_reply(mc, t_data, reply_bytes)

        # With the Section 6.5 uncompressed-L2 option, only fills that
        # actually came from (compressed) DRAM need expanding; L2 hits
        # serve ready-to-use data.
        needs_expansion = compressed and (
            not design.l2_store_uncompressed or not hit
        )
        if needs_expansion and design.decompress_at != "none":
            self.stats.lines_decompressed += 1
        needs_assist = (
            design.decompress_at == "core_assist" and needs_expansion
        )
        source = MEM_SRC_L2 if hit else MEM_SRC_DRAM
        ready = fill_time
        if (
            design.decompress_at == "core_hw"
            and needs_expansion
            and design.compress_interconnect
            and not design.ideal
        ):
            ready += self._hw_decompress
        return LineFill(
            line=line,
            fill_time=fill_time,
            ready_time=ready,
            needs_assist=needs_assist,
            encoding=encoding,
            size_bytes=size,
            source=source,
        )

    def _write_back_victims(
        self, mc: int, victims: list[tuple[int, bool]], at: float
    ) -> None:
        """Send dirty L2 victims to DRAM (off the critical path)."""
        for victim, dirty in victims:
            if not dirty:
                continue
            if victim in self._spilled:
                self.host.transfer(
                    at, self._dram_bursts(victim), is_write=True
                )
                self.stats.host_writes += 1
                continue
            self.mcs[mc].access(
                at, self._local(victim), self._dram_bursts(victim), is_write=True
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
        cfg = self.config
        design = self.design
        self.stats.l1_stores += 1
        mc = self.mc_of(line)

        # Write-evict L1 (global stores do not allocate in the L1).
        self._l1s[sm_id].invalidate(line)

        stored_compressed = (
            design.ideal
            or compressed_by_core
            or design.compress_at in ("mc_hw", "core_hw")
        ) and design.compression_enabled
        if stored_compressed:
            self.stats.lines_compressed += 1
        info = self.image.record_store(line, compressed=stored_compressed)

        wire_compressed = (
            design.compress_interconnect
            and not design.l2_store_uncompressed
            and (compressed_by_core or design.compress_at == "core_hw"
                 or design.ideal)
        )
        wire_bytes = info.size_bytes if wire_compressed else cfg.line_size
        t_mc = self.crossbar.send_request(mc, now, wire_bytes)
        t_tag = self._l2_tag[mc].reserve(t_mc, L2_TAG_CYCLES) + L2_TAG_CYCLES

        l2_size = (
            info.size_bytes
            if design.compress_interconnect and not design.l2_store_uncompressed
            else cfg.line_size
        )
        self.stats.l2_accesses += 1
        hit, victims = self._cache_access(
            self._l2_banks[mc], line, l2_size, is_write=True
        )
        done = t_tag
        if hit:
            self.stats.l2_hits += 1
        else:
            if (
                not full_line
                and design.compress_dram
                and not design.ideal
                and self.image.info(line).is_compressed
            ):
                # Partial write into a compressed line: fetch + decompress
                # before merging (the Section 4.2.2 worst case).
                if line in self._spilled:
                    done = self.host.transfer(
                        t_tag, self._dram_bursts(line), is_write=False
                    )
                else:
                    done = self.mcs[mc].access(
                        t_tag, self._local(line), self._dram_bursts(line),
                        is_write=False,
                    )
                self.stats.rmw_reads += 1
        # Hits may evict as well: a store that grows a compressed line in
        # place can push the set's LRU lines over the data budget.
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

    def l1_stats(self):
        return [l1.stats for l1 in self._l1s]

    def l2_stats(self):
        return [l2.stats for l2 in self._l2_banks]

    @property
    def l1_caches(self):
        return self._l1s
