"""Integration tests for the full memory hierarchy."""

import pytest

from repro import design as designs
from repro.compression import BdiCompressor
from repro.gpu.config import GPUConfig
from repro.memory.hierarchy import MemorySystem
from tests.images import make_image


def narrow_line(line: int) -> bytes:
    base = 0x1122334455660000 + line * 7
    return b"".join((base + i).to_bytes(8, "little") for i in range(16))


def random_line(line: int) -> bytes:
    out = bytearray()
    x = line * 0x9E3779B97F4A7C15 + 1
    for _ in range(16):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        out += x.to_bytes(8, "little")
    return bytes(out)


def make_system(design, compressible=True, config=None):
    config = config or GPUConfig.small()
    algo = BdiCompressor(config.line_size) if design.compression_enabled else None
    gen = narrow_line if compressible else random_line
    image = make_image(algo, config.line_size, gen)
    return MemorySystem(config, design, image), config


class TestLoadPath:
    def test_l1_hit_after_fill(self):
        ms, cfg = make_system(designs.base())
        miss = ms.load(0, 100, 0.0)
        assert not miss.from_l1
        ms.complete_fill(0, 100)
        hit = ms.load(0, 100, miss.ready_time + 1)
        assert hit.from_l1
        assert hit.ready_time == pytest.approx(
            miss.ready_time + 1 + cfg.l1_latency
        )

    def test_miss_latency_includes_downstream(self):
        ms, cfg = make_system(designs.base())
        fill = ms.load(0, 100, 0.0)
        assert fill.ready_time > cfg.l1_latency + cfg.l2_latency

    def test_inflight_merge(self):
        ms, _ = make_system(designs.base())
        first = ms.load(0, 100, 0.0)
        second = ms.load(0, 100, 1.0)
        assert second.merged
        assert second.ready_time == first.ready_time
        assert ms.stats.dram_reads == 1

    def test_mshr_exhaustion(self):
        cfg = GPUConfig.small()
        ms, _ = make_system(designs.base(), config=cfg)
        for i in range(cfg.l1_mshrs):
            assert ms.load(0, 1000 + i, 0.0) is not None
        assert ms.load(0, 5000, 0.0) is None
        assert ms.stats.mshr_stalls == 1

    def test_complete_fill_frees_mshr(self):
        cfg = GPUConfig.small()
        ms, _ = make_system(designs.base(), config=cfg)
        for i in range(cfg.l1_mshrs):
            ms.load(0, 1000 + i, 0.0)
        ms.complete_fill(0, 1000)
        assert ms.load(0, 5000, 0.0) is not None

    def test_mshrs_are_per_sm(self):
        cfg = GPUConfig.small()
        ms, _ = make_system(designs.base(), config=cfg)
        for i in range(cfg.l1_mshrs):
            ms.load(0, 1000 + i, 0.0)
        assert ms.load(1, 9000, 0.0) is not None

    def test_l2_hit_skips_dram(self):
        ms, _ = make_system(designs.base())
        ms.load(0, 100, 0.0)
        ms.complete_fill(0, 100)
        # A different SM misses its L1 but hits the shared L2.
        ms.load(1, 100, 500.0)
        assert ms.stats.dram_reads == 1
        assert ms.stats.l2_hits == 1


class TestCompressionPlacement:
    def test_base_never_needs_assist(self):
        ms, _ = make_system(designs.base())
        fill = ms.load(0, 100, 0.0)
        assert not fill.needs_assist
        assert fill.size_bytes == 128

    def test_caba_fill_needs_assist(self):
        ms, _ = make_system(designs.caba())
        fill = ms.load(0, 100, 0.0)
        assert fill.needs_assist
        assert fill.size_bytes < 128
        assert fill.ready_time == fill.fill_time

    def test_hw_fill_pays_fixed_latency(self):
        ms, _ = make_system(designs.hw())
        fill = ms.load(0, 100, 0.0)
        assert not fill.needs_assist
        assert fill.ready_time == fill.fill_time + 1

    def test_ideal_fill_is_free(self):
        ms, _ = make_system(designs.ideal())
        fill = ms.load(0, 100, 0.0)
        assert not fill.needs_assist
        assert fill.ready_time == fill.fill_time

    def test_incompressible_line_needs_no_assist(self):
        ms, _ = make_system(designs.caba(), compressible=False)
        fill = ms.load(0, 100, 0.0)
        assert not fill.needs_assist
        assert fill.size_bytes == 128

    def test_hw_mem_replies_uncompressed_over_icnt(self):
        caba, _ = make_system(designs.caba())
        hwmem, _ = make_system(designs.hw_mem())
        caba.load(0, 100, 0.0)
        hwmem.load(0, 100, 0.0)
        assert hwmem.crossbar.reply_flits == 4
        assert caba.crossbar.reply_flits < 4

    def test_compressed_dram_reads_fewer_bursts(self):
        base, _ = make_system(designs.base())
        caba, _ = make_system(designs.caba())
        base.load(0, 100, 0.0)
        caba.load(0, 100, 0.0)
        assert caba.dram_bursts()["read"] < base.dram_bursts()["read"]

    def test_metadata_only_for_compressed_dram(self):
        base, _ = make_system(designs.base())
        ideal, _ = make_system(designs.ideal())
        caba, _ = make_system(designs.caba())
        assert base.md_cache_hit_rate() is None
        assert ideal.md_cache_hit_rate() is None
        caba.load(0, 100, 0.0)
        assert caba.md_cache_hit_rate() is not None


class TestStorePath:
    def test_store_invalidates_l1(self):
        ms, _ = make_system(designs.base())
        ms.load(0, 100, 0.0)
        ms.complete_fill(0, 100)
        assert ms.load(0, 100, 1000.0).from_l1
        ms.store(0, 100, 2000.0)
        assert not ms.load(0, 100, 3000.0).from_l1

    def test_dirty_l2_eviction_writes_dram(self):
        cfg = GPUConfig.small()
        ms, _ = make_system(designs.base(), config=cfg)
        l2_lines = cfg.l2_size // cfg.line_size
        mc0_lines = [l for l in range(l2_lines * 8) if l % cfg.n_mcs == 0]
        ms.store(0, mc0_lines[0], 0.0)
        # Thrash the L2 bank until the dirty line leaves.
        for line in mc0_lines[1 : l2_lines * 3]:
            ms.load(0, line, 10.0)
            ms.complete_fill(0, line)
        assert ms.stats.dram_writes >= 1

    def test_uncompressed_store_downgrades_line(self):
        ms, _ = make_system(designs.caba())
        assert ms.image.size_of(100) < 128
        ms.store(0, 100, 0.0, compressed_by_core=False)
        assert ms.image.size_of(100) == 128

    def test_compressed_store_keeps_size(self):
        ms, _ = make_system(designs.caba())
        ms.store(0, 100, 0.0, compressed_by_core=True)
        assert ms.image.size_of(100) < 128
        assert ms.stats.lines_compressed == 1

    def test_partial_write_into_compressed_line_rmw(self):
        ms, cfg = make_system(designs.caba())
        before = ms.stats.rmw_reads
        ms.store(0, 100, 0.0, full_line=False, compressed_by_core=True)
        assert ms.stats.rmw_reads == before + 1

    def test_full_line_write_no_rmw(self):
        ms, _ = make_system(designs.caba())
        ms.store(0, 100, 0.0, full_line=True, compressed_by_core=True)
        assert ms.stats.rmw_reads == 0

    def test_base_store_never_rmw(self):
        ms, _ = make_system(designs.base())
        ms.store(0, 100, 0.0, full_line=False)
        assert ms.stats.rmw_reads == 0


class TestUtilization:
    def test_bandwidth_utilization_grows_with_traffic(self):
        ms, _ = make_system(designs.base())
        for i in range(50):
            ms.load(0, 2000 + i, 0.0)
        busy = ms.bandwidth_utilization(400.0)
        assert 0.2 < busy <= 1.0

    def test_compression_lowers_utilization(self):
        base, _ = make_system(designs.base())
        ideal, _ = make_system(designs.ideal())
        for i in range(50):
            base.load(0, 2000 + i, 0.0)
            ideal.load(0, 2000 + i, 0.0)
        assert (
            ideal.bandwidth_utilization(400.0)
            < base.bandwidth_utilization(400.0)
        )


class TestFig13Caches:
    def test_l2_tag_mult_increases_effective_capacity(self):
        cfg = GPUConfig.small()
        plain, _ = make_system(designs.caba(), config=cfg)
        big, _ = make_system(
            designs.caba_cache("l2", 4), config=cfg
        )
        l2_lines = cfg.l2_size // cfg.line_size
        lines = [l for l in range(l2_lines * 3 * cfg.n_mcs)]
        for ms in (plain, big):
            for line in lines:
                ms.load(0, line, 0.0)
                ms.complete_fill(0, line)
            # Second pass: refetch everything after L1 trashing.
            for line in lines:
                ms._l1s[0].invalidate(line) if hasattr(
                    ms._l1s[0], "invalidate") else None
                ms.load(0, line, 1e6)
        assert big.stats.l2_hits >= plain.stats.l2_hits

    def test_l1_compressed_hits_need_assist(self):
        ms, _ = make_system(designs.caba_cache("l1", 2))
        miss = ms.load(0, 100, 0.0)
        ms.complete_fill(0, 100)
        hit = ms.load(0, 100, miss.ready_time + 10)
        assert hit.from_l1
        assert hit.needs_assist


class TestL2UncompressedOption:
    """Section 6.5: store the L2 uncompressed, decompress on DRAM fills."""

    def test_dram_fill_needs_assist_l2_hit_does_not(self):
        ms, _ = make_system(designs.caba_l2_uncompressed())
        miss = ms.load(0, 100, 0.0)
        assert miss.needs_assist  # came from compressed DRAM
        ms.complete_fill(0, 100)
        # Another SM hits the (uncompressed) L2 copy: no assist needed.
        other = ms.load(1, 100, 2000.0)
        assert not other.from_l1
        assert not other.needs_assist

    def test_replies_travel_uncompressed(self):
        ms, _ = make_system(designs.caba_l2_uncompressed())
        ms.load(0, 100, 0.0)
        assert ms.crossbar.reply_flits == 4

    def test_dram_still_compressed(self):
        l2u, _ = make_system(designs.caba_l2_uncompressed())
        base, _ = make_system(designs.base())
        l2u.load(0, 100, 0.0)
        base.load(0, 100, 0.0)
        assert l2u.dram_bursts()["read"] < base.dram_bursts()["read"]
