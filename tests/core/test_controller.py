"""Behavioural tests for the CABA controller (AWC/AWT/AWB)."""

import heapq

import pytest

from repro import design as designs
from repro.compression import BdiCompressor
from repro.core.controller import CabaController
from repro.core.params import CabaParams
from repro.core.subroutines import SubroutineLibrary
from repro.gpu.config import GPUConfig
from repro.gpu.isa import Instr, MemSpace, OpKind, Program, reg_mask
from repro.gpu.sm import SM
from repro.gpu.soa import SoAState
from repro.gpu.warp import BlockContext, WarpContext
from repro.memory.hierarchy import MemorySystem
from tests.images import make_image


def narrow_line(line: int) -> bytes:
    base = 0x1122334455660000 + line * 3
    return b"".join((base + i).to_bytes(8, "little") for i in range(16))


class CabaHarness:
    """One SM with a CABA controller, manual clock and events."""

    def __init__(self, params=None, design=None):
        self.config = GPUConfig.small()
        design = design or designs.caba()
        image = make_image(
            BdiCompressor(self.config.line_size), self.config.line_size,
            narrow_line,
        )
        self.memory = MemorySystem(self.config, design, image)
        self.events = []
        self.seq = 0
        self.retired = []
        self.soa = SoAState(1, self.config.schedulers_per_sm,
                            self.config.warps_per_sm)
        self.sm = SM(0, self.config, self.memory,
                     schedule=self._schedule,
                     on_block_retired=self.retired.append,
                     soa=self.soa)
        self.caba = CabaController(
            self.sm, params or CabaParams(), SubroutineLibrary(), "bdi"
        )
        self.sm.caba = self.caba
        self.cycle = 0

    def _schedule(self, cycle, fn):
        self.seq += 1
        heapq.heappush(self.events, (max(self.cycle + 1, int(cycle)),
                                     self.seq, fn))

    def add_warps(self, programs):
        block = BlockContext(0)
        for i, program in enumerate(programs):
            block.warps.append(WarpContext(self.soa, self.soa.alloc(0), i,
                                           block, program, age=i))
        self.sm.add_block(block)
        return block.warps

    def run(self, cycles):
        for _ in range(cycles):
            while self.events and self.events[0][0] <= self.cycle:
                _, _, fn = heapq.heappop(self.events)
                fn()
            self.sm.tick(self.cycle)
            self.cycle += 1


def load_consume_prog(line, iterations=1):
    body = (
        Instr(OpKind.LOAD, dst_mask=reg_mask(3), src_mask=reg_mask(0),
              space=MemSpace.GLOBAL,
              addr_fn=lambda w, i, line=line: (line + w * 100 + i,)),
        Instr(OpKind.ALU, latency=4, dst_mask=reg_mask(1),
              src_mask=reg_mask(3)),
    )
    return Program(body=body, iterations=iterations)


def store_prog(line, iterations=1):
    body = (
        Instr(OpKind.ALU, latency=1, dst_mask=reg_mask(1),
              src_mask=reg_mask(0)),
        Instr(OpKind.STORE, latency=1, src_mask=reg_mask(1),
              space=MemSpace.GLOBAL,
              addr_fn=lambda w, i, line=line: (line + w * 100 + i,)),
    )
    return Program(body=body, iterations=iterations)


class TestDecompression:
    def test_load_gated_by_assist_warp(self):
        h = CabaHarness()
        h.add_warps([load_consume_prog(1000)])
        h.run(2)
        assert h.sm.stats.parent_instructions == 1
        h.run(1500)
        assert h.sm.stats.parent_instructions == 2
        assert h.caba.stats.decompressions_triggered == 1
        assert h.caba.stats.assist_warps_completed >= 1
        assert h.sm.stats.assist_instructions > 0

    def test_decompression_slower_than_ideal(self):
        h_caba = CabaHarness()
        h_caba.add_warps([load_consume_prog(1000)])
        h_caba.run(1500)
        h_ideal = CabaHarness(design=designs.ideal())
        # Ideal designs don't trigger assists; the controller stays idle.
        h_ideal.add_warps([load_consume_prog(1000)])
        h_ideal.run(1500)
        assert h_ideal.caba.stats.decompressions_triggered == 0

    def test_parent_blocked_while_decompressing(self):
        h = CabaHarness()
        warps = h.add_warps([load_consume_prog(1000)])
        h.run(2)
        # Find the cycle the fill lands, then check blocking.
        blocked_seen = False
        for _ in range(1500):
            h.run(1)
            if warps[0].assist_block > 0:
                blocked_seen = True
                break
        assert blocked_seen

    def test_merged_loads_share_one_assist(self):
        h = CabaHarness()
        program = load_consume_prog(1000)
        # Two warps loading the same line (warp index folded out).
        body = (
            Instr(OpKind.LOAD, dst_mask=reg_mask(3), src_mask=reg_mask(0),
                  space=MemSpace.GLOBAL, addr_fn=lambda w, i: (7777,)),
            Instr(OpKind.ALU, latency=4, dst_mask=reg_mask(1),
                  src_mask=reg_mask(3)),
        )
        shared = Program(body=body, iterations=1)
        h.add_warps([shared, shared])
        h.run(1500)
        assert h.caba.stats.decompressions_triggered == 1
        assert h.sm.stats.parent_instructions == 4

    def test_serial_decompressions_per_parent(self):
        """Only one decompression instance per parent warp at a time
        (Section 3.2.2)."""
        h = CabaHarness()
        body = (
            Instr(OpKind.LOAD, dst_mask=reg_mask(3), src_mask=reg_mask(0),
                  space=MemSpace.GLOBAL,
                  addr_fn=lambda w, i: (9000, 9100, 9200)),
            Instr(OpKind.ALU, latency=4, dst_mask=reg_mask(1),
                  src_mask=reg_mask(3)),
        )
        h.add_warps([Program(body=body, iterations=1)])
        h.run(2500)
        assert h.caba.stats.decompressions_triggered == 3
        assert h.sm.stats.parent_instructions == 2


class TestCompression:
    def test_stores_compressed_through_buffer(self):
        h = CabaHarness()
        h.add_warps([store_prog(2000, iterations=3)])
        h.run(800)
        h.caba.flush(h.cycle)
        stats = h.caba.stats
        assert stats.compressions_triggered >= 1
        assert stats.stores_released_compressed >= 1

    def test_buffer_overflow_releases_uncompressed(self):
        h = CabaHarness(params=CabaParams(store_buffer_lines=2))
        h.add_warps([store_prog(3000, iterations=12)])
        h.run(60)
        assert h.caba.stats.store_buffer_overflows > 0
        assert h.caba.stats.stores_released_uncompressed > 0

    def test_flush_drains_buffer(self):
        h = CabaHarness()
        h.add_warps([store_prog(4000, iterations=4)])
        h.run(30)
        h.caba.flush(h.cycle)
        assert h.caba.store_buffer_occupancy == 0

    def test_throttling_blocks_low_priority_spawn(self):
        h = CabaHarness(params=CabaParams(throttle_threshold=0.01,
                                          utilization_ema_alpha=1.0))
        h.add_warps([store_prog(5000, iterations=6)])
        h.run(100)
        # Constant issue activity with an absurdly low threshold keeps
        # compression throttled; nothing spawns while entries wait.
        assert h.caba.stats.throttled_cycles > 0

    def test_no_throttling_ablation(self):
        h = CabaHarness(params=CabaParams(throttling_enabled=False,
                                          throttle_threshold=0.01))
        h.add_warps([store_prog(6000, iterations=4)])
        h.run(800)
        h.caba.flush(h.cycle)
        assert h.caba.stats.throttled_cycles == 0
        assert h.caba.stats.stores_released_compressed >= 1


class TestAwtCapacity:
    def test_awt_full_queues_decompressions(self):
        h = CabaHarness(params=CabaParams(awt_capacity=1))
        h.add_warps([load_consume_prog(1000 + k) for k in range(4)])
        h.run(3000)
        assert h.caba.stats.awt_full_events >= 1
        # All loads eventually complete despite the tiny AWT.
        assert h.sm.stats.parent_instructions == 8


class TestLowPriorityScheduling:
    def test_low_priority_only_in_idle_slots(self):
        """Compression assist instructions must not displace parent
        issue: with busy parents, assist instruction count stays low
        until parents stall."""
        h = CabaHarness()
        h.add_warps([store_prog(8000, iterations=8)])
        h.run(1000)
        h.caba.flush(h.cycle)
        # Assist instructions issued while parent warps were idle.
        assert h.sm.stats.assist_instructions > 0
