"""Unit tests for the capacity-mode placement plan and host link."""

import math

import pytest

from repro.memory.hostlink import (
    CapacityConfig,
    CapacityPlan,
    HostLink,
    plan_capacity,
)


class TestCapacityConfig:
    def test_defaults_valid(self):
        config = CapacityConfig(device_bytes=1 << 20)
        assert config.host_latency == 600.0
        assert config.host_bw_scale == 0.25

    @pytest.mark.parametrize("kwargs", [
        {"device_bytes": 0},
        {"device_bytes": -128},
        {"device_bytes": 128, "host_latency": -1.0},
        {"device_bytes": 128, "host_bw_scale": 0.0},
        {"device_bytes": 128, "host_bw_scale": 1.5},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            CapacityConfig(**kwargs)


class TestPlanCapacity:
    LINE = 128

    def plan(self, extents, budget, size_of=None):
        return plan_capacity(
            extents, self.LINE,
            size_of or (lambda line: self.LINE),
            CapacityConfig(device_bytes=budget),
        )

    def test_everything_fits(self):
        plan = self.plan([(0, 8)], budget=8 * self.LINE)
        assert plan.spilled == frozenset()
        assert plan.resident_bytes == 8 * self.LINE
        assert plan.spill_fraction == 0.0

    def test_overflow_spills_highest_addresses(self):
        plan = self.plan([(0, 8)], budget=5 * self.LINE)
        assert plan.spilled == frozenset({5, 6, 7})
        assert plan.spill_fraction == pytest.approx(3 / 8)

    def test_extents_place_in_ascending_order(self):
        # Deliberately unsorted extents: placement must still be by
        # address, so the high extent spills first.
        plan = self.plan([(100, 4), (0, 4)], budget=6 * self.LINE)
        assert plan.spilled == frozenset({102, 103})

    def test_compressed_sizes_fit_more_lines(self):
        uncompressed = self.plan([(0, 8)], budget=4 * self.LINE)
        compressed = self.plan(
            [(0, 8)], budget=4 * self.LINE,
            size_of=lambda line: self.LINE // 2,
        )
        assert len(uncompressed.spilled) == 4
        assert compressed.spilled == frozenset()
        assert compressed.stored_bytes == 4 * self.LINE

    def test_effective_capacity_ratio(self):
        # 8 lines fit compressed in a 4-line budget: the budget holds
        # twice its size in uncompressed bytes.
        plan = self.plan(
            [(0, 8)], budget=4 * self.LINE,
            size_of=lambda line: self.LINE // 2,
        )
        assert plan.effective_capacity_ratio == pytest.approx(2.0)
        assert plan.footprint_bytes == 8 * self.LINE

    def test_empty_extents(self):
        plan = self.plan([], budget=self.LINE)
        assert plan.total_lines == 0
        assert plan.spill_fraction == 0.0
        assert plan.effective_capacity_ratio == 0.0

    def test_plan_is_frozen_and_deterministic(self):
        a = self.plan([(0, 16)], budget=9 * self.LINE)
        b = self.plan([(0, 16)], budget=9 * self.LINE)
        assert a == b
        assert isinstance(a, CapacityPlan)
        with pytest.raises(AttributeError):
            a.total_lines = 5


class TestHostLink:
    def make(self, latency=600.0, scale=0.25, dram_burst_cycles=2.0):
        config = CapacityConfig(
            device_bytes=1 << 20, host_latency=latency,
            host_bw_scale=scale,
        )
        return HostLink(config, dram_burst_cycles=dram_burst_cycles)

    def test_bandwidth_scale_stretches_bursts(self):
        link = self.make(scale=0.25, dram_burst_cycles=2.0)
        assert link.burst_cycles == 8

    def test_non_divisor_scale_quantizes_with_ceil(self):
        """The timing regression: 2.0 / 0.3 is 6.67 fractional cycles;
        the link must charge whole cycles (rounded up, never faster
        than the configured fraction)."""
        link = self.make(scale=0.3, dram_burst_cycles=2.0)
        assert link.burst_cycles == 7
        assert isinstance(link.burst_cycles, int)

    def test_non_divisor_scale_conservation_identity_is_exact(self):
        """bursts x burst_cycles == bus.busy_time must hold exactly —
        not approximately — for a non-divisor host_bw_scale, which the
        old float division broke by accumulating fractional cycles."""
        link = self.make(latency=50.0, scale=0.3, dram_burst_cycles=2.0)
        for i in range(100):
            link.transfer(at=float(3 * i), bursts=1 + i % 4,
                          is_write=i % 3 == 0)
        assert link.stats.total_bursts * link.burst_cycles \
            == link.bus.busy_time

    def test_transfer_pays_latency_then_bus(self):
        link = self.make(latency=100.0, scale=1.0, dram_burst_cycles=2.0)
        done = link.transfer(at=0.0, bursts=4, is_write=False)
        assert done == pytest.approx(100.0 + 4 * 2.0)

    def test_serial_bus_queues_transfers(self):
        link = self.make(latency=0.0, scale=1.0, dram_burst_cycles=2.0)
        first = link.transfer(at=0.0, bursts=4, is_write=False)
        second = link.transfer(at=0.0, bursts=4, is_write=True)
        assert second >= first  # one bus: the second transfer waits

    def test_burst_conservation_by_construction(self):
        link = self.make()
        for i in range(20):
            link.transfer(at=float(i), bursts=1 + i % 3, is_write=i % 2 == 0)
        charged = link.stats.total_bursts * link.burst_cycles
        assert math.isclose(charged, link.bus.busy_time,
                            rel_tol=1e-9, abs_tol=1e-6)

    def test_stats_split_reads_and_writes(self):
        link = self.make()
        link.transfer(0.0, 2, is_write=False)
        link.transfer(0.0, 3, is_write=True)
        assert link.stats.reads == 1
        assert link.stats.writes == 1
        assert link.stats.read_bursts == 2
        assert link.stats.write_bursts == 3
        assert link.stats.total_bursts == 5
