"""Unit tests for statistics aggregation."""

import pytest

from repro.gpu.stats import (
    SLOT_LABELS,
    SLOT_OF_CAT,
    SimStats,
    Slot,
    SmStats,
    StallCat,
)


class TestSmStats:
    def test_instruction_totals(self):
        sm = SmStats()
        sm.parent_instructions = 10
        sm.assist_instructions = 4
        assert sm.instructions == 14


class TestSimStats:
    def make(self):
        stats = SimStats(cycles=100)
        for k in range(2):
            sm = SmStats()
            sm.parent_instructions = 50
            sm.assist_instructions = 10
            sm.stalls[StallCat.ISSUE] = 40
            sm.stalls[StallCat.ASSIST] = 20
            sm.stalls[StallCat.MSHR_FULL] = 50
            sm.stalls[StallCat.LSU] = 30
            sm.stalls[StallCat.IDLE] = 60
            sm.alu_ops = 30
            stats.sms.append(sm)
        return stats

    def test_ipc_counts_parent_work_only(self):
        stats = self.make()
        assert stats.ipc == pytest.approx(100 / 100)
        assert stats.instructions == 120

    def test_ipc_zero_cycles(self):
        assert SimStats(cycles=0).ipc == 0.0

    def test_slot_breakdown_normalized(self):
        stats = self.make()
        breakdown = stats.slot_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown[Slot.ACTIVE] == pytest.approx(120 / 400)

    def test_slots_regroup_the_stall_counts(self):
        sm = self.make().sms[0]
        assert sm.slots == [60, 0, 80, 0, 60]
        assert len(SLOT_OF_CAT) == len(StallCat)
        assert all(isinstance(slot, Slot) for slot in SLOT_OF_CAT)

    def test_stall_counts_export(self):
        counts = self.make().stall_counts()
        assert counts["categories"] == [c.name.lower() for c in StallCat]
        assert counts["per_sm"][0][StallCat.LSU] == 30
        assert counts["totals"]["issue"] == 80
        assert sum(counts["totals"].values()) == 400
        assert counts["extrapolated"] == [0, 0]

    def test_empty_breakdown(self):
        assert sum(SimStats().slot_breakdown().values()) == 0.0

    def test_counters_for_energy_model(self):
        counters = self.make().counters()
        assert counters["alu_ops"] == 60
        assert counters["assist_instructions"] == 20
        assert counters["instructions"] == 120

    def test_all_slots_labelled(self):
        assert set(SLOT_LABELS) == set(Slot)
