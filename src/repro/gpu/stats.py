"""Execution statistics: issue-slot classification and instruction counts.

The issue-slot taxonomy follows Figure 1 of the paper: every scheduler
slot every cycle is classified as Active (an instruction issued), a
Compute structural stall (a ready warp blocked by a backed-up ALU/SFU
pipeline), a Memory structural stall (blocked by the LSU or full MSHRs),
a Data Dependence stall (warps exist but their next instructions wait on
the scoreboard), or Idle (no warp has anything to issue).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Slot(enum.IntEnum):
    """Per-cycle, per-scheduler issue-slot classification (Fig. 1)."""

    ACTIVE = 0
    COMPUTE_STALL = 1
    MEMORY_STALL = 2
    DATA_STALL = 3
    IDLE = 4


SLOT_LABELS = {
    Slot.ACTIVE: "Active Cycles",
    Slot.COMPUTE_STALL: "Compute Stalls",
    Slot.MEMORY_STALL: "Memory Stalls",
    Slot.DATA_STALL: "Data Dependence Stalls",
    Slot.IDLE: "Idle Cycles",
}

#: Slots whose classification is a function of scheduler-visible warp
#: state alone (scoreboard masks, barrier/assist gating). The
#: screened issue path (repro.gpu.soa) may replay such a classification
#: verbatim while that state is unchanged.
STATE_ONLY_SLOTS = frozenset({Slot.DATA_STALL, Slot.IDLE})

#: Slots additionally gated by shared execution-unit state (LSU/SFU/
#: heavy-ALU reservations, MSHR occupancy); replaying them also
#: requires the unit state to be provably unchanged.
UNIT_SLOTS = frozenset({Slot.COMPUTE_STALL, Slot.MEMORY_STALL})


@dataclass
class SmStats:
    """Counters for one SM."""

    slots: list[int] = field(default_factory=lambda: [0] * len(Slot))
    parent_instructions: int = 0
    assist_instructions: int = 0
    assist_warps_completed: int = 0
    assist_warps_cancelled: int = 0
    alu_ops: int = 0
    sfu_ops: int = 0
    loads: int = 0
    stores: int = 0
    shared_accesses: int = 0
    warps_finished: int = 0
    blocks_finished: int = 0
    register_reads: int = 0
    register_writes: int = 0
    #: Issue slots charged by interval-sampling extrapolation rather
    #: than detailed execution (subset of ``slots``; zero on exact
    #: runs). See :mod:`repro.gpu.sampling`.
    extrapolated_slots: int = 0

    @property
    def instructions(self) -> int:
        return self.parent_instructions + self.assist_instructions


@dataclass
class SimStats:
    """Aggregated machine statistics for one run."""

    cycles: int = 0
    sms: list[SmStats] = field(default_factory=list)

    # ------------------------------------------------------------------
    def _sum(self, attr: str) -> int:
        return sum(getattr(sm, attr) for sm in self.sms)

    @property
    def instructions(self) -> int:
        return self._sum("parent_instructions") + self._sum("assist_instructions")

    @property
    def parent_instructions(self) -> int:
        return self._sum("parent_instructions")

    @property
    def assist_instructions(self) -> int:
        return self._sum("assist_instructions")

    @property
    def ipc(self) -> float:
        """Parent-instruction IPC — the paper's performance metric.

        Assist-warp instructions are framework overhead, not application
        progress, so they are excluded (otherwise CABA would get credit
        for its own overhead work).
        """
        if self.cycles == 0:
            return 0.0
        return self.parent_instructions / self.cycles

    @property
    def extrapolated_slots(self) -> int:
        """Slots accounted by interval-sampling extrapolation (0 on
        exact runs)."""
        return self._sum("extrapolated_slots")

    def slot_totals(self) -> dict[Slot, int]:
        totals = {slot: 0 for slot in Slot}
        for sm in self.sms:
            for slot in Slot:
                totals[slot] += sm.slots[slot]
        return totals

    def slot_breakdown(self) -> dict[Slot, float]:
        """Normalized Figure-1 breakdown over all issue slots."""
        totals = self.slot_totals()
        denom = sum(totals.values())
        if denom == 0:
            return {slot: 0.0 for slot in Slot}
        return {slot: totals[slot] / denom for slot in Slot}

    def counters(self) -> dict[str, int]:
        """Raw activity counters consumed by the energy model."""
        return {
            "alu_ops": self._sum("alu_ops"),
            "sfu_ops": self._sum("sfu_ops"),
            "loads": self._sum("loads"),
            "stores": self._sum("stores"),
            "shared_accesses": self._sum("shared_accesses"),
            "register_reads": self._sum("register_reads"),
            "register_writes": self._sum("register_writes"),
            "instructions": self.instructions,
            "assist_instructions": self.assist_instructions,
        }
