"""Execution statistics: issue-slot classification and instruction counts.

The issue-slot taxonomy follows Figure 1 of the paper: every scheduler
slot every cycle is classified as Active (an instruction issued), a
Compute structural stall (a ready warp blocked by a backed-up ALU/SFU
pipeline), a Memory structural stall (blocked by the LSU or full MSHRs),
a Data Dependence stall (warps exist but their next instructions wait on
the scoreboard), or Idle (no warp has anything to issue).

The SMs count each slot under one of ten refined :class:`StallCat`
categories, which explain *why* a slot stalled; the five Figure-1 slots
are those counts regrouped by :data:`SLOT_OF_CAT`. The refinements:

* An issued slot is ``ISSUE`` for a parent instruction and ``ASSIST``
  for an assist-warp instruction (the framework's overhead).
* A structural memory stall is ``MSHR_FULL`` when any considered warp
  failed the MSHR pre-check, else ``LSU`` (load/store port busy).
* A scoreboard stall is ``DRAM``/``INTERCONNECT`` when a blocked warp
  has a global load in flight (classified by where its most recent load
  was served), else ``SCOREBOARD`` (plain data dependence).
* An idle slot is ``ASSIST_WAIT`` when a warp is gated by a blocking
  assist warp, else ``IDLE``.
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


class StallCat(enum.IntEnum):
    """Refined per-slot categories (each belongs to one :class:`Slot`)."""

    ISSUE = 0  # a parent instruction issued
    ASSIST = 1  # an assist-warp instruction issued (framework overhead)
    COMPUTE = 2  # ready warp blocked by a busy ALU/SFU pipe
    SCOREBOARD = 3  # data dependence on in-flight compute results
    MSHR_FULL = 4  # ready memory op blocked by full MSHRs
    LSU = 5  # ready memory op blocked by the LSU port
    INTERCONNECT = 6  # waiting on a load served by the L2/interconnect
    DRAM = 7  # waiting on a load served by DRAM
    ASSIST_WAIT = 8  # parent warp gated by a blocking assist warp
    IDLE = 9  # nothing to issue


CAT_LABELS = {
    StallCat.ISSUE: "Parent Issue",
    StallCat.ASSIST: "Assist-Warp Issue",
    StallCat.COMPUTE: "Compute Pipe Stall",
    StallCat.SCOREBOARD: "Scoreboard Stall",
    StallCat.MSHR_FULL: "MSHR-Full Stall",
    StallCat.LSU: "LSU Stall",
    StallCat.INTERCONNECT: "Interconnect Wait",
    StallCat.DRAM: "DRAM Wait",
    StallCat.ASSIST_WAIT: "Assist-Warp Wait",
    StallCat.IDLE: "Idle",
}

#: Figure-1 slot of each category, in category order.
SLOT_OF_CAT = (
    Slot.ACTIVE,  # ISSUE
    Slot.ACTIVE,  # ASSIST
    Slot.COMPUTE_STALL,  # COMPUTE
    Slot.DATA_STALL,  # SCOREBOARD
    Slot.MEMORY_STALL,  # MSHR_FULL
    Slot.MEMORY_STALL,  # LSU
    Slot.DATA_STALL,  # INTERCONNECT
    Slot.DATA_STALL,  # DRAM
    Slot.IDLE,  # ASSIST_WAIT
    Slot.IDLE,  # IDLE
)


def slots_of(stalls: list[int]) -> list[int]:
    """Per-category counts regrouped into the five Figure-1 slots."""
    out = [0] * len(Slot)
    for cat, count in enumerate(stalls):
        out[SLOT_OF_CAT[cat]] += count
    return out

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

    #: Issue slots per :class:`StallCat`; they sum to cycles x
    #: schedulers.
    stalls: list[int] = field(default_factory=lambda: [0] * len(StallCat))
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
    #: than detailed execution (subset of ``stalls``; zero on exact
    #: runs). See :mod:`repro.gpu.sampling`.
    extrapolated_slots: int = 0

    @property
    def slots(self) -> list[int]:
        """The Figure-1 slot counts: ``stalls`` regrouped by slot."""
        return slots_of(self.stalls)

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
            for slot, count in zip(Slot, sm.slots):
                totals[slot] += count
        return totals

    def slot_breakdown(self) -> dict[Slot, float]:
        """Normalized Figure-1 breakdown over all issue slots."""
        totals = self.slot_totals()
        denom = sum(totals.values())
        if denom == 0:
            return {slot: 0.0 for slot in Slot}
        return {slot: totals[slot] / denom for slot in Slot}

    def stall_counts(self) -> dict:
        """JSON-ready stall counts: per SM, totals, and the slots each
        SM charged by extrapolation."""
        names = [cat.name.lower() for cat in StallCat]
        per_sm = [list(sm.stalls) for sm in self.sms]
        return {
            "categories": names,
            "per_sm": per_sm,
            "totals": {
                name: sum(counts[cat] for counts in per_sm)
                for cat, name in enumerate(names)
            },
            "extrapolated": [sm.extrapolated_slots for sm in self.sms],
        }

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
