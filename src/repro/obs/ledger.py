"""The stall-attribution ledger.

Figure 1's issue-slot taxonomy (:class:`repro.gpu.stats.Slot`) explains
*that* a scheduler slot stalled; this ledger explains *why*. When
tracing is enabled, every (SM, scheduler) issue slot of every cycle is
charged to exactly one refined :class:`StallCat` category and to one
responsible warp, so the paper's bottleneck claims (memory-bound stalls,
MSHR/LSU hazards, assist-warp overhead) can be audited and
regression-tested instead of eyeballed.

Two invariants make the ledger trustworthy (and are enforced by
``tests/obs/test_ledger_invariants.py``):

* **Completeness** — per SM, the category counts sum exactly to
  ``cycles * schedulers_per_sm``; nothing is double-charged or dropped.
* **Reconciliation** — grouping the refined categories by
  :data:`SLOT_OF_CAT` reproduces the coarse ``SmStats.slots`` counters
  bit-exactly, so the ledger can never drift from the stats the figures
  are built on.

The refinement rules (applied only on the traced path, so the default
hot path never pays for them):

* An issued slot is ``ISSUE`` for a parent instruction and ``ASSIST``
  for an assist-warp instruction (the framework's overhead).
* A structural memory stall is ``MSHR_FULL`` when any considered warp
  failed the MSHR pre-check, else ``LSU`` (load/store port busy).
* A scoreboard stall is ``DRAM``/``INTERCONNECT`` when a blocked warp
  has a global load in flight (classified by where the most recent load
  was served), else ``SCOREBOARD`` (plain data dependence).
* An idle slot is ``ASSIST_WAIT`` when a warp is gated by a blocking
  decompression assist warp, else ``IDLE``.
"""

from __future__ import annotations

import enum

from repro.gpu.stats import Slot

#: Synthetic warp id charged for slots no parent warp is responsible for.
NO_WARP = -1
#: Synthetic warp id charged for issued assist-warp instructions.
ASSIST_WARP = -2
#: Synthetic warp id charged for extrapolated (sampled-skip) slots —
#: see :mod:`repro.gpu.sampling`. Keeping them on their own warp id
#: means the measured per-warp attribution is never diluted by
#: extrapolation, while the per-SM completeness and slot-reconciliation
#: invariants still close over sampled runs.
EXTRAP_WARP = -3


class StallCat(enum.IntEnum):
    """Refined per-slot attribution categories."""

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


N_CATS = len(StallCat)

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

#: Coarse Figure-1 slot each category belongs to. Grouping ledger counts
#: by this table must reproduce ``SmStats.slots`` exactly.
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


class StallLedger:
    """Per-SM, per-warp refined issue-slot accounting.

    ``charge`` is called exactly once per (SM, scheduler) slot per
    simulated cycle (fast-forwarded gaps are charged in bulk with the
    last classification, mirroring ``SmStats`` replay semantics), so the
    completeness invariant holds by construction.
    """

    def __init__(self, n_sms: int, n_schedulers: int, chrome=None) -> None:
        self.n_sms = n_sms
        self.n_schedulers = n_schedulers
        #: counts[sm][cat] — the invariant-bearing aggregate.
        self.sm_counts: list[list[int]] = [[0] * N_CATS for _ in range(n_sms)]
        #: per-SM {warp_id: [count per cat]}; warp ids are kernel-global
        #: warp indices, plus :data:`NO_WARP` / :data:`ASSIST_WARP`.
        self.warp_counts: list[dict[int, list[int]]] = [
            {} for _ in range(n_sms)
        ]
        #: Per-SM count of slots charged by extrapolation (sampled
        #: skips) rather than detailed execution; zero on exact runs.
        self.extrapolated: list[int] = [0] * n_sms
        #: Optional chrome-trace collector fed per charge (see
        #: :mod:`repro.obs.chrome`).
        self.chrome = chrome

    # ------------------------------------------------------------------
    def charge(self, sm_id: int, sched: int, cat: int, warp_id: int,
               n: int = 1) -> None:
        """Attribute ``n`` slots of scheduler ``sched`` to ``cat``."""
        self.sm_counts[sm_id][cat] += n
        rows = self.warp_counts[sm_id]
        row = rows.get(warp_id)
        if row is None:
            rows[warp_id] = row = [0] * N_CATS
        row[cat] += n
        chrome = self.chrome
        if chrome is not None:
            chrome.note_slot(sm_id, sched, cat, n)

    def charge_extrapolated(self, sm_id: int, sched: int, cat: int,
                            n: int) -> None:
        """Attribute ``n`` extrapolated (sampled-skip) slots: charged to
        the synthetic :data:`EXTRAP_WARP` and tallied separately so
        sampled runs stay auditable."""
        self.extrapolated[sm_id] += n
        self.charge(sm_id, sched, cat, EXTRAP_WARP, n)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def totals(self) -> dict[StallCat, int]:
        out = {cat: 0 for cat in StallCat}
        for counts in self.sm_counts:
            for cat in StallCat:
                out[cat] += counts[cat]
        return out

    def slot_view(self, sm_id: int) -> list[int]:
        """Ledger counts regrouped into the five Figure-1 slots; must
        equal ``SmStats.slots`` for the same SM."""
        out = [0] * len(Slot)
        for cat, count in enumerate(self.sm_counts[sm_id]):
            out[SLOT_OF_CAT[cat]] += count
        return out

    def attributed_slots(self, sm_id: int) -> int:
        """Total slots charged for one SM (= cycles * schedulers)."""
        return sum(self.sm_counts[sm_id])

    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Deterministic, JSON-ready view of the ledger."""
        return {
            "categories": [cat.name.lower() for cat in StallCat],
            "per_sm": [list(counts) for counts in self.sm_counts],
            "per_warp": [
                {str(wid): list(row) for wid, row in sorted(rows.items())}
                for rows in self.warp_counts
            ],
            "totals": {
                cat.name.lower(): count
                for cat, count in self.totals().items()
            },
            "extrapolated": list(self.extrapolated),
        }
