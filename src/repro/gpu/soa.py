"""Live screen codes for scheduler-visible warp state.

The per-warp issue scan in :mod:`repro.gpu.sm` is the innermost loop of
the simulator: every scheduler, every cycle, walks its warps and asks
each one "could you issue?". Almost every answer is "no, same reason as
last cycle" — the warp is scoreboard-blocked on an in-flight load, or
parked at a barrier, or the whole scheduler is idle. This module holds
the machinery that lets the SM answer those questions without an issue
attempt per warp:

* ``SoAState.code`` holds one *screen code* per resident warp slot,
  classifying the warp as *candidate* (the code is its instruction
  class), *scoreboard blocked* or *inactive*. The codes are live: every
  site that mutates a screen-visible field (``pc``, ``pending_mask``,
  ``finished``, ``at_barrier``, ``assist_block``) calls
  ``repro.gpu.warp.touch``, which recomputes the slot's code on the
  spot, so the scan reads them directly and they can never be stale.
* A per-scheduler *sequence counter* is bumped by every such mutation.
  A memoized scan result is valid for a scheduler exactly while its
  sequence counter is unchanged; anything that could change the scan
  outcome (an event callback clearing a scoreboard bit, a barrier
  release, a block dispatch) invalidates it by construction.

Everything is plain Python lists: at the per-slot granularity of the
mutation sites, list stores beat any vectorized recompute, and the
simulator needs no numpy.
"""

from __future__ import annotations

from repro.gpu.isa import MemSpace, OpKind


def soa_enabled() -> bool:
    """Always True: the screened issue path is the simulator's only
    issue path. Kept so run-provenance records that report the
    simulator path keep their field."""
    return True


#: Screen codes (one per warp slot). A candidate's code is its
#: *instruction class*: the execution unit whose reservation every issue
#: path for that op kind checks before any side effect. When that unit
#: is busy the scan can skip the issue attempt entirely — the status and
#: wake hint the attempt would have produced are determined by the
#: class alone.
KLASS_ANY = 0  # always structurally issuable (light ALU, SYNC, MEMO)
KLASS_MEM = 1  # STORE / on-chip LOAD: gated on the LSU port
KLASS_SFU = 2  # gated on the SFU initiation interval
KLASS_HEAVY = 3  # long-latency ALU: gated on the narrow heavy pipe
#: Global LOAD: gated on the LSU port, then on the armed per-warp MSHR
#: pre-check (MSHRs still full and the recorded blocking line still not
#: in flight -> the pre-check fails again, side-effect free).
KLASS_GLOAD = 4
SCREEN_BLOCKED = 16  # scoreboard-blocked on its next instruction
SCREEN_INACTIVE = 32  # finished, at a barrier, or assist-gated


class SoAState:
    """Per-slot screen codes plus the per-scheduler invalidation seqs.

    Warp slots are global across the machine: SM ``i`` owns slots
    ``[i * cap, (i + 1) * cap)`` where ``cap`` is the per-SM residency
    limit. Scheduler ids ("gids") are global too:
    ``gid = sm_id * schedulers_per_sm + sched``. A slot that is not
    bound to a scheduler points at a sentinel gid whose seq counter
    absorbs stray touches.
    """

    def __init__(self, n_sms: int, n_sched: int, cap: int) -> None:
        self.cap = cap
        n_slots = n_sms * cap
        self.n_gids = n_sms * n_sched
        #: Per-SM wake hint, written at the end of every ``SM.tick`` —
        #: exactly what ``SM.next_wake`` returns for a SM without a
        #: CABA controller, so the simulator's fast-forward can take
        #: one min over the list instead of calling into every SM.
        self.wake = [float("inf")] * n_sms
        #: Per-scheduler invalidation counters (+1 sentinel for unbound
        #: slots).
        self.seq: list[int] = [0] * (self.n_gids + 1)
        #: Scheduler owning each slot (sentinel ``n_gids`` = unbound).
        self.gid_of: list[int] = [self.n_gids] * n_slots
        #: Free slots per SM; popped lowest-first for determinism.
        self._free: list[list[int]] = [
            list(range(cap * (i + 1) - 1, cap * i - 1, -1))
            for i in range(n_sms)
        ]
        #: Live screen code of each slot: ``klass_lut[pc]``, plus
        #: SCREEN_BLOCKED when ``pending & need_lut[pc]``, plus
        #: SCREEN_INACTIVE when finished/at a barrier/assist-gated
        #: (lookup tables of the warp's program, see :meth:`luts`).
        #: Written by the warp's constructor and by every ``touch``.
        self.code: list[int] = [0] * n_slots
        # id(program) -> (program, klass_lut, need_lut); the program is
        # held so its id cannot be reused while the entry lives.
        self._luts: dict[int, tuple] = {}

    def luts(self, program) -> tuple[list[int], list[int]]:
        """The per-pc ``(klass_lut, need_lut)`` tables of ``program``,
        built on first use. Warps keep a reference to their program's
        pair, so recomputing a screen code costs two list reads."""
        entry = self._luts.get(id(program))
        if entry is None:
            # Imported here: sm.py imports this module (through warp.py).
            from repro.gpu.sm import HEAVY_ALU_LATENCY

            def klass(instr) -> int:
                kind = instr.kind
                if kind is OpKind.LOAD and instr.space is MemSpace.GLOBAL:
                    return KLASS_GLOAD
                if kind is OpKind.LOAD or kind is OpKind.STORE:
                    return KLASS_MEM
                if kind is OpKind.SFU:
                    return KLASS_SFU
                if kind is OpKind.ALU and instr.latency >= HEAVY_ALU_LATENCY:
                    return KLASS_HEAVY
                return KLASS_ANY

            body = program.body
            entry = (
                program,
                # Instruction class at each pc (candidate screen codes).
                [klass(instr) for instr in body] or [0],
                # Registers the instruction at each pc waits on: the
                # issue scan's scoreboard check is ``pending & (src | dst)``.
                [instr.src_mask | instr.dst_mask for instr in body] or [0],
            )
            self._luts[id(program)] = entry
        return entry[1], entry[2]

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def alloc(self, sm_id: int) -> int:
        """Claim a slot for a new resident warp of ``sm_id``."""
        return self._free[sm_id].pop()

    def bind(self, slot: int, gid: int) -> None:
        """Attach a slot to its scheduler; the scheduler's warp set
        changed, so its memoized state is invalidated."""
        self.gid_of[slot] = gid
        self.seq[gid] += 1

    def release(self, slot: int) -> None:
        """Return a retired warp's slot to the free pool."""
        self.seq[self.gid_of[slot]] += 1
        self.gid_of[slot] = self.n_gids
        self._free[slot // self.cap].append(slot)
