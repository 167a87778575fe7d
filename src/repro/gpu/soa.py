"""Screen codes for scheduler-visible warp state.

The per-warp issue scan in :mod:`repro.gpu.sm` is the innermost loop of
the simulator: every scheduler, every cycle, walks its warps and asks
each one "could you issue?". Almost every answer is "no, same reason as
last cycle" — the warp is scoreboard-blocked on an in-flight load, or
parked at a barrier, or the whole scheduler is idle. Two pieces of
state let the SM answer those questions without an issue attempt per
warp:

* ``WarpContext.code`` is each warp's *screen code*, classifying it as
  *candidate* (the code is its instruction class), *scoreboard blocked*
  or *inactive*. The code is live: every site that mutates a
  screen-visible field (``pc``, ``pending_mask``, ``finished``,
  ``at_barrier``, ``assist_block``) calls ``repro.gpu.warp.touch``,
  which recomputes it on the spot, so the scan reads it directly and it
  can never be stale.
* Each SM keeps one *sequence counter* per scheduler (``SM._seq``),
  bumped by every such mutation of a warp bound to that scheduler and
  by every change to the scheduler's warp set. A memoized scan result
  is valid for a scheduler exactly while its counter is unchanged.

This module holds the screen-code constants and :func:`luts`, the
per-pc tables a warp recomputes its code from.
"""

from __future__ import annotations

from repro.gpu.isa import MemSpace, OpKind, Program


def soa_enabled() -> bool:
    """Always True: the screened issue path is the simulator's only
    issue path. Kept so run-provenance records that report the
    simulator path keep their field."""
    return True


#: Screen codes (one per warp). A candidate's code is its *instruction
#: class*: the execution unit whose reservation every issue path for
#: that op kind checks before any side effect. When that unit is busy
#: the scan can skip the issue attempt entirely — the status and wake
#: hint the attempt would have produced are determined by the class
#: alone.
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


def luts(program: Program) -> tuple[list[int], list[int]]:
    """The per-pc ``(klass_lut, need_lut)`` tables of ``program``. A
    warp's screen code is ``klass_lut[pc]``, plus SCREEN_BLOCKED when
    ``pending_mask & need_lut[pc]``, plus SCREEN_INACTIVE when finished,
    at a barrier or assist-gated; warps of one kernel share one pair,
    so recomputing a code costs two list reads."""
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
    return (
        # Instruction class at each pc (candidate screen codes).
        [klass(instr) for instr in body] or [0],
        # Registers the instruction at each pc waits on: the issue
        # scan's scoreboard check is ``pending & (src | dst)``.
        [instr.src_mask | instr.dst_mask for instr in body] or [0],
    )
