"""Warp and thread-block execution contexts.

A :class:`WarpContext` is the scheduler-visible state of one warp: its
position in the program, its scoreboard (a bitmask of registers with
outstanding writes), barrier state and outstanding-memory accounting.
Every warp owns a slot of a :class:`repro.gpu.soa.SoAState`, whose
screen code :func:`touch` keeps current.
Assist warps get their own lightweight scoreboard inside the CABA
framework; parent warps additionally carry an ``assist_block`` counter —
a high-priority (blocking) assist warp stalls its parent until it
completes (Section 4.2.1: "stalls the progress of its parent warp").
"""

from __future__ import annotations

from repro.gpu.isa import Program
from repro.gpu.soa import SCREEN_BLOCKED, SCREEN_INACTIVE


class WarpContext:
    """Dynamic state of one resident warp.

    The scheduler-facing fields are plain attributes; the warp's screen
    code in ``soa.code[slot]`` is kept current by :func:`touch` calls at
    the mutation sites, plus :meth:`advance` for the hottest write (the
    program counter moving past an issued instruction).
    """

    __slots__ = (
        "soa",
        "slot",
        "klass_lut",
        "need_lut",
        "global_index",
        "block",
        "program",
        "pc",
        "iteration",
        "pending_mask",
        "finished",
        "at_barrier",
        "outstanding_mem",
        "assist_block",
        "age",
        "sched",
        "coal_key",
        "coal_lines",
        "mshr_stall_line",
        "mem_source",
    )

    def __init__(
        self, soa, slot: int, global_index: int, block: "BlockContext",
        program: Program, age: int,
    ) -> None:
        #: Screen-code state and this warp's slot in it; ``soa`` is
        #: None once :meth:`detach` ran.
        self.soa = soa
        self.slot = slot
        self.klass_lut, self.need_lut = soa.luts(program)
        soa.code[slot] = self.klass_lut[0]
        self.global_index = global_index
        self.block = block
        self.program = program
        self.pc = 0
        self.iteration = 0
        self.pending_mask = 0
        self.finished = False
        self.at_barrier = False
        self.outstanding_mem = 0
        #: Count of blocking assist warps currently gating this warp.
        self.assist_block = 0
        #: Dispatch order; GTO falls back to oldest-first on a switch.
        self.age = age
        #: Scheduler this warp is statically assigned to.
        self.sched = 0
        #: Memo for the coalescer: replayed memory instructions reuse
        #: their line list instead of regenerating addresses.
        self.coal_key: tuple[int, int] | None = None
        self.coal_lines: list[int] = []
        #: Line on which this warp's current load last failed the MSHR
        #: pre-check (None = unarmed). While every MSHR is still taken
        #: and that line is still not in flight, the pre-check would
        #: fail again, so the SM skips the retry. Every site that moves
        #: ``pc`` or ``iteration`` disarms it, so an armed line always
        #: belongs to the instruction at ``pc``.
        self.mshr_stall_line: int | None = None
        #: Deepest memory level the warp's most recent load reached
        #: (repro.memory.hierarchy.MEM_SRC_*); splits DRAM from on-chip
        #: waits in the SM's stall counts.
        self.mem_source = 0

    # ------------------------------------------------------------------
    def advance(self) -> bool:
        """Move past the just-issued instruction; True when the warp is
        executing its final instruction of the final iteration."""
        self.pc += 1
        self.mshr_stall_line = None
        finished = False
        if self.pc >= len(self.program.body):
            self.pc = 0
            self.iteration += 1
            if self.iteration >= self.program.iterations:
                self.finished = finished = True
        touch(self)
        return finished

    def detach(self) -> None:
        """Disconnect from the screen codes (called when the slot is
        released). Late register-release events on retired warps keep
        mutating the plain attributes, but must not write into a slot
        that may already belong to a new warp."""
        self.soa = None

    @property
    def drained(self) -> bool:
        """Finished and with no memory operations still in flight."""
        return self.finished and self.outstanding_mem == 0


def touch(warp) -> None:
    """Recompute one warp's live screen code and invalidate the owning
    scheduler's memoized scan results.

    Every site that mutates a tracked field (``pc``, ``pending_mask``,
    ``finished``, ``at_barrier``, ``assist_block``) calls this. Sites
    that assist warps (which have no slot) or detached warps can reach
    guard the call with ``warp.soa is not None``. The fields stay plain
    slot attributes: an earlier property-based write-through doubled
    the cost of every hot-path *read* (the issue scan reads
    ``pending_mask``/``pc`` millions of times per run), whereas
    mutations are comparatively rare events.

    Fields that never influence the issue scan or its stall
    refinements independently of a tracked field (``iteration``,
    ``outstanding_mem``, ``mem_source``, the coalescer memo,
    ``mshr_stall_line``) are untracked: every behavioural write to
    them is adjacent to a tracked write on the same warp, or is checked
    against the coalescer memo by the scan itself.
    """
    soa = warp.soa
    slot = warp.slot
    pc = warp.pc
    code = warp.klass_lut[pc]
    if warp.pending_mask & warp.need_lut[pc]:
        code += SCREEN_BLOCKED
    if warp.finished or warp.at_barrier or warp.assist_block:
        code += SCREEN_INACTIVE
    soa.code[slot] = code
    soa.seq[soa.gid_of[slot]] += 1


class BlockContext:
    """Dynamic state of one resident thread block."""

    __slots__ = (
        "block_id",
        "warps",
        "barrier_arrivals",
        "finished_warps",
        "all_finished",
        "retired",
    )

    def __init__(self, block_id: int) -> None:
        self.block_id = block_id
        self.warps: list[WarpContext] = []
        self.barrier_arrivals = 0
        self.finished_warps = 0
        self.all_finished = False
        self.retired = False

    def arrive_at_barrier(self, warp: WarpContext) -> bool:
        """Register a barrier arrival; True when the barrier releases."""
        warp.at_barrier = True
        touch(warp)
        self.barrier_arrivals += 1
        # Finished warps never reach the barrier again; they count as
        # permanently arrived (CUDA semantics: exited threads do not
        # participate in __syncthreads()).
        live = len(self.warps) - self.finished_warps
        if self.barrier_arrivals >= live:
            self.barrier_arrivals = 0
            for member in self.warps:
                if member.at_barrier:
                    member.at_barrier = False
                    touch(member)
            return True
        return False

    def note_warp_finished(self) -> bool:
        """Record one warp finishing; True when the whole block is done."""
        self.finished_warps += 1
        return self.finished_warps >= len(self.warps)

    @property
    def drained(self) -> bool:
        return all(w.drained for w in self.warps)
