"""The streaming-multiprocessor pipeline model.

Each SM runs two warp schedulers (GTO by default, Table 1). Every cycle
each scheduler gets one issue slot, which is classified per Figure 1:
an instruction issues (Active), a ready warp is blocked by a backed-up
ALU/SFU pipe (Compute Stall) or by the LSU/MSHRs (Memory Stall), all
considered warps wait on the scoreboard (Data Dependence Stall), or
nothing is available (Idle).

CABA hooks in at three points (Section 3.4): high-priority assist warps
preempt the parent warps of their scheduler, low-priority assist warps
consume otherwise-idle issue slots, and assist instructions contend for
the very same ALU/SFU/LSU resources as regular instructions.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

from repro.gpu.config import GPUConfig
from repro.gpu.isa import Instr, MemSpace, OpKind
from repro.gpu.soa import KLASS_GLOAD
from repro.gpu.stats import (
    SLOT_OF_CAT,
    STATE_ONLY_SLOTS,
    SmStats,
    StallCat,
    UNIT_SLOTS,
)
from repro.gpu.warp import BlockContext, WarpContext, touch
from repro.memory.hierarchy import MEM_SRC_DRAM, MEM_SRC_L1, MemorySystem

#: ALU latency at or above which the op uses the narrow "heavy" pipe.
HEAVY_ALU_LATENCY = 8
#: Initiation interval of the heavy-ALU pipe (one op per this many cycles).
HEAVY_ALU_II = 2

# Issue attempt outcomes (internal). The two structural-memory causes are
# distinct codes so the slot count can tell MSHR pressure from LSU port
# contention; both map to the same Figure-1 Memory Stall slot. A
# scoreboard-blocked warp is screened out before any attempt (_DEP).
_OK = 0
_DEP = 1
_STRUCT_ALU = 2
_STRUCT_LSU = 3
_STRUCT_MSHR = 4

# Bitmask views of the outcomes seen while scanning a scheduler's warps
# (saw |= 1 << status is cheaper than three boolean updates per warp).
_SAW_DEP = 1 << _DEP
_SAW_ALU = 1 << _STRUCT_ALU
_SAW_LSU = 1 << _STRUCT_LSU
_SAW_MSHR = 1 << _STRUCT_MSHR
_SAW_MEM = _SAW_LSU | _SAW_MSHR

# Refined slot categories (plain ints in the hot path; see
# repro.gpu.stats.StallCat for semantics).
_CAT_ISSUE = int(StallCat.ISSUE)
_CAT_ASSIST = int(StallCat.ASSIST)
_CAT_COMPUTE = int(StallCat.COMPUTE)
_CAT_SCOREBOARD = int(StallCat.SCOREBOARD)
_CAT_MSHR_FULL = int(StallCat.MSHR_FULL)
_CAT_LSU = int(StallCat.LSU)
_CAT_INTERCONNECT = int(StallCat.INTERCONNECT)
_CAT_DRAM = int(StallCat.DRAM)
_CAT_ASSIST_WAIT = int(StallCat.ASSIST_WAIT)
_CAT_IDLE = int(StallCat.IDLE)

#: Refined category -> stall-memo tier, by its Figure-1 slot: 0 = not
#: memoizable (an instruction issued), 1 = valid while the scheduler's
#: warp state is unchanged, 2 = additionally requires unchanged
#: execution-unit/MSHR state.
_MEMO_KIND = tuple(
    1 if slot in STATE_ONLY_SLOTS else (2 if slot in UNIT_SLOTS else 0)
    for slot in SLOT_OF_CAT
)

_INF = float("inf")

# Assist-instruction execution units (``SM._assist_table``).
_UNIT_ALU = 0
_UNIT_HEAVY = 1
_UNIT_SFU = 2
_UNIT_LSU = 3


class SM:
    """One streaming multiprocessor."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        memory: MemorySystem,
        schedule: Callable[[int, Callable[[], None]], None],
        on_block_retired: Callable[["SM"], None],
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.memory = memory
        self.schedule = schedule
        self.on_block_retired = on_block_retired
        self.stats = SmStats()
        #: CABA controller; installed by the simulator for CABA designs.
        self.caba = None
        #: Chrome timeline (repro.obs.chrome) fed every counted slot, or
        #: None (the default) to collect none.
        self.chrome = None

        n = config.schedulers_per_sm
        self.sched_warps: list[list[WarpContext]] = [[] for _ in range(n)]
        self._current: list[WarpContext | None] = [None] * n
        #: Each scheduler's category of its last ticked cycle, which
        #: slept cycles repeat.
        self._last_cats: list[int] = [_CAT_IDLE] * n
        if config.scheduler not in ("gto", "lrr"):
            raise ValueError(f"unknown scheduler {config.scheduler!r}")
        self._greedy = config.scheduler == "gto"
        self._rr: list[int] = [0] * n

        # Execution-unit reservation state (cycle when next op may start).
        self._sfu_free = 0
        self._heavy_alu_free = 0
        self._lsu_free = 0

        self.resident_blocks: list[BlockContext] = []
        self._wake_hint: float = _INF
        self._age_counter = 0
        #: Current cycle (updated at every tick; used by controllers
        #: whose callbacks fire from the event queue).
        self.now = 0

        #: Per-scheduler sequence counters (repro.gpu.soa): bumped by
        #: every touch of a resident warp and every change to the
        #: scheduler's warp set.
        self._seq: list[int] = [0] * n
        #: What a retired warp's late touches (a register release, an
        #: assist warp's unblock) bump instead; nothing reads it. One
        #: per SM, not per warp: a retired warp lives until the cyclic
        #: GC frees it with its block, and a list of its own raised
        #: peak RSS by ~2 MB on the Table-1 machine.
        self._retired_seq: list[int] = [0] * n
        # Per-cycle reads, bound once.
        self._scheds = range(n)
        self._stalls = self.stats.stalls
        self._epochs = memory.mshr_epoch
        self._mshr_used = memory._mshr_used
        self._inflight = memory._inflight[sm_id]
        self._l1_mshrs = config.l1_mshrs
        #: Per-scheduler stall memos, rebuilt by every scanned slot:
        #: (seq, cat, kind, lsu_free, sfu_free, heavy_free, mshr_epoch,
        #:  until); ``cat`` is the refined category; mshr_epoch -1 marks
        #: a stall whose outcome is independent of MSHR state. ``until``
        #: is the scan's wake hint: the first cycle a unit that blocked a
        #: candidate frees up. Only those units can change the outcome
        #: by freeing, so it is also the memo's expiry.
        self._memos: list[tuple | None] = [None] * n
        # Scratch written by the scan for memo creation: whether the
        # outcome is replay-stable, and the scan's own wake-hint
        # contribution (excluding assist-warp issue attempts).
        self._scan_safe = False
        self._scan_hint = _INF
        self._low_stall: tuple | None = None

        # id(program) -> (program, per-pc issue table) for assist programs.
        self._assist_tables: dict[int, tuple] = {}
        # The first cycle not ticked since the SM fell asleep (see
        # sleep/wake).
        self._slept_at = 0

    # ------------------------------------------------------------------
    # Block / warp management
    # ------------------------------------------------------------------
    def add_block(self, block: BlockContext) -> None:
        """Make a dispatched block's warps resident and schedulable."""
        self.resident_blocks.append(block)
        n = self.config.schedulers_per_sm
        for warp in block.warps:
            warp.sched = self._age_counter % n
            self._age_counter += 1
            self.sched_warps[warp.sched].append(warp)
            warp.seqs = self._seq
            self._seq[warp.sched] += 1

    def _retire_block(self, block: BlockContext) -> None:
        if block.retired:
            return
        block.retired = True
        self.stats.blocks_finished += 1
        self.resident_blocks.remove(block)
        retired = set(block.warps)
        for s, warps in enumerate(self.sched_warps):
            self.sched_warps[s] = [w for w in warps if w not in retired]
            if self._current[s] in retired:
                self._current[s] = None
        for warp in block.warps:
            self._seq[warp.sched] += 1
            warp.seqs = self._retired_seq
        self.on_block_retired(self)

    def _check_block_drain(self, warp: WarpContext) -> None:
        block = warp.block
        if block.all_finished and not block.retired and block.drained:
            self._retire_block(block)

    # ------------------------------------------------------------------
    # Main per-cycle step
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> int:
        """Run one cycle; returns the number of instructions issued.

        A scheduler slot is classified without a warp scan wherever a
        memoized outcome is provably still valid; scans that do run
        (:meth:`_issue_slot`) pre-screen their warps against the live
        screen codes instead of attempting issue per warp.

        A memo is valid while the scheduler's seq counter is unchanged
        (tier 1: scoreboard/idle outcomes) and, for unit-gated stalls
        (tier 2), while the LSU/SFU/heavy-ALU reservations and the SM's
        MSHR epoch are also unchanged and no unit that blocked a
        candidate has freed up (``until``). Assist warps still get their scan-order chance at
        every slot — ``issue_high`` before the parents, ``issue_low``
        after them — behind the controller's issue gates (a cycle with
        no ready assist warp costs one comparison); they issue for
        real, never replayed.
        """
        self.now = cycle
        self._wake_hint = _INF
        caba = self.caba
        if caba is not None:
            caba.tick(cycle)
            high_gate = caba.high_gate
        issued = 0
        stalls = self._stalls
        last = self._last_cats
        seq = self._seq
        memos = self._memos
        for s in self._scheds:
            if (
                caba is not None
                and cycle >= high_gate[s]
                and caba.issue_high(s, cycle)
            ):
                # A high-priority assist warp preempts the parents; the
                # memo (valid or not) is left for the next slot.
                stalls[_CAT_ASSIST] += 1
                last[s] = _CAT_ASSIST
                issued += 1
                continue
            m = memos[s]
            if m is not None and m[0] == seq[s] and (
                m[2] == 1
                or (
                    self._lsu_free == m[3]
                    and self._sfu_free == m[4]
                    and self._heavy_alu_free == m[5]
                    and cycle < m[7]
                    and (m[6] < 0 or self._epochs[self.sm_id] == m[6])
                )
            ):
                if (
                    caba is not None
                    and cycle >= caba.low_gate
                    and caba.issue_low(s, cycle)
                ):
                    # An assist warp took the slot, exactly as it would
                    # have after the (unchanged) parent scan stalled.
                    stalls[_CAT_ASSIST] += 1
                    last[s] = _CAT_ASSIST
                    issued += 1
                    continue
                hint = m[7]
                if hint < self._wake_hint:
                    self._wake_hint = hint
                cat = m[1]
                stalls[cat] += 1
                last[s] = cat
                continue
            cat = self._issue_slot(s, cycle)
            stalls[cat] += 1
            last[s] = cat
            if cat <= _CAT_ASSIST:  # an instruction issued
                issued += 1
                low = self._low_stall
                if low is None:
                    memos[s] = None
                    continue
                # A low-priority assist warp took a slot the parent scan
                # stalled on: memoize the scan, with the unit state it
                # saw (the assist may have reserved a unit since).
                self._low_stall = None
                cat, lsu, sfu, heavy = low
                cat = self._refine(s, cat)
            else:
                lsu = self._lsu_free
                sfu = self._sfu_free
                heavy = self._heavy_alu_free
            kind = _MEMO_KIND[cat]
            if kind == 1:
                # Scoreboard/idle: a pure function of seq-tracked warp
                # state. No structural candidate was reached, so the
                # parent scan contributed no wake hint.
                memos[s] = (seq[s], cat, 1, 0, 0, 0, 0, _INF)
            elif kind == 2 and self._scan_safe:
                # A stall that never saw an MSHR status is independent
                # of MSHR state: every memory candidate failed on the
                # LSU-port gate (or there were none), which an epoch
                # bump cannot change. -1 marks the memo epoch-free.
                memos[s] = (
                    seq[s], cat, 2, lsu, sfu, heavy,
                    self._epochs[self.sm_id]
                    if cat == _CAT_MSHR_FULL else -1,
                    self._scan_hint,
                )
            else:
                memos[s] = None
        if self.chrome is not None:
            for s, cat in enumerate(last):
                self.chrome.note_slot(self.sm_id, s, cat, 1)
        if caba is not None:
            caba.observe(issued, len(memos))
        return issued

    # ------------------------------------------------------------------
    # Issue-slot logic
    # ------------------------------------------------------------------
    def _issue_slot(self, s: int, cycle: int) -> int:
        """Classify scheduler ``s``'s slot per Figure 1, issuing the
        instruction that takes it if any (a high-priority assist warp
        has already had its chance, in ``tick``): the greedy current
        warp (GTO) or the first issuable parent warp in scan order, else
        a low-priority assist warp, else the strongest stall seen
        (memory > compute > dependence > idle), refined. Returns the
        slot's :class:`StallCat`. When a low-priority assist warp takes
        the slot, the (unrefined) stall the parents showed and the unit
        state they saw are left in ``_low_stall`` for the memo.

        Warps are screened by their live screen codes (``warp.code``,
        :mod:`repro.gpu.soa`): ``< SCREEN_BLOCKED`` is a candidate (the
        code is its instruction class), ``< 32`` is scoreboard-blocked,
        the rest are finished/barrier/assist-gated.

        Unit reservations cannot change across a scan's *failed*
        attempts, so the structural gates every issue path checks first
        are hoisted out of the per-candidate work: a candidate whose
        class targets a busy unit is skipped with exactly the status
        and wake hint its issue attempt would have produced. The same
        holds for a global load armed with an MSHR stall line (see
        ``_issue_global_load``): failed attempts never free an MSHR,
        so ``mshr_full`` read once stays true for the whole scan, while
        the in-flight set is read live.

        Also separates the parent scan's wake-hint contribution from
        assist-warp attempts (``_scan_hint``) and records whether the
        outcome is replay-stable (``_scan_safe``): an MSHR stall that
        did not arm a stall line — a partial line send — can make
        progress on the very next retry, so such a stall must not be
        memoized.
        """
        caba = self.caba
        self._scan_safe = True
        h0 = self._wake_hint
        # The scan's pre-screen hints gather in ``hint``; an issue
        # attempt that fails on a unit writes ``_wake_hint`` itself.
        self._wake_hint = hint = _INF
        saw = 0
        lsu_free = self._lsu_free
        lsu_busy = lsu_free > cycle
        sfu_free = self._sfu_free
        sfu_busy = sfu_free > cycle
        heavy_free = self._heavy_alu_free
        heavy_busy = heavy_free > cycle
        mshr_full = self._mshr_used[self.sm_id] >= self._l1_mshrs
        inflight = self._inflight
        current = self._current[s] if self._greedy else None
        # GTO: stay greedy on the current warp until it stalls. A warp
        # whose final issue retired its block stays current; it is
        # finished, so its code skips it like any finished warp.
        if current is not None:
            code = current.code
            if code < 16:
                if (code == 1 or code == 4) and lsu_busy:
                    saw = _SAW_LSU
                    hint = lsu_free
                elif code == 4 and mshr_full and (
                    current.mshr_stall_line is not None
                    and current.mshr_stall_line not in inflight
                ):
                    saw = _SAW_MSHR
                elif code == 2 and sfu_busy:
                    saw = _SAW_ALU
                    hint = sfu_free
                elif code == 3 and heavy_busy:
                    saw = _SAW_ALU
                    hint = heavy_free
                else:
                    status = self._try_issue(current, code, cycle)
                    if status == _OK:
                        self._scan_hint = hint = self._wake_hint
                        if h0 < hint:
                            self._wake_hint = h0
                        return _CAT_ISSUE
                    saw = 1 << status
                    if (
                        status == _STRUCT_MSHR
                        and current.mshr_stall_line is None
                    ):
                        self._scan_safe = False
            elif code < 32:
                saw = _SAW_DEP
        warps = self.sched_warps[s]
        if self._greedy:
            order = warps
        else:
            # LRR never has a greedy current warp.
            n = len(warps)
            start = self._rr[s] % max(1, n)
            order = warps[start:] + warps[:start]
        # Global loads (code 4) stalled on the LSU port or on full MSHRs
        # dominate scans, so they are tested first. The GTO current warp
        # was tried above: screening it again repeats what it already
        # contributed, so it is only skipped before an issue attempt.
        for warp in order:
            code = warp.code
            if code == 4:
                if lsu_busy:
                    saw |= _SAW_LSU
                    if lsu_free < hint:
                        hint = lsu_free
                    continue
                if mshr_full:
                    line = warp.mshr_stall_line
                    if line is not None and line not in inflight:
                        saw |= _SAW_MSHR
                        continue
            elif code >= 16:
                if code < 32:
                    saw |= _SAW_DEP
                continue
            elif code == 1:
                if lsu_busy:
                    saw |= _SAW_LSU
                    if lsu_free < hint:
                        hint = lsu_free
                    continue
            elif code == 2:
                if sfu_busy:
                    saw |= _SAW_ALU
                    if sfu_free < hint:
                        hint = sfu_free
                    continue
            elif code == 3 and heavy_busy:
                saw |= _SAW_ALU
                if heavy_free < hint:
                    hint = heavy_free
                continue
            if warp is current:
                continue
            status = self._try_issue(warp, code, cycle)
            if status == _OK:
                self._current[s] = warp
                if not self._greedy:
                    self._rr[s] = (start + order.index(warp) + 1) % n
                if self._wake_hint < hint:
                    hint = self._wake_hint
                self._scan_hint = hint
                self._wake_hint = h0 if h0 < hint else hint
                return _CAT_ISSUE
            saw |= 1 << status
            if status == _STRUCT_MSHR and warp.mshr_stall_line is None:
                self._scan_safe = False
        # End the parent-scan wake-hint capture window: remember the
        # scan's own contribution (for memo replay) and fold the
        # pre-scan accumulator back in.
        if self._wake_hint < hint:
            hint = self._wake_hint
        self._scan_hint = hint
        self._wake_hint = h0 if h0 < hint else hint
        # Priority order matches the coarse Figure-1 classification
        # (memory > compute > dependence).
        if saw & _SAW_MEM:
            cat = _CAT_MSHR_FULL if saw & _SAW_MSHR else _CAT_LSU
        elif saw & _SAW_ALU:
            cat = _CAT_COMPUTE
        elif saw & _SAW_DEP:
            cat = _CAT_SCOREBOARD
        else:
            cat = _CAT_IDLE
        if (
            caba is not None
            and cycle >= caba.low_gate
            and caba.issue_low(s, cycle)
        ):
            self._low_stall = (cat, lsu_free, sfu_free, heavy_free)
            return _CAT_ASSIST
        if cat == _CAT_SCOREBOARD:
            return self._refine_dep(s)
        if cat == _CAT_IDLE:
            return self._refine_idle(s)
        return cat

    def replay_stall(self, skipped: int) -> None:
        """Account ``skipped`` slept cycles with the last classification
        (no state changed during the gap)."""
        stalls = self._stalls
        for cat in self._last_cats:
            stalls[cat] += skipped
        if self.chrome is not None:
            for s, cat in enumerate(self._last_cats):
                self.chrome.note_slot(self.sm_id, s, cat, skipped)

    # ------------------------------------------------------------------
    # Sleep (driven by Simulator._run_detailed)
    # ------------------------------------------------------------------
    def quiet_until(self, cycle: int) -> float:
        """After a tick of ``cycle`` that issued nothing: the first cycle
        at which a tick could do anything but replay this one, unless an
        event this SM scheduled fires first (the simulator wakes it for
        those). Every scheduler must hold a memo; the memos stay valid
        until the wake hint (the earliest ``until`` among them), and the
        controller bounds it by its own work. At most ``cycle + 1``
        means the SM must keep ticking."""
        if None in self._memos:
            return 0
        until = self._wake_hint
        if self.caba is not None:
            quiet = self.caba.quiet_until(cycle)
            if quiet < until:
                until = quiet
        return until

    def sleep(self, cycle: int) -> None:
        """Stop ticking after the tick of ``cycle``."""
        self._slept_at = cycle + 1

    def wake(self, cycle: int) -> None:
        """Settle a sleep before ``cycle`` is ticked or its events run:
        charge each slept cycle to the last classification and replay
        it to the controller as a tick that issued nothing."""
        span = cycle - self._slept_at
        if span > 0:
            self.replay_stall(span)
            if self.caba is not None:
                self.caba.replay_idle(span, self.config.schedulers_per_sm)
        self.now = cycle - 1

    # ------------------------------------------------------------------
    # Stall refinement (scanned slots only; memos keep the result)
    # ------------------------------------------------------------------
    def _refine(self, s: int, cat: int) -> int:
        """The refined category of stall ``cat``. Structural stalls
        (pipe/LSU/MSHR) are already as fine as they get."""
        if cat == _CAT_SCOREBOARD:
            return self._refine_dep(s)
        if cat == _CAT_IDLE:
            return self._refine_idle(s)
        return cat

    def _refine_dep(self, s: int) -> int:
        """Split a data-dependence stall by what the dependence waits
        on: an outstanding DRAM round trip, an on-chip (L1/L2 hit or
        interconnect) round trip, or a plain scoreboard hazard."""
        onchip = False
        for warp in self.sched_warps[s]:
            if warp.finished or warp.at_barrier or warp.assist_block:
                continue
            if warp.outstanding_mem:
                if warp.mem_source == MEM_SRC_DRAM:
                    return _CAT_DRAM
                onchip = True
        return _CAT_INTERCONNECT if onchip else _CAT_SCOREBOARD

    def _refine_idle(self, s: int) -> int:
        """An idle slot where a warp is parked behind an assist warp
        (store-buffer back-pressure) is CABA overhead, not true idle."""
        for warp in self.sched_warps[s]:
            if warp.assist_block and not warp.finished:
                return _CAT_ASSIST_WAIT
        return _CAT_IDLE

    # ------------------------------------------------------------------
    # Parent-warp instruction issue
    # ------------------------------------------------------------------
    def _try_issue(self, warp: WarpContext, code: int, cycle: int) -> int:
        """Attempt to issue a candidate warp's next instruction. ``code``
        is its screen code, below ``SCREEN_BLOCKED``: the instruction's
        class, with the scoreboard clear."""
        instr = warp.program.body[warp.pc]
        kind = instr.kind
        if code == KLASS_GLOAD:
            # Replayed (stalled) global loads dominate this path.
            status = self._issue_global_load(warp, instr, cycle)
        elif kind is OpKind.ALU or kind is OpKind.NOP:
            status = self._issue_alu(warp, instr, cycle)
        elif kind is OpKind.SFU:
            status = self._issue_sfu(warp, instr, cycle)
        elif kind is OpKind.LOAD:
            status = self._issue_onchip_memory(warp, instr, cycle)
        elif kind is OpKind.STORE:
            if instr.space is MemSpace.GLOBAL:
                status = self._issue_global_store(warp, instr, cycle)
            else:
                status = self._issue_onchip_memory(warp, instr, cycle)
        elif kind is OpKind.SYNC:
            status = self._issue_sync(warp, cycle)
        elif kind is OpKind.MEMO:
            status = _OK  # the marker itself is a plain issue slot
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unhandled op kind {kind}")

        if status == _OK:
            stats = self.stats
            stats.parent_instructions += 1
            stats.register_reads += instr.src_mask.bit_count()
            stats.register_writes += instr.dst_mask.bit_count()
            if warp.advance():
                self._on_warp_finished(warp)
            elif kind is OpKind.MEMO and self.caba is not None:
                self.caba.on_memo_point(warp, instr.meta, cycle)
        return status

    # --- ALU / SFU ---------------------------------------------------
    def _issue_alu(self, ctx, instr: Instr, cycle: int) -> int:
        if instr.latency >= HEAVY_ALU_LATENCY:
            if self._heavy_alu_free > cycle:
                self._wake_hint = min(self._wake_hint, self._heavy_alu_free)
                return _STRUCT_ALU
            self._heavy_alu_free = cycle + HEAVY_ALU_II
        self.stats.alu_ops += 1
        self._hold_registers(ctx, instr.dst_mask, cycle + instr.latency)
        return _OK

    def _issue_sfu(self, ctx, instr: Instr, cycle: int) -> int:
        if self._sfu_free > cycle:
            self._wake_hint = min(self._wake_hint, self._sfu_free)
            return _STRUCT_ALU
        self._sfu_free = cycle + self.config.sfu_initiation_interval
        self.stats.sfu_ops += 1
        self._hold_registers(ctx, instr.dst_mask, cycle + instr.latency)
        return _OK

    def _hold_registers(self, warp, dst_mask: int, until: int) -> None:
        """Mark ``dst_mask`` pending on parent ``warp`` and release it at
        ``until``."""
        if not dst_mask:
            return
        warp.pending_mask |= dst_mask
        touch(warp)
        def release() -> None:
            warp.pending_mask &= ~dst_mask
            touch(warp)
        self.schedule(until, release)

    # --- Memory --------------------------------------------------------
    def _issue_onchip_memory(self, ctx, instr: Instr, cycle: int) -> int:
        """Shared-memory (and assist-warp L1-local) accesses: fixed latency."""
        if self._lsu_free > cycle:
            self._wake_hint = min(self._wake_hint, self._lsu_free)
            return _STRUCT_LSU
        self._lsu_free = cycle + 1
        self.stats.shared_accesses += 1
        latency = (
            self.config.shared_mem_latency
            if instr.space is MemSpace.SHARED
            else self.config.assist_l1_latency
        )
        self._hold_registers(ctx, instr.dst_mask, cycle + latency)
        return _OK

    def _issue_global_load(self, warp: WarpContext, instr: Instr, cycle: int) -> int:
        if self._lsu_free > cycle:
            self._wake_hint = min(self._wake_hint, self._lsu_free)
            return _STRUCT_LSU
        memory = self.memory
        sm_id = self.sm_id
        line = warp.mshr_stall_line
        if (
            line is not None
            and self._mshr_used[sm_id] >= self._l1_mshrs
            and line not in self._inflight
        ):
            # Every MSHR still taken and the line this instruction last
            # failed on still not in flight: the pre-check below would
            # fail again.
            return _STRUCT_MSHR
        lines = self._coalesce(instr, warp)
        for line in lines:
            if not memory.mshr_available(sm_id, line):
                # MSHRs free up via fill events, which also wake a
                # sleeping SM.
                warp.mshr_stall_line = line
                return _STRUCT_MSHR
        fills = []
        for line in lines:
            fill = memory.load(sm_id, line, cycle)
            if fill is None:
                # MSHRs full: replay later; lines already sent keep their
                # MSHR-release events and will merge on the retry, which
                # runs the pre-check again (the stall stays unarmed).
                warp.mshr_stall_line = None
                return _STRUCT_MSHR
            if not fill.merged and not fill.from_l1:
                self.schedule(
                    math.ceil(fill.fill_time),
                    partial(memory.complete_fill, sm_id, fill.line),
                )
            fills.append(fill)
        self._lsu_free = cycle + len(lines)
        self.stats.loads += 1
        if self.caba is not None:
            self.caba.on_global_load(warp, lines, cycle)
        warp.pending_mask |= instr.dst_mask
        touch(warp)
        warp.outstanding_mem += 1
        # Deepest level any of this warp's fills travelled to; used by
        # _refine_dep to split DRAM from on-chip waits.
        source = MEM_SRC_L1
        for fill in fills:
            if fill.source > source:
                source = fill.source
        warp.mem_source = source

        remaining = len(fills)
        def line_done() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                warp.pending_mask &= ~instr.dst_mask
                touch(warp)
                warp.outstanding_mem -= 1
                self._check_block_drain(warp)

        for fill in fills:
            if fill.needs_assist:
                self.caba.request_decompression(warp, fill, line_done, cycle)
            elif (
                self.caba is not None
                and fill.from_l1
                and self.caba.pending_decompression(fill.line)
            ):
                # The line is mid-decompression from an earlier fill.
                self.caba.attach_to_decompression(fill.line, line_done)
            else:
                self.schedule(math.ceil(fill.ready_time), line_done)
        return _OK

    def _issue_global_store(self, warp: WarpContext, instr: Instr, cycle: int) -> int:
        if self._lsu_free > cycle:
            self._wake_hint = min(self._wake_hint, self._lsu_free)
            return _STRUCT_LSU
        lines = self._coalesce(instr, warp)
        self._lsu_free = cycle + len(lines)
        self.stats.stores += 1
        # A fully coalesced warp store covers whole lines; scattered
        # multi-line stores are partial-line writes (Section 4.2.2).
        full_line = len(lines) == 1
        design = self.memory.design
        if (
            self.caba is not None
            and design.compress_at == "core_assist"
            and self.memory.image.compression_enabled
        ):
            self.caba.buffer_store(warp, lines, full_line, cycle)
        else:
            for line in lines:
                self.memory.store(
                    self.sm_id, line, cycle, full_line=full_line
                )
        return _OK

    def _coalesce(self, instr: Instr, warp: WarpContext) -> list[int]:
        """Run the coalescer: unique line addresses, order preserved.

        Memoized per (pc, iteration) so replayed instructions (MSHR or
        LSU structural stalls) do not regenerate their addresses.
        """
        key = (warp.pc, warp.iteration)
        if warp.coal_key == key:
            return warp.coal_lines
        raw = instr.addr_fn(warp.global_index, warp.iteration)
        if len(raw) == 1:
            lines = list(raw)
        else:
            seen: dict[int, None] = {}
            for line in raw:
                seen.setdefault(line, None)
            lines = list(seen)
        warp.coal_key = key
        warp.coal_lines = lines
        warp.mshr_stall_line = None
        return lines

    # --- Barrier ---------------------------------------------------------
    def _issue_sync(self, warp: WarpContext, cycle: int) -> int:
        warp.block.arrive_at_barrier(warp)
        return _OK

    # ------------------------------------------------------------------
    # Warp completion
    # ------------------------------------------------------------------
    def _on_warp_finished(self, warp: WarpContext) -> None:
        self.stats.warps_finished += 1
        if warp.at_barrier:
            warp.at_barrier = False
            touch(warp)
        block = warp.block
        if block.note_warp_finished():
            block.all_finished = True
            if block.drained:
                self._retire_block(block)

    # ------------------------------------------------------------------
    # Assist-warp instruction issue (called by the CABA controller)
    # ------------------------------------------------------------------
    def try_issue_assist(self, assist, cycle: int) -> bool:
        """Issue ``assist``'s next instruction through the regular
        pipelines if its execution unit is free; returns True on issue.

        The caller has checked that the instruction is deployed and its
        scoreboard clear (``cycle >= assist.ready``). Issue records when
        the destination registers free up (``assist.rel``) and derives
        the next instruction's ``ready`` from its producers, instead of
        scheduling a release event."""
        ops = assist.ops
        if ops is None:
            ops = assist.ops = self._assist_table(assist.program)
        pc = assist.pc
        unit, hold, reads, writes, done, next_deps = ops[pc]
        stats = self.stats
        if unit == _UNIT_ALU:
            stats.alu_ops += 1
        elif unit == _UNIT_LSU:
            free = self._lsu_free
            if free > cycle:
                if free < self._wake_hint:
                    self._wake_hint = free
                return False
            self._lsu_free = cycle + 1
            stats.shared_accesses += 1
        elif unit == _UNIT_HEAVY:
            free = self._heavy_alu_free
            if free > cycle:
                if free < self._wake_hint:
                    self._wake_hint = free
                return False
            self._heavy_alu_free = cycle + HEAVY_ALU_II
            stats.alu_ops += 1
        else:
            free = self._sfu_free
            if free > cycle:
                if free < self._wake_hint:
                    self._wake_hint = free
                return False
            self._sfu_free = cycle + self.config.sfu_initiation_interval
            stats.sfu_ops += 1
        stats.assist_instructions += 1
        stats.register_reads += reads
        stats.register_writes += writes
        rel = assist.rel
        if hold:
            rel[pc] = cycle + hold
        assist.pc = pc + 1
        if done:
            self.schedule(cycle + done, partial(self.caba.finish, assist))
        else:
            ready = 0
            for j in next_deps:
                if rel[j] > ready:
                    ready = rel[j]
            assist.ready = ready
        return True

    def _assist_table(self, program) -> tuple:
        """Per-pc issue table of an assist program on this machine:
        ``(unit, hold, reads, writes, done, next_deps)``. ``hold`` is
        the cycles until the destination registers free up (0 without
        destinations), ``done`` the cycles until the warp finishes
        (last instruction only, else 0) and ``next_deps`` the next
        instruction's producers."""
        entry = self._assist_tables.get(id(program))
        if entry is None:
            config = self.config
            body = program.body
            ops = []
            for pc, instr in enumerate(body):
                kind = instr.kind
                latency = instr.latency
                if kind is OpKind.ALU or kind is OpKind.NOP:
                    unit = (
                        _UNIT_HEAVY if latency >= HEAVY_ALU_LATENCY
                        else _UNIT_ALU
                    )
                elif kind is OpKind.SFU:
                    unit = _UNIT_SFU
                elif kind is OpKind.LOAD or kind is OpKind.STORE:
                    unit = _UNIT_LSU
                    latency = (
                        config.shared_mem_latency
                        if instr.space is MemSpace.SHARED
                        else config.assist_l1_latency
                    )
                else:
                    raise AssertionError(f"assist warps cannot execute {kind}")
                last = pc + 1 == len(body)
                ops.append((
                    unit,
                    max(1, latency) if instr.dst_mask else 0,
                    instr.src_mask.bit_count(),
                    instr.dst_mask.bit_count(),
                    max(1, instr.latency) if last else 0,
                    () if last else program.deps[pc + 1],
                ))
            # The program is held so its id cannot be reused.
            entry = self._assist_tables[id(program)] = (program, tuple(ops))
        return entry[1]
