"""Memoization with assist warps (Section 7.1).

Compute-bound kernels often repeat computations over identical or
similar inputs. The paper proposes trading computation for storage:
an assist warp (1) hashes the inputs at a predefined trigger point,
(2) looks the hash up in a shared-memory LUT, and (3) on a hit lets the
parent skip the redundant region by loading the cached result.

The model: kernels mark a memoizable region with a MEMO instruction
(``Instr.meta`` = region length). When a warp issues the marker, a
high-priority lookup assist warp runs (hash + shared-memory probe). The
workload supplies a *signature function* mapping (warp, iteration) to
the computation's input signature; redundancy across warps/iterations
is whatever that function exhibits. On a LUT hit the parent's program
counter jumps over the region (the computation is replaced by the
cached result); on a miss the parent executes the region and a
low-priority store assist inserts the result into the LUT.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable

from repro.core.base import AssistController, AssistWarp
from repro.gpu.isa import (
    ASSIST_REG_BASE,
    AssistProgram,
    Instr,
    MemSpace,
    OpKind,
    reg_mask,
)
from repro.gpu.warp import WarpContext, touch

#: (warp_linear_index, iteration) -> input signature of the computation.
SignatureFn = Callable[[int, int], int]

_R = ASSIST_REG_BASE


def _alu(dst: int, src: int, tag: str) -> Instr:
    return Instr(OpKind.ALU, latency=1, dst_mask=reg_mask(_R + dst),
                 src_mask=reg_mask(_R + src), tag=tag)


def memo_lookup_program() -> AssistProgram:
    """Hash the live-in values and probe the shared-memory LUT."""
    body = (
        Instr(OpKind.ALU, latency=1, dst_mask=reg_mask(_R + 0),
              src_mask=reg_mask(0), tag="move_livein"),
        _alu(1, 0, "hash_fold"),
        Instr(OpKind.LOAD, dst_mask=reg_mask(_R + 2),
              src_mask=reg_mask(_R + 1), space=MemSpace.SHARED,
              tag="lut_probe"),
        _alu(3, 2, "tag_compare"),
    )
    return AssistProgram(body=body, name="memo_lookup", register_demand=4)


def memo_result_load_program() -> AssistProgram:
    """On a hit: fetch the cached result into the parent's registers."""
    body = (
        Instr(OpKind.LOAD, dst_mask=reg_mask(_R + 4),
              src_mask=reg_mask(_R + 1), space=MemSpace.SHARED,
              tag="lut_read_result"),
        _alu(5, 4, "move_liveout"),
    )
    return AssistProgram(body=body, name="memo_result", register_demand=4)


def memo_store_program() -> AssistProgram:
    """On a miss: insert the computed result into the LUT (low priority)."""
    body = (
        _alu(4, 1, "pack_result"),
        Instr(OpKind.STORE, latency=1, src_mask=reg_mask(_R + 4),
              space=MemSpace.SHARED, tag="lut_insert"),
    )
    return AssistProgram(body=body, name="memo_store", register_demand=4)


@dataclass(frozen=True)
class MemoParams:
    """Memoization knobs."""

    #: Shared-memory LUT entries (per SM).
    lut_entries: int = 512
    #: Extra per-thread registers for the memoization subroutines.
    register_demand: int = 4


class _ActiveMemo(AssistWarp):
    __slots__ = ("signature", "region_len")

    def __init__(self, parent, program, task, signature, region_len):
        # Extensions skip deploy staging.
        super().__init__(parent, program, task, deployed=len(program.body))
        self.signature = signature
        self.region_len = region_len


@dataclass
class MemoStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    regions_skipped_instructions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class MemoizationController(AssistController):
    """Per-SM memoization machinery built on the assist-warp substrate."""

    def __init__(
        self,
        sm,
        signature_fn: SignatureFn,
        params: MemoParams | None = None,
    ) -> None:
        super().__init__(sm)
        self.signature_fn = signature_fn
        self.params = params if params is not None else MemoParams()
        self.stats = MemoStats()
        n_sched = sm.config.schedulers_per_sm
        self._high: list[deque[_ActiveMemo]] = [deque() for _ in range(n_sched)]
        self._low: deque[_ActiveMemo] = deque()
        # The shared-memory LUT: signature -> True, FIFO-bounded.
        self._lut: OrderedDict[int, bool] = OrderedDict()
        self._lookup = memo_lookup_program()
        self._result = memo_result_load_program()
        self._store = memo_store_program()

    # ------------------------------------------------------------------
    def on_memo_point(self, warp: WarpContext, region_len: int, cycle: int) -> None:
        if region_len <= 0 or warp.finished:
            return
        signature = self.signature_fn(warp.global_index, warp.iteration)
        assist = _ActiveMemo(warp, self._lookup, "memo_lookup",
                             signature, region_len)
        assist.blocking = True
        warp.assist_block += 1
        touch(warp)
        self._high[warp.sched].append(assist)
        self.stats.lookups += 1

    # ------------------------------------------------------------------
    def issue_high(self, sched: int, cycle: int) -> bool:
        dq = self._high[sched]
        for _ in range(len(dq)):
            aw = dq[0]
            if aw.cancelled or aw.pc >= aw.size:
                dq.popleft()
                continue
            if cycle < aw.ready:
                # Scoreboard-blocked.
                dq.rotate(-1)
                continue
            if self.sm.try_issue_assist(aw, cycle):
                if aw.pc >= aw.size:
                    dq.popleft()
                return True
            dq.rotate(-1)
        return False

    def issue_low(self, sched: int, cycle: int) -> bool:
        while self._low and (
            self._low[0].cancelled or self._low[0].pc >= self._low[0].size
        ):
            self._low.popleft()
        if self._low:
            aw = self._low[0]
            if cycle >= aw.ready and self.sm.try_issue_assist(aw, cycle):
                return True
        return False

    def has_pending_work(self) -> bool:
        return bool(self._low) or any(self._high)

    # ------------------------------------------------------------------
    def finish(self, assist: _ActiveMemo) -> None:
        if assist.task == "memo_lookup":
            self._finish_lookup(assist)
        elif assist.task == "memo_result":
            self._unblock(assist)
        # memo_store completions need no action: the LUT was updated
        # at spawn time and the store runs off the critical path.

    def _finish_lookup(self, assist: _ActiveMemo) -> None:
        hit = assist.signature in self._lut
        if hit:
            self._lut.move_to_end(assist.signature)
            self.stats.hits += 1
            self._skip_region(assist.parent, assist.region_len)
            follow = _ActiveMemo(assist.parent, self._result, "memo_result",
                                 assist.signature, 0)
            follow.blocking = assist.blocking
            assist.blocking = False
            self._high[assist.parent.sched].append(follow)
        else:
            self.stats.misses += 1
            self._lut[assist.signature] = True
            while len(self._lut) > self.params.lut_entries:
                self._lut.popitem(last=False)
            self._unblock(assist)
            self._low.append(
                _ActiveMemo(assist.parent, self._store, "memo_store",
                            assist.signature, 0)
            )

    def _skip_region(self, warp: WarpContext, region_len: int) -> None:
        """Jump the parent over the memoized region."""
        if warp.finished:
            return
        body_len = len(warp.program.body)
        skip = min(region_len, body_len - warp.pc)
        warp.pc += skip
        warp.mshr_stall_line = None
        self.stats.regions_skipped_instructions += skip
        finished = False
        if warp.pc >= body_len:
            warp.pc = 0
            warp.iteration += 1
            if warp.iteration >= warp.program.iterations:
                warp.finished = True
                finished = True
        touch(warp)
        if finished:
            # Route through the SM so block-completion bookkeeping
            # (warp counts, block retirement) stays consistent.
            self.sm._on_warp_finished(warp)

    def _unblock(self, assist: _ActiveMemo) -> None:
        if assist.blocking:
            assist.parent.assist_block -= 1
            touch(assist.parent)
            assist.blocking = False
