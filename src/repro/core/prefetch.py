"""Opportunistic prefetching with assist warps (Section 7.2).

The paper argues assist warps are a natural home for GPU prefetching:
per-warp stride tracking needs fine-grained bookkeeping (spare registers
hold the metadata), the idle memory pipeline offers free slots, and
throttling falls out of the low-priority scheduling class.

The model: the controller observes every demand load (the SM's
``on_global_load`` hook), keeps a per-(warp, region) stride detector in
"spare registers", and once a stride is confirmed spawns a low-priority
prefetch assist warp. The subroutine computes the prefetch address
(two ALU ops); on completion the predicted line is requested through
the regular L1 miss path, warming the cache for the parent's future
iterations. Prefetches never steal MSHRs the demand stream is about to
need (a free-entry floor) and stop entirely while the AWC observes high
pipeline utilization — the paper's guard against flooding the off-chip
buses in bandwidth-bound phases.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.core.base import AssistController, AssistWarp
from repro.gpu.isa import (
    ASSIST_REG_BASE,
    AssistProgram,
    Instr,
    OpKind,
    reg_mask,
)
from repro.gpu.warp import WarpContext

_R = ASSIST_REG_BASE


def prefetch_program() -> AssistProgram:
    """Compute the next predicted address from the stride metadata."""
    body = (
        Instr(OpKind.ALU, latency=1, dst_mask=reg_mask(_R + 0),
              src_mask=reg_mask(0), tag="move_livein"),
        Instr(OpKind.ALU, latency=1, dst_mask=reg_mask(_R + 1),
              src_mask=reg_mask(_R + 0), tag="add_stride"),
    )
    return AssistProgram(body=body, name="prefetch", register_demand=3)


@dataclass(frozen=True)
class PrefetchParams:
    """Prefetcher knobs."""

    #: Confirmations needed before a stride is trusted.
    train_threshold: int = 2
    #: How many strides ahead to fetch.
    distance: int = 2
    #: Lines fetched per trigger once trained.
    degree: int = 1
    #: Keep at least this many MSHRs free for demand misses.
    mshr_floor: int = 8
    #: Issue-slot utilization (EMA) above which prefetching pauses.
    throttle_threshold: float = 0.7
    #: EMA smoothing factor.
    ema_alpha: float = 0.05


@dataclass
class PrefetchStats:
    trained_streams: int = 0
    prefetches_issued: int = 0
    prefetches_dropped_mshr: int = 0
    prefetches_dropped_throttle: int = 0


class _Stream:
    """Stride detector state for one (warp, region) pair."""

    __slots__ = ("last_line", "stride", "confirmations")

    def __init__(self) -> None:
        self.last_line: int | None = None
        self.stride = 0
        self.confirmations = 0


class _ActivePrefetch(AssistWarp):
    __slots__ = ("targets",)

    def __init__(self, parent, program, targets):
        super().__init__(parent, program, "prefetch",
                         line=targets[0] if targets else 0,
                         deployed=len(program.body))
        self.targets = targets


#: Region granularity for stream tracking (distinct data structures sit
#: in distinct multi-MLine regions; see repro.workloads.tracegen).
_REGION_SHIFT = 21


class PrefetchController(AssistController):
    """Per-SM stride prefetching through low-priority assist warps."""

    def __init__(self, sm, params: PrefetchParams | None = None) -> None:
        super().__init__(sm)
        self.params = params if params is not None else PrefetchParams()
        self.stats = PrefetchStats()
        self._streams: dict[tuple[int, int], _Stream] = {}
        self._low: deque[_ActivePrefetch] = deque()
        self._program = prefetch_program()
        self._utilization = 0.0
        self._issued_lines: set[int] = set()

    # ------------------------------------------------------------------
    # Training (demand-load observation)
    # ------------------------------------------------------------------
    def on_global_load(self, warp: WarpContext, lines, cycle: int) -> None:
        params = self.params
        line = lines[0]
        key = (warp.global_index, line >> _REGION_SHIFT)
        stream = self._streams.get(key)
        if stream is None:
            stream = _Stream()
            self._streams[key] = stream
        if stream.last_line is not None:
            stride = line - stream.last_line
            if stride != 0 and stride == stream.stride:
                stream.confirmations += 1
                if stream.confirmations == params.train_threshold:
                    self.stats.trained_streams += 1
            else:
                stream.stride = stride
                stream.confirmations = 1 if stride != 0 else 0
        stream.last_line = line
        if stream.confirmations >= params.train_threshold:
            self._trigger(warp, line, stream.stride, cycle)

    def _trigger(self, warp: WarpContext, line: int, stride: int, cycle: int) -> None:
        params = self.params
        if self._utilization > params.throttle_threshold:
            self.stats.prefetches_dropped_throttle += 1
            return
        targets = []
        for k in range(params.degree):
            target = line + stride * (params.distance + k)
            if target > 0 and target not in self._issued_lines:
                targets.append(target)
        if not targets:
            return
        self._low.append(_ActivePrefetch(warp, self._program, targets))

    # ------------------------------------------------------------------
    # Issue / completion
    # ------------------------------------------------------------------
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
        return bool(self._low)

    def observe(self, issued: int, slots: int) -> None:
        alpha = self.params.ema_alpha
        self._utilization += alpha * (issued / slots - self._utilization)

    def finish(self, assist: _ActivePrefetch) -> None:
        """Address computed: issue the prefetch through the L1 miss path."""
        memory = self.sm.memory
        now = float(self.sm.now + 1)
        for target in assist.targets:
            free = memory.config.l1_mshrs - memory._mshr_used[self.sm.sm_id]
            if free <= self.params.mshr_floor:
                self.stats.prefetches_dropped_mshr += 1
                continue
            fill = memory.load(self.sm.sm_id, target, now)
            if fill is None:
                self.stats.prefetches_dropped_mshr += 1
                continue
            self._issued_lines.add(target)
            if not fill.merged and not fill.from_l1:
                self.stats.prefetches_issued += 1
                self.sm.schedule(
                    math.ceil(fill.fill_time),
                    lambda line=target: memory.complete_fill(
                        self.sm.sm_id, line
                    ),
                )
