"""The Assist Warp Controller (AWC), Table (AWT) and Buffer (AWB).

One :class:`CabaController` lives in each SM and implements the
mechanism of Sections 3.3-3.4 and the compression walkthrough of
Section 4.2:

* **Triggers.** Compressed L1 fills trigger *high-priority* (blocking)
  decompression assist warps; buffered stores trigger *low-priority*
  compression assist warps.
* **AWT.** Triggered instances occupy Assist Warp Table entries; when
  the table is full, decompression triggers queue (they are required
  for correctness) while compression triggers simply wait in the store
  buffer.
* **Deployment.** Every cycle the AWC stages up to ``deploy_width``
  instructions from active assist warps into the AWB, round-robin, each
  warp bounded by its instruction-buffer partition depth. The
  round-robin pointer advances by one on every tick with a non-empty
  AWT (by the slept ticks when the SM wakes).
* **Scheduling.** High-priority assist warps preempt their parent
  scheduler's warps; low-priority warps (bounded by the two-entry AWB
  low-priority partition) issue only into otherwise-idle slots, and the
  utilization monitor throttles their creation entirely when the
  pipelines are already busy.
* **Store buffer.** Pending stores wait in a small buffer for their
  compression assist warp; on overflow the oldest entry is released
  uncompressed and its assist warp, if any, is killed (AWT/AWB flush).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.core.aws import AssistWarpStore
from repro.core.base import AssistController, AssistWarp
from repro.core.params import CabaParams
from repro.core.subroutines import SubroutineLibrary
from repro.gpu.isa import AssistProgram
from repro.gpu.warp import WarpContext, touch
from repro.memory.hierarchy import LineFill

HIGH = 0
LOW = 1

_INF = float("inf")


class ActiveAssistWarp(AssistWarp):
    """One live AWT entry: a triggered assist-warp instance."""

    __slots__ = ("priority", "spawn_cycle")

    def __init__(
        self,
        parent: WarpContext,
        program: AssistProgram,
        priority: int,
        task: str,
        line: int,
    ) -> None:
        super().__init__(parent, program, task, line)
        self.priority = priority
        #: Cycle the instance entered the AWT (chrome timeline only).
        self.spawn_cycle = 0


@dataclass
class _DecompressionEntry:
    line: int
    encoding: str
    owner: WarpContext
    callbacks: list[Callable[[], None]] = field(default_factory=list)
    assist: ActiveAssistWarp | None = None
    activated: bool = False


@dataclass
class _StoreEntry:
    line: int
    parent: WarpContext
    full_line: bool
    state: str = "waiting"  # waiting | compressing | released
    assist: ActiveAssistWarp | None = None


@dataclass
class CabaStats:
    """Per-SM framework counters."""

    decompressions_triggered: int = 0
    compressions_triggered: int = 0
    assist_warps_completed: int = 0
    assist_warps_cancelled: int = 0
    stores_released_compressed: int = 0
    stores_released_uncompressed: int = 0
    store_buffer_overflows: int = 0
    throttled_cycles: int = 0
    awt_full_events: int = 0


class CabaController(AssistController):
    """Per-SM CABA machinery (AWC + AWT + AWB + store buffer)."""

    def __init__(
        self,
        sm,
        params: CabaParams,
        library: SubroutineLibrary,
        algorithm: str,
        aws: AssistWarpStore | None = None,
        programs: dict | None = None,
    ) -> None:
        super().__init__(sm)
        self.params = params
        self.library = library
        self.algorithm = algorithm
        self.aws = aws if aws is not None else AssistWarpStore()
        self.stats = CabaStats()
        #: Chrome timeline (repro.obs.chrome), fed one event per retired
        #: or cancelled assist warp; None (the default) = off.
        self.chrome = None
        #: Decompression program per encoding. Prebuilt from the image's
        #: compression plane when one exists (every encoding in the image
        #: is known upfront); unseen encodings fall back to the library
        #: and are memoized here.
        self._programs: dict[str, AssistProgram] = (
            dict(programs) if programs else {}
        )

        n_sched = sm.config.schedulers_per_sm
        self._awt: list[ActiveAssistWarp] = []
        self._high: list[deque[ActiveAssistWarp]] = [
            deque() for _ in range(n_sched)
        ]
        self._low: list[ActiveAssistWarp] = []
        #: Deployment pointer: each tick with a non-empty AWT advances
        #: it by one, modulo the AWT size.
        self._deploy_rr = 0
        # Set when a deploy pass staged nothing: every undeployed warp
        # is at its staging depth, which only an assist issue or a
        # spawn can change.
        self._deploy_stalled = False

        self._decomp: dict[int, _DecompressionEntry] = {}
        self._decomp_awt_queue: deque[_DecompressionEntry] = deque()
        self._parent_decomp_queue: dict[int, deque[_DecompressionEntry]] = {}
        self._busy_decomp_parents: set[int] = set()

        self._store_buffer: deque[_StoreEntry] = deque()
        self._busy_compress_parents: set[int] = set()

        # O(1) pending-work accounting (tick and quiet_until run every
        # cycle): AWT entries with instructions left to deploy, and
        # store-buffer entries still waiting for an assist warp.
        self._undeployed = 0
        self._waiting_stores = 0

        self._utilization = 0.0
        # observe() and _deploy() run once per SM per cycle; keep their
        # knobs out of the dataclass attribute path.
        self._ema_alpha = params.utilization_ema_alpha
        self._throttling = params.throttling_enabled
        self._throttle_threshold = params.throttle_threshold
        self._deploy_width = params.deploy_width
        self._ib_depth = params.ib_stage_depth

        # Preload the compression subroutine into the AWS; decompression
        # subroutines are registered lazily per encoding encountered.
        self.aws.register("compress", algorithm, library.compression(algorithm))

    # ------------------------------------------------------------------
    # Per-cycle work (called from SM.tick)
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if self._undeployed and not self._deploy_stalled:
            self._deploy(cycle)
        if self._awt:
            self._deploy_rr = (self._deploy_rr + 1) % len(self._awt)
        if self._waiting_stores:
            self._spawn_compressions(cycle)

    def observe(self, issued: int, slots: int) -> None:
        """Feed the AWC's functional-unit utilization monitor."""
        u = self._utilization + self._ema_alpha * (
            issued / slots - self._utilization
        )
        self._utilization = u
        if self._throttling and u > self._throttle_threshold:
            self.stats.throttled_cycles += 1

    @property
    def throttled(self) -> bool:
        return self._throttling and self._utilization > self._throttle_threshold

    def quiet_until(self, cycle: int) -> float:
        """The earliest issue gate, when no store waits and deployment
        is done or stalled: no queued assist warp can issue before it,
        and nothing else changes without an issue or an event of this
        SM (a fill trigger, a finish)."""
        if self._waiting_stores or (
            self._undeployed and not self._deploy_stalled
        ):
            return cycle + 1
        until = self.low_gate
        for gate in self.high_gate:
            if gate < until:
                until = gate
        return until

    def replay_idle(self, ticks: int, slots: int) -> None:
        """Replay ``ticks`` slept ticks: the deployment pointer's
        rotations and one ``observe(0, slots)`` each. The EMA runs as
        the same float recurrence, step by step, so the throttle stays
        exactly what the ticks would have made it."""
        if self._awt:
            self._deploy_rr = (self._deploy_rr + ticks) % len(self._awt)
        alpha = self._ema_alpha
        threshold = self._throttle_threshold
        throttling = self._throttling
        u = self._utilization
        throttled = 0
        for _ in range(ticks):
            u = u + alpha * (0 / slots - u)
            if throttling and u > threshold:
                throttled += 1
        self._utilization = u
        self.stats.throttled_cycles += throttled

    # ------------------------------------------------------------------
    # Deployment (AWC -> AWB staging)
    # ------------------------------------------------------------------
    def _deploy(self, cycle: int) -> None:
        """Stage up to ``deploy_width`` instructions, round-robin over
        the AWT from ``_deploy_rr``. Only called with instructions left
        to deploy (so the AWT is non-empty)."""
        awt = self._awt
        n = len(awt)
        rr = self._deploy_rr
        budget = width = self._deploy_width
        depth = self._ib_depth
        for i in range(n):
            if budget == 0:
                break
            aw = awt[(rr + i) % n]
            if aw.cancelled:
                continue
            deployed = aw.deployed
            pc = aw.pc
            if deployed >= aw.size or deployed - pc >= depth:
                continue
            aw.deployed = deployed + 1
            if deployed + 1 >= aw.size:
                self._undeployed -= 1
            if deployed == pc:
                # The warp's next instruction is staged now: reopen its
                # issue gate.
                if aw.priority == HIGH:
                    self.high_gate[aw.parent.sched] = 0
                else:
                    self.low_gate = 0
            budget -= 1
        if budget == width:
            self._deploy_stalled = True

    # ------------------------------------------------------------------
    # Issue hooks (called from SM.tick and SM._issue_slot)
    # ------------------------------------------------------------------
    # Each hook leaves its gate at the first cycle it could issue: the
    # earliest ``ready`` of its deployed warps, ``cycle + 1`` after a
    # structural miss, 0 after an issue. Deployment and spawns reopen
    # the gate.
    def issue_high(self, sched: int, cycle: int) -> bool:
        """Issue the first issuable warp of scheduler ``sched``'s
        high-priority queue, round-robin from its head (a warp that
        issues stays at the head). A pass that issues nothing rotates
        the queue back to where it started."""
        dq = self._high[sched]
        gate = _INF
        n = len(dq)
        for i in range(n):
            aw = dq[0]
            pc = aw.pc
            if aw.cancelled or pc >= aw.size:
                dq.popleft()
                continue
            if pc < aw.deployed:
                ready = aw.ready
                if cycle < ready:
                    if ready < gate:
                        gate = ready
                elif self.sm.try_issue_assist(aw, cycle):
                    if aw.pc >= aw.size:
                        dq.popleft()
                    elif aw.pc < aw.deployed and aw.ready < gate:
                        gate = aw.ready
                    # Warps behind this one went unexamined.
                    self.high_gate[sched] = gate if i == n - 1 else 0
                    self._deploy_stalled = False
                    return True
                else:
                    gate = cycle + 1
            dq.rotate(-1)
        self.high_gate[sched] = gate
        return False

    def issue_low(self, sched: int, cycle: int) -> bool:
        """Issue the oldest issuable low-priority warp (shared by the
        SM's schedulers)."""
        gate = _INF
        for aw in self._low:
            pc = aw.pc
            if aw.cancelled or pc >= aw.size or pc >= aw.deployed:
                continue
            ready = aw.ready
            if cycle < ready:
                if ready < gate:
                    gate = ready
            elif self.sm.try_issue_assist(aw, cycle):
                self.low_gate = 0
                self._deploy_stalled = False
                return True
            else:
                gate = cycle + 1
        self.low_gate = gate
        return False

    # ------------------------------------------------------------------
    # Decompression (high priority, triggered by compressed fills)
    # ------------------------------------------------------------------
    def pending_decompression(self, line: int) -> bool:
        return line in self._decomp

    def attach_to_decompression(self, line: int, callback: Callable[[], None]) -> None:
        self._decomp[line].callbacks.append(callback)

    def request_decompression(
        self,
        warp: WarpContext,
        fill: LineFill,
        callback: Callable[[], None],
        cycle: int,
    ) -> None:
        """Register interest in the decompressed form of ``fill.line``.

        The assist warp is triggered when the compressed line lands in
        the L1 (the fill time); ``callback`` fires when the subroutine
        completes and the data is usable.
        """
        entry = self._decomp.get(fill.line)
        if entry is not None:
            entry.callbacks.append(callback)
            return
        entry = _DecompressionEntry(
            line=fill.line, encoding=fill.encoding, owner=warp
        )
        entry.callbacks.append(callback)
        self._decomp[fill.line] = entry
        self.sm.schedule(
            math.ceil(fill.fill_time),
            partial(self._activate_decompression, entry),
        )

    def _activate_decompression(self, entry: _DecompressionEntry) -> None:
        entry.activated = True
        owner_key = id(entry.owner)
        if owner_key in self._busy_decomp_parents:
            # Only one instance of each subroutine per parent warp
            # (Section 3.2.2): queue behind the active one.
            self._parent_decomp_queue.setdefault(owner_key, deque()).append(entry)
            return
        if len(self._awt) >= self.params.awt_capacity:
            self.stats.awt_full_events += 1
            self._decomp_awt_queue.append(entry)
            return
        self._spawn_decompression(entry)

    def _spawn_decompression(self, entry: _DecompressionEntry) -> None:
        program = self._programs.get(entry.encoding)
        if program is None:
            program = self.library.decompression(self.algorithm, entry.encoding)
            self._programs[entry.encoding] = program
        self.aws.register("decompress", entry.encoding, program)
        priority = HIGH if self.params.decompression_high_priority else LOW
        aw = ActiveAssistWarp(
            parent=entry.owner,
            program=program,
            priority=priority,
            task="decompress",
            line=entry.line,
        )
        aw.spawn_cycle = self.sm.now
        entry.assist = aw
        self._awt.append(aw)
        self._undeployed += 1
        self._deploy_stalled = False
        self._busy_decomp_parents.add(id(entry.owner))
        if priority == HIGH:
            # A blocking assist warp stalls its parent until it completes
            # (Section 4.2.1).
            if not entry.owner.finished:
                entry.owner.assist_block += 1
                touch(entry.owner)
                aw.blocking = True
            self._high[entry.owner.sched].append(aw)
            self.high_gate[entry.owner.sched] = 0
        else:
            self._low.append(aw)
            self.low_gate = 0
        self.stats.decompressions_triggered += 1

    def _pump_decompression_queues(self, owner: WarpContext) -> None:
        """After a decompression finishes, start queued work."""
        owner_key = id(owner)
        queue = self._parent_decomp_queue.get(owner_key)
        if queue:
            entry = queue.popleft()
            if not queue:
                del self._parent_decomp_queue[owner_key]
            if len(self._awt) < self.params.awt_capacity:
                self._spawn_decompression(entry)
            else:
                self._decomp_awt_queue.append(entry)
        while self._decomp_awt_queue and len(self._awt) < self.params.awt_capacity:
            entry = self._decomp_awt_queue.popleft()
            if id(entry.owner) in self._busy_decomp_parents:
                self._parent_decomp_queue.setdefault(
                    id(entry.owner), deque()
                ).append(entry)
                continue
            self._spawn_decompression(entry)

    # ------------------------------------------------------------------
    # Compression (low priority, triggered by buffered stores)
    # ------------------------------------------------------------------
    def buffer_store(
        self, warp: WarpContext, lines, full_line: bool, cycle: int
    ) -> None:
        """Stage store lines in the pending-store buffer (Section 4.2.2)."""
        for line in lines:
            if any(
                e.line == line and e.state != "released"
                for e in self._store_buffer
            ):
                continue  # merged with a pending store to the same line
            while len(self._store_buffer) >= self.params.store_buffer_lines:
                self._overflow_release(cycle)
            self._store_buffer.append(
                _StoreEntry(line=line, parent=warp, full_line=full_line)
            )
            self._waiting_stores += 1

    def _overflow_release(self, cycle: int) -> None:
        """Buffer full: release the oldest entry uncompressed."""
        entry = self._store_buffer.popleft()
        self.stats.store_buffer_overflows += 1
        if entry.state == "compressing" and entry.assist is not None:
            self._cancel(entry.assist)
        if entry.state != "released":
            if entry.state == "waiting":
                self._waiting_stores -= 1
            self._release_store(entry, compressed=False, cycle=cycle)

    def _spawn_compressions(self, cycle: int) -> None:
        if self._waiting_stores == 0 or self.throttled:
            return
        active_low = sum(
            1
            for aw in self._low
            if not aw.cancelled and aw.pc < aw.size
        )
        for entry in self._store_buffer:
            if active_low >= self.params.low_priority_slots:
                break
            if len(self._awt) >= self.params.awt_capacity:
                break
            if entry.state != "waiting":
                continue
            if id(entry.parent) in self._busy_compress_parents:
                continue
            self._spawn_compression(entry)
            active_low += 1

    def _spawn_compression(self, entry: _StoreEntry) -> None:
        program = self.library.compression(self.algorithm)
        aw = ActiveAssistWarp(
            parent=entry.parent,
            program=program,
            priority=LOW,
            task="compress",
            line=entry.line,
        )
        aw.spawn_cycle = self.sm.now
        entry.state = "compressing"
        self._waiting_stores -= 1
        entry.assist = aw
        self._awt.append(aw)
        self._undeployed += 1
        self._deploy_stalled = False
        self._low.append(aw)
        self.low_gate = 0
        self._busy_compress_parents.add(id(entry.parent))
        self.stats.compressions_triggered += 1

    def _release_store(self, entry: _StoreEntry, compressed: bool, cycle: int) -> None:
        entry.state = "released"
        self.sm.memory.store(
            self.sm.sm_id,
            entry.line,
            cycle,
            full_line=entry.full_line,
            compressed_by_core=compressed,
        )
        if compressed:
            self.stats.stores_released_compressed += 1
        else:
            self.stats.stores_released_uncompressed += 1

    # ------------------------------------------------------------------
    # Completion / cancellation
    # ------------------------------------------------------------------
    def finish(self, aw: ActiveAssistWarp) -> None:
        """Last instruction of ``aw`` wrote back: retire the assist warp."""
        if aw.cancelled:
            return
        self._remove_from_awt(aw)
        self.stats.assist_warps_completed += 1
        self.sm.stats.assist_warps_completed += 1
        now = self.sm.now + 1
        if self.chrome is not None:
            self.chrome.assist_event(
                self.sm.sm_id, aw.task, aw.line, aw.spawn_cycle, now,
                completed=True,
            )
        if aw.task == "decompress":
            entry = self._decomp.pop(aw.line, None)
            self._unblock(aw)
            self._busy_decomp_parents.discard(id(aw.parent))
            if entry is not None:
                for callback in entry.callbacks:
                    callback()
            self._pump_decompression_queues(aw.parent)
        elif aw.task == "compress":
            self._busy_compress_parents.discard(id(aw.parent))
            for entry in list(self._store_buffer):
                if entry.assist is aw:
                    self._store_buffer.remove(entry)
                    self._release_store(entry, compressed=True, cycle=now)
                    break
        else:
            # Custom tasks (memoization, prefetch) handle their own
            # completion through callbacks attached at spawn time.
            self._unblock(aw)

    def _unblock(self, aw: ActiveAssistWarp) -> None:
        if aw.blocking:
            aw.parent.assist_block -= 1
            touch(aw.parent)
            aw.blocking = False

    def _cancel(self, aw: ActiveAssistWarp) -> None:
        """Kill an assist warp: flush its AWT and AWB state (Section 3.4)."""
        aw.cancelled = True
        self._unblock(aw)
        self._remove_from_awt(aw)
        if aw in self._low:
            self._low.remove(aw)
        self._busy_compress_parents.discard(id(aw.parent))
        self.stats.assist_warps_cancelled += 1
        self.sm.stats.assist_warps_cancelled += 1
        if self.chrome is not None:
            self.chrome.assist_event(
                self.sm.sm_id, aw.task, aw.line, aw.spawn_cycle, self.sm.now,
                completed=False,
            )

    def _remove_from_awt(self, aw: ActiveAssistWarp) -> None:
        if aw in self._awt:
            self._awt.remove(aw)
            if aw.deployed < aw.size:
                self._undeployed -= 1
        if aw in self._low:
            self._low.remove(aw)

    # ------------------------------------------------------------------
    # End of kernel
    # ------------------------------------------------------------------
    def flush(self, cycle: int) -> None:
        """Drain the store buffer at kernel end.

        Entries whose compression assist warp is still running count as
        compressed (it completes while the writeback is in flight);
        entries never picked up are released uncompressed.
        """
        while self._store_buffer:
            entry = self._store_buffer.popleft()
            if entry.state == "released":
                continue
            self._release_store(
                entry, compressed=entry.state == "compressing", cycle=cycle
            )
        self._waiting_stores = 0

    # ------------------------------------------------------------------
    @property
    def store_buffer_occupancy(self) -> int:
        return len(self._store_buffer)
