"""Top-level GPU simulator: SMs + memory system + block dispatcher.

The main loop is cycle-driven, and it ticks only what can change.

* **Per-SM sleep.** An SM whose tick issued nothing, and whose
  schedulers all hold a valid stall memo, would only replay that tick
  until a memo lapses. So it leaves the tick list until its wake hint
  or its earliest tier-2 memo expiry, whichever comes first
  (``SM.quiet_until``). An event the SM itself scheduled wakes it
  early: a register release, a fill's ``line_done``, ``complete_fill``
  (the MSHR epoch), an assist warp's finish, a decompression trigger.
  The block dispatch that follows a retirement lands on the same SM,
  from one of its own events. Nothing on another SM can change its
  scan: MSHR state and epochs are per SM. A CABA SM sleeps only while
  its controller has nothing to deploy or spawn and no queued assist
  warp is ready.
* **Settling a sleep.** On waking, ``SM.replay_stall`` charges the
  slept cycles to the last classification, and the controller replays
  one ``observe(0, ...)`` per loop iteration that ran meanwhile (not
  per slept cycle: the utilization EMA samples executed cycles), as a
  float loop so the throttle stays byte-identical. Sleepers are settled
  at the end of every ``_run_detailed`` call, so the sampling
  controller's snapshots are exact.
* **Fast-forward.** When no SM issues, the clock jumps to the next
  scheduled event or SM wake hint (``_fast_forward``), with the skipped
  slots accounted under their last classification. The jump rule is
  the one the every-SM loop used, so the loop runs exactly the cycles
  it ran; when every SM sleeps, this is the only way time moves.

Memory-bound applications spend most of their wall clock inside these
jumps and sleeps, which is what makes a Python cycle-level model
practical.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from functools import partial
from dataclasses import dataclass
from typing import Callable

from repro.design import DesignPoint
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Kernel
from repro.gpu.occupancy import Occupancy, compute_occupancy
from repro.gpu.sampling import SampleConfig, SamplingController
from repro.gpu.sm import SM
from repro.gpu.soa import SoAState
from repro.gpu.stats import SimStats
from repro.gpu.warp import BlockContext, WarpContext
from repro.memory.hierarchy import MemorySystem
from repro.memory.image import MemoryImage
from repro.obs.chrome import ChromeTraceCollector

_INF = float("inf")


@dataclass
class SimulationResult:
    """Everything a harness needs from one simulation."""

    kernel: str
    design: str
    stats: SimStats
    memory: MemorySystem
    occupancy: Occupancy
    truncated: bool

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def bandwidth_utilization(self) -> float:
        return self.memory.bandwidth_utilization(float(self.stats.cycles))


class Simulator:
    """Drives one kernel to completion on the configured machine."""

    def __init__(
        self,
        config: GPUConfig,
        kernel: Kernel,
        design: DesignPoint,
        image: MemoryImage,
        caba_factory: Callable[[SM], object] | None = None,
        assist_regs_per_thread: int = 0,
        chrome: ChromeTraceCollector | None = None,
        sample: SampleConfig | None = None,
        capacity: object | None = None,
    ) -> None:
        """
        Args:
            config: Machine description.
            kernel: The kernel launch to run.
            design: Compression design point.
            image: Compressed view of global memory for this workload.
            caba_factory: Builds a CABA controller for an SM; required
                when the design uses assist warps.
            assist_regs_per_thread: Extra per-thread register demand of
                the enabled assist subroutines (affects occupancy).
            chrome: A timeline collector fed every issue slot and
                assist-warp lifetime, or None (the default) to collect
                no timeline.
            sample: Interval-sampling knobs (repro.gpu.sampling), or
                None (the default) for exact, byte-identical
                simulation. The simulator never reads the environment
                itself — callers (the harness RunSpec) resolve
                REPRO_SAMPLE, so directly constructed simulators stay
                exact unless explicitly opted in.
            capacity: A ``repro.memory.hostlink.CapacityModel`` enabling
                capacity mode (spilled lines travel a host link), or
                None (the default) for the bandwidth-mode hierarchy.
        """
        if design.uses_assist_warps and caba_factory is None:
            raise ValueError(f"design {design.name} needs a CABA controller")
        self.config = config
        self.kernel = kernel
        self.design = design
        self.memory = MemorySystem(config, design, image, capacity=capacity)
        self.occupancy = compute_occupancy(
            config, kernel, assist_regs_per_thread=assist_regs_per_thread
        )

        # Events are bucketed per cycle: the heap orders the distinct
        # cycles and each bucket preserves insertion (schedule) order,
        # so delivery order matches the old per-event heap while same-
        # cycle events cost one push/pop instead of one each. Each
        # bucket also records, as a bitmask of SM ids, which SMs
        # scheduled into it: delivering it wakes them.
        self._event_cycles: list[int] = []
        self._event_buckets: dict[int, list[Callable[[], None]]] = {}
        self._event_owners: dict[int, int] = {}
        self._cycle = 0

        # Live screen codes of every resident warp slot machine-wide.
        self._soa = SoAState(
            config.n_sms, config.schedulers_per_sm,
            self.occupancy.blocks_per_sm * kernel.warps_per_block,
        )
        self.sms = [
            SM(
                sm_id=i,
                config=config,
                memory=self.memory,
                schedule=partial(self._schedule, 1 << i),
                on_block_retired=self._on_block_retired,
                soa=self._soa,
            )
            for i in range(config.n_sms)
        ]
        if caba_factory is not None:
            for sm in self.sms:
                sm.caba = caba_factory(sm)

        self.chrome = chrome
        if chrome is not None:
            for sm in self.sms:
                sm.chrome = chrome
                if sm.caba is not None:
                    sm.caba.chrome = chrome

        self._sample = sample
        self._has_caba = caba_factory is not None
        self._asleep = [0] * config.n_sms

        self._pending_blocks: deque[int] = deque(range(kernel.n_blocks))
        self._blocks_retired = 0
        self._fill_initial_blocks()

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _schedule(
        self, owner: int, cycle: float, fn: Callable[[], None]
    ) -> None:
        """Run ``fn`` at the start of ``cycle`` (never before next
        cycle), on behalf of the SMs in bitmask ``owner``. Each SM's
        ``schedule`` is this method with its own bit bound."""
        when = math.ceil(cycle)
        if when <= self._cycle:
            when = self._cycle + 1
        bucket = self._event_buckets.get(when)
        if bucket is None:
            self._event_buckets[when] = [fn]
            self._event_owners[when] = owner
            heapq.heappush(self._event_cycles, when)
        else:
            bucket.append(fn)
            self._event_owners[when] |= owner

    # ------------------------------------------------------------------
    # Block dispatch
    # ------------------------------------------------------------------
    def _fill_initial_blocks(self) -> None:
        for sm in self.sms:
            while (
                len(sm.resident_blocks) < self.occupancy.blocks_per_sm
                and self._pending_blocks
            ):
                self._dispatch_block(sm)

    def _dispatch_block(self, sm: SM) -> None:
        block_id = self._pending_blocks.popleft()
        block = BlockContext(block_id)
        program = self.kernel.program
        soa = self._soa
        for w in range(self.kernel.warps_per_block):
            index = self.kernel.warp_linear_index(block_id, w)
            block.warps.append(WarpContext(
                soa, soa.alloc(sm.sm_id), index, block, program, 0
            ))
        sm.add_block(block)

    def _on_block_retired(self, sm: SM) -> None:
        self._blocks_retired += 1
        if self._pending_blocks:
            self._dispatch_block(sm)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._blocks_retired >= self.kernel.n_blocks

    def run(self) -> SimulationResult:
        if self._sample is not None:
            truncated = SamplingController(self, self._sample).run()
        else:
            truncated = self._run_detailed(self.config.max_cycles)
        if self.done:
            self._drain()
        stats = SimStats(
            cycles=self._cycle, sms=[sm.stats for sm in self.sms]
        )
        if self.chrome is not None:
            self.chrome.flush()
        return SimulationResult(
            kernel=self.kernel.name,
            design=self.design.name,
            stats=stats,
            memory=self.memory,
            occupancy=self.occupancy,
            truncated=truncated,
        )

    def _run_detailed(self, limit: int) -> bool:
        """Drive cycle-detailed simulation until the kernel completes or
        the clock reaches ``limit``; True when stopped at the limit with
        work remaining. Exact mode is one call with
        ``limit = max_cycles``; the sampling controller calls this once
        per detailed interval, so the per-cycle body is identical in
        both modes. Every SM is awake on entry and on return."""
        cycles = self._event_cycles
        buckets = self._event_buckets
        owners = self._event_owners
        heappop = heapq.heappop
        sms = self.sms
        ticks = [sm.tick for sm in sms]
        # Per SM: the cycle a sleeping SM must tick again, 0 = awake.
        asleep = [0] * len(sms)
        self._asleep = asleep
        sleepers = 0  # bitmask of sleeping SM ids
        iterations = 0  # loop iterations (cycles ticked) so far
        last = self._cycle - 1  # cycle of the latest iteration
        truncated = False
        while not self.done:
            cycle = self._cycle
            if cycle >= limit:
                truncated = True
                break
            # Deliver events due this cycle. Callbacks can only schedule
            # for cycle+1 or later, so the bucket cannot grow mid-drain.
            while cycles and cycles[0] <= cycle:
                when = heappop(cycles)
                woken = owners.pop(when) & sleepers
                if woken:
                    sleepers &= ~woken
                    self._wake(woken, cycle, iterations, last)
                for fn in buckets.pop(when):
                    fn()
            issued = 0
            for i, tick in enumerate(ticks):
                wake_at = asleep[i]
                if wake_at:
                    if wake_at > cycle:
                        continue
                    asleep[i] = 0
                    sleepers &= ~(1 << i)
                    sms[i].wake(cycle, iterations, last)
                n = tick(cycle)
                if n:
                    issued += n
                else:
                    sm = sms[i]
                    quiet = sm.quiet_until(cycle)
                    if quiet > cycle + 1:
                        asleep[i] = quiet
                        sleepers |= 1 << i
                        sm.sleep(cycle, iterations + 1)
            iterations += 1
            last = cycle
            self._cycle = cycle + 1
            if issued == 0:
                self._fast_forward(limit)
        if sleepers:
            self._wake(sleepers, self._cycle, iterations, last)
        return truncated

    def _wake(self, mask: int, cycle: int, iterations: int,
              last: int) -> None:
        """Wake the sleeping SMs in bitmask ``mask`` before ``cycle`` is
        ticked or its events run (see ``SM.wake``)."""
        asleep = self._asleep
        sms = self.sms
        while mask:
            bit = mask & -mask
            mask ^= bit
            i = bit.bit_length() - 1
            asleep[i] = 0
            sms[i].wake(cycle, iterations, last)

    def _deliver_until(self, target: int) -> int:
        """Deliver every queued event due by ``target``, advancing the
        clock with them but ticking no SM — the sampling controller's
        skip primitive (fills complete, MSHRs release, blocks drain, so
        memory state stays warm across the window). Stops early when
        the kernel completes; returns elapsed cycles."""
        start = self._cycle
        cycles = self._event_cycles
        buckets = self._event_buckets
        heappop = heapq.heappop
        while cycles and cycles[0] <= target and not self.done:
            when = heappop(cycles)
            if when > self._cycle:
                self._cycle = when
            del self._event_owners[when]  # no SM sleeps outside the loop
            for fn in buckets.pop(when):
                fn()
        if not self.done and self._cycle < target:
            self._cycle = target
        return self._cycle - start

    def _fast_forward(self, limit: int) -> None:
        """Jump to the next time anything can happen (capped at
        ``limit``, the detailed window's end).

        ``self._cycle`` has already advanced past the tick that issued
        nothing, so the just-simulated cycle is ``self._cycle - 1`` —
        the "now" that ``SM.next_wake`` expects. Passing ``self._cycle``
        instead would make an SM with pending CABA work report
        ``now + 2`` and the jump would skip a cycle in which an assist
        warp could have issued; tests/gpu/test_simulator.py pins
        fast-forward on/off byte-identity against exactly that class of
        off-by-one.
        """
        wake = float(self._event_cycles[0]) if self._event_cycles else _INF
        cycle = self._cycle
        if not self._has_caba:
            # Without a CABA controller every SM's next_wake is exactly
            # its last tick's wake hint, mirrored into the SoA wake
            # list at the end of SM.tick — one batched min replaces
            # the per-SM next_wake calls.
            if wake > cycle:
                hint = min(self._soa.wake)
                if hint < wake:
                    wake = hint
        else:
            for sm in self.sms:
                hint = sm.next_wake(cycle - 1)
                if hint < wake:
                    wake = hint
                    if wake <= cycle:
                        return
        if wake == _INF or wake <= cycle:
            return
        target = min(int(wake), limit)
        skipped = target - cycle
        if skipped <= 0:
            return
        # Sleepers are charged the jump when they wake.
        for sm, asleep in zip(self.sms, self._asleep):
            if not asleep:
                sm.replay_stall(skipped)
        self._cycle = target

    def _drain(self) -> None:
        """Flush CABA store buffers so end-of-kernel traffic is counted,
        and release MSHRs of assist-issued fills that would complete in
        the dead time after the last warp retires."""
        for sm in self.sms:
            if sm.caba is not None:
                sm.caba.flush(self._cycle)
        self.memory.drain_inflight()
