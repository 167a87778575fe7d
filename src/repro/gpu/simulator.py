"""Top-level GPU simulator: SMs + memory system + block dispatcher.

The main loop is cycle-driven with event-based fast-forwarding: when no
SM can issue and no assist-warp work is pending, the clock jumps to the
next scheduled event (a writeback, a cache fill, a DRAM completion),
with the skipped issue slots accounted under their last stall
classification — memory-bound applications spend most of their wall
clock inside these jumps, which is what makes a Python cycle-level
model practical.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
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
    #: RunObservation when the run was traced, else None.
    obs: object | None = None

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
        obs: object | None = None,
        fast_forward: bool = True,
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
            obs: A ``repro.obs.RunObservation`` to attach to every
                component, or None (the default) for the untraced path.
            fast_forward: Disable to execute every cycle instead of
                jumping uniform-stall gaps (results are identical for
                designs without a CABA controller, whose utilization
                monitor samples executed cycles). Kept for the checks
                that pin the jump as exact:
                ``tests/gpu/test_simulator.py::TestFastForwardIdentity``
                and the random-program on/off test in
                ``tests/gpu/test_simulator_fuzz.py``.
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
        # cycle events cost one push/pop instead of one each.
        self._event_cycles: list[int] = []
        self._event_buckets: dict[int, list[Callable[[], None]]] = {}
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
                schedule=self.schedule,
                on_block_retired=self._on_block_retired,
                soa=self._soa,
            )
            for i in range(config.n_sms)
        ]
        if caba_factory is not None:
            for sm in self.sms:
                sm.caba = caba_factory(sm)

        self.obs = obs
        if obs is not None:
            self.memory.attach_observer(obs)
            for sm in self.sms:
                sm.attach_observer(obs)
                if sm.caba is not None:
                    sm.caba.obs = obs

        self._ff_enabled = fast_forward
        self._sample = sample
        self._has_caba = caba_factory is not None

        self._pending_blocks: deque[int] = deque(range(kernel.n_blocks))
        self._blocks_retired = 0
        self._fill_initial_blocks()

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def schedule(self, cycle: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the start of ``cycle`` (never before next cycle)."""
        when = max(self._cycle + 1, math.ceil(cycle))
        bucket = self._event_buckets.get(when)
        if bucket is None:
            self._event_buckets[when] = [fn]
            heapq.heappush(self._event_cycles, when)
        else:
            bucket.append(fn)

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
        for sm in self.sms:
            sm.flush_ledger()
        stats = SimStats(
            cycles=self._cycle, sms=[sm.stats for sm in self.sms]
        )
        if self.obs is not None:
            self.obs.finalize(stats, self.memory, self.sms)
        return SimulationResult(
            kernel=self.kernel.name,
            design=self.design.name,
            stats=stats,
            memory=self.memory,
            occupancy=self.occupancy,
            truncated=truncated,
            obs=self.obs,
        )

    def _run_detailed(self, limit: int) -> bool:
        """Drive cycle-detailed simulation until the kernel completes or
        the clock reaches ``limit``; True when stopped at the limit with
        work remaining. Exact mode is one call with
        ``limit = max_cycles``; the sampling controller calls this once
        per detailed interval, so the per-cycle body is identical in
        both modes."""
        cycles = self._event_cycles
        buckets = self._event_buckets
        heappop = heapq.heappop
        ticks = [sm.tick for sm in self.sms]
        ff = self._ff_enabled
        while not self.done:
            cycle = self._cycle
            if cycle >= limit:
                return True
            # Deliver events due this cycle. Callbacks can only schedule
            # for cycle+1 or later, so the bucket cannot grow mid-drain.
            while cycles and cycles[0] <= cycle:
                for fn in buckets.pop(heappop(cycles)):
                    fn()
            issued = 0
            for tick in ticks:
                issued += tick(cycle)
            self._cycle = cycle + 1
            if issued == 0 and ff:
                self._fast_forward(limit)
        return False

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
        for sm in self.sms:
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
