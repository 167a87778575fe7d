"""Interval sampling: detailed-sample + extrapolate simulation.

Wall clock of the exact simulator is linear in simulated cycles — every
cycle of every SM runs in detail. This module trades a bounded amount of
accuracy for asymptotic speed by alternating:

* **detailed intervals** — ``warmup + measure`` cycles of full
  execution (the issue path, slot counting, real memory
  timing), exactly as the exact simulator would run them; then
* **skipped intervals** — ``skip`` cycles whose issue slots and stall
  mix are *extrapolated* from the rates observed during the most recent
  measure window, while the warps' *work* is bulk-advanced so the
  kernel still executes every parent instruction.

Because the simulated kernels are fixed-work (not fixed-time), a skip
must advance warp progress, not just the clock: each SM's resident
blocks are advanced by whole loop iterations at the SM's measured
parent-issue rate, crediting the per-instruction counters exactly from
per-pc suffix tables. The total ``parent_instructions`` of a completed
sampled run therefore equals the exact run's count bit-for-bit; all of
the IPC error comes from the extrapolated cycle count.

Memory traffic is not extrapolated — it is *functionally warmed*:
address streams are pure functions of ``(warp, iteration)``, so the
bulk advance replays every skipped global load/store through the real
memory hierarchy (cache state, DRAM row buffers, traffic counters,
bus/port reservations) without any warp-side timing. Traffic totals,
compression ratios and the conservation invariants therefore track the
exact run closely; only *when* the traffic happened is approximated.
Queued events (cache fills, MSHR releases, register writebacks) are
delivered while the clock advances through the skipped window, so
in-flight state is realistic when the next detailed interval resumes.

Extrapolated slots are tagged separately (``SmStats.extrapolated_slots``)
but charged so every conservation invariant still closes: per-SM stall
counts sum to ``cycles * schedulers``, MSHR allocs balance releases, and
crossbar/DRAM byte counters stay consistent with their reserved bus
cycles.

Error model (documented bound: **≤2 %** on IPC / bandwidth utilization /
compression-figure metrics at the default 10 % detail, enforced by
``repro check``'s sampling differential): error enters through (a) rate
drift within a skipped window, bounded by re-measuring every period;
(b) the warmup window being too short to re-reach steady state after a
skip; (c) warmed traffic being replayed in program order at the skip
boundary rather than interleaved in time. Don't use sampling for runs shorter than a few sampling periods, for figures that
depend on absolute event counts of rare events, or when auditing
invariants against exact-mode goldens.

Opt-in via ``REPRO_SAMPLE=1`` or ``repro run --sample``, both at the
certified 500:1000:13500 period; code may build other
:class:`SampleConfig` periods directly. Exact mode remains the default
and is byte-identical to pre-sampling builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.isa import MemSpace, OpKind
from repro.gpu.warp import touch
from repro.knobs import env_flag
from repro.gpu.stats import SLOT_OF_CAT, Slot, slots_of

ENV_VAR = "REPRO_SAMPLE"

#: A measure window whose busiest serial memory resource is at least
#: this utilized is treated as bandwidth-bound: the skip is charged by
#: utilization-normalized warmed service time instead of the rate-based
#: span (see ``SamplingController._skip``).
_UTIL_BOUND = 0.5

#: Refined categories belonging to each Figure-1 slot, in category
#: order (the inverse of SLOT_OF_CAT; used to split an extrapolated
#: slot's charge across its member categories).
_CATS_OF_SLOT = tuple(
    tuple(c for c, of in enumerate(SLOT_OF_CAT) if of is slot)
    for slot in Slot
)


@dataclass(frozen=True)
class SampleConfig:
    """Knobs of one sampling period (all in cycles).

    The defaults run 10 % of cycles in detail (500 warmup + 1000
    measure per 13500 skipped) — the operating point ``repro check``'s
    sampling differential (:mod:`repro.verify.sampling`) certifies.
    Longer windows at the same detail fraction average over more of the
    post-skip queueing transient (fewer skip boundaries per run), which
    is worth more accuracy than sampling more often.
    """

    warmup: int = 500
    measure: int = 1000
    skip: int = 13500

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError("sample warmup must be >= 0")
        if self.measure < 1:
            raise ValueError("sample measure must be >= 1")
        if self.skip < 1:
            raise ValueError("sample skip must be >= 1")

    @property
    def period(self) -> int:
        return self.warmup + self.measure + self.skip

    @property
    def detail_fraction(self) -> float:
        return (self.warmup + self.measure) / self.period

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> "SampleConfig | None":
        """The process-wide default: None (exact mode) unless
        ``REPRO_SAMPLE`` turns sampling on, at the default period.

        Any other value (e.g. a ``WARMUP:MEASURE:SKIP`` triple) raises
        :class:`~repro.knobs.KnobError` rather than silently running
        exact or at an uncertified period.
        """
        return cls() if env_flag(ENV_VAR) else None


# ----------------------------------------------------------------------
# Deterministic integer apportionment
# ----------------------------------------------------------------------
def apportion(total: int, weights: list[int]) -> list[int]:
    """Split ``total`` into integer shares proportional to ``weights``
    by largest remainder (pure integer arithmetic; remainder ties break
    to the lowest index). All-zero weights dump into the last bin — by
    convention the Idle slot/category."""
    n = len(weights)
    shares = [0] * n
    if total <= 0:
        return shares
    wsum = 0
    for w in weights:
        wsum += w
    if wsum <= 0:
        shares[-1] = total
        return shares
    rems = []
    left = total
    for i, w in enumerate(weights):
        q, r = divmod(total * w, wsum)
        shares[i] = q
        left -= q
        rems.append((-r, i))
    if left:
        rems.sort()
        for k in range(left):
            shares[rems[k][1]] += 1
    return shares


# ----------------------------------------------------------------------
# Per-program suffix tables
# ----------------------------------------------------------------------
def _suffix_counts(program) -> list[tuple]:
    """``tails[pc]`` = instruction-counter credit for executing
    ``body[pc:]`` once: (parent instructions, alu ops, sfu ops, global
    loads, global stores, on-chip accesses, register reads, register
    writes) — the exact deltas the issue paths in ``gpu.sm`` would have
    charged, so bulk-advanced work keeps every counter exact."""
    body = program.body
    n = len(body)
    tails: list[tuple] = [(0,) * 8] * (n + 1)
    for p in range(n - 1, -1, -1):
        instr = body[p]
        kind = instr.kind
        alu = sfu = loads = stores = shared = 0
        if kind is OpKind.ALU or kind is OpKind.NOP:
            alu = 1
        elif kind is OpKind.SFU:
            sfu = 1
        elif kind is OpKind.LOAD or kind is OpKind.STORE:
            if instr.space is MemSpace.GLOBAL:
                if kind is OpKind.LOAD:
                    loads = 1
                else:
                    stores = 1
            else:
                shared = 1
        prev = tails[p + 1]
        tails[p] = (
            prev[0] + 1,
            prev[1] + alu,
            prev[2] + sfu,
            prev[3] + loads,
            prev[4] + stores,
            prev[5] + shared,
            prev[6] + instr.src_mask.bit_count(),
            prev[7] + instr.dst_mask.bit_count(),
        )
    return tails


def _mem_suffixes(program) -> list[tuple]:
    """``mem_tails[pc]`` = the global memory instructions of
    ``body[pc:]`` as ``(is_load, addr_fn)`` pairs — the accesses the
    functional-warming pass replays when a warp's remaining iteration
    is bulk-advanced."""
    body = program.body
    n = len(body)
    tails: list[tuple] = [()] * (n + 1)
    for p in range(n - 1, -1, -1):
        instr = body[p]
        kind = instr.kind
        if (
            (kind is OpKind.LOAD or kind is OpKind.STORE)
            and instr.space is MemSpace.GLOBAL
        ):
            tails[p] = ((kind is OpKind.LOAD, instr.addr_fn),) + tails[p + 1]
        else:
            tails[p] = tails[p + 1]
    return tails


class SamplingController:
    """Drives one :class:`~repro.gpu.simulator.Simulator` in sampled
    mode: detailed (warmup + measure) intervals interleaved with
    extrapolated skips. Owned by ``Simulator.run``; everything here is
    deterministic, so sampled runs are exactly reproducible."""

    def __init__(self, sim, cfg: SampleConfig) -> None:
        self._sim = sim
        self._cfg = cfg
        self._tails = _suffix_counts(sim.kernel.program)
        self._mem_tails = _mem_suffixes(sim.kernel.program)
        # Instructions advanced beyond (or short of) each SM's budget in
        # previous skips; repaid against the next budget. Bulk advance
        # works in whole block-iterations, so without the carry the
        # per-skip overshoot would systematically inflate progress (and
        # deflate the extrapolated cycle count).
        self._carry = [0.0] * len(sim.sms)
        # Per-SM block-rotation cursor for the interleaved bulk advance.
        self._rot = [0] * len(sim.sms)
        # Cumulative measure-window busy time per serial memory resource
        # and the cycles they were observed over (see run()).
        self._window_busy = [0.0] * len(self._resource_busy())
        self._window_cycles = 0
        # Whether a warmed store reaches memory compressed at the core:
        # HW-at-core and Ideal compress inline; CABA designs compress
        # through the assist warp, whose (rare) buffer-overflow
        # uncompressed releases the warming pass ignores.
        design = sim.memory.design
        self._store_compressed = (
            design.compress_at == "core_hw"
            or design.ideal
            or (
                sim._has_caba
                and design.compress_at == "core_assist"
                and sim.memory.image.compression_enabled
            )
        )

    # ------------------------------------------------------------------
    def run(self) -> bool:
        """Alternate detailed and skipped intervals until the kernel
        completes; returns True when truncated at ``max_cycles``."""
        sim = self._sim
        cfg = self._cfg
        limit = sim.config.max_cycles
        while not sim.done:
            if sim._cycle >= limit:
                return True
            if cfg.warmup:
                sim._run_detailed(min(sim._cycle + cfg.warmup, limit))
                if sim.done:
                    break
                if sim._cycle >= limit:
                    return True
            before = self._snapshot()
            busy0 = self._resource_busy()
            start = sim._cycle
            sim._run_detailed(min(start + cfg.measure, limit))
            if sim.done:
                break
            if sim._cycle >= limit:
                return True
            measured = sim._cycle - start
            issued = sum(
                sm.stats.parent_instructions - snap[0]
                for sm, snap in zip(sim.sms, before)
            )
            if issued == 0:
                # Congested window (e.g. the machine is paying down a
                # memory backlog): a skip extrapolated from a zero rate
                # would charge cycles against no work. Keep executing in
                # detail until the rate recovers.
                continue
            for i, (b0, b1) in enumerate(zip(busy0, self._resource_busy())):
                self._window_busy[i] += b1 - b0
            self._window_cycles += measured
            # Cumulative utilization over every measure window so far:
            # single windows ring around the skip boundaries (a stalled
            # window reads near zero, the burst after it reads above
            # one), but the ringing is symmetric and the running average
            # converges on the steady-state utilization the charge
            # model needs. Capped at 1.0 — a window can *reserve* more
            # bus time than it has cycles (offered load), but the
            # resource itself never runs above saturation.
            utils = [
                min(b / self._window_cycles, 1.0) for b in self._window_busy
            ]
            if measured > 0 and self._skip(cfg.skip, before, measured, utils):
                return True
        return False

    # ------------------------------------------------------------------
    def _snapshot(self) -> list:
        """Capture the counters whose measure-window deltas drive the
        extrapolation (issue rates and the slot/category mix)."""
        return [
            (sm.stats.parent_instructions, list(sm.stats.stalls))
            for sm in self._sim.sms
        ]

    # ------------------------------------------------------------------
    def _skip(self, span: int, before: list, measured: int,
              utils: list) -> bool:
        """Fast-forward up to ``span`` cycles: bulk-advance warp work at
        the measured per-SM issue rates (functionally replaying the
        skipped memory accesses), deliver queued events through the
        window, then charge extrapolated slots. Returns True when the
        run truncates at ``max_cycles``."""
        sim = self._sim
        limit = sim.config.max_cycles
        start = sim._cycle
        span = min(span, limit - start)
        if span <= 0:
            return not sim.done and sim._cycle >= limit
        sms = sim.sms
        deltas = [
            sm.stats.parent_instructions - snap[0]
            for sm, snap in zip(sms, before)
        ]
        carry = self._carry
        targets = [
            delta * span / measured - carry[sm_id]
            for sm_id, delta in enumerate(deltas)
        ]
        busy0 = self._resource_busy()
        advanced = self._advance_all([int(round(t)) for t in targets])
        for sm_id, (target, credited) in enumerate(zip(targets, advanced)):
            if credited and credited >= int(round(target)):
                carry[sm_id] = credited - target
            else:
                # Ran out of resident work: nothing to repay.
                carry[sm_id] = 0.0
        # Clock advance. For a bandwidth-bound phase (some serial memory
        # resource ran near-saturated through the measure windows) the
        # issue rate one window measures is hostage to the queueing
        # transient it happened to sample — but the warmed accesses hold
        # *real* reservations, so the busy time this skip added to the
        # binding resource, normalized by the windows' utilization of
        # it, is the steady-state cycle cost of the advanced work
        # (``busy / util`` ≈ ``span`` when window and skip agree;
        # transient windows measure a skewed rate but the running
        # utilization stays honest, so the quotient self-corrects in
        # both directions — and it scales with the work actually
        # advanced, so it needs no special-casing when the kernel runs
        # out mid-skip). Only the binding resource constrains
        # throughput; a lightly-used resource's busy/util quotient is
        # noise (small numbers over small numbers) and must not set the
        # charge. Compute-bound phases (no resource near saturation)
        # fall back to the rate-based charge: the work was budgeted at
        # ``rate × span``, so ``span`` cycles is exact by construction
        # (scaled down to the work actually found when the kernel
        # completed mid-skip).
        binding = max(range(len(utils)), key=utils.__getitem__)
        if utils[binding] >= _UTIL_BOUND:
            service = (
                self._resource_busy()[binding] - busy0[binding]
            ) / utils[binding]
            used = max(1 if sim.done else span // 4, math.ceil(service))
            used = min(used, 4 * span, limit - start)
        elif sim.done:
            used = 1
            for delta, adv in zip(deltas, advanced):
                if delta > 0 and adv > 0:
                    est = -(-adv * measured // delta)  # ceil
                    if est > used:
                        used = est
            used = min(used, span)
        else:
            used = span
        elapsed = sim._deliver_until(start + used)
        if elapsed < used and sim.done:
            # The kernel retired mid-delivery (or the bulk advance
            # itself finished the last block): the event pump stops at
            # completion, but the advanced work still costs ``used``
            # cycles — leaving the clock behind would credit the final
            # skip's instructions as nearly free.
            sim._cycle = start + used
            elapsed = used
        if elapsed > 0:
            self._charge(before, elapsed)
        return not sim.done and sim._cycle >= limit

    # ------------------------------------------------------------------
    # Work advancement
    # ------------------------------------------------------------------
    def _advance_all(self, budgets: list) -> list:
        """Advance every SM's resident blocks by whole loop iterations
        until each SM's parent-instruction ``budget`` is spent (or it
        runs out of work); returns instructions credited per SM.

        Rounds interleave across SMs (one block-iteration per SM per
        round) so the warmed memory traffic reaches the shared levels —
        L2 banks, metadata caches, DRAM row buffers — in an order close
        to the real machine's interleaving; advancing SM-at-a-time
        would overstate their locality."""
        sms = self._sim.sms
        credited = [0] * len(sms)
        remaining = list(budgets)
        rot = self._rot
        progressed = True
        while progressed:
            progressed = False
            for i, sm in enumerate(sms):
                if remaining[i] <= 0:
                    continue
                blocks = [
                    b for b in sm.resident_blocks if not b.all_finished
                ]
                if not blocks:
                    remaining[i] = 0
                    continue
                block = blocks[rot[i] % len(blocks)]
                rot[i] += 1
                n = self._advance_block(sm, block)
                if n:
                    progressed = True
                    credited[i] += n
                    remaining[i] -= n
                else:  # pragma: no cover - live block always advances
                    remaining[i] = 0
        return credited

    def _advance_block(self, sm, block) -> int:
        """Advance every live warp of ``block`` by one loop iteration's
        worth of work, crediting instruction counters exactly from the
        suffix tables and functionally replaying the global memory
        accesses. The advance is *phase-preserving*: a warp consumes
        the rest of its current iteration plus the start of the next,
        ending at the same pc one iteration later (suffix + prefix = one
        whole body, so the credit is exact). Snapping every warp to
        pc 0 instead would synchronize iteration boundaries machine-wide
        and the next detailed window would measure an artificial convoy
        (burst, then MSHR-starved trough) rather than the steady state.
        Warps on their last iteration take only the suffix and finish.
        Barriers release wholesale (the whole block crosses together)."""
        stats = sm.stats
        tails = self._tails
        mem_tails = self._mem_tails
        whole = tails[0]
        n_ops = len(mem_tails[0])
        total = 0
        finishers = []
        block.barrier_arrivals = 0
        for warp in block.warps:
            if warp.finished:
                continue
            if warp.at_barrier:
                warp.at_barrier = False
            pc = warp.pc
            iteration = warp.iteration
            suffix_ops = mem_tails[pc]
            if suffix_ops:
                self._warm_memory(sm.sm_id, warp.global_index, iteration,
                                  suffix_ops)
            if iteration + 1 >= warp.program.iterations:
                credit = tails[pc]
                warp.pc = 0
                warp.iteration = iteration + 1
                warp.finished = True
                finishers.append(warp)
            else:
                # mem_tails[pc] is a suffix of mem_tails[0], so the ops
                # before pc are the leading n_ops - len(suffix) entries.
                head_ops = mem_tails[0][: n_ops - len(suffix_ops)]
                if head_ops:
                    self._warm_memory(sm.sm_id, warp.global_index,
                                      iteration + 1, head_ops)
                credit = whole
                warp.iteration = iteration + 1
            (instrs, alu, sfu, loads, stores, shared, rreads,
             rwrites) = credit
            warp.mshr_stall_line = None  # the warp left its instruction
            stats.parent_instructions += instrs
            stats.alu_ops += alu
            stats.sfu_ops += sfu
            stats.loads += loads
            stats.stores += stores
            stats.shared_accesses += shared
            stats.register_reads += rreads
            stats.register_writes += rwrites
            total += instrs
            touch(warp)
        for warp in finishers:
            sm._on_warp_finished(warp)
        return total

    def _resource_busy(self) -> list:
        """Cumulative busy time of every serial memory resource (DRAM
        data buses, crossbar request/reply ports), in a fixed order —
        measure-window deltas give per-resource utilizations and skip
        deltas give the service time the warmed traffic reserved."""
        memory = self._sim.memory
        busy = [mc.bus.busy_time for mc in memory.mcs]
        xbar = memory.crossbar
        busy.extend(p.busy_time for p in xbar._request_ports)
        busy.extend(p.busy_time for p in xbar._reply_ports)
        return busy

    def _warm_memory(self, sm_id: int, index: int, iteration: int,
                     mem_ops: tuple) -> None:
        """Functionally replay skipped global memory accesses: the real
        load/store paths run (cache state, DRAM row buffers, every
        traffic counter, bus/port reservations) but nothing is scheduled
        and no warp-side effect is applied — the warp's timing is what
        the skip extrapolates. MSHRs are released inline so the warming
        stream can't deadlock on its own occupancy; address streams are
        pure functions of ``(warp, iteration)``, so the replayed traffic
        is exactly what the detailed path would have generated."""
        memory = self._sim.memory
        now = self._sim._cycle
        for is_load, addr_fn in mem_ops:
            raw = addr_fn(index, iteration)
            if len(raw) > 1:
                seen: dict[int, None] = {}
                for line in raw:
                    seen.setdefault(line, None)
                lines = list(seen)
            else:
                lines = raw
            if is_load:
                for line in lines:
                    fill = memory.load(sm_id, line, now)
                    if fill is None:
                        # MSHRs still held by the detailed window's
                        # in-flight fills: retire the oldest early (its
                        # queued completion event becomes a no-op).
                        inflight = memory._inflight[sm_id]
                        if not inflight:
                            continue
                        memory.complete_fill(sm_id, next(iter(inflight)))
                        fill = memory.load(sm_id, line, now)
                        if fill is None:
                            continue
                    if not fill.merged and not fill.from_l1:
                        memory.complete_fill(sm_id, line)
            else:
                full_line = len(lines) == 1
                for line in lines:
                    memory.store(
                        sm_id, line, now, full_line=full_line,
                        compressed_by_core=self._store_compressed,
                    )

    # ------------------------------------------------------------------
    # Extrapolated charging
    # ------------------------------------------------------------------
    def _charge(self, before: list, used: int) -> None:
        """Charge ``used`` skipped cycles' issue slots from the measured
        mix. Slot charges are apportioned from the coarse slot mix
        first and the refined categories are split within each slot, so
        the Figure-1 slots follow the measured slot mix exactly."""
        sim = self._sim
        n_sched = sim.config.schedulers_per_sm
        for sm, (_, cats0) in zip(sim.sms, before):
            st = sm.stats
            cat_w = [a - b for a, b in zip(st.stalls, cats0)]
            st.extrapolated_slots += used * n_sched
            chrome = sm.chrome
            for slot, count in enumerate(apportion(used, slots_of(cat_w))):
                if not count:
                    continue
                members = _CATS_OF_SLOT[slot]
                shares = apportion(count, [cat_w[c] for c in members])
                for cat, share in zip(members, shares):
                    if share:
                        st.stalls[cat] += share * n_sched
                        if chrome is not None:
                            for s in range(n_sched):
                                chrome.note_slot(sm.sm_id, s, cat, share)
