"""The MSHR-stall skip: a stalled global load is not re-probed until
its outcome can have changed.

A load's MSHR pre-check fails iff every MSHR of the SM is taken and
some line of the instruction is not in flight. Failed attempts record
that line (``WarpContext.mshr_stall_line``); until an MSHR is released
(the used count cannot drop otherwise) or the line itself goes in
flight, a retry would fail the same way, so the SM answers it without
probing the memory system. A partial send — the pre-check passes, then
``MemorySystem.load`` runs out of MSHRs part-way — records nothing and
is retried in full on the next cycle.
"""

import heapq
from dataclasses import replace

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.gpu.isa import Instr, MemSpace, OpKind, reg_mask
from repro.gpu.sm import SM
from repro.gpu.soa import SoAState
from repro.gpu.warp import BlockContext, SoAWarpContext, WarpContext
from repro.harness.runner import clear_caches, run_app
from repro.memory.hierarchy import MemorySystem
from repro.workloads.tracegen import TraceScale

from tests.gpu.test_sm import SmHarness, alu_i, prog


class ProbeLog:
    """Wraps ``SM._issue_global_load`` and ``MemorySystem.mshr_available``
    to tell each pre-check probe which warp it is for, and counts the
    re-probes of a stalled load that nothing could have unblocked."""

    def __init__(self, monkeypatch) -> None:
        self.probes = 0
        self.failures = 0
        self.wasted = []
        #: warp -> ((pc, iteration), line) of its last failed pre-check
        self._stalled = {}
        self._warp = None
        self._first = False
        issue = SM._issue_global_load
        probe = MemorySystem.mshr_available
        log = self

        def issue_global_load(sm, warp, instr, cycle):
            log._warp, log._first = warp, True
            try:
                return issue(sm, warp, instr, cycle)
            finally:
                log._warp = None

        def mshr_available(memory, sm_id, line):
            warp = log._warp
            if log._first:
                log._first = False
                log._check_reprobe(memory, sm_id, warp)
            log.probes += 1
            ok = probe(memory, sm_id, line)
            if not ok:
                log.failures += 1
                log._stalled[warp] = ((warp.pc, warp.iteration), line)
            return ok

        monkeypatch.setattr(SM, "_issue_global_load", issue_global_load)
        monkeypatch.setattr(MemorySystem, "mshr_available", mshr_available)

    def _check_reprobe(self, memory, sm_id, warp) -> None:
        stalled = self._stalled.get(warp)
        if stalled is None or stalled[0] != (warp.pc, warp.iteration):
            return
        line = stalled[1]
        if (
            memory._mshr_used[sm_id] >= memory.config.l1_mshrs
            and line not in memory._inflight[sm_id]
        ):
            self.wasted.append((sm_id, warp.global_index, stalled))


@pytest.mark.parametrize("soa", ["0", "1"])
def test_stalled_load_reprobed_only_after_release_or_line_in_flight(
    monkeypatch, soa
):
    """MM/Base on the small machine fills its MSHRs constantly; every
    re-probe of a stalled load must find an MSHR free or the blocking
    line in flight — otherwise the probe was a foregone failure."""
    monkeypatch.setenv("REPRO_SOA", soa)
    log = ProbeLog(monkeypatch)
    clear_caches()
    run_app("MM", designs.base(), GPUConfig.small(),
            scale=TraceScale(work=0.25, waves=0.25), use_cache=False)
    assert log.failures > 0, "no MSHR stall exercised"
    assert log.wasted == []


LOAD_LINES = (100, 200, 300, 400)


def _multi_line_load():
    return prog([
        Instr(OpKind.LOAD, dst_mask=reg_mask(3), src_mask=reg_mask(0),
              space=MemSpace.GLOBAL, addr_fn=lambda w, i: LOAD_LINES),
        alu_i(dst=1, src=3),
    ])


def _two_mshr_harness(soa: bool):
    """One warp whose four-line load overflows a two-MSHR L1."""
    h = SmHarness(config=replace(GPUConfig.small(), l1_mshrs=2))
    program = _multi_line_load()
    block = BlockContext(0)
    if soa:
        state = SoAState(1, h.config.schedulers_per_sm, 4, program)
        h.sm.attach_soa(state)
        warp = SoAWarpContext(state, state.alloc(0, program), 0, block,
                              program, age=0)
    else:
        warp = WarpContext(0, block, program, age=0)
    block.warps.append(warp)
    h.sm.add_block(block)
    return h, warp


def _tick(h, soa: bool) -> None:
    """``SmHarness.run(1)``, on the screened path when ``soa``."""
    while h.events and h.events[0][0] <= h.cycle:
        heapq.heappop(h.events)[2]()
    (h.sm.tick_soa if soa else h.sm.tick)(h.cycle)
    h.cycle += 1


@pytest.mark.parametrize("soa", [False, True])
def test_partial_send_stays_unarmed_and_retries_next_cycle(
    monkeypatch, soa
):
    h, warp = _two_mshr_harness(soa)
    log = ProbeLog(monkeypatch)

    # Cycle 0: the pre-check passes (MSHRs free), two lines are sent,
    # then the third finds no MSHR. Nothing is armed and the stall is
    # not memoized.
    _tick(h, soa)
    assert h.memory.stats.mshr_allocs == 2
    assert h.memory.stats.mshr_stalls == 1
    assert h.sm.stats.loads == 0
    assert warp.mshr_stall_line is None
    if soa:
        assert h.sm._memos[warp.sched] is None

    # Cycle 1: retried in full; the pre-check now fails on the first
    # line not in flight and arms the skip on it.
    probes = log.probes
    _tick(h, soa)
    assert log.probes > probes
    assert warp.mshr_stall_line == LOAD_LINES[2]

    # Cycle 2: nothing was released, so the retry probes nothing.
    probes = log.probes
    _tick(h, soa)
    assert log.probes == probes
    assert h.sm.stats.loads == 0
    assert log.wasted == []
