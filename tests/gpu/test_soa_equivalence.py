"""Memo-layer equivalence suite for the screened issue path.

``SM.tick`` classifies a scheduler's slot without a warp scan wherever
a memoized outcome is provably still valid (see ``SM.tick`` for the
validity rules); only the remaining slots run ``SM._issue_slot``'s scan
over the live screen codes. The memo layer's reference is the same path
with every memo invalidated before each cycle (``forced_rescan``): then
every slot is classified by a real scan. The memo layer must be
invisible. This suite pins that three ways:

* the reference mode reproduces ``tests/fixtures/golden_stats.json``
  byte-exactly over the full app x algorithm matrix (the fixture pins
  the memoized default, so reference == golden == memoized);
* both modes are compared head to head on workload runs, down to every
  SM's refined stall counts;
* hypothesis-fuzzed kernels, Base and CABA-BDI, are run in both modes
  and compared byte for byte.

It also checks that a partly stale set of memos (some schedulers
replaying, others rescanning in the same cycle) falls back correctly,
that the screen codes are never stale, and that the simulator runs
without numpy.
"""

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import design as designs
from repro.core.params import CabaParams
from repro.gpu import soa as soa_mod
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import Simulator
from repro.gpu.sm import SM
from repro.harness.runner import (
    _make_caba_factory,
    build_image,
    clear_caches,
    run_app,
)
from repro.workloads.apps import get_app
from repro.workloads.tracegen import TraceScale, build_kernel

from tests.gpu.test_simulator_fuzz import bodies, run_program
from tests.harness.test_golden_stats import (
    APPS,
    ALGORITHMS,
    FIXTURE,
    SCALE,
    _design_for,
    _snapshot,
)


@contextmanager
def forced_rescan(enabled=True, stale_seq_every=None):
    """Within the block, drop every scheduler's memoized slot outcome
    before each ``SM.tick``, so every slot is classified by a real scan
    whatever the memo validity rules say. With ``stale_seq_every=k``
    the memos are kept but made stale instead, on the schedulers whose
    machine-wide index (``sm_id * schedulers_per_sm + s``) is a
    multiple of ``k``: their seq counter is bumped,
    exactly what an event callback flipping a scoreboard bit between
    two ticks does. Yields a one-element list counting the memos
    dropped or made stale, plus the ticks SMs slept through: a sleeping
    SM replays its memos without ticking (``SM.quiet_until``), so a
    run can exercise the replay path without a memo ever surviving to
    a tick. With ``enabled`` false the block runs unpatched."""
    invalidated = [0]
    if not enabled:
        yield invalidated
        return
    real_tick = SM.tick
    real_wake = SM.wake

    def tick(self, cycle):
        memos = self._memos
        seq = self._seq
        for s, memo in enumerate(memos):
            if memo is None:
                continue
            if stale_seq_every is None:
                memos[s] = None
                invalidated[0] += 1
                continue
            index = self.sm_id * len(memos) + s
            if index % stale_seq_every == 0 and memo[0] == seq[s]:
                seq[s] += 1
                invalidated[0] += 1
        return real_tick(self, cycle)

    def wake(self, cycle):
        invalidated[0] += cycle - self._slept_at
        return real_wake(self, cycle)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SM, "tick", tick)
        mp.setattr(SM, "wake", wake)
        yield invalidated


def _fingerprint(result):
    """Byte-exact summary of a raw simulation result."""
    return {
        "cycles": result.cycles,
        "stats": repr(result.stats),
        "traffic": repr(result.memory.stats),
    }


# ----------------------------------------------------------------------
# Reference mode vs. the golden fixture (full app/algorithm matrix)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("app", APPS)
def test_reference_mode_matches_golden(app, algorithm):
    """With no memo ever replayed, the scan alone reproduces the pinned
    stats byte-exactly for every (app, algorithm) cell."""
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("fixture is being regenerated")
    golden = json.loads(Path(FIXTURE).read_text())
    key = f"{app}/{algorithm}"
    assert key in golden, f"fixture has no entry for {key}"
    with forced_rescan() as invalidated:
        clear_caches()
        run = run_app(app, _design_for(algorithm), GPUConfig.small(),
                      scale=SCALE, use_cache=False)
    assert invalidated[0] > 0, "no memo was ever valid"
    assert _snapshot(run) == golden[key]


# ----------------------------------------------------------------------
# Head-to-head on representative workloads (per-SM stall detail)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app,algorithm", [
    ("PVC", "bdi"),        # memory-bound, assist warps + decompression
    ("MM", "none"),        # compute-leaning baseline
    ("CONS", "bestofall"), # store-heavy, composed algorithm
])
def test_modes_agree_head_to_head(app, algorithm):
    """A replayed memo also replays the refined stall category it
    counts, which the golden stats see only regrouped into slots."""
    scale = TraceScale(work=0.25, waves=0.25)
    prints = {}
    for memo in (False, True):
        with forced_rescan(enabled=not memo):
            clear_caches()
            raw = run_app(app, _design_for(algorithm), GPUConfig.small(),
                          scale=scale, use_cache=False, keep_raw=True).raw
        prints[memo] = _fingerprint(raw)
        prints[memo]["stalls"] = [sm.stalls for sm in raw.stats.sms]
    assert prints[False] == prints[True]


# ----------------------------------------------------------------------
# Stale-memo fallback
# ----------------------------------------------------------------------
def test_stale_seq_counter_falls_back_to_reference_scan():
    """A memoized slot outcome whose scheduler seq counter has moved on
    must be discarded in favour of a real scan, with byte-identical
    results. Only the even schedulers' memos are made stale, so in the
    same cycle some schedulers replay a memo while their neighbours on
    the same SM rescan."""
    scale = TraceScale(work=0.25, waves=0.25)
    design = _design_for("bdi")

    def run_once():
        clear_caches()
        return run_app("PVC", design, GPUConfig.small(), scale=scale,
                       use_cache=False, keep_raw=True).raw

    clean = _fingerprint(run_once())
    with forced_rescan(stale_seq_every=2) as invalidated:
        stale = _fingerprint(run_once())
    assert invalidated[0] > 0, "stale path never exercised"
    assert stale == clean


# ----------------------------------------------------------------------
# Fuzzed kernels in both modes
# ----------------------------------------------------------------------
def _agree_across_modes(kinds, iterations, design):
    memoized = _fingerprint(run_program(kinds, iterations, design))
    with forced_rescan() as invalidated:
        rescanned = run_program(kinds, iterations, design)
    assert invalidated[0] > 0, "no memo was ever valid or slept on"
    assert _fingerprint(rescanned) == memoized


@settings(max_examples=10, deadline=None)
@given(kinds=bodies, iterations=st.integers(min_value=1, max_value=3))
def test_fuzzed_programs_agree_across_modes(kinds, iterations):
    _agree_across_modes(kinds, iterations, designs.base())


@settings(max_examples=6, deadline=None)
@given(kinds=bodies, iterations=st.integers(min_value=1, max_value=3))
def test_fuzzed_caba_runs_agree_across_modes(kinds, iterations):
    """Assist warps take slots on both the memoized and the scanned
    path, and their state changes on parents must invalidate memos."""
    _agree_across_modes(kinds, iterations, designs.caba("bdi"))


# ----------------------------------------------------------------------
# Live screen codes
# ----------------------------------------------------------------------
def _assert_codes_live(sim):
    """Every resident warp's screen code equals the code recomputed
    from its own fields, and its touches bump its own SM's counters."""
    for sm in sim.sms:
        for warps in sm.sched_warps:
            for warp in warps:
                assert warp.seqs is sm._seq, warp.global_index
                pc = warp.pc
                instr = warp.program.body[pc]
                expect = warp.klass_lut[pc]
                if warp.pending_mask & (instr.src_mask | instr.dst_mask):
                    expect += soa_mod.SCREEN_BLOCKED
                if warp.finished or warp.at_barrier or warp.assist_block:
                    expect += soa_mod.SCREEN_INACTIVE
                assert warp.code == expect, (sm.sm_id, warp.global_index)


@pytest.mark.parametrize("app,algorithm", [("PVC", "bdi"), ("MM", "none")])
def test_screen_codes_stay_live(app, algorithm):
    """The screen codes are never stale: checked at random points of a
    run, after random event drains that tick no SM (fills land,
    scoreboard bits clear, assist warps finish and blocks retire with no
    scan in between), and after the run completes."""
    config = GPUConfig.small()
    scale = TraceScale(work=0.25, waves=0.25)
    design = _design_for(algorithm)
    profile = get_app(app)
    image = build_image(profile, design, config, scale)
    factory, regs = _make_caba_factory(
        design, config, CabaParams(), plane=image.plane
    )
    sim = Simulator(config, build_kernel(profile, config, scale),
                    design, image, caba_factory=factory,
                    assist_regs_per_thread=regs)
    rng = random.Random(f"{app}/{algorithm}")
    checks = 0
    while not sim.done:
        sim._run_detailed(sim._cycle + rng.randint(1, 200))
        _assert_codes_live(sim)
        sim._deliver_until(sim._cycle + rng.randint(1, 50))
        _assert_codes_live(sim)
        checks += 1
    assert checks > 5
    sim.run()
    _assert_codes_live(sim)


_NO_NUMPY_RUN = """
import sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import Simulator
from repro.harness.runner import build_image
from repro.workloads.apps import get_app
from repro.workloads.tracegen import TraceScale, build_kernel
config = GPUConfig.small()
scale = TraceScale(work=0.25, waves=0.25)
profile = get_app("MM")
sim = Simulator(config, build_kernel(profile, config, scale),
                designs.base(),
                build_image(profile, designs.base(), config, scale))
print(sim.run().stats.cycles)
"""


def test_screened_path_runs_without_numpy():
    """The screen codes are plain lists: with numpy unimportable the
    simulator still runs, and simulates the same cycles."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RUN], env=env, check=True,
        capture_output=True, text=True, timeout=600,
    )
    clear_caches()
    run = run_app("MM", designs.base(), GPUConfig.small(),
                  scale=TraceScale(work=0.25, waves=0.25),
                  use_cache=False, keep_raw=True)
    assert int(out.stdout.split()[-1]) == run.raw.stats.cycles
