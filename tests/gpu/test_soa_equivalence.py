"""SoA-vs-reference equivalence suite.

``REPRO_SOA`` selects between the screened issue path (live per-slot
screen codes, memoized scans) and the reference scan. The two are
contractually byte-identical: same cycle counts, same per-SM slot
accounting, same memory traffic, same figures. This suite pins that
contract three ways:

* the reference mode must reproduce ``tests/fixtures/golden_stats.json``
  byte-exactly (the fixture pins the default mode, so transitivity
  gives SoA == reference over the full 3-app x 5-algorithm matrix);
* both modes are compared head to head on representative workload runs,
  down to the per-SM slot counters;
* hypothesis-fuzzed kernels are run in both modes and compared.

It also checks that a stale memoized slot outcome falls back to a real
scan, that the screen codes are never stale, and that the screened path
runs without numpy.

CI runs the whole test suite once per mode (``REPRO_SOA=0`` leg); this
file is the targeted cross-mode check that works within a single leg.
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
def soa_mode(flag: str):
    """Force ``REPRO_SOA`` for the simulations inside the block."""
    prior = os.environ.get("REPRO_SOA")
    os.environ["REPRO_SOA"] = flag
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop("REPRO_SOA", None)
        else:
            os.environ["REPRO_SOA"] = prior


def _fingerprint(result):
    """Cross-mode comparable summary of a raw simulation result."""
    return {
        "cycles": result.cycles,
        "parent_instructions": result.stats.parent_instructions,
        "assist_instructions": result.stats.assist_instructions,
        "slots": [list(sm.slots) for sm in result.stats.sms],
        "dram_reads": result.memory.stats.dram_reads,
        "dram_writes": result.memory.stats.dram_writes,
    }


# ----------------------------------------------------------------------
# Reference mode vs. the golden fixture (full app/algorithm matrix)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("app", APPS)
def test_reference_mode_matches_golden(app, algorithm):
    """The pure-Python scan reproduces the pinned stats byte-exactly.

    The fixture is (re)generated under the default mode — SoA — so this
    closes the loop: reference == golden == SoA for every
    (app, algorithm) cell.
    """
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("fixture is being regenerated")
    golden = json.loads(Path(FIXTURE).read_text())
    key = f"{app}/{algorithm}"
    assert key in golden, f"fixture has no entry for {key}"
    with soa_mode("0"):
        clear_caches()
        run = run_app(app, _design_for(algorithm), GPUConfig.small(),
                      scale=SCALE, use_cache=False)
    assert _snapshot(run) == golden[key]


# ----------------------------------------------------------------------
# Head-to-head on representative workloads (per-SM granularity)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app,algorithm", [
    ("PVC", "bdi"),        # memory-bound, assist warps + decompression
    ("MM", "none"),        # compute-leaning baseline
    ("CONS", "bestofall"), # store-heavy, composed algorithm
])
def test_modes_agree_head_to_head(app, algorithm):
    scale = TraceScale(work=0.25, waves=0.25)
    prints = {}
    for flag in ("0", "1"):
        with soa_mode(flag):
            clear_caches()
            run = run_app(app, _design_for(algorithm), GPUConfig.small(),
                          scale=scale, use_cache=False, keep_raw=True)
        prints[flag] = _fingerprint(run.raw)
        prints[flag]["stats_repr"] = repr(run.raw.stats)
    assert prints["0"] == prints["1"]


# ----------------------------------------------------------------------
# Stale-memo fallback
# ----------------------------------------------------------------------
def test_stale_seq_counter_falls_back_to_reference_scan(monkeypatch):
    """A memoized slot outcome whose scheduler seq counter has moved on
    must be discarded in favour of a real scan, with byte-identical
    results.

    The per-scheduler seq counters are the memo's correctness valve:
    any mutation of screen-visible state invalidates the scheduler's
    memoized stall and the next slot re-scans its warps. Force the
    stale path directly — before every tick, bump the counter of every
    even scheduler that holds a still-valid memo — and pin that the run
    is indistinguishable from a clean screened run (and hence from the
    reference mode, by the head-to-head test above)."""
    scale = TraceScale(work=0.25, waves=0.25)
    design = _design_for("bdi")

    def run_once():
        clear_caches()
        return run_app("PVC", design, GPUConfig.small(), scale=scale,
                       use_cache=False, keep_raw=True).raw

    with soa_mode("1"):
        clean = _fingerprint(run_once())

    real_tick = SM.tick_soa
    invalidated = [0]

    def stale_tick(self, cycle):
        seq = self._soa.seq
        for s, memo in enumerate(self._memos):
            g = self._gid0 + s
            if g % 2 == 0 and memo is not None and memo[0] == seq[g]:
                # Exactly what an event callback flipping a scoreboard
                # bit between two ticks would do to the counter.
                seq[g] += 1
                invalidated[0] += 1
        return real_tick(self, cycle)

    monkeypatch.setattr(SM, "tick_soa", stale_tick)
    with soa_mode("1"):
        stale = _fingerprint(run_once())
    monkeypatch.undo()

    assert invalidated[0] > 0, "stale path never exercised"
    assert stale == clean


# ----------------------------------------------------------------------
# Live screen codes
# ----------------------------------------------------------------------
def _assert_codes_live(sim):
    """Every bound slot's screen code equals the code recomputed from
    its warp's own fields, and exactly the resident warps are bound."""
    soa = sim._soa
    resident = {}
    for sm in sim.sms:
        for warps in sm.sched_warps:
            for warp in warps:
                resident[warp.slot] = warp
    bound = {
        slot for slot, gid in enumerate(soa.gid_of) if gid != soa.n_gids
    }
    assert bound == set(resident)
    for slot, warp in resident.items():
        pc = warp.pc
        instr = warp.program.body[pc]
        expect = soa.klass_lut[pc]
        if warp.pending_mask & (instr.src_mask | instr.dst_mask):
            expect += soa_mod.SCREEN_BLOCKED
        if warp.finished or warp.at_barrier or warp.assist_block:
            expect += soa_mod.SCREEN_INACTIVE
        assert soa.code[slot] == expect, (slot, warp.global_index)


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
    with soa_mode("1"):
        sim = Simulator(config, build_kernel(profile, config, scale),
                        design, image, caba_factory=factory,
                        assist_regs_per_thread=regs)
    assert sim._soa is not None
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
assert sim._soa is not None, "screened path disabled"
print(sim.run().stats.cycles)
"""


def test_screened_path_runs_without_numpy():
    """The screen codes are plain lists: with numpy unimportable the
    screened path still runs, and simulates the same cycles."""
    env = dict(os.environ, REPRO_SOA="1")
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RUN], env=env, check=True,
        capture_output=True, text=True, timeout=600,
    )
    with soa_mode("1"):
        clear_caches()
        run = run_app("MM", designs.base(), GPUConfig.small(),
                      scale=TraceScale(work=0.25, waves=0.25),
                      use_cache=False, keep_raw=True)
    assert int(out.stdout.split()[-1]) == run.raw.stats.cycles


# ----------------------------------------------------------------------
# Fuzzed kernels in both modes
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(kinds=bodies, iterations=st.integers(min_value=1, max_value=3))
def test_fuzzed_programs_agree_across_modes(kinds, iterations):
    with soa_mode("0"):
        reference = run_program(kinds, iterations, designs.base())
    with soa_mode("1"):
        vectorized = run_program(kinds, iterations, designs.base())
    assert _fingerprint(vectorized) == _fingerprint(reference)


@settings(max_examples=6, deadline=None)
@given(kinds=bodies, iterations=st.integers(min_value=1, max_value=3))
def test_fuzzed_caba_runs_agree_across_modes(kinds, iterations):
    """Assist-warp machinery (never screened) must not disturb the
    parent warps' screen codes."""
    from repro.core.controller import CabaController
    from repro.core.params import CabaParams
    from repro.core.subroutines import SubroutineLibrary
    from repro.gpu.kernel import Kernel
    from repro.gpu.isa import Program
    from repro.gpu.simulator import Simulator
    from repro.memory.image import MemoryImage
    from tests.gpu.test_simulator_fuzz import _instr

    def run_once():
        config = GPUConfig.small()
        body = tuple(_instr(kind, salt=i) for i, kind in enumerate(kinds))
        kernel = Kernel(
            name="fuzz-caba",
            program=Program(body=body, iterations=iterations),
            n_blocks=3,
            warps_per_block=2,
            regs_per_thread=16,
        )
        from repro.compression import make_algorithm
        algo = make_algorithm("bdi", config.line_size)
        image = MemoryImage(
            lambda line: bytes(config.line_size), algo, config.line_size
        )
        library = SubroutineLibrary(line_size=config.line_size)

        def factory(sm):
            return CabaController(sm, CabaParams(), library, "bdi")

        sim = Simulator(
            config, kernel, designs.caba("bdi"), image,
            caba_factory=factory,
            assist_regs_per_thread=library.register_demand("bdi"),
        )
        return sim.run()

    with soa_mode("0"):
        reference = run_once()
    with soa_mode("1"):
        vectorized = run_once()
    assert _fingerprint(vectorized) == _fingerprint(reference)
