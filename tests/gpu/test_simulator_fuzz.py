"""Property-based fuzzing of the simulator with random programs.

Generates random (but well-formed) warp programs and checks the
system-level invariants: every run terminates, executes exactly the
expected dynamic instruction count, is deterministic, and simulates
the same machine with per-SM sleep (and the clock jump) on or off.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import design as designs
from repro.compression import make_algorithm
from repro.core.controller import CabaController
from repro.core.params import CabaParams
from repro.core.subroutines import SubroutineLibrary
from repro.gpu.config import GPUConfig
from repro.gpu.isa import Instr, MemSpace, OpKind, Program, reg_mask
from repro.gpu.kernel import Kernel
from repro.gpu.simulator import Simulator
from repro.obs import ChromeTraceCollector
from tests.gpu.stepping import forced_ticks
from tests.images import make_image


def _instr(kind: str, salt: int) -> Instr:
    if kind == "alu":
        return Instr(OpKind.ALU, latency=4, dst_mask=reg_mask(1),
                     src_mask=reg_mask(3))
    if kind == "heavy":
        return Instr(OpKind.ALU, latency=12, dst_mask=reg_mask(2),
                     src_mask=reg_mask(1))
    if kind == "sfu":
        return Instr(OpKind.SFU, latency=20, dst_mask=reg_mask(2),
                     src_mask=reg_mask(1))
    if kind == "shared":
        return Instr(OpKind.LOAD, dst_mask=reg_mask(7),
                     src_mask=reg_mask(0), space=MemSpace.SHARED)
    if kind == "load":
        return Instr(
            OpKind.LOAD, dst_mask=reg_mask(3), src_mask=reg_mask(0),
            space=MemSpace.GLOBAL,
            addr_fn=lambda w, i, s=salt: ((w * 37 + i * 11 + s) % 400,),
        )
    if kind == "store":
        return Instr(
            OpKind.STORE, latency=1, src_mask=reg_mask(1),
            space=MemSpace.GLOBAL,
            addr_fn=lambda w, i, s=salt: (1000 + (w * 13 + i * 7 + s) % 300,),
        )
    raise AssertionError(kind)


bodies = st.lists(
    st.sampled_from(["alu", "alu", "heavy", "sfu", "shared", "load",
                     "store"]),
    min_size=1,
    max_size=8,
)


def run_program(kinds, iterations, design, chrome=False):
    """Simulate the random program on three blocks of two warps; a
    design with assist warps gets a CABA controller and an image
    compressed with its algorithm. ``chrome`` attaches a timeline."""
    config = GPUConfig.small()
    body = tuple(_instr(kind, salt=i) for i, kind in enumerate(kinds))
    kernel = Kernel(
        name="fuzz",
        program=Program(body=body, iterations=iterations),
        n_blocks=3,
        warps_per_block=2,
        regs_per_thread=16,
    )
    line_size = config.line_size
    algo, caba = None, {}
    if design.uses_assist_warps:
        algo = make_algorithm(design.algorithm, line_size)
        library = SubroutineLibrary(line_size=line_size)
        caba = dict(
            caba_factory=lambda sm: CabaController(
                sm, CabaParams(), library, design.algorithm
            ),
            assist_regs_per_thread=library.register_demand(design.algorithm),
        )
    # Loads touch lines [0, 400), stores [1000, 1300).
    image = make_image(algo, line_size, lines=1300)
    collector = ChromeTraceCollector() if chrome else None
    return Simulator(config, kernel, design, image, chrome=collector,
                     **caba).run()


@settings(max_examples=15, deadline=None)
@given(kinds=bodies, iterations=st.integers(min_value=1, max_value=4))
def test_random_programs_terminate_and_conserve_work(kinds, iterations):
    result = run_program(kinds, iterations, designs.base())
    assert not result.truncated
    expected = 3 * 2 * len(kinds) * iterations
    assert result.stats.parent_instructions == expected


@settings(max_examples=8, deadline=None)
@given(kinds=bodies, iterations=st.integers(min_value=1, max_value=3))
def test_random_programs_deterministic(kinds, iterations):
    first = run_program(kinds, iterations, designs.base())
    second = run_program(kinds, iterations, designs.base())
    assert first.cycles == second.cycles
    assert first.memory.stats.dram_reads == second.memory.stats.dram_reads


@settings(max_examples=8, deadline=None)
@given(kinds=bodies)
def test_slot_accounting_complete(kinds):
    """Every (cycle, scheduler) pair is classified exactly once."""
    result = run_program(kinds, 2, designs.base())
    config = GPUConfig.small()
    for sm_stats in result.stats.sms:
        assert sum(sm_stats.slots) == result.cycles * config.schedulers_per_sm


@settings(max_examples=10, deadline=None)
@given(kinds=bodies, iterations=st.integers(min_value=1, max_value=3))
def test_ledger_invariants_on_random_programs(kinds, iterations):
    """The refined stall counts stay complete and non-negative for
    arbitrary well-formed programs."""
    result = run_program(kinds, iterations, designs.base())
    config = GPUConfig.small()
    for sm_stats in result.stats.sms:
        counts = sm_stats.stalls
        assert all(count >= 0 for count in counts)
        assert sum(counts) == result.cycles * config.schedulers_per_sm


@settings(max_examples=8, deadline=None)
@given(kinds=bodies, iterations=st.integers(min_value=1, max_value=3))
def test_tracing_preserves_simulation_outcome(kinds, iterations):
    """Attaching a Chrome timeline never changes what happens."""
    plain = run_program(kinds, iterations, designs.base())
    traced = run_program(kinds, iterations, designs.base(), chrome=True)
    assert traced.cycles == plain.cycles
    assert traced.stats.parent_instructions == plain.stats.parent_instructions
    assert traced.memory.stats.dram_reads == plain.memory.stats.dram_reads
    for t_sm, p_sm in zip(traced.stats.sms, plain.stats.sms):
        assert t_sm.stalls == p_sm.stalls


@settings(max_examples=10, deadline=None)
@given(kinds=bodies, iterations=st.integers(min_value=1, max_value=3))
def test_fast_forward_preserves_per_sm_stats(kinds, iterations):
    """Sleeping SMs and the clock jump over cycles in which every SM
    sleeps are exact: every SM's stats match the run that ticks every
    SM on every cycle. An SM sleeps until the earliest wake hint of its
    memos, including ones a replayed stall memo carries instead of a
    fresh scan, so a stale hint shows up here."""
    with forced_ticks():
        full = run_program(kinds, iterations, designs.base())
    jumped = run_program(kinds, iterations, designs.base())
    assert jumped.cycles == full.cycles
    assert [repr(sm) for sm in jumped.stats.sms] == [
        repr(sm) for sm in full.stats.sms
    ]
