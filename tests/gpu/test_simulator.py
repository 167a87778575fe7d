"""Integration tests for the top-level simulator."""

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.gpu.isa import Instr, MemSpace, OpKind, Program, reg_mask
from repro.gpu.kernel import Kernel
from repro.gpu.simulator import Simulator
from repro.gpu.stats import Slot
from tests.gpu.stepping import forced_ticks
from tests.images import make_image


def plain_image(config):
    return make_image(None, config.line_size)


def alu_i(dst=1, src=0, latency=4):
    return Instr(OpKind.ALU, latency=latency, dst_mask=reg_mask(dst),
                 src_mask=reg_mask(src))


def make_kernel(body, iterations=4, n_blocks=4, warps_per_block=2, regs=16):
    return Kernel(
        name="test",
        program=Program(body=tuple(body), iterations=iterations),
        n_blocks=n_blocks,
        warps_per_block=warps_per_block,
        regs_per_thread=regs,
    )


def run(kernel, config=None, design=None, caba_factory=None):
    """Raw run of a hand-built kernel over an all-zero image; also the
    harness of the assist-warp extension tests (``caba_factory``)."""
    config = config or GPUConfig.small()
    design = design or designs.base()
    sim = Simulator(config, kernel, design, plain_image(config),
                    caba_factory=caba_factory)
    return sim.run()


class TestCompletion:
    def test_all_instructions_execute(self):
        kernel = make_kernel([alu_i(dst=1), alu_i(dst=2)], iterations=3)
        result = run(kernel)
        expected = kernel.n_blocks * kernel.warps_per_block * 2 * 3
        assert result.stats.parent_instructions == expected
        assert not result.truncated

    def test_memory_kernel_completes(self):
        body = [
            Instr(OpKind.LOAD, dst_mask=reg_mask(3), src_mask=reg_mask(0),
                  space=MemSpace.GLOBAL,
                  addr_fn=lambda w, i: (1000 + w * 64 + i,)),
            alu_i(dst=1, src=3),
        ]
        result = run(make_kernel(body, iterations=6))
        expected = 4 * 2 * 2 * 6
        assert result.stats.parent_instructions == expected
        assert result.memory.stats.dram_reads > 0

    def test_more_blocks_than_resident_capacity(self):
        kernel = make_kernel([alu_i()], iterations=2, n_blocks=40)
        result = run(kernel)
        assert result.stats.parent_instructions == 40 * 2 * 1 * 2
        blocks_done = sum(sm.blocks_finished for sm in result.stats.sms)
        assert blocks_done == 40

    def test_truncation_guard(self):
        config = GPUConfig.small()
        from dataclasses import replace

        tiny = replace(config, max_cycles=10)
        body = [
            Instr(OpKind.LOAD, dst_mask=reg_mask(3), src_mask=reg_mask(0),
                  space=MemSpace.GLOBAL, addr_fn=lambda w, i: (w + i,)),
            alu_i(dst=1, src=3),
        ]
        result = run(make_kernel(body, iterations=50), config=tiny)
        assert result.truncated


class TestMetrics:
    def test_ipc_bounded_by_issue_width(self):
        kernel = make_kernel([alu_i(dst=1), alu_i(dst=2)], iterations=8,
                             n_blocks=12, warps_per_block=4)
        result = run(kernel)
        assert 0 < result.ipc <= GPUConfig.small().schedulers_per_sm * 3

    def test_slot_breakdown_sums_to_one(self):
        kernel = make_kernel([alu_i(dst=1)], iterations=4)
        result = run(kernel)
        total = sum(result.stats.slot_breakdown().values())
        assert total == pytest.approx(1.0)

    def test_compute_kernel_shows_no_memory_stalls(self):
        kernel = make_kernel([alu_i(dst=1), alu_i(dst=2)], iterations=8)
        result = run(kernel)
        breakdown = result.stats.slot_breakdown()
        assert breakdown[Slot.MEMORY_STALL] == 0.0

    def test_bandwidth_utilization_zero_without_memory(self):
        kernel = make_kernel([alu_i(dst=1)], iterations=4)
        result = run(kernel)
        assert result.bandwidth_utilization() == 0.0


class TestDeterminism:
    def test_repeat_runs_identical(self):
        body = [
            Instr(OpKind.LOAD, dst_mask=reg_mask(3), src_mask=reg_mask(0),
                  space=MemSpace.GLOBAL,
                  addr_fn=lambda w, i: (1000 + (w * 37 + i * 11) % 500,)),
            alu_i(dst=1, src=3),
            alu_i(dst=2, src=1),
        ]
        first = run(make_kernel(body, iterations=5))
        second = run(make_kernel(body, iterations=5))
        assert first.cycles == second.cycles
        assert first.stats.parent_instructions == \
            second.stats.parent_instructions
        assert first.memory.stats.dram_reads == second.memory.stats.dram_reads


class TestFastForwardIdentity:
    """Per-SM sleep and fast-forwarding are accounting shortcuts, not
    model changes.

    A sleeping SM must wake on exactly the cycle a ticking one would
    next do something other than replay its stall, and the jump must
    resume on exactly the cycle the full-tick loop would next make
    progress on — this pins the ``next_wake(cycle - 1)`` contract in
    ``Simulator._fast_forward`` (the caller's clock has already
    advanced past the zero-issue tick) against off-by-ones. The oracle
    is ``forced_ticks`` (``tests/gpu/stepping.py``). Sleep identity
    holds for every design; jump identity is contractual for designs
    without a CABA controller, whose utilization EMA samples the cycles
    the loop runs, so CABA designs define their semantics with
    fast-forward on.
    """

    @staticmethod
    def _fingerprint(sim, result):
        return repr(result.stats) + "".join(
            repr(sm.stats.__dict__)
            + repr(getattr(sm.caba, "stats", None))
            for sm in sim.sms
        )

    def _run_synthetic(self):
        body = [
            Instr(OpKind.LOAD, dst_mask=reg_mask(3), src_mask=reg_mask(0),
                  space=MemSpace.GLOBAL,
                  addr_fn=lambda w, i: (1000 + (w * 37 + i * 11) % 500,)),
            alu_i(dst=1, src=3),
            alu_i(dst=2, src=1, latency=12),
        ]
        config = GPUConfig.small()
        sim = Simulator(
            config,
            make_kernel(body, iterations=6),
            designs.base(),
            plain_image(config),
        )
        result = sim.run()
        return result, self._fingerprint(sim, result)

    def test_synthetic_memory_kernel(self):
        with forced_ticks(fast_forward=False):
            full, full_key = self._run_synthetic()
        jumped, jumped_key = self._run_synthetic()
        assert jumped.cycles == full.cycles
        assert jumped_key == full_key

    def _run_workload(self, traced, app="MM", point=None):
        from repro.core.params import CabaParams
        from repro.harness.runner import _make_caba_factory, build_image
        from repro.obs import StallLedger
        from repro.workloads.apps import get_app
        from repro.workloads.tracegen import TraceScale, build_kernel

        config = GPUConfig.small()
        scale = TraceScale(work=0.1)
        point = point or designs.base()
        profile = get_app(app)
        image = build_image(profile, point, config, scale)
        kernel = build_kernel(profile, config, scale)
        factory, regs = _make_caba_factory(
            point, config, CabaParams(), plane=image.plane
        )
        ledger = (StallLedger(config.n_sms, config.schedulers_per_sm)
                  if traced else None)
        sim = Simulator(
            config, kernel, point, image,
            caba_factory=factory,
            assist_regs_per_thread=regs,
            ledger=ledger,
        )
        result = sim.run()
        payload = ledger.export() if traced else None
        return result, self._fingerprint(sim, result), payload

    @pytest.mark.parametrize("traced", [False, True])
    def test_workload_identity(self, traced):
        with forced_ticks(fast_forward=False):
            full, full_key, full_obs = self._run_workload(traced)
        jumped, jumped_key, jumped_obs = self._run_workload(traced)
        assert jumped.cycles == full.cycles
        assert jumped_key == full_key
        # The stall ledger charges skipped slots during a jump; traced
        # runs must attribute them to the same (category, warp) pairs
        # the full-tick loop would have.
        assert jumped_obs == full_obs

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("app,point", [
        ("MM", designs.base()),
        ("PVC", designs.caba("bdi")),
    ], ids=["MM-Base", "PVC-CABA-BDI"])
    def test_sleep_identity(self, app, point, traced):
        """Sleeping SMs replay exactly what their ticks would have done,
        down to the CABA controller's counters (its throttle EMA is
        replayed once per loop iteration slept through) and every
        ledger charge."""
        with forced_ticks():
            ticked, ticked_key, ticked_obs = self._run_workload(
                traced, app, point
            )
        slept, slept_key, slept_obs = self._run_workload(traced, app, point)
        assert slept.cycles == ticked.cycles
        assert slept_key == ticked_key
        assert slept_obs == ticked_obs

    def test_caba_design_requires_factory(self):
        config = GPUConfig.small()
        with pytest.raises(ValueError):
            Simulator(
                config,
                make_kernel([alu_i()]),
                designs.caba(),
                plain_image(config),
            )
