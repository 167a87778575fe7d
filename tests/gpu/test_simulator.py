"""Integration tests for the top-level simulator."""

import dataclasses
from functools import partial

import pytest

from repro import design as designs
from repro.core.params import CabaParams
from repro.gpu.config import GPUConfig
from repro.gpu.isa import Instr, MemSpace, OpKind, Program, reg_mask
from repro.gpu.kernel import Kernel
from repro.gpu.simulator import Simulator
from repro.gpu.sm import SM
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


def _app_simulator(app, point, chrome, work=0.1, config=None, params=None):
    """A simulator of ``app`` under ``point``, built as the runner does."""
    from repro.harness.runner import _make_caba_factory, build_image
    from repro.workloads.apps import get_app
    from repro.workloads.tracegen import TraceScale, build_kernel

    config = config or GPUConfig.small()
    scale = TraceScale(work=work)
    profile = get_app(app)
    image = build_image(profile, point, config, scale)
    factory, regs = _make_caba_factory(
        point, config, params or CabaParams(), plane=image.plane
    )
    return Simulator(
        config, build_kernel(profile, config, scale), point, image,
        caba_factory=factory,
        assist_regs_per_thread=regs,
        chrome=chrome,
    )


def _scenario_simulator(kind, chrome, **knobs):
    """A simulator of the ``kind`` assist-warp scenario."""
    from repro.harness.runner import scenario_spec
    from repro.harness.scenarios import build_scenario

    spec = scenario_spec(kind, **knobs)
    kernel, factory, _ = build_scenario(spec.scenario, spec.config)
    return Simulator(
        spec.config, kernel, designs.base(), plain_image(spec.config),
        caba_factory=factory, chrome=chrome,
    )


class TestFastForwardIdentity:
    """Per-SM sleep and the clock jump are accounting shortcuts, not
    model changes.

    A sleeping SM must wake on exactly the cycle a ticking one would
    next do something other than replay its stall, and the clock may
    jump only over cycles in which every SM sleeps. The oracle is
    ``forced_ticks`` (``tests/gpu/stepping.py``): every SM ticks on
    every cycle. Identity holds for every design, down to each SM's
    stall counts and its assist controller's counters: the
    controllers' utilization monitors see every cycle, slept or not.
    """

    @staticmethod
    def _fingerprint(sim):
        result = sim.run()
        return (
            result.cycles,
            [dataclasses.asdict(sm.stats) for sm in sim.sms],
            [
                dataclasses.asdict(sm.caba.stats) if sm.caba is not None
                else None
                for sm in sim.sms
            ],
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
        return self._fingerprint(Simulator(
            config,
            make_kernel(body, iterations=6),
            designs.base(),
            plain_image(config),
        ))

    def test_synthetic_memory_kernel(self):
        with forced_ticks():
            ticked = self._run_synthetic()
        assert self._run_synthetic() == ticked

    def _run_case(self, build, chrome):
        """The fingerprint of one run of ``build(collector)``, plus its
        Chrome timeline events, sorted, when ``chrome``."""
        from repro.obs import ChromeTraceCollector

        collector = ChromeTraceCollector() if chrome else None
        fingerprint = self._fingerprint(build(collector))
        events = None
        if chrome:
            events = sorted(
                repr(sorted(event.items()))
                for event in collector.export()["traceEvents"]
            )
        return fingerprint, events

    @pytest.mark.parametrize("chrome", [False, True])
    def test_workload_identity(self, chrome, monkeypatch):
        """The clock jump on MM/Base: the default run does pass cycles on
        which every SM sleeps, and still ends with the every-cycle
        oracle's statistics — the memory system's traffic counters too,
        not only each SM's — and, with a timeline attached, its events."""
        from repro.obs import ChromeTraceCollector

        def run():
            collector = ChromeTraceCollector() if chrome else None
            sim = _app_simulator("MM", designs.base(), collector)
            result = sim.run()
            events = None
            if chrome:
                events = sorted(
                    repr(sorted(event.items()))
                    for event in collector.export()["traceEvents"]
                )
            key = (
                repr(result.stats),
                dataclasses.asdict(result.memory.stats),
                result.bandwidth_utilization(),
            )
            return result.cycles, key, events

        with forced_ticks():
            ticked = run()

        busy = set()
        tick = SM.tick

        def recording_tick(sm, cycle):
            busy.add(cycle)
            return tick(sm, cycle)

        monkeypatch.setattr(SM, "tick", recording_tick)
        slept = run()
        assert len(busy) < slept[0]
        assert slept == ticked

    @pytest.mark.parametrize("chrome", [False, True])
    @pytest.mark.parametrize("build", [
        pytest.param(partial(_app_simulator, "MM", designs.base()),
                     id="MM-Base"),
        pytest.param(partial(_app_simulator, "PVC", designs.caba("bdi")),
                     id="PVC-CABA-BDI"),
        # The AWC's utilization monitor throttles here. An EMA fed only
        # on the cycles the loop ran, not the ones it jumped, read
        # 33,302 cycles against 35,888 with every cycle ticked.
        pytest.param(partial(_app_simulator, "PVR", designs.caba("bdi"),
                             work=1.0, config=GPUConfig.small()
                             .with_bandwidth_scale(2.0)),
                     id="PVR-CABA-BDI-2x"),
        # Low-priority decompression: assist warps still run while the
        # last blocks drain, so this pins the end of the run (a clock
        # jump after the last block retired read 43,443, not 43,440).
        pytest.param(partial(_app_simulator, "PVC", designs.caba("bdi"),
                             work=1.0, params=CabaParams(
                                 decompression_high_priority=False)),
                     id="PVC-CABA-BDI-lowprio"),
        # The prefetcher throttles on its own utilization monitor (3,127
        # cycles against 3,349 when the EMA skipped the jumped cycles).
        pytest.param(partial(_scenario_simulator, "prefetch", distance=4),
                     id="prefetch-d4"),
        pytest.param(partial(_scenario_simulator, "memoization"),
                     id="memoization"),
    ])
    def test_sleep_identity(self, build, chrome):
        """The default loop replays exactly what ticking every SM on
        every cycle does: every stall count, every controller counter
        and, with a timeline attached, every timeline event."""
        with forced_ticks():
            ticked, ticked_events = self._run_case(build, chrome)
        slept, slept_events = self._run_case(build, chrome)
        assert slept == ticked
        assert slept_events == ticked_events

    def test_caba_design_requires_factory(self):
        config = GPUConfig.small()
        with pytest.raises(ValueError):
            Simulator(
                config,
                make_kernel([alu_i()]),
                designs.caba(),
                plain_image(config),
            )
