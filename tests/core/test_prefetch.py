"""Tests for the prefetching extension (Section 7.2)."""

import pytest

from repro.core.prefetch import (
    PrefetchController,
    PrefetchParams,
    prefetch_program,
)
from repro.gpu.config import GPUConfig
from repro.harness.extensions import prefetch_study
from repro.harness.scenarios import build_latency_bound_kernel
from tests.gpu.test_simulator import run as run_raw


class TestProgram:
    def test_prefetch_subroutine_is_tiny(self):
        assert len(prefetch_program()) <= 3


class TestTraining:
    def make_controller(self):
        """Controller detached from a real SM for unit training tests."""

        class FakeSm:
            class config:
                schedulers_per_sm = 2

        return PrefetchController.__new__(PrefetchController), None

    def test_stride_detection_via_simulation(self):
        config = GPUConfig.small()
        kernel = build_latency_bound_kernel(config, iterations=30)
        controllers = []

        def factory(sm):
            c = PrefetchController(sm)
            controllers.append(c)
            return c

        run_raw(kernel, config, caba_factory=factory)
        assert sum(c.stats.trained_streams for c in controllers) > 0
        assert sum(c.stats.prefetches_issued for c in controllers) > 0


class TestEndToEnd:
    def test_prefetching_speeds_up_latency_bound_kernel(self):
        config = GPUConfig.small()
        kernel = build_latency_bound_kernel(config, iterations=40)
        base = run_raw(kernel, config)
        run = run_raw(
            kernel, config,
            caba_factory=lambda sm: PrefetchController(sm),
        )
        assert run.cycles < base.cycles

    def test_mshr_floor_respected(self):
        config = GPUConfig.small()
        kernel = build_latency_bound_kernel(config, iterations=40)
        controllers = []

        def factory(sm):
            c = PrefetchController(
                sm, PrefetchParams(mshr_floor=config.l1_mshrs)
            )
            controllers.append(c)
            return c

        run = run_raw(kernel, config, caba_factory=factory)
        # A floor equal to the MSHR count forbids every prefetch.
        assert sum(c.stats.prefetches_issued for c in controllers) == 0

    def test_study_reports_speedups(self):
        result = prefetch_study(distances=(2,))
        assert result.rows[0]["speedup"] > 1.0

    def test_work_unchanged_by_prefetching(self):
        config = GPUConfig.small()
        kernel = build_latency_bound_kernel(config, iterations=30)
        base = run_raw(kernel, config)
        run = run_raw(
            kernel, config,
            caba_factory=lambda sm: PrefetchController(sm),
        )
        assert (
            run.stats.parent_instructions == base.stats.parent_instructions
        )
