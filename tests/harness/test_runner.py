"""Tests for the experiment runner."""

from dataclasses import replace

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness.runner import (
    build_image,
    clear_caches,
    geomean,
    run_app,
    run_spec,
    scenario_spec,
    speedup,
)
from repro.memory.hostlink import CapacityConfig
from repro.workloads.apps import get_app
from repro.workloads.tracegen import TraceScale


class TestRunApp:
    def test_returns_complete_metrics(self):
        run = run_app("PVC", designs.base())
        assert run.app == "PVC"
        assert run.design == "Base"
        assert run.cycles > 0
        assert run.ipc > 0
        assert 0 <= run.bandwidth_utilization <= 1
        assert run.energy.total > 0
        assert not run.truncated

    def test_caching_returns_same_object(self):
        a = run_app("PVC", designs.base())
        b = run_app("PVC", designs.base())
        assert a is b

    def test_cache_bypass(self):
        a = run_app("PVC", designs.base())
        b = run_app("PVC", designs.base(), use_cache=False)
        assert a is not b
        assert a.cycles == b.cycles  # still deterministic

    def test_clear_caches(self):
        a = run_app("PVC", designs.base())
        clear_caches()
        b = run_app("PVC", designs.base())
        assert a is not b

    def test_compression_ratio_ignores_earlier_runs(self):
        """A run's compression ratio covers the lines it touched: a
        larger run of the same app and algorithm in between must not
        leak its lines into a repeat of the smaller one."""
        config = GPUConfig.small()

        def run(work):
            return run_app("PVC", designs.caba("bdi"), config,
                           scale=TraceScale(work=work), use_cache=False)

        clear_caches()
        cold = run(0.25)
        run(1.0)
        again = run(0.25)
        assert again.compression_ratio == cold.compression_ratio

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            run_app("quake", designs.base())

    def test_profile_object_accepted(self):
        run = run_app(get_app("PVC"), designs.base())
        assert run.app == "PVC"


class TestProfilingGate:
    def test_incompressible_app_runs_baseline_path(self):
        """Section 4.3.1: compression is disabled for apps that would
        not benefit; they must see zero degradation."""
        base = run_app("SCP", designs.base())
        caba = run_app("SCP", designs.caba())
        assert caba.cycles == base.cycles
        assert caba.assist_instructions == 0
        assert caba.compression_ratio == 1.0

    def test_compressible_app_gets_assist_warps(self):
        caba = run_app("PVC", designs.caba())
        assert caba.assist_instructions > 0
        assert caba.compression_ratio > 1.0


class TestImageConstruction:
    def test_base_image_uncompressed(self):
        image = build_image(get_app("PVC"), designs.base(), GPUConfig.small())
        assert not image.compression_enabled

    def test_caba_image_uses_algorithm(self):
        image = build_image(get_app("PVC"), designs.caba(), GPUConfig.small())
        assert image.algorithm is not None
        assert image.algorithm.name == "bdi"

    def test_incompressible_app_gets_plain_image(self):
        image = build_image(get_app("SCP"), designs.caba(), GPUConfig.small())
        assert not image.compression_enabled


class TestScenarioRuns:
    def test_scenario_rejects_capacity(self):
        spec = replace(scenario_spec("prefetch"),
                       capacity=CapacityConfig(device_bytes=1 << 16))
        with pytest.raises(ValueError, match="no capacity mode"):
            run_spec(spec, use_cache=False)


class TestHelpers:
    def test_speedup(self):
        base = run_app("PVC", designs.base())
        fast = run_app("PVC", designs.ideal())
        assert speedup(fast, base) == pytest.approx(fast.ipc / base.ipc)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0

    def test_geomean_order_invariant(self):
        assert geomean([2.0, 8.0, 1.0]) == pytest.approx(geomean([8.0, 1.0, 2.0]))
