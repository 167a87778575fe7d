"""Tests for the activity-based energy model."""

import pytest

from repro import design as designs, run_app
from repro.energy.model import EnergyBreakdown, EnergyModel, EnergyParams
from repro.gpu.config import GPUConfig


class TestBreakdown:
    def test_total_sums_components(self):
        b = EnergyBreakdown(core_dynamic=1.0, l1=2.0, dram_dynamic=3.0,
                            static=4.0)
        assert b.total == 10.0

    def test_as_dict_keys(self):
        keys = set(EnergyBreakdown().as_dict())
        assert "total" in keys and "dram_dynamic" in keys


class TestModelOnRuns:
    def test_energy_positive_and_composed(self):
        run = run_app("PVC", designs.base())
        energy = run.energy
        assert energy.total > 0
        assert energy.dram_dynamic > 0
        assert energy.static > 0
        assert energy.compression == 0  # no compression in Base

    def test_hw_design_pays_compression_unit_energy(self):
        run = run_app("PVC", designs.hw())
        assert run.energy.compression > 0

    def test_ideal_pays_no_compression_energy(self):
        run = run_app("PVC", designs.ideal())
        assert run.energy.compression == 0
        assert run.energy.metadata == 0

    def test_caba_charges_through_instructions(self):
        """CABA's overhead appears as extra core energy, not as a
        dedicated-unit charge."""
        run = run_app("PVC", designs.caba())
        assert run.energy.compression == 0
        assert run.assist_instructions > 0

    def test_compression_reduces_dram_energy(self):
        base = run_app("PVC", designs.base())
        caba = run_app("PVC", designs.caba())
        assert caba.energy.dram_dynamic < base.energy.dram_dynamic

    def test_compression_reduces_total_energy(self):
        """Figure 9's headline: less traffic + less runtime = less energy."""
        base = run_app("PVC", designs.base())
        caba = run_app("PVC", designs.caba())
        assert caba.energy.total < base.energy.total

    def test_caba_energy_close_to_but_above_ideal(self):
        caba = run_app("PVC", designs.caba())
        ideal = run_app("PVC", designs.ideal())
        assert caba.energy.total >= ideal.energy.total

    def test_static_energy_scales_with_time(self):
        base = run_app("PVC", designs.base())
        caba = run_app("PVC", designs.caba())
        # CABA runs fewer cycles here, so less leakage.
        if caba.cycles < base.cycles:
            assert caba.energy.static < base.energy.static


class TestParams:
    def test_custom_params_change_results(self):
        run = run_app("PVC", designs.base(), keep_raw=True)
        cheap = EnergyModel(EnergyParams(dram_burst_pj=1.0))
        expensive = EnergyModel(EnergyParams(dram_burst_pj=5000.0))
        config = GPUConfig.small()
        from repro.design import base as base_design

        low = cheap.evaluate(run.raw, config, base_design())
        high = expensive.evaluate(run.raw, config, base_design())
        assert high.dram_dynamic > low.dram_dynamic
