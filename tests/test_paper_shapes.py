"""End-to-end reproduction shape tests.

These assert the *qualitative* results of the paper's evaluation on a
small representative workload subset at test scale: who wins, in what
order, and in which direction the metrics move. Absolute magnitudes are
checked loosely (the full-scale numbers live in EXPERIMENTS.md).
Figure 7 asserts through the claims table of ``repro.verify.parity``,
the one ``repro check --parity`` and the benchmarks read.
"""

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness import figures
from repro.harness.runner import run_app
from repro.verify import parity

#: Bandwidth-sensitive, compressible apps with distinct characters:
#: BDI-friendly streaming (PVC, MM), irregular/interconnect (bfs),
#: L2-resident (RAY).
APPS = ("PVC", "MM", "bfs", "RAY")


@pytest.fixture(scope="module")
def five_design_runs():
    points = designs.figure7_designs()
    return {
        app: {p.name: run_app(app, p) for p in points} for app in APPS
    }


@pytest.fixture(scope="module")
def fig7_claims(five_design_runs):
    """The Figure 7 claims of ``repro.verify.parity`` on APPS.

    ``five_design_runs`` simulates first, so the figure harness resolves
    every point from the same in-process memo."""
    entry = figures.fig7_performance(apps=APPS).to_entry()
    return dict(parity.claims("fig7", entry))


class TestFigure7Shapes:
    def test_all_compressed_designs_beat_base(self, fig7_claims):
        for design in ("HW-BDI-Mem", "HW-BDI", "CABA-BDI", "Ideal-BDI"):
            assert fig7_claims[f"fig7: {design} geomean above 1.05"], design

    def test_caba_close_to_ideal(self, fig7_claims):
        """Paper: CABA-BDI within ~3% of Ideal-BDI on average."""
        assert fig7_claims["fig7: CABA-BDI within 15% of Ideal-BDI"]

    def test_caba_beats_memory_only_compression(self, fig7_claims):
        """Paper: CABA-BDI ~10% over HW-BDI-Mem (interconnect benefit)."""
        assert fig7_claims["fig7: CABA-BDI above HW-BDI-Mem"]

    def test_caba_near_hw_design(self, fig7_claims):
        """Paper: CABA within ~2% of the dedicated-hardware design."""
        assert fig7_claims["fig7: CABA-BDI within 15% of HW-BDI"]

    def test_meaningful_average_speedup(self, fig7_claims):
        """Paper: +41.7% average on the compressible pool."""
        assert fig7_claims["fig7: CABA-BDI above 1.15"]

    def test_every_claim_holds(self, fig7_claims):
        assert [label for label, ok in fig7_claims.items() if not ok] == []


class TestFigure8Shapes:
    def test_compression_reduces_bandwidth_utilization(self, five_design_runs):
        for app in APPS:
            base = five_design_runs[app]["Base"].bandwidth_utilization
            caba = five_design_runs[app]["CABA-BDI"].bandwidth_utilization
            assert caba < base, app

    def test_bandwidth_reduction_substantial(self, five_design_runs):
        """Paper: average utilization falls (53.6% -> 35.6% at paper
        scale). The scaled test pool is more uniformly saturated, so the
        drop is smaller here but must be clearly present; strongly
        compressible apps must shed >= 10% of their utilization."""
        base_avg = sum(
            five_design_runs[a]["Base"].bandwidth_utilization for a in APPS
        ) / len(APPS)
        caba_avg = sum(
            five_design_runs[a]["CABA-BDI"].bandwidth_utilization
            for a in APPS
        ) / len(APPS)
        assert caba_avg < base_avg - 0.02
        mm_base = five_design_runs["MM"]["Base"].bandwidth_utilization
        mm_caba = five_design_runs["MM"]["CABA-BDI"].bandwidth_utilization
        assert mm_caba < 0.9 * mm_base


class TestFigure9Shapes:
    def test_caba_saves_energy(self, five_design_runs):
        for app in ("PVC", "MM"):
            base = five_design_runs[app]["Base"].energy.total
            caba = five_design_runs[app]["CABA-BDI"].energy.total
            assert caba < base, app

    def test_energy_ordering_vs_hw_and_ideal(self, five_design_runs):
        """Paper: CABA a few percent above HW-BDI and Ideal-BDI."""
        caba = sum(
            five_design_runs[a]["CABA-BDI"].energy.total for a in APPS
        )
        ideal = sum(
            five_design_runs[a]["Ideal-BDI"].energy.total for a in APPS
        )
        assert caba >= ideal
        assert caba <= 1.5 * ideal

    def test_dram_power_drops(self, five_design_runs):
        base = sum(
            five_design_runs[a]["Base"].energy.dram_dynamic for a in APPS
        )
        caba = sum(
            five_design_runs[a]["CABA-BDI"].energy.dram_dynamic for a in APPS
        )
        assert caba < 0.75 * base


class TestComputeBoundApps:
    def test_compute_bound_apps_unaffected(self):
        """Paper: apps without compressible bandwidth see no change."""
        for app in ("dmr", "NQU"):
            base = run_app(app, designs.base())
            caba = run_app(app, designs.caba())
            assert caba.cycles == base.cycles, app

    def test_compute_bound_apps_ignore_bandwidth(self):
        """Figure 1: compute-bound apps barely react to 2x bandwidth."""
        config = GPUConfig.small()
        base = run_app("NQU", designs.base(), config)
        double = run_app(
            "NQU", designs.base(), config.with_bandwidth_scale(2.0)
        )
        assert abs(double.ipc - base.ipc) / base.ipc < 0.05

    def test_memory_bound_apps_track_bandwidth(self):
        config = GPUConfig.small()
        base = run_app("PVC", designs.base(), config)
        double = run_app(
            "PVC", designs.base(), config.with_bandwidth_scale(2.0)
        )
        assert double.ipc > 1.3 * base.ipc


class TestFigure12Shapes:
    def test_caba_outperforms_matching_baseline_at_every_bw(self):
        config = GPUConfig.small()
        for scale in (0.5, 1.0, 2.0):
            scaled = config.with_bandwidth_scale(scale)
            base = run_app("PVC", designs.base(), scaled)
            caba = run_app("PVC", designs.caba(), scaled)
            assert caba.ipc > base.ipc, scale

    def test_caba_roughly_doubles_effective_bandwidth(self):
        """Paper: 1x-CABA ~ 2x-Base."""
        config = GPUConfig.small()
        caba_1x = run_app("PVC", designs.caba(), config)
        base_2x = run_app(
            "PVC", designs.base(), config.with_bandwidth_scale(2.0)
        )
        assert caba_1x.ipc > 0.75 * base_2x.ipc


class TestMetadataCache:
    def test_md_hit_rate_high(self, five_design_runs):
        """Paper: 85% average hit rate, >99% for many apps."""
        rates = [
            five_design_runs[a]["CABA-BDI"].md_cache_hit_rate
            for a in APPS
            if five_design_runs[a]["CABA-BDI"].md_cache_hit_rate is not None
        ]
        assert rates
        assert sum(rates) / len(rates) > 0.75


class TestFigure10Shapes:
    def test_every_algorithm_helps(self):
        base = run_app("PVC", designs.base())
        for algo in ("bdi", "fpc", "cpack"):
            run = run_app("PVC", designs.caba(algo))
            assert run.ipc > base.ipc, algo

    def test_compression_ratio_reported(self):
        run = run_app("PVC", designs.caba("bdi"))
        assert run.compression_ratio > 1.4
