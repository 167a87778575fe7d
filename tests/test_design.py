"""Unit tests for design-point definitions."""

import pytest

from repro import design as designs
from repro.design import DesignPoint


class TestFactories:
    def test_base(self):
        d = designs.base()
        assert not d.compression_enabled
        assert not d.uses_assist_warps
        assert not d.needs_metadata

    def test_hw_mem(self):
        d = designs.hw_mem()
        assert d.compress_dram and not d.compress_interconnect
        assert d.decompress_at == "mc"
        assert d.needs_metadata

    def test_hw(self):
        d = designs.hw()
        assert d.compress_dram and d.compress_interconnect
        assert d.decompress_at == "core_hw"
        assert not d.uses_assist_warps

    def test_caba(self):
        d = designs.caba()
        assert d.uses_assist_warps
        assert d.decompress_at == "core_assist"
        assert d.compress_at == "core_assist"

    def test_ideal(self):
        d = designs.ideal()
        assert d.ideal
        assert not d.needs_metadata  # zero-overhead metadata path

    def test_names_follow_algorithm(self):
        assert designs.caba("fpc").name == "CABA-FPC"
        assert designs.caba("cpack").name == "CABA-CPack"
        assert designs.caba("bestofall").name == "CABA-BestOfAll"

    def test_figure7_designs_order(self):
        names = [d.name for d in designs.figure7_designs()]
        assert names == [
            "Base", "HW-BDI-Mem", "HW-BDI", "CABA-BDI", "Ideal-BDI"
        ]

    def test_cache_variants(self):
        d = designs.caba_cache("l1", 2)
        assert d.l1_tag_mult == 2 and d.l2_tag_mult == 1
        d = designs.caba_cache("l2", 4)
        assert d.l2_tag_mult == 4 and d.l1_tag_mult == 1

    def test_bad_cache_level(self):
        with pytest.raises(ValueError):
            designs.caba_cache("l3", 2)


class TestValidation:
    def test_compression_requires_algorithm(self):
        with pytest.raises(ValueError):
            DesignPoint(name="broken", compress_dram=True)

    def test_bad_decompress_site(self):
        with pytest.raises(ValueError):
            DesignPoint(name="broken", decompress_at="cloud")

    def test_bad_compress_site(self):
        with pytest.raises(ValueError):
            DesignPoint(name="broken", compress_at="cloud")

    def test_bad_tag_mult(self):
        with pytest.raises(ValueError):
            DesignPoint(name="broken", l1_tag_mult=0)

    def test_hashable_for_memoization(self):
        assert hash(designs.caba()) == hash(designs.caba())


class TestSelectiveL2Compression:
    """Section 6.5's uncompressed-L2 option."""

    def test_factory(self):
        d = designs.caba_l2_uncompressed()
        assert d.l2_store_uncompressed
        assert d.compress_dram
        assert d.name == "CABA-BDI-L2U"

    def test_l2_hits_need_no_assist(self):
        from repro.gpu.config import GPUConfig
        from repro.harness.runner import run_app

        base = run_app("RAY", designs.base())
        l2u = run_app("RAY", designs.caba_l2_uncompressed())
        # The option must be at least competitive on an L2-resident app.
        assert l2u.ipc >= 0.95 * base.ipc
