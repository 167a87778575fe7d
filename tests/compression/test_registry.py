"""Tests for the algorithm registry and shared base behaviours."""

import pytest

from repro.compression import (
    ALGORITHMS,
    CompressionError,
    bursts_for,
    make_algorithm,
)
from repro.compression.base import CompressedLine


class TestRegistry:
    def test_all_four_algorithms_registered(self):
        assert set(ALGORITHMS) == {"bdi", "fpc", "cpack", "bestofall"}

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_make_algorithm(self, name):
        algo = make_algorithm(name, line_size=64)
        assert algo.name == name
        assert algo.line_size == 64

    def test_unknown_name(self):
        with pytest.raises(CompressionError):
            make_algorithm("gzip")

    def test_hw_latencies_ordered(self):
        """BDI is the fastest dedicated-hardware design; FPC and C-Pack
        pay more (Section 6.3's latency discussion)."""
        bdi = make_algorithm("bdi")
        fpc = make_algorithm("fpc")
        cpack = make_algorithm("cpack")
        assert bdi.hw_decompression_latency == 1
        assert bdi.hw_compression_latency == 5
        assert fpc.hw_decompression_latency > bdi.hw_decompression_latency
        assert cpack.hw_decompression_latency > bdi.hw_decompression_latency


class TestBursts:
    def test_bursts_for(self):
        assert bursts_for(1) == 1
        assert bursts_for(32) == 1
        assert bursts_for(33) == 2
        assert bursts_for(128) == 4

    def test_bad_size(self):
        with pytest.raises(CompressionError):
            bursts_for(0)

    def test_line_bursts_and_ratio(self):
        line = CompressedLine("bdi", "B8D1", size_bytes=17, line_size=64)
        assert line.bursts() == 1
        assert line.compression_ratio == pytest.approx(64 / 17)
        assert line.is_compressed

    def test_uncompressed_flag(self):
        line = CompressedLine("bdi", "uncompressed", 64, 64)
        assert not line.is_compressed


class TestLineSizeValidation:
    def test_bad_line_sizes(self):
        for bad in (0, -8, 12):
            with pytest.raises(CompressionError):
                make_algorithm("bdi", line_size=bad)
