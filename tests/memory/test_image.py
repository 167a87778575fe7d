"""Unit tests for the compressed memory image."""

import pytest

from repro.compression import BdiCompressor
from repro.memory.image import MemoryImage


def narrow_line(line: int) -> bytes:
    """A BDI-friendly line: one base + tiny deltas."""
    base = 0x1122334455660000 + line
    return b"".join((base + i).to_bytes(8, "little") for i in range(16))


class TestBaseline:
    def test_uncompressed_when_no_algorithm(self):
        image = MemoryImage(narrow_line, None, 128)
        assert image.size_of(0) == 128
        assert image.bursts_of(0) == 4
        assert not image.compression_enabled

    def test_compressed_sizes_come_from_algorithm(self):
        image = MemoryImage(narrow_line, BdiCompressor(128), 128)
        assert image.size_of(0) < 128
        assert image.bursts_of(0) < 4
        assert image.info(0).is_compressed

    def test_sizes_are_cached_and_deterministic(self):
        image = MemoryImage(narrow_line, BdiCompressor(128), 128)
        assert image.size_of(7) == image.size_of(7)

    def test_line_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MemoryImage(narrow_line, BdiCompressor(64), 128)


class TestStoreOverrides:
    def test_uncompressed_store_overrides(self):
        image = MemoryImage(narrow_line, BdiCompressor(128), 128)
        before = image.size_of(3)
        assert before < 128
        image.record_store(3, compressed=False)
        assert image.size_of(3) == 128
        assert image.bursts_of(3) == 4

    def test_compressed_store_restores_algorithmic_size(self):
        image = MemoryImage(narrow_line, BdiCompressor(128), 128)
        original = image.size_of(3)
        image.record_store(3, compressed=False)
        image.record_store(3, compressed=True)
        assert image.size_of(3) == original

    def test_overrides_do_not_touch_other_lines(self):
        image = MemoryImage(narrow_line, BdiCompressor(128), 128)
        a = image.size_of(1)
        image.record_store(2, compressed=False)
        assert image.size_of(1) == a


class TestSharedCache:
    """Images of the same workload share no state: each keeps its own
    size memo, so one run's touched lines never reach another's."""

    def test_each_image_computes_its_own_sizes(self):
        calls = []

        def counted(line):
            calls.append(line)
            return narrow_line(line)

        first = MemoryImage(counted, BdiCompressor(128), 128)
        first.size_of(5)
        second = MemoryImage(counted, BdiCompressor(128), 128)
        second.size_of(5)
        assert calls == [5, 5]
        assert first.lines_touched() == second.lines_touched() == 1

    def test_overrides_stay_private(self):
        first = MemoryImage(narrow_line, BdiCompressor(128), 128)
        second = MemoryImage(narrow_line, BdiCompressor(128), 128)
        first.record_store(5, compressed=False)
        assert first.size_of(5) == 128
        assert second.size_of(5) < 128


class TestAggregates:
    def test_observed_compression_ratio(self):
        image = MemoryImage(narrow_line, BdiCompressor(128), 128)
        for line in range(10):
            image.size_of(line)
        assert image.observed_compression_ratio() > 1.0
        assert image.lines_touched() == 10

    def test_ratio_of_untouched_image_is_one(self):
        image = MemoryImage(narrow_line, BdiCompressor(128), 128)
        assert image.observed_compression_ratio() == 1.0
