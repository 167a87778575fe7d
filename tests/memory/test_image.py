"""Unit tests for the compressed memory image."""

import pytest

from repro.compression import BdiCompressor
from repro.memory.image import MemoryImage, UncoveredLineError
from tests.images import make_image


def narrow_line(line: int) -> bytes:
    """A BDI-friendly line: one base + tiny deltas."""
    base = 0x1122334455660000 + line
    return b"".join((base + i).to_bytes(8, "little") for i in range(16))


def bdi_image():
    return make_image(BdiCompressor(128), 128, narrow_line, lines=16)


class TestBaseline:
    def test_uncompressed_when_no_algorithm(self):
        image = make_image(None, 128)
        assert image.size_of(0) == 128
        assert image.bursts_of(0) == 4
        assert not image.compression_enabled

    def test_uncompressed_image_keeps_no_per_line_state(self):
        image = make_image(None, 128)
        image.size_of(3)
        assert image.record_store(4, compressed=True).size_bytes == 128
        assert image.touched_lines() == []
        assert image.touched_compression_ratio() == 1.0

    def test_compressed_sizes_come_from_algorithm(self):
        image = bdi_image()
        assert image.size_of(0) < 128
        assert image.bursts_of(0) < 4
        assert image.info(0).is_compressed

    def test_sizes_are_cached_and_deterministic(self):
        image = bdi_image()
        assert image.size_of(7) == image.size_of(7)

    def test_line_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MemoryImage(BdiCompressor(64), 128, plane=bdi_image().plane)

    def test_compressed_image_needs_a_plane(self):
        with pytest.raises(ValueError, match="plane"):
            MemoryImage(BdiCompressor(128), 128)

    def test_uncovered_line_raises(self):
        image = bdi_image()
        assert image.plane.entry(16) is None
        assert image.plane.entry(-1) is None
        with pytest.raises(UncoveredLineError, match="line 16"):
            image.size_of(16)
        with pytest.raises(LookupError):
            image.record_store(99, compressed=True)


class TestStoreOverrides:
    def test_uncompressed_store_overrides(self):
        image = bdi_image()
        before = image.size_of(3)
        assert before < 128
        image.record_store(3, compressed=False)
        assert image.size_of(3) == 128
        assert image.bursts_of(3) == 4

    def test_compressed_store_restores_algorithmic_size(self):
        image = bdi_image()
        original = image.size_of(3)
        image.record_store(3, compressed=False)
        image.record_store(3, compressed=True)
        assert image.size_of(3) == original

    def test_overrides_do_not_touch_other_lines(self):
        image = bdi_image()
        a = image.size_of(1)
        image.record_store(2, compressed=False)
        assert image.size_of(1) == a


class TestSharedCache:
    """Images of the same workload share no state: each keeps its own
    size memo, so one run's touched lines never reach another's."""

    def test_each_image_computes_its_own_sizes(self):
        first = bdi_image()
        first.size_of(5)
        second = bdi_image()
        assert second.touched_lines() == []
        second.size_of(5)
        assert first.touched_lines() == second.touched_lines() == [5]

    def test_overrides_stay_private(self):
        first = bdi_image()
        second = bdi_image()
        first.record_store(5, compressed=False)
        assert first.size_of(5) == 128
        assert second.size_of(5) < 128


class TestAggregates:
    def test_observed_compression_ratio(self):
        image = bdi_image()
        for line in range(10):
            image.size_of(line)
        assert image.touched_compression_ratio() > 1.0
        assert image.touched_lines() == list(range(10))

    def test_ratio_counts_each_touched_or_stored_line_once(self):
        """Lookups and stores, overlapping or not: each line counts once,
        at its current size."""
        image = bdi_image()
        for line in range(6):
            image.size_of(line)
        image.record_store(2, compressed=False)  # looked up, then stored
        image.record_store(9, compressed=False)  # stored only
        image.record_store(11, compressed=True)  # stored compressed
        lines = image.touched_lines()
        assert lines == [0, 1, 2, 3, 4, 5, 9, 11]
        bursts = sum(image.bursts_of(line) for line in lines)
        assert image.touched_compression_ratio() == len(lines) * 4 / bursts
        assert image.touched_lines() == lines

    def test_ratio_of_untouched_image_is_one(self):
        image = bdi_image()
        assert image.touched_compression_ratio() == 1.0
