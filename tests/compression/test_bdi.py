"""Unit tests for Base-Delta-Immediate compression."""

import pytest

from repro.compression import BdiCompressor, CompressionError
from repro.compression.bdi import BDI_ENCODINGS, BdiEncoding


def line_from_words(words, word_bytes, line_size=64):
    """Build a little-endian line from integer words."""
    data = b"".join(w.to_bytes(word_bytes, "little") for w in words)
    assert len(data) == line_size
    return data


class TestFigure5Example:
    """The paper's worked example: a 64-byte PVC line -> 17 bytes."""

    # Figure 5: eight 8-byte values around base 0x80001D000 mixed with
    # small immediates near zero.
    WORDS = [
        0x00, 0x80001D000, 0x10, 0x80001D008,
        0x20, 0x80001D010, 0x30, 0x80001D018,
    ]

    def test_compresses_to_17_bytes(self):
        bdi = BdiCompressor(line_size=64)
        line = bdi.compress(line_from_words(self.WORDS, 8))
        assert line.encoding == "B8D1"
        assert line.size_bytes == 17

    def test_saves_47_bytes(self):
        bdi = BdiCompressor(line_size=64)
        line = bdi.compress(line_from_words(self.WORDS, 8))
        assert line.line_size - line.size_bytes == 47

    def test_round_trip(self):
        bdi = BdiCompressor(line_size=64)
        data = line_from_words(self.WORDS, 8)
        assert bdi.decompress(bdi.compress(data)) == data

    def test_single_burst(self):
        bdi = BdiCompressor(line_size=64)
        line = bdi.compress(line_from_words(self.WORDS, 8))
        assert line.bursts() == 1


class TestSpecialEncodings:
    def test_all_zeros(self):
        bdi = BdiCompressor(line_size=128)
        line = bdi.compress(bytes(128))
        assert line.encoding == "ZEROS"
        assert line.size_bytes == 1
        assert bdi.decompress(line) == bytes(128)

    def test_repeated_value(self):
        bdi = BdiCompressor(line_size=128)
        data = (0xDEADBEEFCAFEF00D).to_bytes(8, "little") * 16
        line = bdi.compress(data)
        assert line.encoding == "REPEAT"
        assert line.size_bytes == 8
        assert bdi.decompress(line) == data

    def test_repeated_zero_prefers_zeros(self):
        bdi = BdiCompressor(line_size=64)
        line = bdi.compress(bytes(64))
        assert line.encoding == "ZEROS"


class TestEncodingSelection:
    def test_picks_smallest_fitting_encoding(self):
        # 4-byte words with 1-byte deltas -> B4D1 beats B8D* here.
        bdi = BdiCompressor(line_size=64)
        words = [0x12345600 + i for i in range(16)]
        line = bdi.compress(line_from_words(words, 4))
        assert line.encoding == "B4D1"
        assert line.size_bytes == 4 + 16 * 1 + 2

    def test_wide_deltas_need_wider_encoding(self):
        bdi = BdiCompressor(line_size=64)
        words = [0x8877665544332211 + i * 0x1000000 for i in range(8)]
        line = bdi.compress(line_from_words(words, 8))
        assert line.encoding == "B8D4"

    def test_incompressible_random_line(self):
        import random

        rng = random.Random(7)
        data = bytes(rng.getrandbits(8) for _ in range(128))
        bdi = BdiCompressor(line_size=128)
        line = bdi.compress(data)
        assert line.encoding == "uncompressed"
        assert line.size_bytes == 128
        assert bdi.decompress(line) == data

    def test_immediate_zero_base_words(self):
        # Mixture of a large base cluster and small immediates.
        bdi = BdiCompressor(line_size=64)
        words = [5, 0xAABBCCDD0000, 7, 0xAABBCCDD0004] * 2
        data = line_from_words(words, 8)
        line = bdi.compress(data)
        assert line.is_compressed
        assert bdi.decompress(line) == data

    def test_restricted_encoding_set(self):
        only_b8d1 = BdiCompressor(line_size=64, encodings=[BDI_ENCODINGS[0]])
        words = [0x12345600 + i for i in range(16)]
        line = only_b8d1.compress(line_from_words(words, 4))
        # B4D1 unavailable; these words do not fit B8D1 deltas from the
        # packed 8-byte view, so the line stays uncompressed.
        assert line.encoding in ("B8D1", "uncompressed")


class TestSizeAccounting:
    @pytest.mark.parametrize("encoding", BDI_ENCODINGS, ids=lambda e: e.name)
    def test_compressed_size_formula(self, encoding):
        n_words = 128 // encoding.base_bytes
        expected = (
            encoding.base_bytes
            + n_words * encoding.delta_bytes
            + -(-n_words // 8)
        )
        assert encoding.compressed_size(128) == expected

    def test_b8d1_on_64b_matches_paper(self):
        assert BdiEncoding("B8D1", 8, 1).compressed_size(64) == 17


class TestValidation:
    def test_wrong_line_size_rejected(self):
        with pytest.raises(CompressionError):
            BdiCompressor(line_size=64).compress(bytes(65))

    def test_bad_line_size_rejected(self):
        with pytest.raises(CompressionError):
            BdiCompressor(line_size=63)

    def test_cross_algorithm_decompress_rejected(self):
        from repro.compression import FpcCompressor

        bdi = BdiCompressor(line_size=64)
        fpc_line = FpcCompressor(line_size=64).compress(bytes(64))
        with pytest.raises(CompressionError):
            bdi.decompress(fpc_line)

    def test_encoding_must_divide_line(self):
        with pytest.raises(CompressionError):
            BdiCompressor(line_size=24, encodings=[BdiEncoding("B16D1", 16, 1)])
