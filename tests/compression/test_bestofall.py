"""Unit tests for the BestOfAll per-line oracle selector."""

import itertools

import pytest

from repro.compression import (
    ALGORITHMS,
    BdiCompressor,
    BestOfAllCompressor,
    CompressionError,
    CPackCompressor,
    FpcCompressor,
)
from repro.compression.bestofall import (
    COMPONENT_PRIORITY,
    compose_size_tables,
)

# A line where FPC and C-Pack tie at 63 bytes (BDI fails at 64): the
# selector must break the tie by COMPONENT_PRIORITY, not by whatever
# order the caller listed the components in.
TIE_LINE = bytes.fromhex(
    "0001340009091a0e2e4e0000080000030b000201060047020c84010202cb0002"
    "070207010f0e030405cd290a050bf00401010000f60201000100000035010100"
)


class TestSelection:
    def test_picks_minimum_size(self):
        best = BestOfAllCompressor(line_size=64)
        data = bytes(64)
        line = best.compress(data)
        sizes = [c.compress(data).size_bytes for c in best.components]
        assert line.size_bytes == min(sizes)

    def test_encoding_names_winner(self):
        best = BestOfAllCompressor(line_size=64)
        line = best.compress(bytes(64))
        assert line.encoding.split(":")[0] in ("bdi", "fpc", "cpack")

    def test_bdi_wins_on_low_dynamic_range(self):
        base = 0x11223344556600
        data = b"".join((base + i).to_bytes(8, "little") for i in range(8))
        best = BestOfAllCompressor(line_size=64)
        line = best.compress(data)
        assert line.encoding.startswith("bdi:")

    def test_never_worse_than_any_component(self):
        import random

        rng = random.Random(42)
        best = BestOfAllCompressor(line_size=64)
        for _ in range(25):
            data = bytes(rng.getrandbits(8) >> rng.choice([0, 0, 4, 6])
                         for _ in range(64))
            line = best.compress(data)
            for component in best.components:
                assert line.size_bytes <= component.compress(data).size_bytes

    def test_round_trip(self):
        import random

        rng = random.Random(17)
        best = BestOfAllCompressor(line_size=128)
        for _ in range(25):
            data = bytes(rng.getrandbits(8) >> rng.choice([0, 4, 7])
                         for _ in range(128))
            assert best.decompress(best.compress(data)) == data


class TestTieBreaking:
    """Regressions: equal-size winners are chosen by COMPONENT_PRIORITY
    identically on the scalar, batch and plane-composition paths."""

    def test_tie_line_really_ties(self):
        sizes = {
            c.name: c.compress(TIE_LINE).size_bytes
            for c in BestOfAllCompressor(line_size=64).components
        }
        assert sizes["fpc"] == sizes["cpack"] < sizes["bdi"]

    def test_components_stored_in_priority_order(self):
        best = BestOfAllCompressor(
            line_size=64,
            components=[
                CPackCompressor(64), FpcCompressor(64), BdiCompressor(64),
            ],
        )
        assert [c.name for c in best.components] == ["bdi", "fpc", "cpack"]

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(("bdi", "fpc", "cpack")))
    )
    def test_scalar_winner_ignores_constructor_order(self, order):
        makers = {
            "bdi": BdiCompressor, "fpc": FpcCompressor,
            "cpack": CPackCompressor,
        }
        best = BestOfAllCompressor(
            line_size=64, components=[makers[n](64) for n in order]
        )
        line = best.compress(TIE_LINE)
        assert line.encoding.startswith("fpc:")
        assert best.decompress(line) == TIE_LINE

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(("bdi", "fpc", "cpack")))
    )
    def test_compose_winner_ignores_table_order(self, order):
        makers = {
            "bdi": BdiCompressor, "fpc": FpcCompressor,
            "cpack": CPackCompressor,
        }
        tables = [
            (name, makers[name](64)._size_table([TIE_LINE]))
            for name in order
        ]
        (size, encoding), = compose_size_tables(tables, 64)
        assert encoding.startswith("fpc:")
        assert size == 63

    def test_batch_matches_scalar_on_tie(self):
        best = BestOfAllCompressor(line_size=64)
        line = best.compress(TIE_LINE)
        [(size, encoding)] = best.size_table([TIE_LINE])
        assert (size, encoding) == (line.size_bytes, line.encoding)

    def test_priority_covers_all_registered_components(self):
        assert set(COMPONENT_PRIORITY) == set(ALGORITHMS) - {"bestofall"}


class TestValidation:
    def test_component_line_size_mismatch(self):
        with pytest.raises(CompressionError):
            BestOfAllCompressor(
                line_size=64, components=[BdiCompressor(line_size=128)]
            )

    def test_empty_components(self):
        with pytest.raises(CompressionError):
            BestOfAllCompressor(line_size=64, components=[])

    def test_custom_component_subset(self):
        best = BestOfAllCompressor(
            line_size=64,
            components=[FpcCompressor(64), CPackCompressor(64)],
        )
        line = best.compress(bytes(64))
        assert line.encoding.split(":")[0] in ("fpc", "cpack")


class TestIncompressibleLines:
    def test_uncompressed_result_uses_plain_encoding(self):
        """Regression: incompressible lines must not carry a component
        prefix ('bdi:uncompressed'); the memory system keys compression
        state off the plain 'uncompressed' tag."""
        import random

        rng = random.Random(99)
        data = bytes(rng.getrandbits(8) for _ in range(64))
        best = BestOfAllCompressor(line_size=64)
        line = best.compress(data)
        if line.size_bytes == 64:
            assert line.encoding == "uncompressed"
            assert not line.is_compressed
        assert best.decompress(line) == data
