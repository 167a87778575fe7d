"""Property-based tests: round-trip and size invariants for every algorithm.

These are the core guarantees the rest of the system builds on: whatever
bytes enter a compressor come back out bit-exact, and the reported size
never exceeds the uncompressed line (so compression can only reduce the
number of DRAM bursts, never inflate it).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import (
    BdiCompressor,
    BestOfAllCompressor,
    CPackCompressor,
    FpcCompressor,
    bursts_for,
)

LINE_SIZES = (32, 64, 128)

ALGOS = {
    "bdi": BdiCompressor,
    "fpc": FpcCompressor,
    "cpack": CPackCompressor,
    "bestofall": BestOfAllCompressor,
}


def lines(line_size):
    """Byte strategies biased towards compressible patterns.

    Pure random bytes almost never compress, which would leave the
    interesting code paths untested; mix in structured generators.
    """
    random_line = st.binary(min_size=line_size, max_size=line_size)
    narrow = st.builds(
        lambda base, deltas: b"".join(
            ((base + d) % (1 << 32)).to_bytes(4, "little") for d in deltas
        ),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.lists(
            st.integers(min_value=-128, max_value=127),
            min_size=line_size // 4,
            max_size=line_size // 4,
        ),
    )
    sparse = st.builds(
        lambda words: b"".join(w.to_bytes(4, "little") for w in words),
        st.lists(
            st.sampled_from([0, 1, 0xFF, 0xABABABAB, 0x12340000]),
            min_size=line_size // 4,
            max_size=line_size // 4,
        ),
    )
    return st.one_of(random_line, narrow, sparse)


@pytest.mark.parametrize("algo_name", sorted(ALGOS))
@pytest.mark.parametrize("line_size", LINE_SIZES)
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_decompress_inverts_compress(self, algo_name, line_size, data):
        algo = ALGOS[algo_name](line_size)
        raw = data.draw(lines(line_size))
        assert algo.decompress(algo.compress(raw)) == raw

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_size_never_exceeds_line(self, algo_name, line_size, data):
        algo = ALGOS[algo_name](line_size)
        raw = data.draw(lines(line_size))
        line = algo.compress(raw)
        assert 1 <= line.size_bytes <= line_size
        assert 1 <= line.bursts() <= bursts_for(line_size)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_compress_is_deterministic(self, algo_name, line_size, data):
        algo = ALGOS[algo_name](line_size)
        raw = data.draw(lines(line_size))
        first = algo.compress(raw)
        second = algo.compress(raw)
        assert first.size_bytes == second.size_bytes
        assert first.encoding == second.encoding


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bestofall_is_lower_envelope(data):
    best = BestOfAllCompressor(64)
    raw = data.draw(lines(64))
    size = best.compress(raw).size_bytes
    assert size == min(c.compress(raw).size_bytes for c in best.components)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=64, max_size=64))
def test_zero_prefix_lines_compress(data):
    """Any line whose second half is zeros must compress under FPC."""
    raw = data[:32] + bytes(32)
    line = FpcCompressor(64).compress(raw)
    assert FpcCompressor(64).decompress(line) == raw
