"""Property tests for the DL/HPC value generators.

The ``fp32_nearzero`` / ``fp32_weights`` / ``fp32_smooth`` patterns back
the ATTN and ST3D app profiles, so their value-level claims (finite
FP32, bounded magnitudes, quantized vocabularies, smooth drift) and
their compression-ratio profile per algorithm are pinned here with
seeded property tests. The ratio bounds are deliberately loose around
measured values — they catch a generator that stops producing the
intended structure, not ordinary noise across seeds.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import make_algorithm
from repro.workloads.data_patterns import make_line_generator

DLHPC_PATTERNS = ("fp32_nearzero", "fp32_weights", "fp32_smooth")
ALGORITHMS = ("bdi", "fpc", "cpack", "bestofall")


def _gen(pattern, line_size=128, seed=12345):
    return make_line_generator({pattern: 1.0}, line_size, seed=seed)


def _words(data):
    return struct.unpack(f"<{len(data) // 4}f", data)


def _ratio(pattern, algorithm, lines=120, line_size=128, seed=12345):
    gen = _gen(pattern, line_size, seed)
    algo = make_algorithm(algorithm, line_size)
    total = sum(algo.compress(gen(i)).size_bytes for i in range(lines))
    return line_size * lines / total


@settings(max_examples=40, deadline=None)
@given(
    pattern=st.sampled_from(DLHPC_PATTERNS),
    line=st.integers(min_value=0, max_value=1 << 40),
    seed=st.integers(min_value=1, max_value=1 << 20),
    size=st.sampled_from([64, 128, 256]),
)
def test_deterministic_sized_finite(pattern, line, seed, size):
    """Same (seed, line) -> same bytes; right length; finite FP32."""
    gen = _gen(pattern, size, seed)
    data = gen(line)
    assert data == gen(line)
    assert len(data) == size
    for value in _words(data):
        assert math.isfinite(value)


@settings(max_examples=25, deadline=None)
@given(
    pattern=st.sampled_from(DLHPC_PATTERNS),
    line=st.integers(min_value=0, max_value=1 << 40),
    seed=st.integers(min_value=1, max_value=1 << 20),
)
def test_magnitude_bounds(pattern, line, seed):
    """Every generator stays inside its documented magnitude band."""
    bounds = {
        "fp32_nearzero": 0.5,   # exponent band tops out below 2^-1
        "fp32_weights": 0.5,    # |w| <= ~0.25 after quantization
        "fp32_smooth": 8.0,     # field magnitude 0.25 .. 4
    }
    for value in _words(_gen(pattern, 128, seed)(line)):
        assert abs(value) < bounds[pattern]


class TestNearzero:
    def test_zero_fraction_near_target(self):
        gen = _gen("fp32_nearzero")
        words = [w for i in range(200) for w in _words(gen(i))]
        zero_fraction = sum(1 for w in words if w == 0.0) / len(words)
        assert 0.45 < zero_fraction < 0.75

    def test_nonzero_words_positive_small(self):
        gen = _gen("fp32_nearzero")
        nonzero = [w for i in range(50) for w in _words(gen(i)) if w]
        assert nonzero, "generator produced only zeros"
        assert all(0.0 < w < 0.5 for w in nonzero)

    def test_compression_profile(self):
        # Measured: fpc 2.05, cpack 2.17, bdi 1.0.
        assert _ratio("fp32_nearzero", "fpc") > 1.5
        assert _ratio("fp32_nearzero", "cpack") > 1.5
        assert _ratio("fp32_nearzero", "bestofall") > 1.5


class TestWeights:
    def test_per_line_vocabulary_is_small(self):
        gen = _gen("fp32_weights")
        for i in range(50):
            assert len(set(_words(gen(i)))) <= 8

    def test_quantized_mantissas(self):
        gen = _gen("fp32_weights")
        for i in range(30):
            for (bits,) in struct.iter_unpack("<I", gen(i)):
                assert bits & 0xFFF == 0, "low mantissa bits not zeroed"

    def test_compression_profile(self):
        # Measured: cpack 2.47 (dictionary hits); bdi/fpc ~1.0 — the
        # codebook words differ in high bytes, so delta/prefix schemes
        # see nothing.
        assert _ratio("fp32_weights", "cpack") > 1.8
        assert _ratio("fp32_weights", "bestofall") > 1.8
        assert _ratio("fp32_weights", "bdi") < 1.2


class TestSmooth:
    def test_neighbouring_words_drift_slowly(self):
        gen = _gen("fp32_smooth")
        for i in range(30):
            words = _words(gen(i))
            for a, b in zip(words, words[1:]):
                assert abs(a - b) / max(abs(a), abs(b)) < 0.01

    def test_single_exponent_per_line(self):
        gen = _gen("fp32_smooth")
        for i in range(30):
            exponents = {
                (bits >> 23) & 0xFF
                for (bits,) in struct.iter_unpack("<I", gen(i))
            }
            assert len(exponents) == 1

    def test_compression_profile(self):
        # Measured: bdi 1.78 (B4D1/B4D2), cpack 1.39, fpc 1.0.
        assert _ratio("fp32_smooth", "bdi") > 1.4
        assert _ratio("fp32_smooth", "bestofall") > 1.4
        assert _ratio("fp32_smooth", "fpc") < 1.2


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("pattern", DLHPC_PATTERNS)
def test_round_trips_through_every_algorithm(pattern, algorithm):
    gen = _gen(pattern)
    algo = make_algorithm(algorithm, 128)
    for i in range(40):
        data = gen(i)
        assert algo.decompress(algo.compress(data)) == data
