"""Unit and property tests for synthetic data generation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import (
    BdiCompressor,
    CPackCompressor,
    FpcCompressor,
    batch,
)
from repro.workloads.data_patterns import (
    PATTERNS,
    make_block_generator,
    make_line_generator,
)

needs_numpy = pytest.mark.skipif(
    batch.np is None, reason="numpy not importable"
)


class TestDeterminism:
    def test_same_address_same_bytes(self):
        gen = make_line_generator({"narrow8": 1.0}, 128, seed=3)
        assert gen(42) == gen(42)

    def test_different_addresses_differ(self):
        gen = make_line_generator({"narrow8": 1.0}, 128, seed=3)
        assert gen(1) != gen(2)

    def test_seed_changes_data(self):
        a = make_line_generator({"narrow8": 1.0}, 128, seed=1)
        b = make_line_generator({"narrow8": 1.0}, 128, seed=2)
        assert a(5) != b(5)

    def test_line_size_respected(self):
        for size in (32, 64, 128):
            gen = make_line_generator({"text": 1.0}, size, seed=1)
            assert len(gen(0)) == size


class TestPatternCompressibility:
    """Each pattern must favour the algorithm it is designed for."""

    def gen(self, pattern):
        return make_line_generator({pattern: 1.0}, 128, seed=9)

    def ratios(self, pattern, lines=60):
        gen = self.gen(pattern)
        algos = {
            "bdi": BdiCompressor(128),
            "fpc": FpcCompressor(128),
            "cpack": CPackCompressor(128),
        }
        out = {}
        for name, algo in algos.items():
            total = sum(algo.compress(gen(i)).size_bytes
                        for i in range(lines))
            out[name] = 128 * lines / total
        return out

    def test_zeros_compress_everywhere(self):
        ratios = self.ratios("zeros")
        assert all(r > 4 for r in ratios.values())

    def test_narrow8_favours_bdi(self):
        ratios = self.ratios("narrow8")
        assert ratios["bdi"] > 2.0
        assert ratios["bdi"] > ratios["fpc"]

    def test_small_int_suits_fpc(self):
        ratios = self.ratios("small_int")
        assert ratios["fpc"] > 1.5

    def test_dict_words_favour_cpack(self):
        ratios = self.ratios("dict_words")
        assert ratios["cpack"] > ratios["fpc"]
        assert ratios["cpack"] > 1.5

    def test_float32_suits_cpack_over_fpc(self):
        ratios = self.ratios("float32")
        assert ratios["cpack"] > ratios["fpc"]

    def test_random_is_incompressible(self):
        ratios = self.ratios("random")
        assert all(r < 1.15 for r in ratios.values())


class TestMixtures:
    def test_mixture_draws_multiple_patterns(self):
        gen = make_line_generator(
            {"zeros": 0.5, "random": 0.5}, 128, seed=5
        )
        lines = [gen(i) for i in range(80)]
        zero_lines = sum(1 for l in lines if not any(l))
        assert 10 < zero_lines < 70

    def test_weights_shift_distribution(self):
        mostly_zero = make_line_generator(
            {"zeros": 0.9, "random": 0.1}, 128, seed=5
        )
        mostly_random = make_line_generator(
            {"zeros": 0.1, "random": 0.9}, 128, seed=5
        )
        z1 = sum(1 for i in range(100) if not any(mostly_zero(i)))
        z2 = sum(1 for i in range(100) if not any(mostly_random(i)))
        assert z1 > z2


class TestValidation:
    def test_empty_mixture(self):
        with pytest.raises(ValueError):
            make_line_generator({}, 128)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            make_line_generator({"sparkles": 1.0}, 128)

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            make_line_generator({"zeros": -1.0, "random": 2.0}, 128)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "make", [make_line_generator, make_block_generator]
    )
    def test_non_finite_weight_names_the_pattern(self, make, weight):
        # A NaN bound fails every ``draw <= bound`` test, so every line
        # would silently take the last pattern.
        with pytest.raises(ValueError, match="'random'.*non-finite"):
            make({"zeros": 1.0, "random": weight}, 128)

    def test_overflowing_weight_sum(self):
        with pytest.raises(ValueError):
            make_line_generator({"zeros": 1e308, "random": 1e308}, 128)


class TestBlockGenerator:
    """The batch generator is pinned byte for byte to the scalar one."""

    def test_none_without_numpy(self, monkeypatch):
        monkeypatch.setattr(batch, "np", None)
        assert make_block_generator({"zeros": 1.0}, 128) is None

    @needs_numpy
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_each_pattern_matches_scalar(self, pattern):
        for seed in (0, -7, 1 << 44):
            scalar = make_line_generator({pattern: 1.0}, 128, seed=seed)
            block = make_block_generator({pattern: 1.0}, 128, seed=seed)
            expected = b"".join(scalar(line) for line in range(200))
            assert block(0, 200).tobytes() == expected

    @needs_numpy
    def test_shape_and_empty_block(self):
        block = make_block_generator({"text": 1.0, "zeros": 1.0}, 64)
        assert block(10, 7).shape == (7, 64)
        assert block(10, 0).shape == (0, 64)

    @needs_numpy
    def test_line_size_must_be_whole_words(self):
        with pytest.raises(ValueError):
            make_block_generator({"zeros": 1.0}, 36)


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(
    mixture=st.dictionaries(
        st.sampled_from(sorted(PATTERNS)),
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)),
        min_size=1,
    ).filter(lambda m: sum(m.values()) > 0),
    seed=st.one_of(
        st.just(0),
        st.integers(min_value=-(1 << 62), max_value=-1),
        st.integers(min_value=1 << 44, max_value=1 << 80),
    ),
    base=st.one_of(
        st.integers(min_value=0, max_value=1 << 16),
        st.integers(min_value=1 << 32, max_value=1 << 48),
    ),
    count=st.integers(min_value=0, max_value=48),
    size=st.sampled_from([32, 64, 128]),
)
def test_block_generator_matches_scalar(mixture, seed, base, count, size):
    scalar = make_line_generator(mixture, size, seed=seed)
    block = make_block_generator(mixture, size, seed=seed)
    expected = b"".join(scalar(base + i) for i in range(count))
    assert block(base, count).tobytes() == expected


@settings(max_examples=40, deadline=None)
@given(
    pattern=st.sampled_from(sorted(PATTERNS)),
    line=st.integers(min_value=0, max_value=1 << 40),
    size=st.sampled_from([32, 64, 128]),
)
def test_every_pattern_round_trips_through_every_algorithm(pattern, line, size):
    gen = make_line_generator({pattern: 1.0}, size, seed=2)
    data = gen(line)
    assert len(data) == size
    for algo in (BdiCompressor(size), FpcCompressor(size),
                 CPackCompressor(size)):
        assert algo.decompress(algo.compress(data)) == data
