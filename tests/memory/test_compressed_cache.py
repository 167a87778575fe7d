"""Unit tests for the tag-extended compressed cache (Fig. 13 model)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.compressed_cache import CompressedCache


def same_set_lines(cache: CompressedCache, count: int, start: int = 0):
    lines, target, line = [], None, start
    while len(lines) < count:
        s = cache._set_for(line)
        if target is None:
            target = id(s)
        if id(s) == target:
            lines.append(line)
        line += 1
    return lines


class TestCapacity:
    def test_more_tags_than_data_ways(self):
        cache = CompressedCache(n_sets=1, assoc=2, line_size=128, tag_mult=2)
        lines = same_set_lines(cache, 4)
        # Four half-size lines fit in two data ways with 4 tags.
        for line in lines:
            result = cache.access(line, size=64)
            assert result.evicted == ()
        assert cache.resident_lines() == 4

    def test_tag_limit_still_applies(self):
        cache = CompressedCache(n_sets=1, assoc=2, line_size=128, tag_mult=2)
        lines = same_set_lines(cache, 5)
        for line in lines[:4]:
            cache.access(line, size=16)
        result = cache.access(lines[4], size=16)
        assert len(result.evicted) == 1  # 5th tag exceeds 2 * 2

    def test_byte_budget_enforced(self):
        cache = CompressedCache(n_sets=1, assoc=2, line_size=128, tag_mult=4)
        lines = same_set_lines(cache, 3)
        cache.access(lines[0], size=128)
        cache.access(lines[1], size=128)
        result = cache.access(lines[2], size=64)
        assert len(result.evicted) >= 1

    def test_uncompressed_lines_behave_like_plain_cache(self):
        cache = CompressedCache(n_sets=1, assoc=2, line_size=128, tag_mult=4)
        lines = same_set_lines(cache, 3)
        cache.access(lines[0], size=128)
        cache.access(lines[1], size=128)
        result = cache.access(lines[2], size=128)
        assert len(result.evicted) == 1
        assert result.evicted[0][0] == lines[0]

    def test_big_insert_can_evict_multiple(self):
        cache = CompressedCache(n_sets=1, assoc=2, line_size=128, tag_mult=4)
        lines = same_set_lines(cache, 5)
        for line in lines[:4]:
            cache.access(line, size=64)
        result = cache.access(lines[4], size=128)
        assert len(result.evicted) >= 2


class TestDirtyAndSizes:
    def test_dirty_eviction_reported(self):
        cache = CompressedCache(n_sets=1, assoc=1, line_size=128, tag_mult=1)
        a, b = same_set_lines(cache, 2)
        cache.access(a, size=64, is_write=True)
        result = cache.access(b, size=64)
        assert result.evicted == ((a, True),)

    def test_stored_size_updates_on_hit(self):
        cache = CompressedCache(n_sets=1, assoc=2, line_size=128, tag_mult=2)
        cache.access(3, size=64)
        cache.access(3, size=17)
        assert cache.stored_size(3) == 17

    def test_hit_then_resize_equals_a_hit_access(self):
        """``hit`` + ``resize`` (the L1 load hit) leaves the same state
        and counts as ``access`` with the new size."""
        split = CompressedCache(n_sets=1, assoc=2, line_size=128, tag_mult=2)
        whole = CompressedCache(n_sets=1, assoc=2, line_size=128, tag_mult=2)
        lines = same_set_lines(split, 4)
        for cache in (split, whole):
            for line in lines:
                cache.access(line, size=60, is_write=line == lines[0])
        assert split.hit(lines[3])
        evicted = split.resize(lines[3], 128)
        assert whole.access(lines[3], size=128).evicted == evicted
        assert evicted == ((lines[0], True),)
        assert split.stats == whole.stats
        assert list(split._sets[0].items()) == list(whole._sets[0].items())
        assert split._used == whole._used
        assert split.audit() == []

    def test_hit_miss_changes_nothing(self):
        cache = CompressedCache(n_sets=1, assoc=2, line_size=128)
        assert not cache.hit(7)
        assert cache.stats.accesses == 0
        assert cache.resident_lines() == 0

    def test_stored_size_absent(self):
        cache = CompressedCache(n_sets=1, assoc=2, line_size=128)
        assert cache.stored_size(42) is None

    def test_bad_size_rejected(self):
        cache = CompressedCache(n_sets=1, assoc=2, line_size=128)
        with pytest.raises(ValueError):
            cache.access(1, size=0)
        with pytest.raises(ValueError):
            cache.access(1, size=200)

    def test_bad_tag_mult_rejected(self):
        with pytest.raises(ValueError):
            CompressedCache(n_sets=1, assoc=2, line_size=128, tag_mult=0)


class TestOccupancy:
    def test_occupancy_reflects_compression(self):
        cache = CompressedCache(n_sets=1, assoc=4, line_size=128, tag_mult=2)
        lines = same_set_lines(cache, 4)
        for line in lines:
            cache.access(line, size=32)
        assert cache.occupancy() == pytest.approx(4 * 32 / (4 * 128))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=1, max_value=128),
        ),
        min_size=1,
        max_size=200,
    )
)
def test_budget_invariant(accesses):
    """Per-set bytes never exceed the data budget; tags never exceed
    assoc * tag_mult."""
    cache = CompressedCache(n_sets=4, assoc=2, line_size=128, tag_mult=4)
    for line, size in accesses:
        cache.access(line, size=size)
    for s in cache._sets:
        assert sum(e.size for e in s.values()) <= cache.data_budget
        assert len(s) <= cache.max_tags
