"""Unit tests for the set-associative cache tag model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache


def same_set_lines(cache: Cache, count: int, start: int = 0):
    """Generate ``count`` distinct lines mapping to the same set."""
    lines = []
    target = None
    line = start
    while len(lines) < count:
        s = cache._set_for(line)
        if target is None:
            target = id(s)
        if id(s) == target:
            lines.append(line)
        line += 1
    return lines


class TestBasics:
    def test_miss_then_hit(self):
        cache = Cache(n_sets=4, assoc=2)
        assert not cache.access(5).hit
        assert cache.access(5).hit

    def test_probe_has_no_side_effects(self):
        cache = Cache(n_sets=4, assoc=2)
        assert not cache.probe(5)
        assert not cache.probe(5)
        cache.access(5)
        assert cache.probe(5)

    def test_hit_counts_and_refreshes_lru(self):
        cache = Cache(n_sets=1, assoc=2)
        a, b, c = same_set_lines(cache, 3)
        cache.access(a)
        cache.access(b)
        assert cache.hit(a)
        assert (cache.stats.accesses, cache.stats.hits) == (3, 1)
        # a is MRU now, so c evicts b.
        assert cache.access(c).evicted_line == b

    def test_hit_miss_changes_nothing(self):
        cache = Cache(n_sets=4, assoc=2)
        assert not cache.hit(5)
        assert cache.stats == type(cache.stats)()
        assert not cache.probe(5)

    def test_non_allocating_miss(self):
        cache = Cache(n_sets=4, assoc=2)
        result = cache.access(5, allocate=False)
        assert not result.hit
        assert not cache.probe(5)

    def test_invalidate(self):
        cache = Cache(n_sets=4, assoc=2)
        cache.access(5)
        assert cache.invalidate(5)
        assert not cache.probe(5)
        assert not cache.invalidate(5)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache(n_sets=0, assoc=2)
        with pytest.raises(ValueError):
            Cache(n_sets=2, assoc=0)


class TestLru:
    def test_lru_eviction_order(self):
        cache = Cache(n_sets=1, assoc=2)
        a, b, c = same_set_lines(cache, 3)
        cache.access(a)
        cache.access(b)
        result = cache.access(c)
        assert result.evicted_line == a

    def test_access_refreshes_lru(self):
        cache = Cache(n_sets=1, assoc=2)
        a, b, c = same_set_lines(cache, 3)
        cache.access(a)
        cache.access(b)
        cache.access(a)  # refresh a; b becomes LRU
        result = cache.access(c)
        assert result.evicted_line == b


class TestDirty:
    def test_write_marks_dirty(self):
        cache = Cache(n_sets=1, assoc=1)
        a, b = same_set_lines(cache, 2)
        cache.access(a, is_write=True)
        result = cache.access(b)
        assert result.evicted_line == a
        assert result.evicted_dirty

    def test_clean_eviction(self):
        cache = Cache(n_sets=1, assoc=1)
        a, b = same_set_lines(cache, 2)
        cache.access(a)
        result = cache.access(b)
        assert not result.evicted_dirty

    def test_read_hit_preserves_dirty(self):
        cache = Cache(n_sets=1, assoc=1)
        a, b = same_set_lines(cache, 2)
        cache.access(a, is_write=True)
        cache.access(a)  # read hit must not clear the dirty bit
        result = cache.access(b)
        assert result.evicted_dirty


class TestStats:
    def test_hit_rate(self):
        cache = Cache(n_sets=4, assoc=2)
        cache.access(1)
        cache.access(1)
        cache.access(2)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_eviction_counters(self):
        cache = Cache(n_sets=1, assoc=1)
        a, b = same_set_lines(cache, 2)
        cache.access(a, is_write=True)
        cache.access(b)
        assert cache.stats.evictions == 1
        assert cache.stats.dirty_evictions == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300)
)
def test_resident_lines_bounded_by_capacity(lines):
    cache = Cache(n_sets=4, assoc=2)
    for line in lines:
        cache.access(line)
    assert cache.resident_lines() <= 8


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200)
)
def test_small_working_set_eventually_all_hits(lines):
    """A working set within one set's capacity cannot self-evict."""
    cache = Cache(n_sets=8, assoc=4)
    per_set: dict[int, set[int]] = {}
    for line in lines:
        per_set.setdefault(id(cache._set_for(line)), set()).add(line)
    if any(len(s) > 4 for s in per_set.values()):
        return  # working set exceeds a set; no guarantee
    for line in lines:
        cache.access(line)
    for line in set(lines):
        assert cache.probe(line)
