"""Set-associative tag-store model with LRU replacement.

Used for the L1s, the L2 banks and the compression metadata (MD) cache.
Only tags and dirty bits are modelled; data contents live in the
:class:`~repro.memory.image.MemoryImage`. Addresses handed to this class
are already in *line* units (byte address divided by line size).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class AccessResult(NamedTuple):
    """Outcome of one tag access. A named tuple, not a frozen dataclass:
    most misses evict, and a tuple is several times cheaper to build."""

    hit: bool
    evicted_line: int | None = None
    evicted_dirty: bool = False


# The two outcomes without a victim are shared.
_HIT = AccessResult(True)
_MISS = AccessResult(False)


class Cache:
    """A set-associative cache tag store.

    Args:
        n_sets: Number of sets (power of two not required).
        assoc: Ways per set.
        name: Label used in diagnostics.
    """

    def __init__(self, n_sets: int, assoc: int, name: str = "cache") -> None:
        if n_sets < 1 or assoc < 1:
            raise ValueError(f"{name}: need n_sets >= 1 and assoc >= 1")
        self.n_sets = n_sets
        self.assoc = assoc
        self.name = name
        self.stats = CacheStats()
        # set index -> OrderedDict[line -> dirty]; LRU at the front.
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(n_sets)
        ]

    def _set_for(self, line: int) -> OrderedDict[int, bool]:
        # XOR-folded set index (as in GPGPU-Sim's hashed set functions):
        # plain modulo pathologically aliases strided / large-offset
        # streams into a couple of sets.
        return self._sets[(line ^ (line >> 7) ^ (line >> 15)) % self.n_sets]

    def probe(self, line: int) -> bool:
        """Tag check without any state change."""
        return line in self._set_for(line)

    def hit(self, line: int) -> bool:
        """Count a hit on ``line`` and make it MRU, as :meth:`access`
        does; a miss changes nothing (not even the counts), so a caller
        that cannot track the miss yet allocates nothing."""
        target = self._sets[(line ^ (line >> 7) ^ (line >> 15)) % self.n_sets]
        if line in target:
            stats = self.stats
            stats.accesses += 1
            stats.hits += 1
            target.move_to_end(line)
            return True
        return False

    def access(
        self, line: int, is_write: bool = False, allocate: bool = True
    ) -> AccessResult:
        """Look up ``line``, update LRU, optionally allocate on miss.

        Returns the hit flag and, on an allocating miss that evicts,
        the victim line and its dirty bit (the caller turns dirty
        victims into writeback traffic).
        """
        target = self._sets[(line ^ (line >> 7) ^ (line >> 15)) % self.n_sets]
        stats = self.stats
        stats.accesses += 1
        if line in target:
            stats.hits += 1
            target.move_to_end(line)
            if is_write:
                target[line] = True
            return _HIT
        stats.misses += 1
        if not allocate:
            return _MISS
        if len(target) < self.assoc:
            target[line] = is_write
            return _MISS
        evicted_line, evicted_dirty = target.popitem(last=False)
        stats.evictions += 1
        if evicted_dirty:
            stats.dirty_evictions += 1
        target[line] = is_write
        return AccessResult(False, evicted_line, evicted_dirty)

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present (write-evict policy); returns presence."""
        target = self._set_for(line)
        if line in target:
            del target[line]
            return True
        return False

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
