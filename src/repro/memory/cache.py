"""Set-associative tag-store model with LRU replacement.

Used for the L1s, the L2 banks and the compression metadata (MD) cache.
Only tags and dirty bits are modelled; data contents live in the
:class:`~repro.memory.image.MemoryImage`. Addresses handed to this class
are already in *line* units (byte address divided by line size).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


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


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one tag access."""

    hit: bool
    evicted_line: int | None = None
    evicted_dirty: bool = False


# Results are immutable, so the two outcomes without a victim are shared
# (tag accesses run several times per memory request).
_HIT = AccessResult(hit=True)
_MISS = AccessResult(hit=False)


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

    def access(
        self, line: int, is_write: bool = False, allocate: bool = True
    ) -> AccessResult:
        """Look up ``line``, update LRU, optionally allocate on miss.

        Returns the hit flag and, on an allocating miss that evicts,
        the victim line and its dirty bit (the caller turns dirty
        victims into writeback traffic).
        """
        target = self._set_for(line)
        self.stats.accesses += 1
        if line in target:
            self.stats.hits += 1
            target.move_to_end(line)
            if is_write:
                target[line] = True
            return _HIT
        self.stats.misses += 1
        if not allocate:
            return _MISS
        evicted_line: int | None = None
        evicted_dirty = False
        if len(target) >= self.assoc:
            evicted_line, evicted_dirty = target.popitem(last=False)
            self.stats.evictions += 1
            if evicted_dirty:
                self.stats.dirty_evictions += 1
        target[line] = is_write
        if evicted_line is None:
            return _MISS
        return AccessResult(
            hit=False, evicted_line=evicted_line, evicted_dirty=evicted_dirty
        )

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present (write-evict policy); returns presence."""
        target = self._set_for(line)
        if line in target:
            del target[line]
            return True
        return False

    def fill(self, line: int, dirty: bool = False) -> AccessResult:
        """Insert ``line`` without counting a demand access (e.g. refills)."""
        target = self._set_for(line)
        if line in target:
            target.move_to_end(line)
            target[line] = target[line] or dirty
            return _HIT
        evicted_line: int | None = None
        evicted_dirty = False
        if len(target) >= self.assoc:
            evicted_line, evicted_dirty = target.popitem(last=False)
            self.stats.evictions += 1
            if evicted_dirty:
                self.stats.dirty_evictions += 1
        target[line] = dirty
        return AccessResult(
            hit=False, evicted_line=evicted_line, evicted_dirty=evicted_dirty
        )

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
