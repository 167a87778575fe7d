"""Tag-extended compressed caches (Section 6.5, Figure 13).

Bandwidth compression alone gives no capacity benefit: a compressed line
still occupies a full slot. The Fig. 13 designs additionally provision
2x or 4x the tags so several compressed lines can share the data space
of one uncompressed slot. The model keeps per-set byte budgets equal to
the uncompressed data array and admits up to ``assoc * tag_mult`` tagged
lines per set as long as their compressed sizes fit — the standard
"number of tags limits the effective compressed cache size" model the
paper cites from BDI/Adaptive Cache Compression.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.memory.cache import CacheStats


class CompressedAccessResult(NamedTuple):
    """Outcome of a compressed-cache access; may evict several victims."""

    hit: bool
    evicted: tuple[tuple[int, bool], ...] = ()  # (line, dirty)


_HIT = CompressedAccessResult(True)
_MISS = CompressedAccessResult(False)


@dataclass(slots=True)
class _Entry:
    dirty: bool
    size: int


class CompressedCache:
    """A set-associative cache whose lines occupy their compressed size.

    Args:
        n_sets: Sets, as in the uncompressed organization.
        assoc: *Data* ways per set (the byte budget is ``assoc * line_size``).
        line_size: Uncompressed line size.
        tag_mult: Tag multiplier (2x/4x in the paper).
    """

    def __init__(
        self, n_sets: int, assoc: int, line_size: int, tag_mult: int = 2
    ) -> None:
        if tag_mult < 1:
            raise ValueError("tag_mult must be >= 1")
        self.n_sets = n_sets
        self.assoc = assoc
        self.line_size = line_size
        self.tag_mult = tag_mult
        self.max_tags = assoc * tag_mult
        self.data_budget = assoc * line_size
        self.stats = CacheStats()
        self._sets: list[OrderedDict[int, _Entry]] = [
            OrderedDict() for _ in range(n_sets)
        ]
        #: Bytes in use per set, maintained incrementally so misses do
        #: not re-sum the whole set on every allocation.
        self._used: list[int] = [0] * n_sets

    def _set_index(self, line: int) -> int:
        # Same XOR-folded set hashing as the plain Cache model.
        return (line ^ (line >> 7) ^ (line >> 15)) % self.n_sets

    def _set_for(self, line: int) -> OrderedDict[int, _Entry]:
        return self._sets[self._set_index(line)]

    def hit(self, line: int) -> bool:
        """Count a hit on ``line`` and make it MRU, as :meth:`access`
        does; a miss changes nothing. The hit line keeps its stored size
        until :meth:`resize`."""
        target = self._sets[(line ^ (line >> 7) ^ (line >> 15)) % self.n_sets]
        if line in target:
            self.stats.accesses += 1
            self.stats.hits += 1
            target.move_to_end(line)
            return True
        return False

    def resize(self, line: int, size: int) -> tuple[tuple[int, bool], ...]:
        """Store resident ``line`` at ``size`` bytes; returns the LRU
        victims evicted to fit it (see :meth:`access`)."""
        if not 1 <= size <= self.line_size:
            raise ValueError(f"bad compressed size {size}")
        index = self._set_index(line)
        return self._resize(index, self._sets[index][line], size)

    def stored_size(self, line: int) -> int | None:
        """Compressed size the cache holds for ``line`` (None if absent)."""
        entry = self._set_for(line).get(line)
        return entry.size if entry is not None else None

    def access(
        self,
        line: int,
        size: int,
        is_write: bool = False,
        allocate: bool = True,
    ) -> CompressedAccessResult:
        """Look up ``line``; on an allocating miss, insert its compressed
        ``size`` bytes, evicting LRU lines until both the tag count and the
        byte budget fit."""
        if not 1 <= size <= self.line_size:
            raise ValueError(f"bad compressed size {size}")
        index = (line ^ (line >> 7) ^ (line >> 15)) % self.n_sets
        target = self._sets[index]
        self.stats.accesses += 1
        entry = target.get(line)
        if entry is not None:
            self.stats.hits += 1
            target.move_to_end(line)
            if is_write:
                entry.dirty = True
            evicted = self._resize(index, entry, size)
            return CompressedAccessResult(True, evicted) if evicted else _HIT
        self.stats.misses += 1
        if not allocate:
            return _MISS
        evicted = self._make_room(index, size)
        target[line] = _Entry(is_write, size)
        self._used[index] += size
        if evicted:
            return CompressedAccessResult(False, tuple(evicted))
        return _MISS

    def _resize(
        self, index: int, entry: _Entry, size: int
    ) -> tuple[tuple[int, bool], ...]:
        """Set a resident MRU ``entry`` to ``size`` bytes."""
        self._used[index] += size - entry.size
        entry.size = size
        if self._used[index] <= self.data_budget:
            return ()
        # A line growing in place can push the set over its byte
        # budget; evict LRU lines until it fits again. The hit line
        # is MRU and fits on its own, so it is never its own victim.
        target = self._sets[index]
        evicted: list[tuple[int, bool]] = []
        used = self._used[index]
        while used > self.data_budget:
            victim_line, victim = target.popitem(last=False)
            used -= victim.size
            evicted.append((victim_line, victim.dirty))
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
        self._used[index] = used
        return tuple(evicted)

    def _make_room(self, index: int, size: int) -> list[tuple[int, bool]]:
        target = self._sets[index]
        evicted: list[tuple[int, bool]] = []
        used = self._used[index]
        while target and (
            len(target) >= self.max_tags or used + size > self.data_budget
        ):
            victim_line, victim = target.popitem(last=False)
            used -= victim.size
            evicted.append((victim_line, victim.dirty))
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
        self._used[index] = used
        return evicted

    def invalidate(self, line: int) -> bool:
        index = self._set_index(line)
        target = self._sets[index]
        entry = target.pop(line, None)
        if entry is not None:
            self._used[index] -= entry.size
            return True
        return False

    def audit(self) -> list[str]:
        """Check internal invariants; return a list of violation strings.

        Empty list = healthy. Used by the ``repro check`` differential
        harness to assert that no set ever exceeds its byte budget or
        tag count and that the incremental ``_used`` accounting matches
        a from-scratch re-sum of the entries.
        """
        problems: list[str] = []
        for index, target in enumerate(self._sets):
            actual = sum(entry.size for entry in target.values())
            if actual != self._used[index]:
                problems.append(
                    f"set {index}: tracked used={self._used[index]} "
                    f"but entries sum to {actual}"
                )
            if self._used[index] > self.data_budget:
                problems.append(
                    f"set {index}: used {self._used[index]} exceeds "
                    f"data budget {self.data_budget}"
                )
            if len(target) > self.max_tags:
                problems.append(
                    f"set {index}: {len(target)} tags exceed "
                    f"max_tags {self.max_tags}"
                )
            for line, entry in target.items():
                if not 1 <= entry.size <= self.line_size:
                    problems.append(
                        f"set {index}: line {line} has bad size "
                        f"{entry.size}"
                    )
        return problems

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def occupancy(self) -> float:
        """Fraction of the data budget in use (mean over sets)."""
        if not self._sets:
            return 0.0
        used = sum(self._used)
        return used / (self.data_budget * len(self._sets))
