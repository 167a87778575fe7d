"""The compression metadata (MD) cache of Section 4.3.2.

With bandwidth compression the memory controller must know how many
bursts each line occupies *before* reading it. The paper reserves ~8 MB
of DRAM for per-line burst-count metadata and fronts it with a small
8 KB 4-way MD cache near the controller; an MD miss costs one extra DRAM
access. The paper reports an 85% average hit rate (>99% for many
applications), making the second DRAM access rare.

One metadata cache line covers ``lines_per_entry`` consecutive data
lines (4 bits of burst count per line), which is where the MD cache's
spatial locality — and its high hit rate on streaming workloads — comes
from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import Cache


@dataclass(frozen=True)
class MdLookup:
    """Outcome of one metadata lookup."""

    hit: bool
    #: Extra DRAM bursts needed to fetch the metadata line on a miss.
    extra_bursts: int


class MetadataCache:
    """The on-chip cache of per-line compression metadata.

    Args:
        size_bytes: Total capacity (paper: 8 KB).
        assoc: Associativity (paper: 4).
        entry_bytes: Metadata cache line size.
        lines_per_entry: Data lines covered by one metadata entry.
    """

    def __init__(
        self,
        size_bytes: int = 8 * 1024,
        assoc: int = 4,
        entry_bytes: int = 64,
        lines_per_entry: int = 128,
    ) -> None:
        n_entries = size_bytes // entry_bytes
        n_sets = max(1, n_entries // assoc)
        self._cache = Cache(n_sets=n_sets, assoc=assoc, name="md-cache")
        self.lines_per_entry = lines_per_entry
        self.entry_bytes = entry_bytes
        # The two (immutable) lookup outcomes: a miss fetches one
        # metadata line, rounded up to whole 32 B bursts.
        self._hit = MdLookup(hit=True, extra_bursts=0)
        self._miss = MdLookup(
            hit=False, extra_bursts=max(1, -(-entry_bytes // 32))
        )

    def lookup(self, line: int) -> MdLookup:
        """Consult the metadata for data line ``line``.

        A miss allocates the metadata entry and reports one extra DRAM
        burst's worth of traffic (a 64 B metadata line fits in two 32 B
        bursts; we charge the transfer rounded up from ``entry_bytes``).
        """
        entry = line // self.lines_per_entry
        if self._cache.access(entry).hit:
            return self._hit
        return self._miss

    @property
    def hit_rate(self) -> float:
        return self._cache.stats.hit_rate

    @property
    def accesses(self) -> int:
        return self._cache.stats.accesses

    @property
    def misses(self) -> int:
        return self._cache.stats.misses
