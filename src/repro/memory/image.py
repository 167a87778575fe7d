"""The compressed view of global memory.

The paper prepares input data in compressed form before transferring it
to the GPU (Section 4.3.1), so every global-memory line has a compressed
size from the outset. :class:`MemoryImage` provides that view: a
compressed image reads each line's size and encoding from the
:class:`~repro.memory.plane.CompressionPlane` batch-built over the run's
footprint, and never compresses a line itself. Store-written lines can
override their recorded size (e.g. when CABA's compression assist warp
was throttled and the line went back uncompressed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.compression.base import CompressionAlgorithm, bursts_for


class UncoveredLineError(LookupError):
    """A compressed image was asked for a line its plane does not cover."""


@dataclass(frozen=True)
class LineInfo:
    """Compressed-size record for one global-memory line."""

    size_bytes: int
    encoding: str

    @property
    def is_compressed(self) -> bool:
        return self.encoding != "uncompressed"


@lru_cache(maxsize=None)
def line_info(size_bytes: int, encoding: str) -> LineInfo:
    """The one shared :class:`LineInfo` of a ``(size, encoding)`` pair.

    A run touches tens of thousands of lines but sees at most one pair
    per stored size and encoding, so every image's per-line memo holds
    references to these instead of one record per line.
    """
    return LineInfo(size_bytes, encoding)


class MemoryImage:
    """Per-line compressed sizes of the simulated global memory.

    Args:
        algorithm: Active compression algorithm, or ``None`` for the
            uncompressed baseline.
        line_size: Line size in bytes.
        burst_bytes: DRAM burst granularity.
        plane: The :class:`~repro.memory.plane.CompressionPlane` of
            ``algorithm`` over every line the run can touch; required
            when ``algorithm`` is given, ignored otherwise.
    """

    def __init__(
        self,
        algorithm: CompressionAlgorithm | None,
        line_size: int = 128,
        burst_bytes: int = 32,
        plane=None,
    ) -> None:
        if algorithm is not None:
            if algorithm.line_size != line_size:
                raise ValueError(
                    f"algorithm line size {algorithm.line_size} != "
                    f"{line_size}"
                )
            if plane is None:
                raise ValueError(
                    f"a {algorithm.name} image needs its compression plane"
                )
        self.algorithm = algorithm
        self.line_size = line_size
        self.burst_bytes = burst_bytes
        self._cache: dict[int, LineInfo] = {}
        self._overrides: dict[int, LineInfo] = {}
        self.plane = plane if algorithm is not None else None

    # ------------------------------------------------------------------
    @property
    def compression_enabled(self) -> bool:
        return self.algorithm is not None

    def info(self, line: int) -> LineInfo:
        """Compressed size and encoding of ``line`` as currently stored."""
        override = self._overrides.get(line)
        if override is not None:
            return override
        return self._baseline_info(line)

    def _baseline_info(self, line: int) -> LineInfo:
        cached = self._cache.get(line)
        if cached is not None:
            return cached
        if self.algorithm is None:
            info = line_info(self.line_size, "uncompressed")
        else:
            # Planes are consulted per lookup (never bulk-copied) so the
            # touched-line set — and with it every aggregate statistic —
            # holds only the lines the run looked up.
            info = self.plane.info(line)
            if info is None:
                raise UncoveredLineError(
                    f"line {line} is outside the {self.algorithm.name} "
                    f"plane ({len(self.plane)} lines)"
                )
        self._cache[line] = info
        return info

    def size_of(self, line: int) -> int:
        return self.info(line).size_bytes

    def bursts_of(self, line: int) -> int:
        return bursts_for(self.info(line).size_bytes, self.burst_bytes)

    @property
    def line_bursts(self) -> int:
        """Bursts for a full uncompressed line."""
        return bursts_for(self.line_size, self.burst_bytes)

    # ------------------------------------------------------------------
    # Store-side updates
    # ------------------------------------------------------------------
    def record_store(self, line: int, compressed: bool) -> LineInfo:
        """Record the stored form of ``line`` after a writeback.

        When ``compressed`` the line keeps its algorithmic size (stored
        data is assumed to follow the application's data patterns, as the
        baseline image does); otherwise the line is marked uncompressed
        until a later compressed store replaces it.
        """
        if compressed and self.algorithm is not None:
            info = self._baseline_info(line)
        else:
            info = line_info(self.line_size, "uncompressed")
        self._overrides[line] = info
        return info

    # ------------------------------------------------------------------
    # Aggregate statistics (used by the Fig. 11 harness)
    # ------------------------------------------------------------------
    def observed_compression_ratio(self) -> float:
        """Burst-weighted compression ratio over every line touched so far."""
        seen = {**self._cache, **self._overrides}
        if not seen:
            return 1.0
        uncompressed = len(seen) * self.line_bursts
        compressed = sum(
            bursts_for(info.size_bytes, self.burst_bytes) for info in seen.values()
        )
        return uncompressed / compressed

    def lines_touched(self) -> int:
        return len({**self._cache, **self._overrides})
