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
from itertools import compress

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

    A plane holds a few distinct pairs over tens of thousands of lines,
    so every plane entry and store override refers to one of these
    instead of one record per line.
    """
    return LineInfo(size_bytes, encoding)


class MemoryImage:
    """Per-line compressed sizes of the simulated global memory.

    A compressed image keeps two pieces of per-line state: one touched
    flag per plane line (set when a lookup reads the line's baseline
    record) and an override per store-written line. An image without an
    algorithm keeps none: every line is a full uncompressed line.

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
        self.plane = plane if algorithm is not None else None
        self._uncompressed = line_info(line_size, "uncompressed")
        self._overrides: dict[int, LineInfo] = {}
        # Planes are consulted per lookup (never bulk-copied) so the
        # touched lines — and with them every aggregate statistic — are
        # only the lines the run looked up.
        self._touched = (
            [bytearray(len(codes)) for codes in self.plane.codes]
            if self.plane is not None else []
        )

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
        plane = self.plane
        if plane is None:
            return self._uncompressed
        at = plane.locate(line)
        if at is None:
            raise UncoveredLineError(
                f"line {line} is outside the {self.algorithm.name} "
                f"plane ({len(plane)} lines)"
            )
        extent, offset = at
        self._touched[extent][offset] = 1
        return plane.entries[plane.codes[extent][offset]][3]

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
        until a later compressed store replaces it. An uncompressed
        image records nothing: every line already reads uncompressed.
        """
        if self.plane is None:
            return self._uncompressed
        if compressed:
            info = self._baseline_info(line)
        else:
            info = self._uncompressed
        self._overrides[line] = info
        return info

    # ------------------------------------------------------------------
    # Aggregate statistics (the run's compression ratio)
    # ------------------------------------------------------------------
    def touched_compression_ratio(self) -> float:
        """Burst-weighted compression ratio over every line looked up or
        stored so far (1.0 before any, and always 1.0 uncompressed)."""
        lines = self.touched_lines()
        if not lines:
            return 1.0
        return len(lines) * self.line_bursts / sum(map(self.bursts_of, lines))

    def touched_lines(self) -> list[int]:
        """Every line looked up or stored so far, ascending (none for an
        uncompressed image, which keeps no per-line state)."""
        if self.plane is None:
            return []
        lines = set(self._overrides)
        for (base, count), flags in zip(self.plane.extents, self._touched):
            lines.update(compress(range(base, base + count), flags))
        return sorted(lines)
