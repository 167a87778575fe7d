"""Common interfaces for cache-line compression algorithms.

The CABA paper performs bandwidth compression at cache-line granularity:
every algorithm here consumes the raw bytes of one cache line and produces
a :class:`CompressedLine` describing the compressed size (which determines
how many DRAM bursts and interconnect flits the line occupies) together
with enough state to reconstruct the original bytes exactly.

All algorithms are lossless; ``decompress(compress(data)) == data`` is an
invariant enforced by the test suite (including property-based tests).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Sequence

#: DRAM burst granularity used throughout the paper (GDDR5, Section 4.1.3).
BURST_BYTES = 32

#: Default cache-line size used by the simulated memory hierarchy.
DEFAULT_LINE_SIZE = 128


class CompressionError(ValueError):
    """Raised when a line cannot be handled by a compression routine."""


@dataclass(frozen=True, slots=True)
class CompressedLine:
    """The result of compressing one cache line.

    Attributes:
        algorithm: Name of the algorithm that produced this line.
        encoding: Algorithm-specific encoding identifier (e.g. ``"B8D1"``
            for BDI base-8 delta-1). ``"uncompressed"`` marks a line the
            algorithm could not shrink.
        size_bytes: Compressed size in bytes, *including* any in-line
            metadata the algorithm stores at the head of the line.
        line_size: Size of the original (uncompressed) line in bytes.
        state: Opaque algorithm-specific payload used by ``decompress``.
    """

    algorithm: str
    encoding: str
    size_bytes: int
    line_size: int
    state: Any = field(repr=False, default=None)

    @property
    def is_compressed(self) -> bool:
        """Whether the line is stored in compressed form."""
        return self.encoding != "uncompressed"

    @property
    def compression_ratio(self) -> float:
        """Uncompressed size divided by compressed size."""
        return self.line_size / self.size_bytes

    def bursts(self, burst_bytes: int = BURST_BYTES) -> int:
        """Number of DRAM bursts needed to transfer this line."""
        return bursts_for(self.size_bytes, burst_bytes)

    def burst_ratio(self, burst_bytes: int = BURST_BYTES) -> float:
        """Uncompressed bursts divided by compressed bursts.

        This is the paper's definition of compression ratio: "the ratio of
        the number of DRAM bursts required to transfer data in the
        compressed vs. uncompressed form" (Section 5).
        """
        return bursts_for(self.line_size, burst_bytes) / self.bursts(burst_bytes)


def bursts_for(size_bytes: int, burst_bytes: int = BURST_BYTES) -> int:
    """Number of fixed-size bursts needed for ``size_bytes`` of data."""
    if size_bytes <= 0:
        raise CompressionError(f"non-positive transfer size: {size_bytes}")
    return math.ceil(size_bytes / burst_bytes)


class CompressionAlgorithm(ABC):
    """Abstract base class for cache-line compression algorithms.

    Subclasses provide byte-exact ``compress``/``decompress`` plus the
    latency parameters used by the dedicated-hardware design points
    (``HW-BDI`` et al.). The CABA design points do *not* use these fixed
    latencies: there, latency emerges from executing the assist-warp
    subroutine through the simulated pipelines.
    """

    #: Short identifier, e.g. ``"bdi"``.
    name: str = "abstract"

    #: Decompression latency (cycles) of a dedicated hardware unit.
    hw_decompression_latency: int = 1

    #: Compression latency (cycles) of a dedicated hardware unit.
    hw_compression_latency: int = 5

    def __init__(self, line_size: int = DEFAULT_LINE_SIZE) -> None:
        if line_size <= 0 or line_size % 8 != 0:
            raise CompressionError(
                f"line size must be a positive multiple of 8, got {line_size}"
            )
        self.line_size = line_size

    def compress(self, data: bytes) -> CompressedLine:
        """Compress one cache line worth of bytes.

        Never fails: if no encoding applies, the returned line uses the
        ``"uncompressed"`` encoding with ``size_bytes == line_size``.
        """
        self._check_input(data)
        return self._compress_line(data)

    @abstractmethod
    def _compress_line(self, data: bytes) -> CompressedLine:
        """Single-line compression core; ``data`` is already validated."""

    @abstractmethod
    def decompress(self, line: CompressedLine) -> bytes:
        """Reconstruct the exact original bytes of ``line``."""

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------
    def size_table(self, lines: Sequence[bytes]) -> list[tuple[int, str]]:
        """``(size_bytes, encoding)`` of every line in ``lines``.

        This is the timing-only view the simulator's memory model needs
        (compressed size drives bursts and flits; the bytes themselves
        do not). Algorithms override :meth:`_size_table` with one
        whole-image kernel each that is exactly equivalent to
        ``compress()``: vectorized under numpy for BDI and FPC (the
        reference below without numpy), a size-only loop for C-Pack.
        """
        self._check_batch(lines)
        return self._size_table(list(lines))

    def _size_table(self, lines: list[bytes]) -> list[tuple[int, str]]:
        """Reference batch kernel: one scalar compression per line."""
        compress = self._compress_line
        return [
            (line.size_bytes, line.encoding)
            for line in map(compress, lines)
        ]

    def _check_batch(self, lines: Sequence[bytes]) -> None:
        """Validate a whole batch in one pass (hot loops skip rechecks)."""
        size = self.line_size
        for index, data in enumerate(lines):
            if len(data) != size:
                raise CompressionError(
                    f"{self.name}: line {index} has {len(data)} bytes, "
                    f"expected {size}"
                )

    def _check_input(self, data: bytes) -> None:
        if len(data) != self.line_size:
            raise CompressionError(
                f"{self.name}: expected a {self.line_size}-byte line, "
                f"got {len(data)} bytes"
            )

    def _check_line(self, line: CompressedLine) -> None:
        if line.algorithm != self.name:
            raise CompressionError(
                f"cannot decompress a {line.algorithm!r} line with {self.name!r}"
            )
        if line.line_size != self.line_size:
            raise CompressionError(
                f"{self.name}: line size mismatch "
                f"({line.line_size} != {self.line_size})"
            )

    def _uncompressed(self, data: bytes) -> CompressedLine:
        """A passthrough result for incompressible data."""
        return CompressedLine(
            algorithm=self.name,
            encoding="uncompressed",
            size_bytes=self.line_size,
            line_size=self.line_size,
            state=bytes(data),
        )
