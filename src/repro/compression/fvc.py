"""Frequent Value Compression (FVC).

FVC (Yang & Gupta, MICRO 2000 — the paper's citation [84]) observes that
a small number of distinct 32-bit values account for a large share of
all memory traffic. A small *frequent-value table*, profiled per
application, lets each word be stored as a short index when it matches
a table entry, or verbatim otherwise; a per-word flag bit selects.

This is the kind of algorithm CABA makes cheap to add: no new hardware,
just another assist-warp subroutine (a table lookup per word). The
table here can either be the built-in default (values frequent in
almost every program: 0, ±1, small powers of two, all-ones) or trained
on sample lines with :meth:`FvcCompressor.train`, mirroring the
profiling step of the original proposal.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.compression import batch
from repro.compression.base import (
    CompressedLine,
    CompressionAlgorithm,
    CompressionError,
    DEFAULT_LINE_SIZE,
)

#: Frequent values present in virtually every workload.
DEFAULT_TABLE: tuple[int, ...] = (
    0x00000000, 0x00000001, 0xFFFFFFFF, 0x00000002,
    0x00000004, 0x00000008, 0x00000010, 0x80000000,
)


@dataclass(frozen=True)
class _Symbol:
    """One encoded word: a table index or a verbatim value."""

    in_table: bool
    payload: int  # table index, or the raw 32-bit word


class FvcCompressor(CompressionAlgorithm):
    """Frequent Value Compression over one cache line.

    Args:
        line_size: Uncompressed line size in bytes (multiple of 4).
        table: Frequent-value table (its length fixes the index width).
    """

    name = "fvc"
    # A single table lookup per word: fast hardware, slightly behind BDI.
    hw_decompression_latency = 2
    hw_compression_latency = 6

    def __init__(
        self,
        line_size: int = DEFAULT_LINE_SIZE,
        table: Sequence[int] = DEFAULT_TABLE,
    ) -> None:
        super().__init__(line_size)
        if not table:
            raise CompressionError("FVC needs a non-empty value table")
        self.table = tuple(v & 0xFFFFFFFF for v in table)
        if len(set(self.table)) != len(self.table):
            raise CompressionError("FVC table entries must be distinct")
        self._index = {v: i for i, v in enumerate(self.table)}
        self.index_bits = max(1, math.ceil(math.log2(len(self.table))))

    # ------------------------------------------------------------------
    # Profiling (Section 4.3.1-style one-time data setup)
    # ------------------------------------------------------------------
    def train(self, lines: Iterable[bytes]) -> "FvcCompressor":
        """Build a new compressor whose table holds the most frequent
        words of the sample ``lines`` (same table size)."""
        counts: Counter[int] = Counter()
        for line in lines:
            if len(line) != self.line_size:
                raise CompressionError(
                    f"training line has {len(line)} bytes, "
                    f"expected {self.line_size}"
                )
            for offset in range(0, self.line_size, 4):
                counts[int.from_bytes(line[offset:offset + 4], "little")] += 1
        most_common = [value for value, _ in counts.most_common(len(self.table))]
        while len(most_common) < len(self.table):
            filler = next(
                v for v in DEFAULT_TABLE + tuple(range(256))
                if v not in most_common
            )
            most_common.append(filler)
        return FvcCompressor(self.line_size, most_common)

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def _compress_line(self, data: bytes) -> CompressedLine:
        symbols: list[_Symbol] = []
        bits = 0
        for offset in range(0, self.line_size, 4):
            word = int.from_bytes(data[offset:offset + 4], "little")
            index = self._index.get(word)
            if index is not None:
                symbols.append(_Symbol(True, index))
                bits += 1 + self.index_bits
            else:
                symbols.append(_Symbol(False, word))
                bits += 1 + 32
        size = max(1, math.ceil(bits / 8))
        if size >= self.line_size:
            return self._uncompressed(data)
        return CompressedLine(
            algorithm=self.name,
            encoding="fvc",
            size_bytes=size,
            line_size=self.line_size,
            state=tuple(symbols),
        )

    # ------------------------------------------------------------------
    # Batch size kernel
    # ------------------------------------------------------------------
    def _size_table(self, lines: list[bytes]) -> list[tuple[int, str]]:
        """Vectorized whole-image kernel; without numpy, the reference."""
        np = batch.np
        if np is None or not lines:
            return super()._size_table(lines)
        line_size = self.line_size
        words = batch.word_matrix(lines, 4)
        in_table = np.zeros(words.shape, dtype=bool)
        for value in self.table:
            in_table |= words == value
        n_words = words.shape[1]
        hits = in_table.sum(axis=1)
        bits = n_words + hits * self.index_bits + (n_words - hits) * 32
        sizes = np.maximum(1, (bits + 7) // 8).tolist()
        return [
            (size, "fvc") if size < line_size else (line_size, "uncompressed")
            for size in sizes
        ]

    # ------------------------------------------------------------------
    # Decompression
    # ------------------------------------------------------------------
    def decompress(self, line: CompressedLine) -> bytes:
        self._check_line(line)
        if line.encoding == "uncompressed":
            return bytes(line.state)
        out = bytearray()
        for symbol in line.state:
            word = (
                self.table[symbol.payload] if symbol.in_table
                else symbol.payload
            )
            out += word.to_bytes(4, "little")
        return bytes(out)
