"""Frequent Pattern Compression (FPC).

FPC (Alameldeen & Wood, 2004) compresses each 32-bit word of a cache line
independently by matching it against a small set of frequent patterns —
runs of zeros, narrow sign-extended values, halfword forms and repeated
bytes. Each emitted symbol carries a 3-bit prefix naming the pattern plus
a variable-length payload.

The CABA paper maps FPC onto assist warps (Section 4.1.3) with two
adaptations, both supported here: a *reduced* encoding set (a few patterns
capture almost all redundancy, and bandwidth benefits only materialize at
32-byte burst granularity) and metadata hoisted to the head of the line so
an entire line's decompression strategy is known upfront. The metadata
reorganization does not change the compressed size, so this module models
it simply by exposing per-line prefix information in the compressed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.compression import batch
from repro.compression.base import (
    CompressedLine,
    CompressionAlgorithm,
    DEFAULT_LINE_SIZE,
)

#: Bits used by the pattern selector in front of every symbol.
PREFIX_BITS = 3

#: Maximum run length representable by the zero-run pattern.
MAX_ZERO_RUN = 8


@dataclass(frozen=True)
class FpcPattern:
    """One FPC word pattern: prefix code, payload width and a matcher."""

    name: str
    payload_bits: int


ZERO_RUN = FpcPattern("zero_run", 3)
SIGNED_4BIT = FpcPattern("signed_4bit", 4)
SIGNED_1BYTE = FpcPattern("signed_1byte", 8)
SIGNED_HALFWORD = FpcPattern("signed_halfword", 16)
ZERO_PADDED_HALFWORD = FpcPattern("zero_padded_halfword", 16)
TWO_SIGNED_BYTES = FpcPattern("two_signed_bytes", 16)
REPEATED_BYTES = FpcPattern("repeated_bytes", 8)
UNCOMPRESSED_WORD = FpcPattern("uncompressed", 32)

#: The full pattern set of the original proposal.
FPC_PATTERNS: tuple[FpcPattern, ...] = (
    ZERO_RUN,
    SIGNED_4BIT,
    SIGNED_1BYTE,
    SIGNED_HALFWORD,
    ZERO_PADDED_HALFWORD,
    TWO_SIGNED_BYTES,
    REPEATED_BYTES,
    UNCOMPRESSED_WORD,
)

#: The reduced set used when mapping FPC onto CABA assist warps: fewer
#: encodings shorten the subroutine with negligible ratio loss.
FPC_REDUCED_PATTERNS: tuple[FpcPattern, ...] = (
    ZERO_RUN,
    SIGNED_1BYTE,
    SIGNED_HALFWORD,
    REPEATED_BYTES,
    UNCOMPRESSED_WORD,
)


def _to_signed(value: int, bits: int) -> int:
    """Reinterpret an unsigned field as two's complement."""
    sign = 1 << (bits - 1)
    return value - (1 << bits) if value & sign else value


def _fits_signed(value: int, bits: int) -> bool:
    bound = 1 << (bits - 1)
    return -bound <= _to_signed(value & 0xFFFFFFFF, 32) < bound


@dataclass(frozen=True)
class _Symbol:
    """One emitted FPC symbol: which pattern, plus raw payload value(s)."""

    pattern: FpcPattern
    payload: int  # pattern-specific packed payload


class FpcCompressor(CompressionAlgorithm):
    """Frequent Pattern Compression over one cache line.

    Args:
        line_size: Uncompressed line size in bytes (multiple of 4).
        patterns: Pattern subset to use; :data:`FPC_REDUCED_PATTERNS`
            models the CABA-adapted variant.
    """

    name = "fpc"
    # FPC's serial variable-length parse makes dedicated hardware slower
    # than BDI's (the CABA paper notes FPC's higher latency when comparing
    # CABA-BDI and CABA-FPC on LPS in Section 6.3).
    hw_decompression_latency = 5
    hw_compression_latency = 8

    def __init__(
        self,
        line_size: int = DEFAULT_LINE_SIZE,
        patterns: Sequence[FpcPattern] = FPC_PATTERNS,
    ) -> None:
        super().__init__(line_size)
        self.patterns = tuple(patterns)
        self._enabled = {p.name for p in patterns}

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def _compress_line(self, data: bytes) -> CompressedLine:
        words = [
            int.from_bytes(data[i : i + 4], "little")
            for i in range(0, self.line_size, 4)
        ]
        symbols: list[_Symbol] = []
        bits = 0
        i = 0
        while i < len(words):
            symbol, consumed = self._encode_at(words, i)
            symbols.append(symbol)
            bits += PREFIX_BITS + symbol.pattern.payload_bits
            i += consumed
        size = max(1, math.ceil(bits / 8))
        if size >= self.line_size:
            return self._uncompressed(data)
        return CompressedLine(
            algorithm=self.name,
            encoding="fpc",
            size_bytes=size,
            line_size=self.line_size,
            state=tuple(symbols),
        )

    def _encode_at(self, words: list[int], i: int) -> tuple[_Symbol, int]:
        """Encode the word(s) at position ``i``; returns (symbol, consumed)."""
        word = words[i]
        if "zero_run" in self._enabled and word == 0:
            run = 1
            while (
                run < MAX_ZERO_RUN
                and i + run < len(words)
                and words[i + run] == 0
            ):
                run += 1
            return _Symbol(ZERO_RUN, run), run
        if "signed_4bit" in self._enabled and _fits_signed(word, 4):
            return _Symbol(SIGNED_4BIT, word), 1
        if "signed_1byte" in self._enabled and _fits_signed(word, 8):
            return _Symbol(SIGNED_1BYTE, word), 1
        if "signed_halfword" in self._enabled and _fits_signed(word, 16):
            return _Symbol(SIGNED_HALFWORD, word), 1
        if "zero_padded_halfword" in self._enabled and word & 0xFFFF == 0:
            return _Symbol(ZERO_PADDED_HALFWORD, word >> 16), 1
        if "two_signed_bytes" in self._enabled and self._two_signed_bytes(word):
            return _Symbol(TWO_SIGNED_BYTES, word), 1
        if "repeated_bytes" in self._enabled and self._repeated_bytes(word):
            return _Symbol(REPEATED_BYTES, word & 0xFF), 1
        return _Symbol(UNCOMPRESSED_WORD, word), 1

    @staticmethod
    def _two_signed_bytes(word: int) -> bool:
        low = word & 0xFFFF
        high = (word >> 16) & 0xFFFF
        return all(-128 <= _to_signed(h, 16) < 128 for h in (low, high))

    @staticmethod
    def _repeated_bytes(word: int) -> bool:
        b = word & 0xFF
        return word == b * 0x01010101

    # ------------------------------------------------------------------
    # Batch size kernel
    # ------------------------------------------------------------------
    def _size_table(self, lines: list[bytes]) -> list[tuple[int, str]]:
        """Vectorized whole-image kernel; without numpy, the reference."""
        np = batch.np
        if np is None or not lines:
            return super()._size_table(lines)
        line_size = self.line_size
        enabled = self._enabled
        unsigned = batch.word_matrix(lines, 4)
        signed = unsigned.view("<i4")

        word_bits = np.full(unsigned.shape, PREFIX_BITS + 32, dtype=np.int64)
        undecided = np.ones(unsigned.shape, dtype=bool)

        def claim(mask, payload_bits: int) -> None:
            hit = mask & undecided
            word_bits[hit] = PREFIX_BITS + payload_bits
            undecided[hit] = False

        if "signed_4bit" in enabled:
            claim((signed >= -8) & (signed < 8), 4)
        if "signed_1byte" in enabled:
            claim((signed >= -128) & (signed < 128), 8)
        if "signed_halfword" in enabled:
            claim((signed >= -32768) & (signed < 32768), 16)
        if "zero_padded_halfword" in enabled:
            claim((unsigned & 0xFFFF) == 0, 16)
        if "two_signed_bytes" in enabled:
            # Each 16-bit half must sign-extend from 8 bits; unsigned
            # equivalent of -128 <= signed16 < 128.
            low = (unsigned & 0xFFFF).astype(np.int64)
            high = (unsigned >> 16).astype(np.int64)
            claim(
                (((low + 128) & 0xFFFF) < 256)
                & (((high + 128) & 0xFFFF) < 256),
                16,
            )
        if "repeated_bytes" in enabled:
            claim(unsigned == (unsigned & 0xFF) * 0x01010101, 8)

        zeros = unsigned == 0
        if "zero_run" in enabled:
            # A zero word starts a new run symbol iff its distance from
            # the previous nonzero word is a multiple of MAX_ZERO_RUN.
            idx = np.arange(unsigned.shape[1])
            last_nonzero = np.maximum.accumulate(
                np.where(zeros, -1, idx), axis=1
            )
            run_pos = idx - last_nonzero - 1
            starts = zeros & (run_pos % MAX_ZERO_RUN == 0)
            bits = starts.sum(axis=1) * (
                PREFIX_BITS + ZERO_RUN.payload_bits
            ) + np.where(zeros, 0, word_bits).sum(axis=1)
        else:
            bits = word_bits.sum(axis=1)

        sizes = np.maximum(1, (bits + 7) // 8).tolist()
        return [
            (size, "fpc") if size < line_size else (line_size, "uncompressed")
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
            out += self._decode(symbol)
        return bytes(out)

    @staticmethod
    def _decode(symbol: _Symbol) -> bytes:
        pattern, payload = symbol.pattern, symbol.payload
        if pattern is ZERO_RUN:
            return bytes(4 * payload)
        if pattern in (SIGNED_4BIT, SIGNED_1BYTE, SIGNED_HALFWORD,
                       TWO_SIGNED_BYTES, UNCOMPRESSED_WORD):
            return (payload & 0xFFFFFFFF).to_bytes(4, "little")
        if pattern is ZERO_PADDED_HALFWORD:
            return ((payload & 0xFFFF) << 16).to_bytes(4, "little")
        if pattern is REPEATED_BYTES:
            return bytes([payload & 0xFF]) * 4
        raise AssertionError(f"unhandled FPC pattern {pattern.name}")
