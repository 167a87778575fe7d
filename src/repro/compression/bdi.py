"""Base-Delta-Immediate (BDI) compression.

BDI (Pekhimenko et al., PACT 2012) observes that many cache lines hold
values with a low dynamic range. Such a line can be stored as one common
*base* plus an array of narrow *deltas*. A second, implicit base of zero
captures small immediate values mixed into the same line; a per-word
bitmask records which base each word uses.

The CABA paper uses BDI as its flagship algorithm because decompression is
a single masked vector addition — a natural fit for the SIMT pipeline
(Section 4.1.1). The worked example in Figure 5 (a 64-byte line from PVC
compressed to 17 bytes with an 8-byte base and 1-byte deltas) is
reproduced in ``examples/quickstart.py`` and in the test suite.

Compressed-size accounting follows the original paper: for a base-``b``
delta-``d`` encoding over ``n`` words the size is ``b + n*d + ceil(n/8)``
bytes (base + deltas + base-selection bitmask). The encoding selector
itself travels out-of-band (in the tag / metadata cache), as in both
papers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.compression import batch
from repro.compression.base import (
    CompressedLine,
    CompressionAlgorithm,
    CompressionError,
    DEFAULT_LINE_SIZE,
)


@dataclass(frozen=True)
class BdiEncoding:
    """One (base size, delta size) point in the BDI encoding space."""

    name: str
    base_bytes: int
    delta_bytes: int

    def compressed_size(self, line_size: int) -> int:
        """Compressed size in bytes for a line of ``line_size`` bytes."""
        n_words = line_size // self.base_bytes
        mask_bytes = math.ceil(n_words / 8)
        return self.base_bytes + n_words * self.delta_bytes + mask_bytes


#: The eight encodings of the original proposal, best (smallest) first
#: within each word size. ZEROS and REPEAT are the two special cases.
BDI_ENCODINGS: tuple[BdiEncoding, ...] = (
    BdiEncoding("B8D1", base_bytes=8, delta_bytes=1),
    BdiEncoding("B8D2", base_bytes=8, delta_bytes=2),
    BdiEncoding("B8D4", base_bytes=8, delta_bytes=4),
    BdiEncoding("B4D1", base_bytes=4, delta_bytes=1),
    BdiEncoding("B4D2", base_bytes=4, delta_bytes=2),
    BdiEncoding("B2D1", base_bytes=2, delta_bytes=1),
)

#: Size in bytes of the all-zeros and repeated-value encodings.
ZEROS_SIZE = 1
REPEAT_SIZE = 8


@dataclass(frozen=True)
class _BdiState:
    """Decompression state: base, per-word deltas and base-selection mask."""

    word_bytes: int
    base: int
    deltas: tuple[int, ...]
    mask: tuple[bool, ...]  # True -> word uses `base`, False -> zero base


def _split_words(data: bytes, word_bytes: int) -> list[int]:
    """Interpret ``data`` as little-endian unsigned words.

    One big-int conversion plus shift/mask extraction is several times
    faster than per-word ``int.from_bytes`` on slices.
    """
    big = int.from_bytes(data, "little")
    bits = 8 * word_bytes
    mask = (1 << bits) - 1
    words = []
    append = words.append
    for _ in range(len(data) // word_bytes):
        append(big & mask)
        big >>= bits
    return words


def _fits_signed(value: int, n_bytes: int) -> bool:
    """Whether ``value`` fits in an ``n_bytes`` two's-complement field."""
    bound = 1 << (8 * n_bytes - 1)
    return -bound <= value < bound


def _try_encode(
    words: Sequence[int], word_bytes: int, delta_bytes: int
) -> _BdiState | None:
    """Attempt a two-base (explicit + implicit zero) BDI encoding.

    The explicit base is the first word that does not fit as a narrow
    immediate from the zero base, exactly as in the original hardware
    algorithm (which must pick the base in a single pass).
    """
    bound = 1 << (8 * delta_bytes - 1)
    neg_bound = -bound
    base: int | None = None
    deltas: list[int] = []
    mask: list[bool] = []
    for word in words:
        if neg_bound <= word < bound:
            deltas.append(word)
            mask.append(False)
            continue
        if base is None:
            base = word
        delta = word - base
        if not neg_bound <= delta < bound:
            return None
        deltas.append(delta)
        mask.append(True)
    return _BdiState(
        word_bytes=word_bytes,
        base=base if base is not None else 0,
        deltas=tuple(deltas),
        mask=tuple(mask),
    )


class BdiCompressor(CompressionAlgorithm):
    """Base-Delta-Immediate compressor over one cache line.

    Args:
        line_size: Uncompressed line size in bytes.
        encodings: Subset of :data:`BDI_ENCODINGS` to try. The CABA
            compression assist warp can be configured with fewer encodings
            to shorten the subroutine (Section 4.1.3 notes that a few
            encodings capture almost all redundancy).
    """

    name = "bdi"
    hw_decompression_latency = 1
    hw_compression_latency = 5

    def __init__(
        self,
        line_size: int = DEFAULT_LINE_SIZE,
        encodings: Sequence[BdiEncoding] = BDI_ENCODINGS,
    ) -> None:
        super().__init__(line_size)
        bad = [e for e in encodings if line_size % e.base_bytes != 0]
        if bad:
            raise CompressionError(
                f"encodings {', '.join(e.name for e in bad)} do not divide "
                f"a {line_size}-byte line"
            )
        self.encodings = tuple(encodings)
        #: (encoding, compressed size) pairs, hoisted out of the per-line
        #: loops (the sizes depend only on line_size).
        self._encoding_sizes = tuple(
            (e, e.compressed_size(line_size)) for e in self.encodings
        )

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def _compress_line(self, data: bytes) -> CompressedLine:
        special = self._try_special(data)
        if special is not None:
            return special

        best: CompressedLine | None = None
        splits: dict[int, list[int]] = {}
        for encoding, size in self._encoding_sizes:
            if size >= self.line_size:
                continue
            if best is not None and size >= best.size_bytes:
                continue
            words = splits.get(encoding.base_bytes)
            if words is None:
                words = _split_words(data, encoding.base_bytes)
                splits[encoding.base_bytes] = words
            state = _try_encode(words, encoding.base_bytes, encoding.delta_bytes)
            if state is None:
                continue
            best = CompressedLine(
                algorithm=self.name,
                encoding=encoding.name,
                size_bytes=size,
                line_size=self.line_size,
                state=state,
            )
        return best if best is not None else self._uncompressed(data)

    def _try_special(self, data: bytes) -> CompressedLine | None:
        """The ZEROS and REPEAT special encodings."""
        if not any(data):
            return CompressedLine(
                algorithm=self.name,
                encoding="ZEROS",
                size_bytes=ZEROS_SIZE,
                line_size=self.line_size,
                state=None,
            )
        first = data[:8]
        if data == first * (self.line_size // 8):
            return CompressedLine(
                algorithm=self.name,
                encoding="REPEAT",
                size_bytes=REPEAT_SIZE,
                line_size=self.line_size,
                state=int.from_bytes(first, "little"),
            )
        return None

    # ------------------------------------------------------------------
    # Batch size kernel
    # ------------------------------------------------------------------
    def _size_table(self, lines: list[bytes]) -> list[tuple[int, str]]:
        """Vectorized whole-image kernel; without numpy, the reference."""
        np = batch.np
        if np is None or not lines:
            return super()._size_table(lines)
        n = len(lines)
        line_size = self.line_size
        buf = np.frombuffer(b"".join(lines), dtype=np.uint8)
        buf = buf.reshape(n, line_size)
        nonzero = buf.any(axis=1)
        repeated = (
            buf.reshape(n, line_size // 8, 8) == buf[:, None, :8]
        ).all(axis=(1, 2))

        sizes = np.full(n, line_size, dtype=np.int64)
        chosen = np.full(n, -1, dtype=np.int64)
        views: dict[int, object] = {}
        for index, (encoding, size) in enumerate(self._encoding_sizes):
            if size >= line_size:
                continue
            improves = sizes > size  # strictly-smaller-wins, in order
            words = views.get(encoding.base_bytes)
            if words is None:
                words = buf.view(f"<u{encoding.base_bytes}")
                views[encoding.base_bytes] = words
            dtype = words.dtype.type
            bound = 1 << (8 * encoding.delta_bytes - 1)
            modulus = 1 << (8 * encoding.base_bytes)
            # Immediates are small unsigned values from the zero base.
            immediate = words < dtype(bound)
            explicit = ~immediate
            # The explicit base is the first non-immediate word (single
            # pass, as in the hardware algorithm and _try_encode).
            base = words[np.arange(n), explicit.argmax(axis=1)]
            # Modular wraparound makes the unsigned difference an exact
            # test of the signed-range fit: word - base (arbitrary
            # precision) lies in [-bound, bound) iff the wrapped delta
            # is < bound or >= modulus - bound.
            delta = words - base[:, None]
            fits_delta = (delta < dtype(bound)) | (
                delta >= dtype(modulus - bound)
            )
            fits = (immediate | fits_delta).all(axis=1)
            hit = improves & fits
            sizes[hit] = size
            chosen[hit] = index
        names = [e.name for e, _ in self._encoding_sizes]
        out: list[tuple[int, str]] = []
        zeros_list = (~nonzero).tolist()
        repeat_list = (repeated & nonzero).tolist()
        size_list = sizes.tolist()
        chosen_list = chosen.tolist()
        for i in range(n):
            if zeros_list[i]:
                out.append((ZEROS_SIZE, "ZEROS"))
            elif repeat_list[i]:
                out.append((REPEAT_SIZE, "REPEAT"))
            elif chosen_list[i] >= 0:
                out.append((size_list[i], names[chosen_list[i]]))
            else:
                out.append((line_size, "uncompressed"))
        return out

    # ------------------------------------------------------------------
    # Decompression
    # ------------------------------------------------------------------
    def decompress(self, line: CompressedLine) -> bytes:
        self._check_line(line)
        if line.encoding == "uncompressed":
            return bytes(line.state)
        if line.encoding == "ZEROS":
            return bytes(self.line_size)
        if line.encoding == "REPEAT":
            word = int(line.state).to_bytes(8, "little")
            return word * (self.line_size // 8)
        state: _BdiState = line.state
        bits = 8 * state.word_bytes
        modulus = 1 << bits
        base = state.base
        # Assemble the line as one big int and serialize once: much
        # cheaper than one to_bytes per word.
        big = 0
        shift = 0
        for delta, uses_base in zip(state.deltas, state.mask):
            word = ((base + delta) if uses_base else delta) % modulus
            big |= word << shift
            shift += bits
        return big.to_bytes(self.line_size, "little")
