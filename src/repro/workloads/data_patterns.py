"""Synthetic data generators with controlled compressibility.

The paper's applications compress differently under BDI, FPC and C-Pack
because their in-memory value patterns differ (Section 6.3: LPS, JPEG,
MUM, nw favour FPC/C-Pack; MM, PVC, PVR favour BDI). Each workload here
declares a *mixture* of the named patterns below; every global-memory
line deterministically draws one pattern (hashed from its address), and
the compression algorithms then run on the real bytes — compression
ratios are measured, never assumed.

Patterns and the algorithms they favour:

==============  ==========================================================
``zeros``       all-zero line — every algorithm's best case
``narrow8``     8-byte values, one base + tiny deltas — BDI (B8D1)
``narrow4``     4-byte values, one base + small deltas — BDI (B4D1/B4D2)
``small_int``   small signed 32-bit integers — FPC narrow patterns, BDI
``pointer``     8-byte pointers sharing high bytes — BDI wide deltas
``dict_words``  few distinct 32-bit words — C-Pack dictionary hits
``text``        byte-granular runs — FPC repeated bytes / C-Pack partial
``float32``     shared exponents, noisy mantissas — C-Pack mmxx, BDI B4D2
``random``      incompressible
==============  ==========================================================

DL/HPC value generators (used by the ``dl``/``hpc`` suites, after
Buddy Compression's observation that activations and HPC fields carry
most of the exploitable redundancy in FP32 data):

================  ========================================================
``fp32_nearzero``  ReLU-style activations: mostly exact zeros plus sparse
                   small-magnitude floats — FPC zero runs, C-Pack zzzz
``fp32_weights``   quantized weight tensors: few distinct values per tile
                   in a narrow exponent band — C-Pack dictionary hits
``fp32_smooth``    smooth stencil fields: one exponent, slowly drifting
                   mantissa across the line — BDI B4D1/B4D2
================  ========================================================

Each pattern has a scalar builder, the reference, and next to it a numpy
kernel that generates many lines at once with the same bytes;
:func:`make_block_generator` runs the kernels when the numpy backend of
:mod:`repro.compression.batch` is on.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Mapping

from repro.compression import batch

_M64 = (1 << 64) - 1


def _mix(x: int) -> int:
    """A splitmix64-style hash used for deterministic per-line draws."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _mix_lanes(x):
    """:func:`_mix` over a uint64 array.

    numpy's uint64 ``+`` and ``*`` wrap mod 2**64, which is exactly the
    scalar's ``& _M64``.
    """
    u64 = batch.np.uint64
    x = x + u64(0x9E3779B97F4A7C15)
    x ^= x >> u64(30)
    x *= u64(0xBF58476D1CE4E5B9)
    x ^= x >> u64(27)
    x *= u64(0x94D049BB133111EB)
    x ^= x >> u64(31)
    return x


class _Rng:
    """Tiny deterministic generator seeded from (seed, line)."""

    __slots__ = ("state",)

    def __init__(self, seed: int, line: int) -> None:
        self.state = _mix((seed << 32) ^ (line & 0xFFFFFFFF)) or 1

    def next64(self) -> int:
        self.state = _mix(self.state)
        return self.state

    def below(self, n: int) -> int:
        return self.next64() % n


class _Lanes:
    """The batch twin of :class:`_Rng`: one private stream per lane.

    Lane ``i`` yields the draws ``_Rng(seed, lines[i])`` would. Python
    ints are reduced mod 2**64 before they become ``uint64``; the scalar
    ``_mix`` makes the same reduction after its add.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int, lines) -> None:
        np = batch.np
        state = _mix_lanes(
            np.uint64((seed << 32) & _M64) ^ (lines & np.uint64(0xFFFFFFFF))
        )
        state[state == 0] = 1
        self.state = state

    def next64(self):
        self.state = _mix_lanes(self.state)
        return self.state

    def below(self, n: int):
        return self.next64() % batch.np.uint64(n)


def _pack(columns, dtype: str):
    """Word columns (one array per word, in line order) as a
    ``(lanes, bytes)`` uint8 block of ``dtype`` words.

    The cast keeps each value's low bytes, which is the scalar builders'
    ``& 0xFFFFFFFF`` for 4-byte words.
    """
    np = batch.np
    words = np.stack(columns, axis=1).astype(dtype)
    return words.view(np.uint8).reshape(len(words), -1)


def _pick(vocabulary, index):
    """Row ``i`` of the result is ``vocabulary[i, index[i]]``."""
    return vocabulary[batch.np.arange(len(vocabulary)), index]


# ----------------------------------------------------------------------
# Pattern builders: (rng, line_size) -> bytes, each followed by its batch
# kernel: (lanes, line_size) -> (lanes, line_size) uint8 block
# ----------------------------------------------------------------------
def _zeros(rng: _Rng, line_size: int) -> bytes:
    return bytes(line_size)


def _zeros_block(lanes: _Lanes, line_size: int):
    np = batch.np
    return np.zeros((len(lanes.state), line_size), dtype=np.uint8)


def _narrow8(rng: _Rng, line_size: int) -> bytes:
    base = rng.next64() & 0xFFFFFFFFFF00
    out = bytearray()
    for _ in range(line_size // 8):
        value = (base + rng.below(100)) & _M64
        out += value.to_bytes(8, "little")
    return bytes(out)


def _narrow8_block(lanes: _Lanes, line_size: int):
    base = lanes.next64() & 0xFFFFFFFFFF00
    return _pack(
        [base + lanes.below(100) for _ in range(line_size // 8)], "<u8"
    )


def _narrow4(rng: _Rng, line_size: int) -> bytes:
    base = rng.next64() & 0xFFFFFF00
    out = bytearray()
    for _ in range(line_size // 4):
        out += ((base + rng.below(64)) & 0xFFFFFFFF).to_bytes(4, "little")
    return bytes(out)


def _narrow4_block(lanes: _Lanes, line_size: int):
    base = lanes.next64() & 0xFFFFFF00
    return _pack(
        [base + lanes.below(64) for _ in range(line_size // 4)], "<u4"
    )


def _small_int(rng: _Rng, line_size: int) -> bytes:
    out = bytearray()
    for _ in range(line_size // 4):
        value = rng.below(256) - 128
        out += (value & 0xFFFFFFFF).to_bytes(4, "little")
    return bytes(out)


def _small_int_block(lanes: _Lanes, line_size: int):
    # The uint64 subtraction wraps; its low 4 bytes are the scalar's
    # two's-complement word.
    return _pack(
        [lanes.below(256) - 128 for _ in range(line_size // 4)], "<u4"
    )


def _pointer(rng: _Rng, line_size: int) -> bytes:
    base = (rng.next64() & 0x7FFF_FF00_0000) | 0x7F00_0000_0000
    out = bytearray()
    for _ in range(line_size // 8):
        value = (base + rng.below(1 << 22) * 8) & _M64
        out += value.to_bytes(8, "little")
    return bytes(out)


def _pointer_block(lanes: _Lanes, line_size: int):
    base = (lanes.next64() & 0x7FFF_FF00_0000) | 0x7F00_0000_0000
    return _pack(
        [base + lanes.below(1 << 22) * 8 for _ in range(line_size // 8)],
        "<u8",
    )


def _dict_words(rng: _Rng, line_size: int) -> bytes:
    vocabulary = [rng.next64() & 0xFFFFFFFF for _ in range(4)]
    out = bytearray()
    for _ in range(line_size // 4):
        out += vocabulary[rng.below(4)].to_bytes(4, "little")
    return bytes(out)


def _dict_words_block(lanes: _Lanes, line_size: int):
    vocabulary = batch.np.stack(
        [lanes.next64() & 0xFFFFFFFF for _ in range(4)], axis=1
    )
    return _pack(
        [_pick(vocabulary, lanes.below(4)) for _ in range(line_size // 4)],
        "<u4",
    )


def _text(rng: _Rng, line_size: int) -> bytes:
    out = bytearray()
    while len(out) < line_size:
        run = 4 * (1 + rng.below(4))
        byte = 0x20 + rng.below(96)
        out += bytes([byte]) * run
    return bytes(out[:line_size])


def _text_block(lanes: _Lanes, line_size: int):
    # Every run is at least 4 bytes, so ceil(line_size / 4) (run, byte)
    # pairs always fill a line. Each lane's stream is private, so the
    # draws past the point where its line is full are never observed.
    np = batch.np
    runs, values = [], []
    for _ in range(-(-line_size // 4)):
        runs.append(4 * (1 + lanes.below(4)))
        values.append(0x20 + lanes.below(96))
    runs = np.stack(runs, axis=1).astype(np.intp)
    flat = np.repeat(
        np.stack(values, axis=1).astype(np.uint8).ravel(), runs.ravel()
    )
    starts = np.cumsum(runs.sum(axis=1)) - runs.sum(axis=1)
    return flat[starts[:, None] + np.arange(line_size)]


def _float32(rng: _Rng, line_size: int) -> bytes:
    exponent = (0x3F00 + rng.below(8) * 0x80) << 16
    out = bytearray()
    for _ in range(line_size // 4):
        out += ((exponent | rng.below(1 << 16)) & 0xFFFFFFFF).to_bytes(4, "little")
    return bytes(out)


def _float32_block(lanes: _Lanes, line_size: int):
    exponent = (0x3F00 + lanes.below(8) * 0x80) << 16
    return _pack(
        [exponent | lanes.below(1 << 16) for _ in range(line_size // 4)],
        "<u4",
    )


def _fp32_nearzero(rng: _Rng, line_size: int) -> bytes:
    """ReLU activations: ~60% exact zeros, the rest small positive floats.

    Non-zero words share a narrow sub-1.0 exponent band (2^-9..2^-2) so
    a line mixes long zero runs with clustered small magnitudes — the
    value profile FPC's zero-run and C-Pack's zzzz patterns exploit.
    """
    out = bytearray()
    for _ in range(line_size // 4):
        if rng.below(100) < 60:
            out += b"\x00\x00\x00\x00"
        else:
            exponent = 118 + rng.below(8)  # 2^-9 .. 2^-2
            mantissa = rng.below(1 << 23)
            out += ((exponent << 23) | mantissa).to_bytes(4, "little")
    return bytes(out)


def _fp32_nearzero_block(lanes: _Lanes, line_size: int):
    # A non-zero word takes two more draws, so only those lanes advance.
    np = batch.np
    columns = []
    for _ in range(line_size // 4):
        live = lanes.below(100) >= 60
        state = _mix_lanes(lanes.state[live])
        exponent = 118 + state % np.uint64(8)
        state = _mix_lanes(state)
        word = np.zeros(len(live), dtype=np.uint64)
        word[live] = (exponent << np.uint64(23)) | (state % np.uint64(1 << 23))
        lanes.state[live] = state
        columns.append(word)
    return _pack(columns, "<u4")


def _fp32_weights(rng: _Rng, line_size: int) -> bytes:
    """Quantized trained-weight tensors: a small per-line codebook.

    Post-training quantization leaves each tile of weights drawn from a
    handful of distinct FP32 values inside one low-magnitude exponent
    band (|w| roughly 0.004..0.25, random signs, low mantissa bits
    zeroed) — exactly the repeated-word profile C-Pack's dictionary
    exploits.
    """
    band = 119 + rng.below(3)  # per-line exponent band, 2^-8 .. 2^-6
    vocabulary = []
    for _ in range(8):
        sign = rng.below(2) << 31
        exponent = band + rng.below(4)
        mantissa = rng.below(1 << 23) & ~0xFFF
        vocabulary.append(
            (sign | (exponent << 23) | mantissa) & 0xFFFFFFFF
        )
    out = bytearray()
    for _ in range(line_size // 4):
        out += vocabulary[rng.below(8)].to_bytes(4, "little")
    return bytes(out)


def _fp32_weights_block(lanes: _Lanes, line_size: int):
    band = 119 + lanes.below(3)
    vocabulary = []
    for _ in range(8):
        sign = lanes.below(2) << 31
        exponent = band + lanes.below(4)
        mantissa = lanes.below(1 << 23) & 0x7FF000  # ~0xFFF in 23 bits
        vocabulary.append(sign | (exponent << 23) | mantissa)
    vocabulary = batch.np.stack(vocabulary, axis=1)
    return _pack(
        [_pick(vocabulary, lanes.below(8)) for _ in range(line_size // 4)],
        "<u4",
    )


def _fp32_smooth(rng: _Rng, line_size: int) -> bytes:
    """Smooth stencil fields: one exponent, mantissa drifting slowly.

    Adjacent grid points of a relaxed PDE field differ by tiny amounts:
    every word keeps the line's exponent while the mantissa takes a
    small signed step, so 4-byte words share their high bytes — BDI's
    B4D1/B4D2 sweet spot.
    """
    exponent = (125 + rng.below(4)) << 23  # field magnitude 0.25 .. 4
    mantissa = rng.below(1 << 23)
    out = bytearray()
    for _ in range(line_size // 4):
        step = rng.below(1 << 9) - (1 << 8)
        mantissa = (mantissa + step) & 0x3FFFFF  # keep clear of the exponent
        out += ((exponent | mantissa) & 0xFFFFFFFF).to_bytes(4, "little")
    return bytes(out)


def _fp32_smooth_block(lanes: _Lanes, line_size: int):
    exponent = (125 + lanes.below(4)) << 23
    mantissa = lanes.below(1 << 23)
    columns = []
    for _ in range(line_size // 4):
        # The uint64 sum wraps on a negative step; the 22-bit mask then
        # matches the scalar's signed add.
        mantissa = (mantissa + lanes.below(1 << 9) - (1 << 8)) & 0x3FFFFF
        columns.append(exponent | mantissa)
    return _pack(columns, "<u4")


def _random(rng: _Rng, line_size: int) -> bytes:
    out = bytearray()
    for _ in range(line_size // 8):
        out += rng.next64().to_bytes(8, "little")
    return bytes(out)


def _random_block(lanes: _Lanes, line_size: int):
    return _pack([lanes.next64() for _ in range(line_size // 8)], "<u8")


PATTERNS: dict[str, Callable[[_Rng, int], bytes]] = {
    "zeros": _zeros,
    "narrow8": _narrow8,
    "narrow4": _narrow4,
    "small_int": _small_int,
    "pointer": _pointer,
    "dict_words": _dict_words,
    "text": _text,
    "float32": _float32,
    "fp32_nearzero": _fp32_nearzero,
    "fp32_weights": _fp32_weights,
    "fp32_smooth": _fp32_smooth,
    "random": _random,
}

#: The batch kernel of every pattern in :data:`PATTERNS`.
_BLOCK_PATTERNS: dict[str, Callable] = {
    "zeros": _zeros_block,
    "narrow8": _narrow8_block,
    "narrow4": _narrow4_block,
    "small_int": _small_int_block,
    "pointer": _pointer_block,
    "dict_words": _dict_words_block,
    "text": _text_block,
    "float32": _float32_block,
    "fp32_nearzero": _fp32_nearzero_block,
    "fp32_weights": _fp32_weights_block,
    "fp32_smooth": _fp32_smooth_block,
    "random": _random_block,
}


def _pattern_table(
    mixture: Mapping[str, float], seed: int
) -> tuple[list[str], list[float], list[int]]:
    """Validate ``mixture``; return its sorted pattern names, their
    cumulative draw bounds and each pattern's generator seed.

    A line takes the first pattern whose bound is >= its draw, or the
    last pattern if float rounding leaves the draw above every bound.
    Both generator forms choose through this table.
    """
    if not mixture:
        raise ValueError("mixture must name at least one pattern")
    unknown = set(mixture) - set(PATTERNS)
    if unknown:
        raise ValueError(f"unknown data patterns: {sorted(unknown)}")
    for name, weight in mixture.items():
        if not math.isfinite(weight):
            raise ValueError(
                f"pattern {name!r} has a non-finite weight: {weight!r}"
            )
    total = float(sum(mixture.values()))
    if (
        total <= 0
        or not math.isfinite(total)
        or any(w < 0 for w in mixture.values())
    ):
        raise ValueError("pattern weights must be non-negative, sum > 0")

    names = sorted(mixture)
    bounds: list[float] = []
    acc = 0.0
    for name in names:
        acc += mixture[name] / total
        bounds.append(acc)
    # A stable (non-randomized) pattern-name hash keeps generated data
    # identical across processes.
    seeds = [
        seed * 1000003
        + sum(ord(c) * 31 ** k for k, c in enumerate(name)) % 997
        for name in names
    ]
    return names, bounds, seeds


def make_line_generator(
    mixture: Mapping[str, float],
    line_size: int = 128,
    seed: int = 1,
) -> Callable[[int], bytes]:
    """Build a deterministic per-line byte generator from a pattern mixture.

    This scalar form is the reference (and the path without numpy);
    :func:`make_block_generator` is its batch form.

    Args:
        mixture: Pattern name -> weight (weights normalize automatically).
        line_size: Bytes per line.
        seed: Workload seed; distinct workloads get distinct data.

    Returns:
        A function mapping a line address to that line's bytes. The same
        address always yields the same bytes.
    """
    names, bounds, seeds = _pattern_table(mixture, seed)
    last = len(names) - 1
    builders = [PATTERNS[name] for name in names]

    def line_bytes(line: int) -> bytes:
        draw = (_mix((seed << 20) ^ line) % (1 << 24)) / float(1 << 24)
        index = min(bisect.bisect_left(bounds, draw), last)
        return builders[index](_Rng(seeds[index], line), line_size)

    return line_bytes


def make_block_generator(
    mixture: Mapping[str, float],
    line_size: int = 128,
    seed: int = 1,
) -> Callable[[int, int], object] | None:
    """The batch form of :func:`make_line_generator`.

    Returns ``line_block(base, count)``, which returns lines ``[base,
    base + count)`` as one ``(count, line_size)`` uint8 array whose row
    ``i`` equals ``make_line_generator(...)(base + i)`` byte for byte.
    Each line's private stream is one uint64 lane, so every pattern
    kernel draws for all its lines at once.

    Returns ``None`` when the numpy backend is off
    (:data:`repro.compression.batch.np` is ``None``); callers then use
    the scalar generator.
    """
    names, bounds, seeds = _pattern_table(mixture, seed)
    np = batch.np
    if np is None:
        return None
    if line_size <= 0 or line_size % 8:
        raise ValueError(
            f"line_size must be a positive multiple of 8, got {line_size}"
        )
    bound_array = np.array(bounds)
    last = len(names) - 1
    kernels = [_BLOCK_PATTERNS[name] for name in names]
    choice_key = np.uint64((seed << 20) & _M64)

    def line_block(base: int, count: int):
        lines = np.arange(count, dtype=np.uint64) + np.uint64(base & _M64)
        draws = (_mix_lanes(lines ^ choice_key) & 0xFFFFFF) / float(1 << 24)
        chosen = np.minimum(np.searchsorted(bound_array, draws), last)
        out = np.empty((count, line_size), dtype=np.uint8)
        for index, kernel in enumerate(kernels):
            rows = np.flatnonzero(chosen == index)
            if rows.size:
                out[rows] = kernel(_Lanes(seeds[index], lines[rows]), line_size)
        return out

    return line_block
