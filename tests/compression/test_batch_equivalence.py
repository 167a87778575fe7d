"""Differential tests: batch size tables vs. scalar ``compress()``.

The batch kernels behind ``size_table`` must produce exactly the scalar
reference results for every algorithm, with numpy and without it,
across randomized lines from real app mixtures, all-zero lines,
narrow-delta lines and adversarial boundary cases.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.compression import ALGORITHMS, make_algorithm
from repro.compression import batch
from repro.compression.base import CompressionError
from repro.workloads.apps import APPLICATIONS
from repro.workloads.data_patterns import make_line_generator

LINE_SIZE = 128
N_WORDS = LINE_SIZE // 4


def _w(values):
    return b"".join(struct.pack("<I", v & 0xFFFFFFFF) for v in values)


def _line_families() -> list[bytes]:
    rng = random.Random(20150613)
    lines: list[bytes] = []

    # Randomized lines from real application data mixtures.
    for app in ("PVC", "MUM", "bh", "MM", "CONS", "SCAN", "TRA"):
        profile = APPLICATIONS.get(app)
        if profile is None:
            continue
        gen = make_line_generator(profile.data, LINE_SIZE, profile.seed)
        lines += [gen(i) for i in range(80)]

    # All-zero and repeated lines (BDI special encodings).
    lines.append(bytes(LINE_SIZE))
    lines.append(bytes([7]) * LINE_SIZE)
    lines.append(b"\x01\x02\x03\x04\x05\x06\x07\x08" * (LINE_SIZE // 8))

    # Narrow-delta lines (classic BDI material).
    base = 0x12345678
    lines.append(_w([base + d for d in range(N_WORDS)]))
    lines.append(_w([base + rng.randrange(-120, 120) for _ in range(N_WORDS)]))

    # Adversarial boundary cases: values at the exact signed-delta
    # bounds, wraparound candidates, FPC pattern edges, zero runs at
    # and around the MAX_ZERO_RUN boundary, dictionary churn for C-Pack.
    lines.append(_w([0x7F, 0x80, 0x81, 0xFF, 0x100, 0x7FFF, 0x8000,
                     0xFFFF, 0x10000, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
                     0xFFFF8000, 0xFFFF7FFF, 0xFFFFFF80, 0xFFFFFF7F]
                    * (N_WORDS // 16)))
    lines.append(_w([0x80000000] * N_WORDS))
    lines.append(_w([0, 0x80000000] * (N_WORDS // 2)))
    for run in (7, 8, 9, 16, 17, N_WORDS - 1):
        lines.append(_w([0] * run + [5] * (N_WORDS - run)))
        lines.append(_w([3] + [0] * run + [9] * (N_WORDS - run - 1)))
    lines.append(_w(list(range(0x1000, 0x1000 + N_WORDS))))  # >16 distinct
    lines.append(_w([0x11223344 + (i % 20) for i in range(N_WORDS)]))
    lines.append(_w([(i % 3) * 0x01010101 for i in range(N_WORDS)]))

    # Pure noise.
    for _ in range(40):
        lines.append(bytes(rng.getrandbits(8) for _ in range(LINE_SIZE)))
    return lines


LINES = _line_families()


@pytest.fixture(params=["pure", "numpy"])
def backend(request, monkeypatch):
    """Run the test body with numpy and without it."""
    if request.param == "pure":
        monkeypatch.setattr(batch, "np", None)
    elif batch.np is None:
        pytest.skip("numpy not installed")
    return request.param


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_size_table_matches_scalar(name, backend):
    algo = make_algorithm(name, LINE_SIZE)
    scalar = [
        (line.size_bytes, line.encoding)
        for line in map(algo.compress, LINES)
    ]
    assert algo.size_table(LINES) == scalar


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_compress_lines_matches_scalar(name, backend):
    """Every batch-sized line is one the scalar path restores exactly."""
    algo = make_algorithm(name, LINE_SIZE)
    batched = algo.size_table(LINES[:32])
    for data, entry in zip(LINES[:32], batched):
        scalar = algo.compress(data)
        assert entry == (scalar.size_bytes, scalar.encoding)
        assert algo.decompress(scalar) == data


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_empty_batch(name, backend):
    algo = make_algorithm(name, LINE_SIZE)
    assert algo.size_table([]) == []


def test_batch_validation_catches_bad_line():
    algo = make_algorithm("bdi", LINE_SIZE)
    bad = [bytes(LINE_SIZE), bytes(LINE_SIZE - 1)]
    with pytest.raises(CompressionError, match="line 1"):
        algo.size_table(bad)


def test_fpc_reduced_pattern_set(backend):
    """The batch kernels must honor a restricted pattern set too."""
    from repro.compression.fpc import FPC_REDUCED_PATTERNS, FpcCompressor

    algo = FpcCompressor(LINE_SIZE, patterns=FPC_REDUCED_PATTERNS)
    scalar = [
        (line.size_bytes, line.encoding)
        for line in map(algo.compress, LINES)
    ]
    assert algo.size_table(LINES) == scalar

