"""Backend helpers for the batch (whole-image) compression kernels.

The batch kernels in :mod:`repro.compression` compute per-line
``(size, encoding)`` tables over many cache lines at once. BDI, FPC and
FVC have one **numpy kernel** each, which reinterprets the concatenated
lines as a 2-D unsigned word matrix and classifies all words
vectorized; C-Pack's sequential dictionary keeps a size-only loop.

numpy is an optional dependency (``pip install repro[fast]``) and is
used if and only if it imports. Without it, BDI, FPC and FVC fall back
to the scalar reference (one ``compress()`` core per line). The
differential suite (``tests/compression/test_batch_equivalence.py``)
asserts every kernel matches the scalar ``compress()`` byte for byte.

Tests monkeypatch the module-level ``np`` to ``None`` to take the
no-numpy path regardless of the environment.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised via both CI legs
    import numpy as np
except ImportError:
    np = None


def word_matrix(lines, word_bytes: int):
    """numpy ``(n_lines, words_per_line)`` unsigned word matrix.

    Only callable when the numpy backend is active; the caller guards on
    ``batch.np is not None``.
    """
    buf = np.frombuffer(b"".join(lines), dtype=np.uint8)
    return buf.reshape(len(lines), -1).view(f"<u{word_bytes}")


def u32_rows(lines) -> list[list[int]]:
    """Little-endian 32-bit words of every line, as Python ints.

    Uses numpy for the byte-to-word conversion when available (the
    sequential C-Pack kernel still wants plain ints to run its
    dictionary logic), otherwise the big-int split.
    """
    if not lines:
        return []
    if np is not None:
        buf = np.frombuffer(b"".join(lines), dtype="<u4")
        return buf.reshape(len(lines), -1).tolist()
    out = []
    for data in lines:
        big = int.from_bytes(data, "little")
        words = []
        append = words.append
        for _ in range(len(data) // 4):
            append(big & 0xFFFFFFFF)
            big >>= 32
        out.append(words)
    return out
