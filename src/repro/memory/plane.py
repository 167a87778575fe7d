"""Precomputed compression planes.

The paper's bandwidth-compression results only need the *size* and
*burst count* of each compressed line to model timing — the bytes
themselves matter only when decompression correctness is under test.
A :class:`CompressionPlane` exploits that split: the application's whole
memory image is batch-compressed once per algorithm (through the
whole-image kernels behind ``CompressionAlgorithm.size_table``) into a
per-line table of ``(stored_size, bursts, encoding)``. The hot path
then does O(1) lookups instead of calling ``compress()`` per access.

Planes are immutable and content-addressed by
``(image parameters, algorithm, line size)`` — see :func:`plane_key` —
so one plane is shared across every design of a sweep in-process
(``harness/runner.py`` memo) and across sessions via the persistent
cache (``harness/cache.py``). Store mutations never touch a plane: the
per-run :class:`~repro.memory.image.MemoryImage` keeps its private
override map and consults the plane only for baseline (unmutated) line
contents.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Mapping, Sequence

from repro.compression.base import CompressionAlgorithm, bursts_for
from repro.compression.bestofall import compose_size_tables
from repro.memory.image import LineInfo, line_info

#: Bump when plane layout or the batch kernels change in a way the
#: version stamp of the persistent cache would not capture on its own.
PLANE_FORMAT = 1


class CompressionPlane:
    """Immutable per-line ``(size, bursts, encoding)`` table of one image.

    Attributes:
        algorithm_name: Name of the algorithm the plane was built with.
        line_size: Uncompressed line size in bytes.
        burst_bytes: DRAM burst granularity used for the burst column.
        key: Content-address of the plane (see :func:`plane_key`).
        table: ``line -> (stored_size, bursts, encoding)``.
    """

    __slots__ = (
        "algorithm_name",
        "line_size",
        "burst_bytes",
        "key",
        "table",
    )

    def __init__(
        self,
        algorithm_name: str,
        line_size: int,
        burst_bytes: int,
        key: str,
        table: dict[int, tuple[int, int, str]],
    ) -> None:
        self.algorithm_name = algorithm_name
        self.line_size = line_size
        self.burst_bytes = burst_bytes
        self.key = key
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def info(self, line: int) -> LineInfo | None:
        """The :class:`LineInfo` of ``line``, or ``None`` if uncovered."""
        entry = self.table.get(line)
        if entry is None:
            return None
        return line_info(entry[0], entry[2])

    def bursts(self, line: int) -> int:
        """Burst count of ``line`` (must be covered by the plane)."""
        return self.table[line][1]

    def encodings(self) -> set[str]:
        """Every encoding tag appearing in the image."""
        return {entry[2] for entry in self.table.values()}


def build_plane(
    line_bytes: Callable[[int], bytes],
    extents: Iterable[tuple[int, int]],
    algorithm: CompressionAlgorithm,
    burst_bytes: int = 32,
    key: str = "",
    chunk: int = 4096,
    line_block: Callable[[int, int], object] | None = None,
) -> CompressionPlane:
    """Batch-compress a whole memory image into a plane.

    ``extents`` enumerates ``(base_line, n_lines)`` regions (from
    :func:`repro.workloads.tracegen.footprint_extents`). Lines are
    generated and compressed in ``chunk``-sized blocks to bound peak
    memory while keeping the batch kernels on large inputs. Each block
    comes from ``line_block`` when given (the batch generator of
    :func:`repro.workloads.data_patterns.make_block_generator`), else
    from one ``line_bytes`` call per line.
    """
    line_size = algorithm.line_size
    table: dict[int, tuple[int, int, str]] = {}
    for base, count in extents:
        for start in range(0, count, chunk):
            stop = min(start + chunk, count)
            if line_block is None:
                block = [line_bytes(base + i) for i in range(start, stop)]
            else:
                raw = line_block(base + start, stop - start).tobytes()
                block = [
                    raw[i:i + line_size]
                    for i in range(0, len(raw), line_size)
                ]
            sizes = algorithm.size_table(block)
            for offset, (size, encoding) in enumerate(sizes):
                table[base + start + offset] = (
                    size,
                    bursts_for(size, burst_bytes),
                    encoding,
                )
    return CompressionPlane(
        algorithm_name=algorithm.name,
        line_size=algorithm.line_size,
        burst_bytes=burst_bytes,
        key=key,
        table=table,
    )


def compose_best_of_all(
    component_planes: Sequence[tuple[str, CompressionPlane]],
    line_size: int,
    burst_bytes: int = 32,
    key: str = "",
    name: str = "bestofall",
) -> CompressionPlane:
    """Derive a best-of-all plane from already-built component planes.

    Reuses :func:`repro.compression.bestofall.compose_size_tables`, so
    the selection (first component with the strictly smallest size wins)
    is exactly the scalar ``BestOfAllCompressor`` rule — without
    recompressing a single line.
    """
    lines = sorted(component_planes[0][1].table)
    tables = [
        (
            comp_name,
            [(plane.table[ln][0], plane.table[ln][2]) for ln in lines],
        )
        for comp_name, plane in component_planes
    ]
    composed = compose_size_tables(tables, line_size)
    table = {
        ln: (size, bursts_for(size, burst_bytes), encoding)
        for ln, (size, encoding) in zip(lines, composed)
    }
    return CompressionPlane(
        algorithm_name=name,
        line_size=line_size,
        burst_bytes=burst_bytes,
        key=key,
        table=table,
    )


def plane_key(
    mixture: Mapping[str, float],
    seed: int,
    algorithm_name: str,
    line_size: int,
    burst_bytes: int,
    extents: Iterable[tuple[int, int]],
) -> str:
    """Content-address of a plane.

    Line bytes are produced by a deterministic generator from
    ``(mixture, seed, line_size)``, so hashing those parameters plus the
    extent list is equivalent to hashing the image itself — without
    generating a single byte.
    """
    payload = repr(
        (
            PLANE_FORMAT,
            sorted(mixture.items()),
            seed,
            algorithm_name,
            line_size,
            burst_bytes,
            tuple(extents),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]
