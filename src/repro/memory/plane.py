"""Precomputed compression planes.

The paper's bandwidth-compression results only need the *size* and
*burst count* of each compressed line to model timing — the bytes
themselves matter only when decompression correctness is under test.
A :class:`CompressionPlane` exploits that split: the application's whole
memory image is batch-compressed once per algorithm (through the
whole-image kernels behind ``CompressionAlgorithm.size_table``) into
one 16-bit code per line, naming one of a few distinct
``(stored_size, bursts, encoding)`` entries. The hot path then looks a
line up (a bisect over the extents and two indexings) instead of
calling ``compress()`` per access.

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
from array import array
from bisect import bisect_right
from typing import Callable, Iterable, Mapping, Sequence

from repro.compression.base import CompressionAlgorithm, bursts_for
from repro.compression.bestofall import compose_size_tables
from repro.memory.image import LineInfo, line_info

#: Bump when plane layout or the batch kernels change in a way the
#: version stamp of the persistent cache would not capture on its own.
PLANE_FORMAT = 2

#: ``(stored_size, bursts, encoding, LineInfo)`` of one entry code.
PlaneEntry = tuple[int, int, str, LineInfo]


class CompressionPlane:
    """Immutable per-line compressed sizes of one image, 2 bytes a line.

    A plane holds only a few distinct ``(size, encoding)`` pairs (87 at
    most over every app and algorithm on the Table-1 footprint at
    ``work=0.25``), so each line stores the 16-bit code of its pair:
    one ``array('H')`` per footprint extent, indexed by the line's
    offset in the extent. A plane holds at most 65,536 distinct pairs
    (the code array refuses a larger code).

    Attributes:
        algorithm_name: Name of the algorithm the plane was built with.
        line_size: Uncompressed line size in bytes.
        burst_bytes: DRAM burst granularity used for the burst column.
        key: Content-address of the plane (see :func:`plane_key`).
        extents: Sorted, disjoint ``(base_line, n_lines)`` regions.
        codes: Per extent, the entry code of each of its lines.
        entries: ``code -> (stored_size, bursts, encoding, LineInfo)``.
    """

    __slots__ = (
        "algorithm_name",
        "line_size",
        "burst_bytes",
        "key",
        "extents",
        "codes",
        "entries",
        "_bases",
    )

    def __init__(
        self,
        algorithm_name: str,
        line_size: int,
        burst_bytes: int,
        key: str,
        extents: Sequence[tuple[int, int]],
        codes: Sequence[array],
        pairs: Sequence[tuple[int, str]],
    ) -> None:
        """``pairs`` lists the ``(stored_size, encoding)`` of each code."""
        self.algorithm_name = algorithm_name
        self.line_size = line_size
        self.burst_bytes = burst_bytes
        self.key = key
        self.extents = tuple((base, count) for base, count in extents)
        self.codes = tuple(codes)
        self.entries: tuple[PlaneEntry, ...] = tuple(
            (size, bursts_for(size, burst_bytes), encoding,
             line_info(size, encoding))
            for size, encoding in pairs
        )
        self._bases = [base for base, _ in self.extents]
        if len(self.codes) != len(self.extents):
            raise ValueError("need one code array per extent")
        end = None
        for (base, count), line_codes in zip(self.extents, self.codes):
            if end is not None and base < end:
                raise ValueError("plane extents must be sorted and disjoint")
            if line_codes.typecode != "H" or len(line_codes) != count:
                raise ValueError(f"extent at line {base} needs {count} codes")
            end = base + count

    def __reduce__(self):
        # Pickle the pairs alone: bursts and the shared LineInfo records
        # are derived again on load.
        pairs = tuple((entry[0], entry[2]) for entry in self.entries)
        return CompressionPlane, (
            self.algorithm_name, self.line_size, self.burst_bytes, self.key,
            self.extents, self.codes, pairs,
        )

    def __len__(self) -> int:
        return sum(map(len, self.codes))

    def locate(self, line: int) -> tuple[int, int] | None:
        """``(extent index, offset)`` of ``line``, or ``None`` if uncovered."""
        extent = bisect_right(self._bases, line) - 1
        if extent >= 0:
            offset = line - self._bases[extent]
            if offset < len(self.codes[extent]):
                return extent, offset
        return None

    def entry(self, line: int) -> PlaneEntry | None:
        """The entry of ``line``, or ``None`` if uncovered."""
        at = self.locate(line)
        if at is None:
            return None
        return self.entries[self.codes[at[0]][at[1]]]

    def encodings(self) -> set[str]:
        """Every encoding tag appearing in the image."""
        return {entry[2] for entry in self.entries}

    def total_bursts(self) -> int:
        """Burst count of every line of the plane, summed."""
        bursts = [entry[1] for entry in self.entries]
        return sum(bursts[code] for codes in self.codes for code in codes)


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

    ``extents`` enumerates sorted, disjoint ``(base_line, n_lines)``
    regions (from :func:`repro.workloads.tracegen.footprint_extents`).
    Lines are generated and compressed in ``chunk``-sized blocks to
    bound peak memory while keeping the batch kernels on large inputs.
    Each block comes from ``line_block`` when given (the batch generator
    of :func:`repro.workloads.data_patterns.make_block_generator`), else
    from one ``line_bytes`` call per line. Pairs are coded in the order
    they first appear.
    """
    extents = tuple(extents)
    line_size = algorithm.line_size
    pair_codes: dict[tuple[int, str], int] = {}
    codes = []
    for base, count in extents:
        line_codes = array("H")
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
            line_codes.extend([
                pair_codes.setdefault(pair, len(pair_codes))
                for pair in algorithm.size_table(block)
            ])
        codes.append(line_codes)
    return CompressionPlane(
        algorithm_name=algorithm.name,
        line_size=algorithm.line_size,
        burst_bytes=burst_bytes,
        key=key,
        extents=extents,
        codes=codes,
        pairs=tuple(pair_codes),
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
    recompressing a single line. The rule runs once per distinct
    combination of component codes, not once per line.
    """
    extents = component_planes[0][1].extents
    if any(plane.extents != extents for _, plane in component_planes):
        raise ValueError("component planes cover different extents")
    pair_codes: dict[tuple[int, str], int] = {}
    combo_codes: dict[tuple[int, ...], int] = {}
    codes = []
    for columns in zip(*(plane.codes for _, plane in component_planes)):
        line_codes = array("H")
        for combo in zip(*columns):
            code = combo_codes.get(combo)
            if code is None:
                tables = []
                for (comp_name, plane), comp_code in zip(
                    component_planes, combo
                ):
                    size, _, encoding, _ = plane.entries[comp_code]
                    tables.append((comp_name, [(size, encoding)]))
                [pair] = compose_size_tables(tables, line_size)
                code = combo_codes[combo] = pair_codes.setdefault(
                    pair, len(pair_codes)
                )
            line_codes.append(code)
        codes.append(line_codes)
    return CompressionPlane(
        algorithm_name=name,
        line_size=line_size,
        burst_bytes=burst_bytes,
        key=key,
        extents=extents,
        codes=codes,
        pairs=tuple(pair_codes),
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
