"""The idealized BestOfAll selector (Section 6.3, CABA-BestOfAll).

For every cache line, pick whichever of BDI, FPC and C-Pack yields the
smallest compressed size, with no selection overhead. The paper uses this
design to show that per-line algorithm diversity exists even within one
application (e.g. MUM and KM gain over every single-algorithm design).
"""

from __future__ import annotations

from typing import Sequence

from repro.compression.base import (
    CompressedLine,
    CompressionAlgorithm,
    CompressionError,
    DEFAULT_LINE_SIZE,
)
from repro.compression.bdi import BdiCompressor
from repro.compression.cpack import CPackCompressor
from repro.compression.fpc import FpcCompressor

#: Component set of the paper's CABA-BestOfAll design (Section 6.3),
#: in canonical tie-break priority. When two components compress a
#: line to the same size, the component appearing earlier here wins —
#: on the scalar path, the batch ``size_table`` path *and* the
#: plane-composition path, regardless of the order the caller supplied
#: the components in. BDI leads because it is the paper's flagship
#: algorithm (cheapest assist-warp decompression); names absent from
#: the list rank after it in caller order. ``harness.runner`` composes
#: best-of-all planes from exactly these component planes, and the
#: differential suite (``repro.verify``) enforces that all paths agree.
COMPONENT_PRIORITY: tuple[str, ...] = ("bdi", "fpc", "cpack")


def _priority_rank(name: str) -> int:
    """Position of ``name`` in the canonical tie-break order."""
    try:
        return COMPONENT_PRIORITY.index(name)
    except ValueError:
        return len(COMPONENT_PRIORITY)


def compose_size_tables(
    component_tables: Sequence[tuple[str, Sequence[tuple[int, str]]]],
    line_size: int,
) -> list[tuple[int, str]]:
    """Per-line best-of selection over component ``(size, encoding)`` tables.

    Mirrors ``BestOfAllCompressor._compress_line`` exactly: the
    highest-priority component (see :data:`COMPONENT_PRIORITY`) with
    the strictly smallest size wins, and a winner that failed to shrink
    the line reports plain ``"uncompressed"`` rather than a tagged
    component encoding. Also used to compose cached per-component
    planes into a best-of-all plane without recompressing anything.
    """
    if not component_tables:
        raise CompressionError("need at least one component table")
    # Canonical tie-break order: composition must not depend on the
    # order the caller enumerated the component planes/tables in.
    component_tables = sorted(
        component_tables, key=lambda item: _priority_rank(item[0])
    )
    n_lines = len(component_tables[0][1])
    out: list[tuple[int, str]] = []
    for i in range(n_lines):
        best_size = line_size + 1
        best: tuple[int, str] | None = None
        for name, table in component_tables:
            size, encoding = table[i]
            if size < best_size:
                best_size = size
                best = (size, f"{name}:{encoding}")
        if best is None or best_size >= line_size:
            out.append((line_size, "uncompressed"))
        else:
            out.append(best)
    return out


class BestOfAllCompressor(CompressionAlgorithm):
    """Per-line oracle over a set of component algorithms.

    ``compress`` runs every component and keeps the smallest result;
    ``decompress`` dispatches on the winning component's name.
    """

    name = "bestofall"
    # Idealized: no extra hardware latency beyond the winning algorithm's.
    hw_decompression_latency = 1
    hw_compression_latency = 5

    def __init__(
        self,
        line_size: int = DEFAULT_LINE_SIZE,
        components: Sequence[CompressionAlgorithm] | None = None,
    ) -> None:
        super().__init__(line_size)
        if components is None:
            components = (
                BdiCompressor(line_size),
                FpcCompressor(line_size),
                CPackCompressor(line_size),
            )
        if not components:
            raise CompressionError("BestOfAll needs at least one component")
        mismatched = [c.name for c in components if c.line_size != line_size]
        if mismatched:
            raise CompressionError(
                f"components {mismatched} use a different line size"
            )
        # Store components in canonical priority order so the stable
        # ``min`` in ``_compress_line`` breaks ties exactly like
        # ``compose_size_tables`` does — the selector must not behave
        # differently depending on how the caller ordered the list.
        self.components = tuple(
            sorted(components, key=lambda c: _priority_rank(c.name))
        )
        self._by_name = {c.name: c for c in self.components}

    def _compress_line(self, data: bytes) -> CompressedLine:
        best = min(
            (component._compress_line(data) for component in self.components),
            key=lambda line: line.size_bytes,
        )
        if not best.is_compressed:
            # No component shrank the line: report a plain uncompressed
            # result (a "bdi:uncompressed" tag would wrongly look like a
            # compressed line to the memory system).
            return self._uncompressed(data)
        return CompressedLine(
            algorithm=self.name,
            encoding=f"{best.algorithm}:{best.encoding}",
            size_bytes=best.size_bytes,
            line_size=best.line_size,
            state=best,
        )

    def _size_table(self, lines: list[bytes]) -> list[tuple[int, str]]:
        return compose_size_tables(
            [
                (component.name, component._size_table(lines))
                for component in self.components
            ],
            self.line_size,
        )

    def decompress(self, line: CompressedLine) -> bytes:
        self._check_line(line)
        if line.encoding == "uncompressed":
            return bytes(line.state)
        inner: CompressedLine = line.state
        component = self._by_name.get(inner.algorithm)
        if component is None:
            raise CompressionError(
                f"no component named {inner.algorithm!r} in this selector"
            )
        return component.decompress(inner)
