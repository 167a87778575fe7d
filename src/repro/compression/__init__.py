"""Cache-line compression algorithms (BDI, FPC, C-Pack, BestOfAll).

These are the algorithms the CABA paper maps onto assist warps. Each one
offers byte-exact ``compress``/``decompress`` over a single cache line and
reports compressed sizes in bytes, from which DRAM-burst counts (the
paper's unit of bandwidth savings) are derived.
"""

from repro.compression.base import (
    BURST_BYTES,
    DEFAULT_LINE_SIZE,
    CompressedLine,
    CompressionAlgorithm,
    CompressionError,
    bursts_for,
)
from repro.compression.bdi import BDI_ENCODINGS, BdiCompressor, BdiEncoding
from repro.compression.bestofall import BestOfAllCompressor
from repro.compression.cpack import CPackCompressor, DICTIONARY_ENTRIES
from repro.compression.fpc import (
    FPC_PATTERNS,
    FPC_REDUCED_PATTERNS,
    FpcCompressor,
    FpcPattern,
)

#: Registry of algorithm constructors by name, used by the harness.
ALGORITHMS = {
    "bdi": BdiCompressor,
    "fpc": FpcCompressor,
    "cpack": CPackCompressor,
    "bestofall": BestOfAllCompressor,
}


def make_algorithm(name: str, line_size: int = DEFAULT_LINE_SIZE) -> CompressionAlgorithm:
    """Instantiate a compression algorithm by registry name."""
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise CompressionError(f"unknown algorithm {name!r} (known: {known})")
    return factory(line_size)


__all__ = [
    "ALGORITHMS",
    "BDI_ENCODINGS",
    "BURST_BYTES",
    "DEFAULT_LINE_SIZE",
    "DICTIONARY_ENTRIES",
    "FPC_PATTERNS",
    "FPC_REDUCED_PATTERNS",
    "BdiCompressor",
    "BdiEncoding",
    "BestOfAllCompressor",
    "CPackCompressor",
    "CompressedLine",
    "CompressionAlgorithm",
    "CompressionError",
    "FpcCompressor",
    "FpcPattern",
    "bursts_for",
    "make_algorithm",
]
