"""The one way unit tests build a :class:`~repro.memory.image.MemoryImage`.

A compressed image reads every line's size from its compression plane
and refuses a line the plane does not cover, so :func:`make_image`
batch-compresses the lines a test can touch into a plane up front, the
way ``harness.runner.build_image`` does for a run's footprint.
"""

from repro.compression import BdiCompressor
from repro.memory.image import MemoryImage
from repro.memory.plane import build_plane

#: Lines ``[0, LINES)`` cover every address the unit tests touch.
LINES = 16384


def make_image(algorithm, line_size=128, line_bytes=None, lines=LINES):
    """An image of ``line_bytes`` (default: all-zero lines) under
    ``algorithm``, or an uncompressed image when it is ``None``."""
    plane = None
    if algorithm is not None:
        if line_bytes is None:
            def line_bytes(line):
                return bytes(line_size)
        plane = build_plane(line_bytes, ((0, lines),), algorithm)
    return MemoryImage(algorithm, line_size, plane=plane)


def make_plane(key, lines=8):
    """A small BDI plane of all-zero lines whose content address is
    ``key`` (for cache tests that need a real plane entry)."""
    return build_plane(lambda line: bytes(128), ((0, lines),),
                       BdiCompressor(128), key=key)


def plane_state(plane):
    """Everything a plane holds, for comparing two planes."""
    return (
        plane.algorithm_name, plane.line_size, plane.burst_bytes, plane.key,
        plane.extents, plane.codes, plane.entries,
    )
