"""Differential testing of the compressed-size computation paths.

The simulator obtains a line's compressed size several ways, all of
which must agree byte-for-byte or runs become backend-dependent:

1. scalar ``compress()`` per line (the reference every other path
   must match),
2. the numpy whole-image batch kernels (when numpy is installed),
3. the batch path without numpy — the scalar reference for BDI and
   FPC, C-Pack's size-only loop over the big-int word split,
4. cached :class:`~repro.memory.plane.CompressionPlane` lookups — for
   ``bestofall`` these are *composed* from the component planes, which
   additionally exercises the tie-breaking rule of
   :data:`repro.compression.bestofall.COMPONENT_PRIORITY`.

Each path is reduced to the same ``(size, bursts, encoding)`` triple per
line of a real application image and compared for equality.

Planes are built from the batch line generator
(:func:`repro.workloads.data_patterns.make_block_generator`) when numpy
is on, so each image is also generated both ways, and a byte difference
fails every algorithm of that app as "batch vs scalar line bytes".
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

from repro.compression import batch as batch_mod
from repro.compression import make_algorithm
from repro.compression.base import bursts_for
from repro.harness.runner import plane_for_app
from repro.verify.report import CheckResult
from repro.workloads.apps import get_app
from repro.workloads.data_patterns import (
    make_block_generator,
    make_line_generator,
)

#: Apps whose images the differential suite compresses by default —
#: chosen to span the mixtures of Figure 11 (BDI-friendly, FPC-friendly,
#: dictionary-friendly, incompressible).
DEFAULT_APPS: tuple[str, ...] = ("PVC", "MM", "LPS", "MUM")


@contextmanager
def _forced_pure_backend():
    """Temporarily take the batch path without numpy."""
    saved = batch_mod.np
    batch_mod.np = None
    try:
        yield
    finally:
        batch_mod.np = saved


def _first_diff(
    a: list[tuple[int, int, str]], b: list[tuple[int, int, str]]
) -> str:
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            return f"line {index}: {left} != {right}"
    return f"length mismatch: {len(a)} != {len(b)}"


def _image_diff(line_block, image: list[bytes]) -> str | None:
    """Where the batch generator's image differs from the scalar one."""
    if line_block is None:
        return None
    block = line_block(0, len(image))
    for index, data in enumerate(image):
        got = block[index].tobytes()
        if got != data:
            offset = next(
                i for i, (a, b) in enumerate(zip(got, data)) if a != b
            )
            return (
                f"batch vs scalar line bytes: line {index}, byte {offset}: "
                f"{got[offset]:#04x} != {data[offset]:#04x}"
            )
    return None


def differential_check(
    apps: Sequence[str] = DEFAULT_APPS,
    algorithms: Sequence[str] = ("bdi", "fpc", "cpack", "bestofall"),
    lines: int = 2048,
    line_size: int = 128,
    burst_bytes: int = 32,
) -> list[CheckResult]:
    """Compare every size path on every (app, algorithm) pair."""
    results: list[CheckResult] = []
    for app_name in apps:
        profile = get_app(app_name)
        line_bytes = make_line_generator(
            profile.data, line_size=line_size, seed=profile.seed
        )
        image = [line_bytes(i) for i in range(lines)]
        image_failure = _image_diff(
            make_block_generator(
                profile.data, line_size=line_size, seed=profile.seed
            ),
            image,
        )
        for algorithm_name in algorithms:
            algorithm = make_algorithm(algorithm_name, line_size)
            failure = image_failure

            scalar = [
                (c.size_bytes, bursts_for(c.size_bytes, burst_bytes),
                 c.encoding)
                for c in map(algorithm.compress, image)
            ]

            def to_triples(table: list[tuple[int, str]]):
                return [
                    (size, bursts_for(size, burst_bytes), encoding)
                    for size, encoding in table
                ]

            if failure is None and batch_mod.np is not None:
                vectorized = to_triples(algorithm.size_table(image))
                if vectorized != scalar:
                    failure = "numpy batch vs scalar: " + _first_diff(
                        vectorized, scalar
                    )

            if failure is None:
                with _forced_pure_backend():
                    pure = to_triples(algorithm.size_table(image))
                if pure != scalar:
                    failure = "pure batch vs scalar: " + _first_diff(
                        pure, scalar
                    )

            if failure is None:
                plane = plane_for_app(
                    profile, algorithm_name, lines,
                    line_size=line_size, burst_bytes=burst_bytes,
                )
                from_plane = [plane.table[i] for i in range(lines)]
                if from_plane != scalar:
                    failure = "plane vs scalar: " + _first_diff(
                        from_plane, scalar
                    )

            results.append(CheckResult(
                name=f"differential.{app_name}.{algorithm_name}",
                passed=failure is None,
                checked=lines,
                detail=failure or "",
            ))
    return results
