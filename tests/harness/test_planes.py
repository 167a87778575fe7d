"""Compression-plane integration tests.

The acceptance bar for the plane layer is *exact* equality: every stat a
plane-enabled run reports must be byte-identical to the scalar
per-access path, for multiple apps and design points. Also covers the
in-memory/persistent plane caches and the Fig. 11 plane fast path.
"""

from __future__ import annotations

import pytest

from repro import design as designs
from repro.compression import batch
from repro.gpu.config import GPUConfig
from repro.harness import figures, runner
from repro.harness.cache import RunCache
from repro.harness.runner import (
    RunSpec,
    clear_caches,
    plane_for_app,
    planes_enabled,
    run_spec,
)
from repro.workloads.tracegen import TraceScale

APPS = ("PVC", "MM", "CONS")
SCALE = TraceScale(work=0.25, waves=0.25)


def _design_points():
    return (
        designs.caba("bdi"),
        designs.caba("bestofall"),
        designs.hw_mem("fpc"),
    )


def _fingerprint(result):
    return (
        result.cycles,
        result.ipc,
        result.instructions,
        result.assist_instructions,
        result.bandwidth_utilization,
        result.compression_ratio,
        result.energy.total,
        tuple(sorted((str(k), v) for k, v in result.slot_breakdown.items())),
        result.md_cache_hit_rate,
        tuple(sorted(result.dram_bursts.items())),
        result.l2_hit_rate,
        result.truncated,
        result.occupancy_blocks,
        result.lines_compressed,
        result.l1_stores,
        result.rmw_reads,
    )


def _sweep(config):
    return {
        (app, point.name): _fingerprint(
            run_spec(RunSpec(app, point, config, SCALE), use_cache=False)
        )
        for app in APPS
        for point in _design_points()
    }


def test_plane_stats_identical_to_scalar(monkeypatch):
    """3 apps x 3 designs: planes on == planes off, every stat."""
    config = GPUConfig.small()

    monkeypatch.setenv("REPRO_PLANES", "1")
    clear_caches()
    with_planes = _sweep(config)
    assert runner._plane_cache, "planes never engaged"

    monkeypatch.setenv("REPRO_PLANES", "0")
    clear_caches()
    assert not planes_enabled()
    scalar = _sweep(config)
    assert not runner._plane_cache

    assert with_planes == scalar
    clear_caches()


def test_planes_enabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_PLANES", raising=False)
    assert planes_enabled()


def test_plane_shared_across_designs(monkeypatch):
    """One algorithm plane serves every design that uses the algorithm."""
    monkeypatch.setenv("REPRO_PLANES", "1")
    clear_caches()
    config = GPUConfig.small()
    for point in (designs.caba("bdi"), designs.hw("bdi"),
                  designs.ideal("bdi")):
        run_spec(RunSpec("PVC", point, config, SCALE), use_cache=False)
    # All three designs share one (image, bdi) plane.
    assert len(runner._plane_cache) == 1
    clear_caches()


def test_bestofall_composes_component_planes(monkeypatch):
    monkeypatch.setenv("REPRO_PLANES", "1")
    clear_caches()
    plane = plane_for_app("PVC", "bestofall", 64)
    # bdi/fpc/cpack planes were built as inputs and memoized alongside.
    assert len(runner._plane_cache) == 4
    assert plane.algorithm_name == "bestofall"
    assert all(":" in e or e == "uncompressed" for e in plane.encodings())
    clear_caches()


def test_plane_persistence_round_trip(monkeypatch):
    monkeypatch.setenv("REPRO_PLANES", "1")
    clear_caches()
    built = plane_for_app("MM", "bdi", 96)
    assert len(built) == 96

    cache = RunCache()
    loaded = cache.get_plane(built.key)
    assert loaded is not None
    assert loaded.table == built.table
    assert loaded.algorithm_name == built.algorithm_name

    # A second process (simulated by clearing the memo) hits the disk
    # entry instead of rebuilding.
    runner._plane_cache.clear()
    again = plane_for_app("MM", "bdi", 96)
    assert again.table == built.table

    info = cache.info()
    assert info["plane_entries"] >= 1
    assert info["plane_bytes"] > 0
    # Plane entries are reported separately from run entries.
    assert "entries" in info and "stale_plane_entries" in info
    clear_caches()


def test_plane_disabled_returns_none(monkeypatch):
    monkeypatch.setenv("REPRO_PLANES", "0")
    clear_caches()
    assert plane_for_app("PVC", "bdi", 16) is None
    clear_caches()


def test_fig11_identical_with_and_without_planes(monkeypatch):
    apps = ("PVC", "MUM")
    monkeypatch.setenv("REPRO_PLANES", "1")
    clear_caches()
    with_planes = figures.fig11_compression_ratio(apps=apps, sample_lines=64)
    monkeypatch.setenv("REPRO_PLANES", "0")
    clear_caches()
    scalar = figures.fig11_compression_ratio(apps=apps, sample_lines=64)
    assert with_planes.rows == scalar.rows
    assert with_planes.summary == scalar.summary
    clear_caches()


def test_plane_lookup_keeps_touched_set_lazy(monkeypatch):
    """A plane must not eagerly fill the image's stat-bearing cache."""
    monkeypatch.setenv("REPRO_PLANES", "1")
    clear_caches()
    config = GPUConfig.small()
    from repro.harness.runner import build_image
    from repro.workloads.apps import get_app

    image = build_image(get_app("PVC"), designs.caba("bdi"), config, SCALE)
    assert image.plane is not None
    assert len(image.plane) > 0
    assert image.lines_touched() == 0  # nothing consulted yet
    info = image.info(next(iter(image.plane.table)))
    assert image.lines_touched() == 1
    assert (info.size_bytes, info.encoding) == (
        image.plane.table[next(iter(image.plane.table))][0],
        image.plane.table[next(iter(image.plane.table))][2],
    )
    clear_caches()


def test_store_overrides_shadow_plane(monkeypatch):
    """Dirty-store mutations take precedence over the immutable plane."""
    monkeypatch.setenv("REPRO_PLANES", "1")
    clear_caches()
    config = GPUConfig.small()
    from repro.harness.runner import build_image
    from repro.workloads.apps import get_app

    image = build_image(get_app("PVC"), designs.caba("bdi"), config, SCALE)
    line = next(iter(image.plane.table))
    baseline = image.info(line)
    stored = image.record_store(line, compressed=False)
    assert stored.encoding == "uncompressed"
    assert image.info(line).size_bytes == image.line_size
    # Recompressed stores return to the plane's baseline record.
    assert image.record_store(line, compressed=True) == baseline
    clear_caches()


@pytest.mark.parametrize("algorithm", ["bdi", "fpc", "cpack", "bestofall"])
def test_plane_matches_scalar_sizes(monkeypatch, algorithm):
    """Plane table contents equal scalar compression of the same lines."""
    from repro.compression import make_algorithm
    from repro.workloads.apps import get_app
    from repro.workloads.data_patterns import make_line_generator

    monkeypatch.setenv("REPRO_PLANES", "1")
    clear_caches()
    app = get_app("CONS")
    plane = plane_for_app(app, algorithm, 48)
    algo = make_algorithm(algorithm, 128)
    gen = make_line_generator(app.data, 128, seed=app.seed)
    for line_addr in range(48):
        compressed = algo.compress(gen(line_addr))
        assert plane.table[line_addr][:1] + plane.table[line_addr][2:] == (
            compressed.size_bytes, compressed.encoding,
        )
    clear_caches()


@pytest.mark.skipif(batch.np is None, reason="numpy backend off")
@pytest.mark.parametrize("algorithm", ["bdi", "cpack"])
def test_scalar_generator_builds_the_same_plane(monkeypatch, algorithm):
    """Planes built from the batch line generator equal planes built one
    scalar line at a time (numpy off)."""
    monkeypatch.setenv("REPRO_PLANES", "1")
    monkeypatch.setenv("REPRO_CACHE", "0")
    clear_caches()
    vectorized = plane_for_app("MUM", algorithm, 300)
    clear_caches()
    monkeypatch.setattr(batch, "np", None)
    scalar = plane_for_app("MUM", algorithm, 300)
    assert scalar is not vectorized
    assert scalar.table == vectorized.table
    clear_caches()
