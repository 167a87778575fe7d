"""Compression-plane integration tests.

Every compressed image the runner builds reads its line sizes from a
plane, so the acceptance bar is *exact* agreement with the scalar
reference: each line a run touches, at its real address, must carry the
size and encoding scalar ``compress()`` gives the scalar generator's
bytes, for multiple apps and design points. Also covers the
in-memory/persistent plane caches and the Fig. 11 plane path.
"""

from __future__ import annotations

import pickle

import pytest

from repro import design as designs
from repro.compression import batch, make_algorithm
from repro.compression.base import bursts_for
from repro.gpu.config import GPUConfig
from repro.harness import figures, runner
from repro.harness.cache import RunCache
from repro.harness.runner import (
    RunSpec,
    build_image,
    clear_caches,
    plane_for_app,
    run_spec,
)
from repro.workloads.apps import get_app
from repro.workloads.data_patterns import make_line_generator
from repro.workloads.tracegen import TraceScale
from tests.images import plane_state

APPS = ("PVC", "MM", "CONS")
SCALE = TraceScale(work=0.25, waves=0.25)


def _design_points():
    return (
        designs.caba("bdi"),
        designs.caba("bestofall"),
        designs.hw_mem("fpc"),
    )


def test_plane_stats_identical_to_scalar():
    """3 apps x 3 designs: every line a run touches is in its plane,
    and every line it looked up carries scalar ``compress()``'s size
    and encoding for that line's bytes."""
    config = GPUConfig.small()
    clear_caches()
    for app in APPS:
        profile = get_app(app)
        gen = make_line_generator(profile.data, config.line_size,
                                  seed=profile.seed)
        for point in _design_points():
            run = run_spec(RunSpec(app, point, config, SCALE),
                           use_cache=False, keep_raw=True)
            image = run.raw.memory.image
            where = (app, point.name)
            assert image.plane is not None, where
            # Every line the run looked up or stored.
            touched = image.touched_lines()
            assert touched, where
            algorithm = make_algorithm(point.algorithm, config.line_size)
            for line in touched:
                entry = image.plane.entry(line)
                assert entry is not None, (where, line)
                compressed = algorithm.compress(gen(line))
                assert (entry[0], entry[2]) == (
                    compressed.size_bytes, compressed.encoding,
                ), (where, line)
    clear_caches()


def test_plane_shared_across_designs():
    """One algorithm plane serves every design that uses the algorithm."""
    clear_caches()
    config = GPUConfig.small()
    for point in (designs.caba("bdi"), designs.hw("bdi"),
                  designs.ideal("bdi")):
        run_spec(RunSpec("PVC", point, config, SCALE), use_cache=False)
    # All three designs share one (image, bdi) plane.
    assert len(runner._plane_cache) == 1
    clear_caches()


def test_bestofall_composes_component_planes():
    clear_caches()
    plane = plane_for_app("PVC", "bestofall", 64)
    # bdi/fpc/cpack planes were built as inputs and memoized alongside.
    assert len(runner._plane_cache) == 4
    assert plane.algorithm_name == "bestofall"
    assert all(":" in e or e == "uncompressed" for e in plane.encodings())
    clear_caches()


def test_plane_persistence_round_trip():
    clear_caches()
    built = plane_for_app("MM", "bdi", 96)
    assert len(built) == 96

    cache = RunCache()
    loaded = cache.get_plane(built.key)
    assert loaded is not None
    assert plane_state(loaded) == plane_state(built)
    # Entries are rebuilt from the shared LineInfo records on load.
    assert all(a[3] is b[3] for a, b in zip(loaded.entries, built.entries))

    # A second process (simulated by clearing the memo) hits the disk
    # entry instead of rebuilding.
    runner._plane_cache.clear()
    again = plane_for_app("MM", "bdi", 96)
    assert again is not built
    assert plane_state(again) == plane_state(built)

    info = cache.info()
    assert info["plane_entries"] >= 1
    assert info["plane_bytes"] > 0
    # Plane entries are reported separately from run entries.
    assert "entries" in info and "stale_plane_entries" in info
    clear_caches()


def test_fig11_matches_scalar_reference():
    """Fig. 11 ratios read from planes equal the ratios of scalar
    ``compress()`` over the same sampled lines."""
    apps, lines = ("PVC", "MUM"), 64
    clear_caches()
    fig = figures.fig11_compression_ratio(apps=apps, sample_lines=lines)
    for app_name, row in zip(apps, fig.rows):
        app = get_app(app_name)
        gen = make_line_generator(app.data, 128, seed=app.seed)
        for algo in figures.ALGORITHM_ORDER:
            comp = make_algorithm(algo, 128)
            bursts = sum(comp.compress(gen(i)).bursts() for i in range(lines))
            assert row[algo.upper()] == lines * (128 // 32) / bursts, (
                app_name, algo)
    clear_caches()


def test_plane_lookup_keeps_touched_set_lazy():
    """A plane must not eagerly fill the image's stat-bearing cache."""
    clear_caches()
    config = GPUConfig.small()
    image = build_image(get_app("PVC"), designs.caba("bdi"), config, SCALE)
    assert image.plane is not None
    assert len(image.plane) > 0
    assert image.touched_lines() == []  # nothing consulted yet
    first = image.plane.extents[0][0]
    info = image.info(first)
    assert image.touched_lines() == [first]
    entry = image.plane.entry(first)
    assert (info.size_bytes, info.encoding) == (entry[0], entry[2])
    clear_caches()


def test_store_overrides_shadow_plane():
    """Dirty-store mutations take precedence over the immutable plane."""
    clear_caches()
    config = GPUConfig.small()
    image = build_image(get_app("PVC"), designs.caba("bdi"), config, SCALE)
    line = image.plane.extents[0][0]
    baseline = image.info(line)
    stored = image.record_store(line, compressed=False)
    assert stored.encoding == "uncompressed"
    assert image.info(line).size_bytes == image.line_size
    # Recompressed stores return to the plane's baseline record.
    assert image.record_store(line, compressed=True) == baseline
    clear_caches()


@pytest.mark.parametrize("algorithm", ["bdi", "fpc", "cpack", "bestofall"])
def test_plane_matches_scalar_sizes(algorithm):
    """Plane table contents equal scalar compression of the same lines."""
    clear_caches()
    app = get_app("CONS")
    plane = plane_for_app(app, algorithm, 48)
    algo = make_algorithm(algorithm, 128)
    gen = make_line_generator(app.data, 128, seed=app.seed)
    for line_addr in range(48):
        compressed = algo.compress(gen(line_addr))
        entry = plane.entry(line_addr)
        assert (entry[0], entry[2]) == (
            compressed.size_bytes, compressed.encoding,
        )
    clear_caches()


@pytest.mark.parametrize("algorithm", ["bdi", "fpc", "cpack", "bestofall"])
def test_plane_layout_matches_size_table(algorithm):
    """Over a footprint of several extents, every line's entry, the
    plane's encodings and its length equal what ``size_table`` and
    ``bursts_for`` give for the same lines; lines between and outside
    the extents are uncovered."""
    clear_caches()
    app = get_app("PVC")
    extents = ((0, 70), (1000, 5), (5000, 300))
    plane = runner._plane_for(app, algorithm, 128, 32, extents)
    gen = make_line_generator(app.data, 128, seed=app.seed)
    lines = [base + i for base, count in extents for i in range(count)]
    table = make_algorithm(algorithm, 128).size_table(
        [gen(line) for line in lines])
    for line, (size, encoding) in zip(lines, table):
        assert plane.entry(line)[:3] == (
            size, bursts_for(size, 32), encoding), line
    assert plane.encodings() == {encoding for _, encoding in table}
    assert len(plane) == len(lines) == 375
    assert plane.total_bursts() == sum(
        bursts_for(size, 32) for size, _ in table)
    for line in (-1, 70, 999, 1005, 4999, 5300):
        assert plane.entry(line) is None, line
    clear_caches()


def test_plane_pickles_to_two_bytes_a_line():
    """Footprint guard: a plane stores one 16-bit code per line plus a
    few entries, never a record per line."""
    clear_caches()
    for algorithm in ("bdi", "bestofall"):
        plane = plane_for_app("PVC", algorithm, 8192)
        size = len(pickle.dumps(plane, protocol=pickle.HIGHEST_PROTOCOL))
        assert size <= 2 * len(plane) + 4096, (algorithm, size)
    clear_caches()


@pytest.mark.skipif(batch.np is None, reason="numpy backend off")
@pytest.mark.parametrize("algorithm", ["bdi", "cpack"])
def test_scalar_generator_builds_the_same_plane(monkeypatch, algorithm):
    """Planes built from the batch line generator equal planes built one
    scalar line at a time (numpy off)."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    clear_caches()
    vectorized = plane_for_app("MUM", algorithm, 300)
    clear_caches()
    monkeypatch.setattr(batch, "np", None)
    scalar = plane_for_app("MUM", algorithm, 300)
    assert scalar is not vectorized
    assert plane_state(scalar) == plane_state(vectorized)
    clear_caches()
