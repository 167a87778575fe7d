"""Determinism and cache-correctness tests for the parallel engine.

The contract under test: one :class:`RunSpec` produces byte-identical
metrics no matter how it is executed — serially in-process, through the
worker pool, or recalled from a cold/warm persistent cache — and the
persistent cache invalidates itself when the source stamp changes.
"""

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness import parallel
from repro.harness import runner as runner_mod
from repro.harness.cache import RunCache
from repro.harness.runner import RunSpec, clear_caches, run_app, run_spec
from repro.workloads.tracegen import TraceScale

#: Shrunk workload so each simulation stays well under a second.
SCALE = TraceScale(work=0.25)


def _specs():
    config = GPUConfig.small()
    return [
        RunSpec("PVC", designs.caba(), config, scale=SCALE),
        RunSpec("MM", designs.base(), config, scale=SCALE),
    ]


def _metrics(run):
    return (run.cycles, run.ipc, run.compression_ratio, run.energy.total)


class TestPoolDeterminism:
    def test_pool_matches_serial(self):
        specs = _specs()
        clear_caches()
        serial = [run_spec(spec, use_cache=False) for spec in specs]
        clear_caches()
        with parallel.ExperimentEngine(jobs=2) as engine:
            pooled = engine.run_many(specs)
        assert len(pooled) == len(serial)
        for a, b in zip(serial, pooled):
            assert _metrics(a) == _metrics(b)
            assert a.slot_breakdown == b.slot_breakdown

    def test_run_many_preserves_order_and_dedupes(self):
        first, second = _specs()
        with parallel.ExperimentEngine(jobs=1) as engine:
            out = engine.run_many([first, second, first])
        assert [run.app for run in out] == [first.app, second.app, first.app]
        assert out[0] is out[2]

    def test_serial_engine_matches_run_spec(self):
        spec = _specs()[1]
        with parallel.ExperimentEngine(jobs=1) as engine:
            assert engine.run_many([spec])[0] is run_spec(spec)

    def test_pool_and_serial_carry_equal_stall_counts(self):
        """A pool worker's result carries the stall counts a serial run
        counts, category by category and SM by SM."""
        specs = _specs()
        clear_caches()
        with parallel.ExperimentEngine(jobs=2) as engine:
            pooled = engine.run_many(specs)
        clear_caches()
        with parallel.ExperimentEngine(jobs=1) as engine:
            serial = engine.run_many(specs)
        for a, b in zip(pooled, serial):
            assert a is not b
            assert a.stalls["per_sm"]
            assert a.stalls == b.stalls

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            parallel.ExperimentEngine(jobs=0)


class TestPersistentCache:
    def test_cold_then_warm_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_caches()
        spec = _specs()[1]
        cold = run_spec(spec)
        assert RunCache(root=tmp_path).get(spec) is not None

        # Drop the in-process memo; the warm path must come from disk —
        # prove it by making simulation impossible.
        clear_caches()

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("warm lookup re-simulated")

        monkeypatch.setattr(runner_mod, "_simulate", boom)
        warm = run_spec(spec)
        assert warm is not cold
        assert _metrics(warm) == _metrics(cold)

    def test_warm_run_carries_the_cold_runs_stall_counts(
        self, tmp_path, monkeypatch
    ):
        """Stall counts persist with the run: a result served from disk
        explains itself exactly as the cold run did."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_caches()
        cold = run_app("PVC", designs.caba())
        clear_caches()
        monkeypatch.setattr(runner_mod, "_simulate", None)
        warm = run_app("PVC", designs.caba())
        assert warm is not cold
        assert sum(cold.stalls["totals"].values()) > 0
        assert warm.stalls["per_sm"] == cold.stalls["per_sm"]
        assert warm.stalls == cold.stalls

    def test_stamp_change_invalidates(self, tmp_path):
        spec = _specs()[1]
        result = run_spec(spec, use_cache=False)
        old = RunCache(root=tmp_path, stamp="aaaaaaaaaaaaaaaa")
        new = RunCache(root=tmp_path, stamp="bbbbbbbbbbbbbbbb")
        old.put(spec, result)
        assert old.get(spec) is not None
        # A new source stamp never looks the old entry up again.
        assert new.get(spec) is None
        info = new.info()
        assert info["entries"] == 0
        assert info["stale_entries"] == 1
        assert new.clear() == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        spec = _specs()[1]
        result = run_spec(spec, use_cache=False)
        cache = RunCache(root=tmp_path)
        cache.put(spec, result)
        path = cache._path(cache.key(spec))
        # 'g' is a valid pickle opcode with an int argument, so this
        # raises ValueError (not PickleError) from a naive load.
        path.write_bytes(b"garbage\n")
        assert cache.get(spec) is None

    def test_put_refuses_raw_state(self, tmp_path):
        spec = _specs()[1]
        heavy = run_spec(spec, use_cache=False, keep_raw=True)
        assert heavy.raw is not None
        with pytest.raises(ValueError):
            RunCache(root=tmp_path).put(spec, heavy)

    def test_disabled_cache_returns_no_handle(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        clear_caches()
        from repro.harness.cache import get_cache

        assert get_cache() is None
        monkeypatch.delenv("REPRO_CACHE")
        clear_caches()
