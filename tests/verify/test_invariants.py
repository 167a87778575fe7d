"""Conservation invariants: they hold on a real run, and each one trips
when its counters are tampered with."""

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness.runner import clear_caches, run_app
from repro.memory.compressed_cache import CompressedCache
from repro.verify.invariants import _check_run, check_invariants
from repro.workloads.tracegen import TraceScale

CONFIG = GPUConfig.small()
SCALE = TraceScale(work=0.25, waves=0.25)


@pytest.fixture(scope="module")
def replayed():
    clear_caches()
    return run_app(
        "PVC", designs.caba("bdi"), config=CONFIG, scale=SCALE,
        use_cache=False, keep_raw=True,
    )


def _by_kind(results):
    return {r.name.split(".")[1]: r for r in results}


class TestCleanRun:
    def test_all_invariants_hold(self, replayed):
        results = _check_run("PVC.CABA-BDI", replayed, CONFIG)
        failures = [r for r in results if not r.passed]
        assert not failures, failures
        assert set(_by_kind(results)) == {
            "slots", "mshr", "flits", "dram", "cache",
        }

    def test_checker_is_read_only(self, replayed):
        before = replayed.raw.memory.stats.mshr_allocs
        _check_run("x", replayed, CONFIG)
        _check_run("x", replayed, CONFIG)
        assert replayed.raw.memory.stats.mshr_allocs == before

    def test_mshr_traffic_is_nontrivial(self, replayed):
        stats = replayed.raw.memory.stats
        assert stats.mshr_allocs > 0
        assert stats.mshr_allocs == stats.mshr_releases


class TestTamperedCountersAreCaught:
    """Each conservation law must fail when one side is perturbed.
    Counters are restored after each check so the module-scoped run
    stays clean for other tests."""

    def _failing(self, replayed, kind):
        results = _check_run("t", replayed, CONFIG)
        return _by_kind(results)[kind]

    def test_mshr_imbalance(self, replayed):
        stats = replayed.raw.memory.stats
        stats.mshr_allocs += 1
        try:
            result = self._failing(replayed, "mshr")
            assert not result.passed
            assert "allocs" in result.detail
        finally:
            stats.mshr_allocs -= 1

    def test_flit_imbalance(self, replayed):
        xbar = replayed.raw.memory.crossbar
        xbar.request_flits += 1
        try:
            result = self._failing(replayed, "flits")
            assert not result.passed
            assert "flits" in result.detail
        finally:
            xbar.request_flits -= 1

    def test_dram_burst_imbalance(self, replayed):
        mc = replayed.raw.memory.mcs[0]
        mc.stats.read_bursts += 1
        try:
            result = self._failing(replayed, "dram")
            assert not result.passed
            assert "bursts" in result.detail
        finally:
            mc.stats.read_bursts -= 1

    def test_slot_imbalance(self, replayed):
        stalls = replayed.raw.stats.sms[0].stalls
        stalls[0] += 1
        try:
            result = self._failing(replayed, "slots")
            assert not result.passed
            assert "SM 0" in result.detail
        finally:
            stalls[0] -= 1


class TestCompressedCacheAudit:
    def test_clean_cache_audits_empty(self):
        cache = CompressedCache(
            n_sets=8, assoc=4, line_size=128, tag_mult=2
        )
        for line in range(64):
            cache.access(line, 1 + line % 128)
        assert cache.audit() == []

    def test_tampered_used_counter_is_reported(self):
        cache = CompressedCache(
            n_sets=4, assoc=2, line_size=128, tag_mult=2
        )
        cache.access(0, 40)
        index = cache._set_index(0)
        cache._used[index] += 1
        problems = cache.audit()
        assert problems and "entries sum" in problems[0]

    def test_over_budget_is_reported(self):
        cache = CompressedCache(
            n_sets=4, assoc=2, line_size=128, tag_mult=2
        )
        cache.access(0, 128)
        index = cache._set_index(0)
        entry = cache._sets[index][0]
        entry.size = 999  # corrupt past the budget
        cache._used[index] = 999
        problems = cache.audit()
        assert any("budget" in p for p in problems)
        assert any("bad size" in p for p in problems)


class TestEndToEnd:
    def test_check_invariants_single_pair(self):
        results = check_invariants(
            apps=("PVC",), algorithms=("bdi",),
            config=CONFIG, scale=SCALE,
        )
        failures = [r for r in results if not r.passed]
        assert not failures, failures
        # One CABA design + the compressed-cache design, 5 checks each.
        assert len(results) == 10
        cache_checks = [r for r in results
                        if r.name.startswith("invariant.cache")
                        and "L2-2x" in r.name]
        assert cache_checks and all(r.checked > 0 for r in cache_checks)
