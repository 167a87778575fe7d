"""Fault-tolerance tests for the parallel experiment engine.

The contract under test: a worker crash, a killed worker process
(``BrokenProcessPool``) or a hung worker must never discard completed
sibling results — surviving specs all complete, transient failures
retry to success, results produced through any failure path stay
byte-identical to a clean serial run, and exhausted specs surface as
structured :class:`RunFailure` records naming the right spec and
attempt. Faults are injected deterministically through the
``REPRO_FAULT_SPEC`` hook (see :func:`repro.harness.parallel.
maybe_inject_fault`), which runs inside the worker processes.
"""

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness import parallel
from repro.harness.cache import RunCache
from repro.harness.parallel import (
    BatchResult,
    ExperimentEngine,
    ExperimentFailure,
    RunFailure,
    _Fault,
    _fault_for,
    _parse_faults,
    render_failures,
)
from repro.harness.runner import RunSpec, clear_caches, run_spec
from repro.workloads.tracegen import TraceScale

#: Shrunk workload so each simulation stays well under a second.
SCALE = TraceScale(work=0.25)

#: The fault target plus two innocent-bystander specs.
FAULTED_APP = "PVC"


def _specs():
    config = GPUConfig.small()
    return [
        RunSpec(FAULTED_APP, designs.caba(), config, scale=SCALE),
        RunSpec("MM", designs.base(), config, scale=SCALE),
        RunSpec("CONS", designs.caba(), config, scale=SCALE),
    ]


def _metrics(run):
    return (run.cycles, run.ipc, run.compression_ratio, run.energy.total,
            tuple(sorted(run.slot_breakdown.items())))


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    """Private cache dir, zero backoff, and no inherited fault knobs."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(parallel, "_BACKOFF_BASE", 0.0)
    for var in ("REPRO_FAULT_SPEC", "REPRO_RUN_TIMEOUT", "REPRO_RETRIES"):
        monkeypatch.delenv(var, raising=False)
    clear_caches()
    yield
    clear_caches()


class TestFaultParsing:
    def test_single_entry_defaults_to_first_attempt(self):
        (fault,) = _parse_faults("PVC:raise")
        assert fault == _Fault("PVC", None, "raise", 1)

    def test_design_attempt_and_wildcard(self):
        faults = _parse_faults("PVC@CABA-BDI:kill:2; MM:hang:*")
        assert faults[0] == _Fault("PVC", "CABA-BDI", "kill", 2)
        assert faults[1] == _Fault("MM", None, "hang", None)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            _parse_faults("PVC:explode")

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            _parse_faults("PVC")

    def test_fault_for_matches_spec_and_attempt(self, monkeypatch):
        target, innocent, _ = _specs()
        monkeypatch.setenv("REPRO_FAULT_SPEC",
                           f"{FAULTED_APP}@{target.design.name}:raise:1")
        assert _fault_for(target, 1) == "raise"
        assert _fault_for(target, 2) is None
        assert _fault_for(innocent, 1) is None

    def test_no_env_is_a_noop(self):
        assert _fault_for(_specs()[0], 1) is None


class TestSerialRetry:
    """jobs=1 shares the retry/failure contract (minus timeouts)."""

    def test_single_shot_crash_retries_to_success(self, monkeypatch):
        specs = _specs()
        clean = [run_spec(s, use_cache=False) for s in specs]
        clear_caches()
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{FAULTED_APP}:raise:1")
        with ExperimentEngine(jobs=1, retries=1) as engine:
            out = engine.run_many(specs)
        assert [_metrics(a) for a in out] == [_metrics(b) for b in clean]

    def test_exhausted_retries_raise_with_spec_and_attempt(
            self, monkeypatch):
        specs = _specs()
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{FAULTED_APP}:raise:*")
        with ExperimentEngine(jobs=1, retries=1) as engine:
            with pytest.raises(ExperimentFailure) as excinfo:
                engine.run_many(specs, label="unit")
        failure = excinfo.value.failures[0]
        assert failure.spec == specs[0]
        assert failure.kind == "error"
        assert failure.attempts == 2  # initial try + one retry
        assert "InjectedFault" in failure.exception
        assert "injected fault" in failure.traceback
        # The siblings completed despite the failure.
        assert set(excinfo.value.completed) == set(specs[1:])
        assert "[unit]" in str(excinfo.value)

    def test_strict_false_returns_partial_results(self, monkeypatch):
        specs = _specs()
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{FAULTED_APP}:raise:*")
        with ExperimentEngine(jobs=1, retries=0) as engine:
            batch = engine.run_many(specs, strict=False)
        assert isinstance(batch, BatchResult)
        assert not batch.ok
        assert batch.results[0] is None
        assert batch.results[1] is not None
        assert batch.results[2] is not None
        assert len(batch.completed()) == 2
        (failure,) = batch.failures
        assert failure.spec == specs[0]
        assert failure.attempts == 1


class TestPoolCrash:
    def test_single_shot_crash_retries_and_matches_serial(
            self, monkeypatch):
        specs = _specs()
        clean = [run_spec(s, use_cache=False) for s in specs]
        clear_caches()
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{FAULTED_APP}:raise:1")
        with ExperimentEngine(jobs=2, retries=1) as engine:
            out = engine.run_many(specs)
            assert engine.pool_respawns == 0  # exception, not a kill
        assert [_metrics(a) for a in out] == [_metrics(b) for b in clean]

    def test_persistent_crash_spares_survivors(self, monkeypatch):
        specs = _specs()
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{FAULTED_APP}:raise:*")
        with ExperimentEngine(jobs=2, retries=1) as engine:
            batch = engine.run_many(specs, strict=False)
        assert batch.results[0] is None
        assert all(run is not None for run in batch.results[1:])
        (failure,) = batch.failures
        assert failure.spec == specs[0]
        assert failure.attempts == 2
        assert failure.worker_pid is not None
        assert "InjectedFault" in failure.traceback
        assert "PVC" in render_failures(batch.failures)

    def test_worker_failures_report_distinct_specs(self, monkeypatch):
        specs = _specs()
        monkeypatch.setenv(
            "REPRO_FAULT_SPEC", f"{FAULTED_APP}:raise:*;CONS:raise:*"
        )
        with ExperimentEngine(jobs=2, retries=0) as engine:
            batch = engine.run_many(specs, strict=False)
        assert {f.spec for f in batch.failures} == {specs[0], specs[2]}
        assert batch.results[1] is not None


class TestBrokenPool:
    def test_killed_worker_respawns_pool_and_recovers(self, monkeypatch):
        specs = _specs()
        clean = [run_spec(s, use_cache=False) for s in specs]
        clear_caches()
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{FAULTED_APP}:kill:1")
        with ExperimentEngine(jobs=2, retries=1) as engine:
            out = engine.run_many(specs)
            assert engine.pool_respawns >= 1
        assert [_metrics(a) for a in out] == [_metrics(b) for b in clean]

    def test_kill_without_retries_reports_pool_broken(self, monkeypatch):
        specs = _specs()
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{FAULTED_APP}:kill:*")
        with ExperimentEngine(jobs=2, retries=0) as engine:
            batch = engine.run_many(specs, strict=False)
        assert batch.results[0] is None
        # The culprit is unattributable inside a broken pool, so the
        # faulted spec fails as pool-broken; innocent in-flight specs
        # may have burned an attempt but must still complete.
        faulted = [f for f in batch.failures if f.spec == specs[0]]
        assert faulted and faulted[0].kind == "pool-broken"
        assert all(run is not None for run in batch.results[1:])


class TestTimeout:
    def test_hung_worker_is_cancelled_and_retried(self, monkeypatch):
        specs = _specs()
        clean = [run_spec(s, use_cache=False) for s in specs]
        clear_caches()
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{FAULTED_APP}:hang:1")
        with ExperimentEngine(jobs=2, retries=1, timeout=1.5) as engine:
            out = engine.run_many(specs)
            assert engine.pool_respawns >= 1
        assert [_metrics(a) for a in out] == [_metrics(b) for b in clean]

    def test_persistent_hang_reports_timeout(self, monkeypatch):
        specs = _specs()
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{FAULTED_APP}:hang:*")
        with ExperimentEngine(jobs=2, retries=0, timeout=1.5) as engine:
            batch = engine.run_many(specs, strict=False)
        (failure,) = batch.failures
        assert failure.spec == specs[0]
        assert failure.kind == "timeout"
        assert failure.attempts == 1
        assert all(run is not None for run in batch.results[1:])

    def test_env_timeout_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2.5")
        assert ExperimentEngine(jobs=2).timeout == 2.5
        # 0, and values ``wait`` cannot take (they overflow or spin),
        # disable the timeout.
        for value in ("0", "inf", "1e10"):
            monkeypatch.setenv("REPRO_RUN_TIMEOUT", value)
            assert ExperimentEngine(jobs=2).timeout is None
        assert ExperimentEngine(jobs=2, timeout=float("nan")).timeout is None
        # An explicit constructor argument wins over the environment.
        assert ExperimentEngine(jobs=2, timeout=1.0).timeout == 1.0


class TestCombinedFaults:
    def test_crash_plus_hang_in_one_sweep(self, monkeypatch):
        """The acceptance scenario: one spec's worker crashed AND
        another hung past the timeout, single-shot each — every spec
        still completes, byte-identical to serial."""
        specs = _specs()
        clean = [run_spec(s, use_cache=False) for s in specs]
        clear_caches()
        monkeypatch.setenv(
            "REPRO_FAULT_SPEC",
            f"{FAULTED_APP}:raise:1;CONS:hang:1",
        )
        with ExperimentEngine(jobs=2, retries=1, timeout=1.5) as engine:
            out = engine.run_many(specs)
        assert [_metrics(a) for a in out] == [_metrics(b) for b in clean]


class TestCheckpointing:
    def test_completed_siblings_survive_a_strict_failure(
            self, tmp_path, monkeypatch):
        """A failed batch must not discard its completed runs: they are
        checkpointed to the persistent cache as they land."""
        specs = _specs()
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{FAULTED_APP}:raise:*")
        with ExperimentEngine(jobs=2, retries=0) as engine:
            with pytest.raises(ExperimentFailure) as excinfo:
                engine.run_many(specs)
        assert set(excinfo.value.completed) == set(specs[1:])
        disk = RunCache(root=tmp_path / "cache")
        for spec in specs[1:]:
            assert disk.get(spec) is not None, spec.app
        assert disk.get(specs[0]) is None

    def test_rerun_after_failure_only_redoes_the_failure(
            self, monkeypatch):
        specs = _specs()
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{FAULTED_APP}:raise:*")
        with ExperimentEngine(jobs=2, retries=0) as engine:
            engine.run_many(specs, strict=False)
        # Clear the fault; the rerun resolves the siblings from cache
        # and only simulates the previously failed spec.
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        clear_caches()  # drop the in-process memo, keep the disk cache
        with ExperimentEngine(jobs=2, retries=0) as engine:
            out = engine.run_many(specs)
        assert all(run is not None for run in out)


class TestDefaults:
    def test_retry_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "3")
        assert ExperimentEngine(jobs=1).retries == 3
        monkeypatch.setenv("REPRO_RETRIES", "bogus")
        assert ExperimentEngine(jobs=1).retries == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=1, retries=-1)

    def test_run_specs_passthrough(self, monkeypatch):
        spec = _specs()[1]
        monkeypatch.setenv("REPRO_FAULT_SPEC", "MM:raise:*")
        parallel.shutdown()
        try:
            batch = parallel.run_specs([spec], strict=False, label="x")
            assert isinstance(batch, BatchResult)
            assert batch.failures and batch.failures[0].spec == spec
        finally:
            parallel.shutdown()

    def test_failure_describe_names_spec(self):
        spec = _specs()[0]
        failure = RunFailure(spec=spec, kind="error", attempts=2,
                             exception="ValueError('x')", worker_pid=42)
        text = failure.describe()
        assert "PVC" in text and "2 attempt" in text and "42" in text
