"""Fault-tolerance tests for the parallel experiment engine.

The contract under test: a worker crash, a killed worker process
(``BrokenProcessPool``) or a hung worker must never discard completed
sibling results — surviving specs all complete, transient failures
retry to success, results produced through any failure path stay
byte-identical to a clean serial run, and exhausted specs surface as
structured :class:`RunFailure` records naming the right spec and
attempt. Faults are injected by monkeypatching ``runner.run_spec`` (the
``inject`` fixture); pool workers are forked, so they inherit the patch.
"""

import multiprocessing
import os
import time

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness import parallel, runner
from repro.harness.cache import RunCache
from repro.harness.parallel import (
    ExperimentEngine,
    ExperimentFailure,
    RunFailure,
    render_failures,
)
from repro.harness.runner import RunSpec, clear_caches, run_spec
from repro.workloads.tracegen import TraceScale

#: Shrunk workload so each simulation stays well under a second.
SCALE = TraceScale(work=0.25)

#: The fault target plus two innocent-bystander specs.
FAULTED_APP = "PVC"

#: Sleep length of an injected hang; every test timeout fires first.
HANG_S = 60.0


class InjectedFault(RuntimeError):
    """The exception an injected ``raise`` fault throws."""


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
    """Private cache dir and zero backoff."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(parallel, "_BACKOFF_BASE", 0.0)
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def inject(tmp_path, monkeypatch):
    """``inject(app, mode, once=True)`` makes ``runner.run_spec`` fail
    for ``app``: ``raise`` an :class:`InjectedFault`, ``kill`` the
    process (``os._exit``, which breaks the whole pool) or ``hang``.

    A once-only fault fires on the app's first run only. It marks that
    it fired by creating a file with ``O_CREAT | O_EXCL`` under
    ``tmp_path``, so a retry in another worker process sees the mark.
    Returns the ``{app: (mode, once)}`` table; clearing it disarms
    every fault for pools forked afterwards. A once-only fault that
    never fired fails the test at teardown.
    """
    # Workers must be forked to inherit the patch; under spawn or
    # forkserver they would re-import runner and inject nothing.
    assert multiprocessing.get_start_method() == "fork"
    faults: dict[str, tuple[str, bool]] = {}
    real = runner.run_spec

    def first_time(app):
        try:
            os.close(os.open(tmp_path / f"fired-{app}",
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        return True

    def faulty(spec, *args, **kwargs):
        fault = faults.get(spec.app)
        if fault is not None:
            mode, once = fault
            if not once or first_time(spec.app):
                if mode == "raise":
                    raise InjectedFault(f"injected fault: {spec.app}")
                if mode == "kill":
                    os._exit(86)
                if mode == "hang":
                    time.sleep(HANG_S)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(runner, "run_spec", faulty)

    def add(app, mode, once=True):
        assert mode in ("raise", "kill", "hang"), mode
        faults[app] = (mode, once)
        return faults

    yield add
    unfired = [app for app, (_, once) in faults.items()
               if once and not (tmp_path / f"fired-{app}").exists()]
    assert unfired == [], "once-only faults never fired"


@pytest.fixture
def recycles(monkeypatch):
    """Counts pool teardowns (``_recycle_pool`` calls with a live pool)."""
    calls = []
    real = ExperimentEngine._recycle_pool

    def counted(self):
        if self._pool is not None:
            calls.append(1)
        real(self)

    monkeypatch.setattr(ExperimentEngine, "_recycle_pool", counted)
    return calls


def _clean_runs(specs):
    clean = [run_spec(s, use_cache=False) for s in specs]
    clear_caches()
    return clean


class TestSerialRetry:
    """jobs=1 shares the retry/failure contract (minus timeouts)."""

    def test_single_shot_crash_retries_to_success(self, inject):
        specs = _specs()
        clean = _clean_runs(specs)
        inject(FAULTED_APP, "raise")
        with ExperimentEngine(jobs=1, retries=1) as engine:
            out = engine.run_many(specs)
        assert [_metrics(a) for a in out] == [_metrics(b) for b in clean]

    def test_exhausted_retries_raise_with_spec_and_attempt(self, inject):
        specs = _specs()
        inject(FAULTED_APP, "raise", once=False)
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

    def test_no_retries_fails_on_first_attempt(self, inject):
        specs = _specs()
        inject(FAULTED_APP, "raise", once=False)
        with ExperimentEngine(jobs=1, retries=0) as engine:
            with pytest.raises(ExperimentFailure) as excinfo:
                engine.run_many(specs)
        assert set(excinfo.value.completed) == set(specs[1:])
        (failure,) = excinfo.value.failures
        assert failure.spec == specs[0]
        assert failure.attempts == 1


class TestPoolCrash:
    def test_single_shot_crash_retries_and_matches_serial(
            self, inject, recycles):
        specs = _specs()
        clean = _clean_runs(specs)
        inject(FAULTED_APP, "raise")
        with ExperimentEngine(jobs=2, retries=1) as engine:
            out = engine.run_many(specs)
        assert recycles == []  # an exception, not a kill
        assert [_metrics(a) for a in out] == [_metrics(b) for b in clean]

    def test_persistent_crash_spares_survivors(self, inject):
        specs = _specs()
        inject(FAULTED_APP, "raise", once=False)
        with ExperimentEngine(jobs=2, retries=1) as engine:
            with pytest.raises(ExperimentFailure) as excinfo:
                engine.run_many(specs)
        assert set(excinfo.value.completed) == set(specs[1:])
        (failure,) = excinfo.value.failures
        assert failure.spec == specs[0]
        assert failure.attempts == 2
        assert failure.worker_pid is not None
        assert failure.worker_pid != os.getpid()
        assert "InjectedFault" in failure.traceback
        assert "PVC" in render_failures(excinfo.value.failures)

    def test_worker_failures_report_distinct_specs(self, inject):
        specs = _specs()
        inject(FAULTED_APP, "raise", once=False)
        inject("CONS", "raise", once=False)
        with ExperimentEngine(jobs=2, retries=0) as engine:
            with pytest.raises(ExperimentFailure) as excinfo:
                engine.run_many(specs)
        failures = excinfo.value.failures
        assert {f.spec for f in failures} == {specs[0], specs[2]}
        assert set(excinfo.value.completed) == {specs[1]}


class TestBrokenPool:
    def test_killed_worker_respawns_pool_and_recovers(self, inject,
                                                      recycles):
        specs = _specs()
        clean = _clean_runs(specs)
        inject(FAULTED_APP, "kill")
        with ExperimentEngine(jobs=2, retries=1) as engine:
            out = engine.run_many(specs)
        assert len(recycles) >= 1
        assert [_metrics(a) for a in out] == [_metrics(b) for b in clean]

    def test_kill_without_retries_reports_pool_broken(self, inject):
        specs = _specs()
        inject(FAULTED_APP, "kill", once=False)
        with ExperimentEngine(jobs=2, retries=0) as engine:
            with pytest.raises(ExperimentFailure) as excinfo:
                engine.run_many(specs)
        # The culprit is unattributable inside a broken pool, so the
        # faulted spec fails as pool-broken; innocent in-flight specs
        # may have burned an attempt but must still complete.
        faulted = [f for f in excinfo.value.failures if f.spec == specs[0]]
        assert faulted and faulted[0].kind == "pool-broken"
        assert set(excinfo.value.completed) == set(specs[1:])


class TestTimeout:
    def test_hung_worker_is_cancelled_and_retried(self, inject, recycles):
        specs = _specs()
        clean = _clean_runs(specs)
        inject(FAULTED_APP, "hang")
        with ExperimentEngine(jobs=2, retries=1, timeout=1.5) as engine:
            out = engine.run_many(specs)
        assert len(recycles) >= 1
        assert [_metrics(a) for a in out] == [_metrics(b) for b in clean]

    def test_persistent_hang_reports_timeout(self, inject):
        specs = _specs()
        inject(FAULTED_APP, "hang", once=False)
        with ExperimentEngine(jobs=2, retries=0, timeout=1.5) as engine:
            with pytest.raises(ExperimentFailure) as excinfo:
                engine.run_many(specs)
        (failure,) = excinfo.value.failures
        assert failure.spec == specs[0]
        assert failure.kind == "timeout"
        assert failure.attempts == 1
        assert set(excinfo.value.completed) == set(specs[1:])

    def test_timeout_values_wait_cannot_take_disable_it(self):
        assert ExperimentEngine(jobs=2, timeout=2.5).timeout == 2.5
        # None (the default), 0, and values ``wait`` cannot take (they
        # overflow or spin) disable the timeout.
        for value in (None, 0, float("inf"), 1e10, float("nan")):
            assert ExperimentEngine(jobs=2, timeout=value).timeout is None


class TestCombinedFaults:
    def test_crash_plus_hang_in_one_sweep(self, inject):
        """The acceptance scenario: one spec's worker crashed AND
        another hung past the timeout, single-shot each — every spec
        still completes, byte-identical to serial."""
        specs = _specs()
        clean = _clean_runs(specs)
        inject(FAULTED_APP, "raise")
        inject("CONS", "hang")
        with ExperimentEngine(jobs=2, retries=1, timeout=1.5) as engine:
            out = engine.run_many(specs)
        assert [_metrics(a) for a in out] == [_metrics(b) for b in clean]


class TestCheckpointing:
    def test_completed_siblings_survive_a_strict_failure(
            self, tmp_path, inject):
        """A failed batch must not discard its completed runs: they are
        checkpointed to the persistent cache as they land."""
        specs = _specs()
        inject(FAULTED_APP, "raise", once=False)
        with ExperimentEngine(jobs=2, retries=0) as engine:
            with pytest.raises(ExperimentFailure) as excinfo:
                engine.run_many(specs)
        assert set(excinfo.value.completed) == set(specs[1:])
        disk = RunCache(root=tmp_path / "cache")
        for spec in specs[1:]:
            assert disk.get(spec) is not None, spec.app
        assert disk.get(specs[0]) is None

    def test_rerun_after_failure_only_redoes_the_failure(self, inject):
        specs = _specs()
        faults = inject(FAULTED_APP, "raise", once=False)
        with ExperimentEngine(jobs=2, retries=0) as engine:
            with pytest.raises(ExperimentFailure):
                engine.run_many(specs)
        # Clear the fault; the rerun resolves the siblings from cache
        # and only simulates the previously failed spec.
        faults.clear()
        clear_caches()  # drop the in-process memo, keep the disk cache
        with ExperimentEngine(jobs=2, retries=0) as engine:
            out = engine.run_many(specs)
        assert all(run is not None for run in out)


class TestDefaults:
    def test_default_retry_budget_is_one(self):
        assert parallel.DEFAULT_RETRIES == 1
        assert ExperimentEngine(jobs=1).retries == 1
        assert ExperimentEngine(jobs=1, retries=3).retries == 3

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=1, retries=-1)

    def test_run_specs_passthrough(self, inject):
        spec = _specs()[1]
        inject("MM", "raise", once=False)
        parallel.shutdown()
        try:
            with pytest.raises(ExperimentFailure) as excinfo:
                parallel.run_specs([spec], label="x")
            assert excinfo.value.failures[0].spec == spec
            assert "[x]" in str(excinfo.value)
        finally:
            parallel.shutdown()

    def test_failure_describe_names_spec(self):
        spec = _specs()[0]
        failure = RunFailure(spec=spec, kind="error", attempts=2,
                             exception="ValueError('x')", worker_pid=42)
        text = failure.describe()
        assert "PVC" in text and "2 attempt" in text and "42" in text
