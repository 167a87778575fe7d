"""Parallel experiment engine: fan a run matrix out over processes.

Every ``(app, design, config)`` point of the paper's experiment matrix
is independent and fully deterministic, so the figure harnesses simply
enumerate their :class:`~repro.harness.runner.RunSpec` lists up front
and submit them here. The engine

1. deduplicates the specs (the Figure 7/8/9 studies share most runs),
2. resolves what it can from the in-process memo and the persistent
   on-disk cache (:mod:`repro.harness.cache`),
3. ships the remaining specs to a ``ProcessPoolExecutor`` one future
   per spec, and
4. checkpoints each worker result into both cache layers as it lands.

``jobs=1`` (the default) bypasses the pool entirely and simulates
inline, preserving the exact serial behavior.

The execution core is fault tolerant: a worker exception is captured as
a structured :class:`RunFailure` (spec, attempt, exception, traceback,
worker pid) instead of aborting the batch, failed runs retry with
exponential backoff, a broken pool (killed worker) is respawned with
only the in-flight specs resubmitted, and an optional per-spec
wall-clock timeout cancels hung workers. A spec that exhausts its
retries raises :class:`ExperimentFailure` after the rest of the batch
has completed (completed results stay checkpointed, so a rerun only
redoes the failures).

Settings (also documented in README.md):

* ``--jobs N`` / ``REPRO_JOBS`` — worker processes.
* ``--retries N`` — retry budget per spec (default
  :data:`DEFAULT_RETRIES`: one retry, i.e. up to two attempts).
* ``--timeout S`` — per-spec wall-clock seconds before a running worker
  is considered hung and cancelled (default none; 0 disables; pool
  mode only — a serial run cannot be interrupted).
"""

from __future__ import annotations

import argparse
import math
import os
import threading
import time
import traceback as traceback_mod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.harness import runner
from repro.harness.runner import RunResult, RunSpec

#: Retry budget per spec when none is given: one retry.
DEFAULT_RETRIES = 1

#: Retry ``n`` (1-based) waits ``_BACKOFF_BASE * 2**(n-1)`` seconds,
#: capped at ``_BACKOFF_CAP`` so a long retry ladder stays bounded.
_BACKOFF_BASE = 0.1
_BACKOFF_CAP = 5.0


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``; 1 (serial) when unset/invalid."""
    env = os.environ.get("REPRO_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def jobs_arg(text: str) -> int:
    """``--jobs`` argument type shared by the front ends: >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def retries_arg(text: str) -> int:
    """``--retries`` argument type shared by the front ends: >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def timeout_arg(text: str) -> float:
    """``--timeout`` argument type shared by the front ends: seconds
    >= 0, where 0 means no timeout. NaN is rejected: it compares false
    against every bound, so it would silently disable the timeout."""
    value = float(text)
    if math.isnan(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _backoff_delay(attempt: int) -> float:
    """Delay before retry number ``attempt`` (1-based)."""
    return min(_BACKOFF_CAP, _BACKOFF_BASE * (2.0 ** (attempt - 1)))


# ----------------------------------------------------------------------
# Failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunFailure:
    """One spec that exhausted its retry budget.

    ``kind`` is ``"error"`` (worker exception), ``"timeout"`` (exceeded
    the per-spec wall clock) or ``"pool-broken"`` (the worker process
    died — e.g. OOM-killed — taking the pool down with it).
    """

    spec: RunSpec
    kind: str
    attempts: int
    exception: str
    traceback: str = ""
    worker_pid: int | None = None

    def describe(self) -> str:
        where = f" [pid {self.worker_pid}]" if self.worker_pid else ""
        return (f"{self.spec.app}/{self.spec.design.name}: {self.kind} "
                f"after {self.attempts} attempt(s){where}: {self.exception}")


def render_failures(failures: Sequence[RunFailure]) -> str:
    """Human-readable multi-line failure report."""
    lines = [f"{len(failures)} run(s) failed:"]
    lines += [f"  - {failure.describe()}" for failure in failures]
    return "\n".join(lines)


class ExperimentFailure(RuntimeError):
    """Raised by ``run_many`` after the batch has drained.

    Carries the structured failure report plus everything that did
    complete (already checkpointed to the caches), so callers can
    surface partial progress.
    """

    def __init__(self, failures: Sequence[RunFailure],
                 completed: dict[RunSpec, RunResult],
                 label: str | None = None) -> None:
        self.failures = list(failures)
        self.completed = dict(completed)
        self.label = label
        prefix = f"[{label}] " if label else ""
        super().__init__(prefix + render_failures(self.failures))


# ----------------------------------------------------------------------
# One attempt of one spec
# ----------------------------------------------------------------------
@dataclass
class _WorkerFailure:
    """Picklable failure envelope an attempt returns instead of raising,
    so the parent learns the worker pid and formatted traceback."""

    exception: str
    traceback: str
    worker_pid: int


def _worker_run(spec: RunSpec) -> RunResult | _WorkerFailure:
    """One attempt of one spec: the pool's (picklable) entry point, and
    what the serial path calls inline.

    Exceptions are converted to a :class:`_WorkerFailure` envelope —
    never raised — so a bad spec cannot poison the future machinery and
    the parent gets structured context. (A worker that dies outright,
    e.g. ``os._exit`` or an OOM kill, surfaces as ``BrokenProcessPool``
    instead.)
    """
    try:
        return runner.run_spec(spec)
    except Exception as exc:
        return _WorkerFailure(
            exception=repr(exc),
            traceback=traceback_mod.format_exc(),
            worker_pid=os.getpid(),
        )


@dataclass
class _Task:
    """One in-flight attempt of one spec."""

    spec: RunSpec
    attempt: int = 1
    deadline: float | None = None


class ExperimentEngine:
    """Shared executor for experiment matrices.

    Args:
        jobs: Worker processes. ``None`` reads ``REPRO_JOBS``; ``1``
            keeps everything in-process (serial fallback).
        retries: Retry budget per spec. ``None`` means
            :data:`DEFAULT_RETRIES`.
        timeout: Per-spec wall-clock seconds before a running worker is
            treated as hung. ``None`` and ``0`` disable it, as does any
            value ``wait`` cannot take (NaN, inf, above
            ``threading.TIMEOUT_MAX``). Pool mode only.
    """

    def __init__(self, jobs: int | None = None,
                 retries: int | None = None,
                 timeout: float | None = None) -> None:
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.retries = retries if retries is not None else DEFAULT_RETRIES
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if timeout is not None and not 0 < timeout < threading.TIMEOUT_MAX:
            timeout = None
        self.timeout = timeout
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _recycle_pool(self) -> None:
        """Tear the pool down hard (terminating hung/zombie workers)
        and let the next submission build a fresh one."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run_many(
        self,
        specs: Iterable[RunSpec],
        label: str | None = None,
    ) -> list[RunResult]:
        """Execute ``specs``; the result list is aligned with the input
        order (duplicates resolve to the same result object).

        Any spec that exhausts its retry budget raises
        :class:`ExperimentFailure` — but only after every other spec
        has completed and been checkpointed, so a rerun only redoes the
        failures. ``label`` names the batch (e.g. the figure id) in
        failure reports.
        """
        ordered = list(specs)
        unique: list[RunSpec] = []
        seen: set[RunSpec] = set()
        for spec in ordered:
            if spec not in seen:
                seen.add(spec)
                unique.append(spec)

        resolved: dict[RunSpec, RunResult] = {}
        if self.jobs <= 1:
            failures = self._run_serial(unique, resolved)
        else:
            pending = []
            for spec in unique:
                hit = runner.cached_result(spec)
                if hit is not None:
                    resolved[spec] = hit
                else:
                    pending.append(spec)
            failures = self._run_pool(pending, resolved)

        if failures:
            raise ExperimentFailure(failures, resolved, label=label)
        return [resolved[spec] for spec in ordered]

    # ------------------------------------------------------------------
    def _retry_or_fail(self, task: _Task, failures: list[RunFailure],
                       kind: str, exception: str, tb: str = "",
                       pid: int | None = None) -> _Task | None:
        """The next attempt of ``task``, or None (with the failure
        recorded) once its retry budget is spent."""
        if task.attempt > self.retries:
            failures.append(RunFailure(
                spec=task.spec, kind=kind, attempts=task.attempt,
                exception=exception, traceback=tb, worker_pid=pid,
            ))
            return None
        return _Task(task.spec, attempt=task.attempt + 1)

    def _run_serial(
        self, specs: Sequence[RunSpec], resolved: dict[RunSpec, RunResult]
    ) -> list[RunFailure]:
        """Inline execution with the same retry/failure contract as the
        pool (timeouts excepted: a hung in-process run cannot be
        interrupted)."""
        failures: list[RunFailure] = []
        for spec in specs:
            task: _Task | None = _Task(spec)
            while task is not None:
                outcome = _worker_run(spec)
                if not isinstance(outcome, _WorkerFailure):
                    resolved[spec] = outcome
                    break
                retry = self._retry_or_fail(
                    task, failures, "error", outcome.exception,
                    tb=outcome.traceback, pid=outcome.worker_pid,
                )
                if retry is not None:
                    time.sleep(_backoff_delay(task.attempt))
                task = retry
        return failures

    # ------------------------------------------------------------------
    def _run_pool(
        self, specs: Sequence[RunSpec], resolved: dict[RunSpec, RunResult]
    ) -> list[RunFailure]:
        """Per-spec futures with retry, pool recovery and timeouts.

        At most ``jobs`` futures are in flight at a time, so a spec's
        wall-clock deadline starts roughly when its worker starts, not
        when a huge batch was enqueued.
        """
        failures: list[RunFailure] = []
        waiting: deque[_Task] = deque(_Task(spec) for spec in specs)
        retry_at: list[tuple[float, _Task]] = []
        inflight: dict = {}
        #: After an ambiguous pool break (several specs in flight, the
        #: culprit unknowable) the affected specs replay one at a time,
        #: so a repeat break charges exactly the guilty spec.
        quarantine: deque[_Task] = deque()

        def submit(task: _Task) -> None:
            pool = self._ensure_pool()
            future = pool.submit(_worker_run, task.spec)
            task.deadline = (
                time.monotonic() + self.timeout if self.timeout else None
            )
            inflight[future] = task

        def retry_or_fail(task: _Task, kind: str, exception: str,
                          tb: str = "", pid: int | None = None) -> None:
            retry = self._retry_or_fail(task, failures, kind, exception,
                                        tb=tb, pid=pid)
            if retry is not None:
                eligible = time.monotonic() + _backoff_delay(task.attempt)
                retry_at.append((eligible, retry))

        while waiting or retry_at or inflight or quarantine:
            now = time.monotonic()
            if retry_at:
                due = [item for item in retry_at if item[0] <= now]
                if due:
                    retry_at = [i for i in retry_at if i[0] > now]
                    waiting.extend(task for _, task in due)
            if quarantine:
                # Solo replay: exactly one in-flight task until the
                # quarantine drains, so breakage is attributable.
                if not inflight:
                    submit(quarantine.popleft())
            else:
                while waiting and len(inflight) < self.jobs:
                    submit(waiting.popleft())

            if not inflight:
                # Only backoff-delayed retries remain; sleep them in.
                next_at = min(ts for ts, _ in retry_at)
                time.sleep(max(0.0, next_at - time.monotonic()))
                continue

            wake_at = None
            if self.timeout:
                wake_at = min(t.deadline for t in inflight.values())
            if retry_at:
                next_retry = min(ts for ts, _ in retry_at)
                wake_at = next_retry if wake_at is None \
                    else min(wake_at, next_retry)
            wait_timeout = (
                None if wake_at is None
                else max(0.0, wake_at - time.monotonic())
            )
            done, _ = wait(list(inflight), timeout=wait_timeout,
                           return_when=FIRST_COMPLETED)

            broken: list[tuple[_Task, str]] = []
            for future in done:
                task = inflight.pop(future)
                if future.cancelled():
                    waiting.append(task)  # recycled before it started
                    continue
                exc = future.exception()
                if exc is not None:
                    # A worker process died (os._exit, OOM-kill, ...):
                    # every in-flight future fails with the same
                    # BrokenProcessPool.
                    broken.append((task, repr(exc)))
                    continue
                outcome = future.result()
                if isinstance(outcome, _WorkerFailure):
                    retry_or_fail(task, "error", outcome.exception,
                                  tb=outcome.traceback,
                                  pid=outcome.worker_pid)
                else:
                    # Checkpoint as results land, not at batch end.
                    runner.record_result(task.spec, outcome)
                    resolved[task.spec] = outcome

            if broken:
                # Remaining in-flight futures died with the pool too.
                affected = [task for task, _ in broken]
                affected += list(inflight.values())
                inflight.clear()
                self._recycle_pool()
                if len(affected) == 1:
                    # Unambiguous: this task's worker broke the pool.
                    retry_or_fail(affected[0], "pool-broken", broken[0][1])
                else:
                    # Culprit unknowable: replay them one at a time
                    # (no attempt charged for the ambiguous break).
                    quarantine.extend(affected)

            if self.timeout and inflight:
                now = time.monotonic()
                expired = [
                    (future, task) for future, task in inflight.items()
                    if task.deadline is not None and now >= task.deadline
                ]
                if expired:
                    for future, task in expired:
                        del inflight[future]
                        retry_or_fail(
                            task, "timeout",
                            f"TimeoutError: no result within "
                            f"{self.timeout}s",
                        )
                    # The hung workers hold pool slots until killed;
                    # recycle and resubmit the survivors (no attempt
                    # spent — they were not at fault).
                    survivors = list(inflight.values())
                    inflight.clear()
                    self._recycle_pool()
                    waiting.extend(survivors)
        return failures


# ----------------------------------------------------------------------
# Shared default engine (what the figure harnesses submit through)
# ----------------------------------------------------------------------
_engine: ExperimentEngine | None = None


def get_engine() -> ExperimentEngine:
    global _engine
    if _engine is None:
        _engine = ExperimentEngine()
    return _engine


def configure(jobs: int | None, retries: int | None = None,
              timeout: float | None = None) -> ExperimentEngine:
    """Install a fresh default engine with ``jobs`` workers."""
    global _engine
    if _engine is not None:
        _engine.close()
    _engine = ExperimentEngine(jobs=jobs, retries=retries, timeout=timeout)
    return _engine


def shutdown() -> None:
    """Tear down the default engine's pool (idempotent)."""
    global _engine
    if _engine is not None:
        _engine.close()
        _engine = None


def run_specs(
    specs: Sequence[RunSpec], label: str | None = None
) -> list[RunResult]:
    """Run ``specs`` through the shared default engine."""
    return get_engine().run_many(specs, label=label)
