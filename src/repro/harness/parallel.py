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
worker pid) instead of aborting the batch, transient failures retry
with exponential backoff, a broken pool (killed worker) is respawned
with only the in-flight specs resubmitted, and an optional per-spec
wall-clock timeout cancels hung workers. ``run_many(strict=False)``
returns the partial results plus the failure report; the default
``strict=True`` raises :class:`ExperimentFailure` after the rest of the
batch has completed (completed results stay checkpointed, so a rerun
only redoes the failures).

Knobs (also documented in README.md):

* ``--jobs N`` / ``REPRO_JOBS`` — worker processes.
* ``--retries N`` / ``REPRO_RETRIES`` — retry budget per spec
  (default 1 retry, i.e. up to two attempts).
* ``REPRO_RUN_TIMEOUT`` — per-spec wall-clock seconds before a running
  worker is considered hung and cancelled (0/unset disables; pool mode
  only — a serial run cannot be interrupted).
* ``REPRO_RETRY_BACKOFF`` — base backoff delay in seconds
  (default 0.1; attempt ``n`` waits ``base * 2**(n-1)``, capped at 5s).
* ``REPRO_FAULT_SPEC`` — deterministic fault injection for tests, e.g.
  ``PVC@CABA-BDI:raise:1;MM:hang:*`` (see :func:`maybe_inject_fault`).
* ``REPRO_FAULT_HANG`` — sleep length of an injected hang (default
  300s, so any realistic ``REPRO_RUN_TIMEOUT`` fires first).
"""

from __future__ import annotations

import os
import time
import traceback as traceback_mod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.harness import runner
from repro.harness.runner import RunResult, RunSpec

#: Exponential-backoff cap so a long retry ladder stays bounded.
_BACKOFF_CAP = 5.0


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``; 1 (serial) when unset/invalid."""
    env = os.environ.get("REPRO_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def default_retries() -> int:
    """Retry budget from ``REPRO_RETRIES``; 1 when unset/invalid."""
    env = os.environ.get("REPRO_RETRIES", "")
    try:
        return max(0, int(env))
    except ValueError:
        return 1


def default_timeout() -> float | None:
    """Per-spec timeout from ``REPRO_RUN_TIMEOUT``; None disables."""
    env = os.environ.get("REPRO_RUN_TIMEOUT", "")
    try:
        value = float(env)
    except ValueError:
        return None
    return value if value > 0 else None


def _backoff_delay(attempt: int) -> float:
    """Delay before retry number ``attempt`` (1-based)."""
    try:
        base = float(os.environ.get("REPRO_RETRY_BACKOFF", "0.1"))
    except ValueError:
        base = 0.1
    if base <= 0:
        return 0.0
    return min(_BACKOFF_CAP, base * (2.0 ** (attempt - 1)))


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
    """Raised by strict ``run_many`` after the batch has drained.

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


@dataclass
class BatchResult:
    """``run_many(strict=False)`` return value: partial results aligned
    with the input specs (``None`` where the spec failed) plus the
    structured failure report."""

    results: list[RunResult | None]
    failures: list[RunFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def completed(self) -> list[RunResult]:
        return [run for run in self.results if run is not None]


# ----------------------------------------------------------------------
# Deterministic fault injection (tests / chaos drills)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Fault:
    app: str
    design: str | None  # None matches every design
    mode: str           # raise | kill | hang
    attempt: int | None  # None matches every attempt

    def matches(self, spec: RunSpec, attempt: int) -> bool:
        if self.app != spec.app:
            return False
        if self.design is not None and self.design != spec.design.name:
            return False
        return self.attempt is None or self.attempt == attempt


_FAULT_MODES = ("raise", "kill", "hang")


class InjectedFault(RuntimeError):
    """The exception an injected ``raise`` fault throws in a worker."""


def _parse_faults(text: str) -> tuple[_Fault, ...]:
    """Parse ``REPRO_FAULT_SPEC``: ``app[@design]:mode[:attempt]``
    entries joined by ``;``. ``attempt`` is 1-based or ``*`` (default
    ``1`` — a single-shot fault on the first attempt)."""
    faults = []
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad fault entry {entry!r} "
                             f"(want app[@design]:mode[:attempt])")
        target, mode = parts[0], parts[1]
        if mode not in _FAULT_MODES:
            raise ValueError(f"bad fault mode {mode!r} "
                             f"(want one of {_FAULT_MODES})")
        app, _, design = target.partition("@")
        attempt: int | None = 1
        if len(parts) == 3:
            attempt = None if parts[2] == "*" else int(parts[2])
        faults.append(_Fault(app, design or None, mode, attempt))
    return tuple(faults)


def _fault_for(spec: RunSpec, attempt: int) -> str | None:
    """The injected fault mode for this (spec, attempt), or None."""
    text = os.environ.get("REPRO_FAULT_SPEC", "")
    if not text:
        return None
    for fault in _parse_faults(text):
        if fault.matches(spec, attempt):
            return fault.mode
    return None


def maybe_inject_fault(spec: RunSpec, attempt: int) -> None:
    """Execute the ``REPRO_FAULT_SPEC`` fault for this (spec, attempt).

    Runs inside the worker (and on the serial path), so tests can
    deterministically crash (``raise``), kill (``kill`` — ``os._exit``,
    which breaks the whole pool) or hang (``hang`` — sleep past any
    reasonable ``REPRO_RUN_TIMEOUT``) specific specs on specific
    attempts. No-op unless the environment variable is set.
    """
    mode = _fault_for(spec, attempt)
    if mode is None:
        return
    if mode == "raise":
        raise InjectedFault(
            f"injected fault: {spec.app}/{spec.design.name} "
            f"attempt {attempt}"
        )
    if mode == "kill":
        os._exit(86)
    if mode == "hang":
        try:
            seconds = float(os.environ.get("REPRO_FAULT_HANG", "300"))
        except ValueError:
            seconds = 300.0
        time.sleep(seconds)


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------
@dataclass
class _WorkerFailure:
    """Picklable failure envelope a worker returns instead of raising,
    so the parent learns the worker pid and formatted traceback."""

    exception: str
    traceback: str
    worker_pid: int


def _worker_run(spec: RunSpec, attempt: int = 1) -> RunResult | _WorkerFailure:
    """Top-level (picklable) pool entry point: one spec, raw-free result.

    Exceptions are converted to a :class:`_WorkerFailure` envelope —
    never raised — so a bad spec cannot poison the future machinery and
    the parent gets structured context. (A ``kill`` fault bypasses this
    via ``os._exit`` and surfaces as ``BrokenProcessPool`` instead.)
    """
    try:
        maybe_inject_fault(spec, attempt)
        return runner.run_spec(spec)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
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
        retries: Retry budget per spec. ``None`` reads ``REPRO_RETRIES``
            (default 1 retry).
        timeout: Per-spec wall-clock seconds before a running worker is
            treated as hung. ``None`` reads ``REPRO_RUN_TIMEOUT``;
            ``0`` disables explicitly. Pool mode only.
    """

    def __init__(self, jobs: int | None = None,
                 retries: int | None = None,
                 timeout: float | None = None) -> None:
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.retries = retries if retries is not None else default_retries()
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if timeout is None:
            timeout = default_timeout()
        elif timeout <= 0:
            timeout = None
        self.timeout = timeout
        self._pool: ProcessPoolExecutor | None = None
        #: Pools respawned after a breakage/timeout (observability).
        self.pool_respawns = 0

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
        self.pool_respawns += 1
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
    def run(self, spec: RunSpec) -> RunResult:
        return self.run_many([spec])[0]

    def run_many(
        self,
        specs: Iterable[RunSpec],
        strict: bool = True,
        label: str | None = None,
    ) -> list[RunResult] | BatchResult:
        """Execute ``specs``; the result list is aligned with the input
        order (duplicates resolve to the same result object).

        With ``strict=True`` (default) any spec that exhausts its retry
        budget raises :class:`ExperimentFailure` — but only after every
        other spec has completed and been checkpointed, so a rerun only
        redoes the failures. With ``strict=False`` the return value is
        a :class:`BatchResult` carrying the partial results (``None``
        at failed positions) and the failure report. ``label`` names
        the batch (e.g. the figure id) in failure reports.
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

        if failures and strict:
            raise ExperimentFailure(failures, resolved, label=label)
        results = [resolved.get(spec) for spec in ordered]
        if strict:
            return results
        return BatchResult(results=results, failures=failures)

    # ------------------------------------------------------------------
    def _run_serial(
        self, specs: Sequence[RunSpec], resolved: dict[RunSpec, RunResult]
    ) -> list[RunFailure]:
        """Inline execution with the same retry/failure contract as the
        pool (timeouts excepted: a hung in-process run cannot be
        interrupted)."""
        failures: list[RunFailure] = []
        for spec in specs:
            attempt = 1
            while True:
                try:
                    maybe_inject_fault(spec, attempt)
                    resolved[spec] = runner.run_spec(spec)
                    break
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    if attempt > self.retries:
                        failures.append(RunFailure(
                            spec=spec, kind="error", attempts=attempt,
                            exception=repr(exc),
                            traceback=traceback_mod.format_exc(),
                            worker_pid=os.getpid(),
                        ))
                        break
                    time.sleep(_backoff_delay(attempt))
                    attempt += 1
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
            future = pool.submit(_worker_run, task.spec, task.attempt)
            task.deadline = (
                time.monotonic() + self.timeout if self.timeout else None
            )
            inflight[future] = task

        def retry_or_fail(task: _Task, kind: str, exception: str,
                          tb: str = "", pid: int | None = None) -> None:
            if task.attempt > self.retries:
                failures.append(RunFailure(
                    spec=task.spec, kind=kind, attempts=task.attempt,
                    exception=exception, traceback=tb, worker_pid=pid,
                ))
                return
            eligible = time.monotonic() + _backoff_delay(task.attempt)
            retry_at.append(
                (eligible, _Task(task.spec, attempt=task.attempt + 1))
            )

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
    specs: Sequence[RunSpec],
    strict: bool = True,
    label: str | None = None,
) -> list[RunResult] | BatchResult:
    """Run ``specs`` through the shared default engine."""
    return get_engine().run_many(specs, strict=strict, label=label)
