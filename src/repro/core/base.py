"""The SM-facing assist-controller interface.

The SM pipeline talks to whatever CABA application is installed (data
compression, memoization, prefetching) through this small surface: a
per-cycle ``tick``, the two issue hooks (high priority preempts parent
warps, low priority fills idle slots) and their gates, trigger
callbacks, and ``finish`` for completed assist warps. Concrete
applications override the hooks they need; everything defaults to "no
work". Every application's live instances are :class:`AssistWarp`
objects, the state ``SM.try_issue_assist`` issues from.
"""

from __future__ import annotations

from typing import Callable

from repro.gpu.warp import WarpContext


class AssistWarp:
    """One live assist-warp instance, as the SM's issue path sees it.

    Assist warps hold no register-release events. Issuing an
    instruction records the cycle its destination registers free up in
    ``rel[pc]``; ``ready`` is the cycle the next instruction's
    scoreboard clears, the latest ``rel`` of its producers
    (``AssistProgram.deps``). The issue loops test ``cycle >= ready``
    where the parents' scan tests a pending-register mask.
    """

    __slots__ = (
        "parent",
        "program",
        "size",
        "pc",
        "deployed",
        "ready",
        "rel",
        "ops",
        "task",
        "line",
        "cancelled",
        "blocking",
    )

    def __init__(
        self, parent: WarpContext, program, task: str, line: int = 0,
        deployed: int = 0,
    ) -> None:
        self.parent = parent
        self.program = program
        self.size = len(program.body)
        self.pc = 0
        #: Instructions staged in the assist-warp buffer; applications
        #: without deploy staging start fully deployed.
        self.deployed = deployed
        self.ready = 0
        self.rel = [0] * self.size
        #: The SM's per-pc issue table for ``program`` (set on first issue).
        self.ops = None
        self.task = task
        self.line = line
        self.cancelled = False
        #: Whether this instance holds its parent's ``assist_block``.
        self.blocking = False


class AssistController:
    """Base class for per-SM CABA applications."""

    def __init__(self, sm) -> None:
        self.sm = sm
        #: Issue gates: the SM calls ``issue_high(s, cycle)`` only when
        #: ``cycle >= high_gate[s]``, and ``issue_low`` only when
        #: ``cycle >= low_gate``. A gate is a lower bound on the first
        #: cycle its hook could issue; 0 (the default) always calls. A
        #: controller built without an SM has no schedulers to gate.
        n_sched = sm.config.schedulers_per_sm if sm is not None else 0
        self.high_gate = [0] * n_sched
        self.low_gate = 0

    # --- per-cycle hooks ------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Called at the start of every SM cycle (deployment etc.)."""

    def observe(self, issued: int, slots: int) -> None:
        """Utilization feedback for throttling decisions."""

    def has_pending_work(self) -> bool:
        """Whether a queued assist warp may issue on the next cycle."""
        return False

    def quiet_until(self, cycle: int) -> float:
        """After a tick of ``cycle`` that issued nothing: the first
        cycle at which this controller could act (deploy, spawn or
        issue) without an event of its SM; the SM may sleep until then.
        By default that is ``cycle + 1`` (keep ticking) while
        :meth:`has_pending_work`, else never: a controller that queues
        work only from its SM's issues and events needs no wake of its
        own."""
        return cycle + 1 if self.has_pending_work() else float("inf")

    def replay_idle(self, ticks: int, slots: int) -> None:
        """Account ``ticks`` slept cycles as the ticks that issued
        nothing would have: ``ticks`` calls of ``observe(0, slots)``,
        which by default observes nothing."""

    # --- issue hooks ------------------------------------------------------
    def issue_high(self, sched: int, cycle: int) -> bool:
        """Try to issue a high-priority assist instruction; True if issued."""
        return False

    def issue_low(self, sched: int, cycle: int) -> bool:
        """Try to issue a low-priority assist instruction into an
        otherwise-idle slot; True if issued."""
        return False

    # --- triggers ---------------------------------------------------------
    def request_decompression(
        self,
        warp: WarpContext,
        fill,
        callback: Callable[[], None],
        cycle: int,
    ) -> None:
        """A compressed line needs expanding before ``callback`` may fire."""
        raise NotImplementedError(
            f"{type(self).__name__} does not handle decompression triggers"
        )

    def pending_decompression(self, line: int) -> bool:
        return False

    def attach_to_decompression(self, line: int, callback) -> None:
        raise NotImplementedError

    def buffer_store(self, warp: WarpContext, lines, full_line: bool, cycle: int) -> None:
        """Stage store lines for compression before writeback."""
        raise NotImplementedError(
            f"{type(self).__name__} does not handle store buffering"
        )

    def on_global_load(self, warp: WarpContext, lines, cycle: int) -> None:
        """Observe a demand load (prefetcher training hook)."""

    def on_memo_point(self, warp: WarpContext, region_len: int, cycle: int) -> None:
        """A warp reached a memoizable region marker."""

    # --- completion ---------------------------------------------------------
    def finish(self, assist) -> None:
        """The last instruction of ``assist`` wrote back."""

    def flush(self, cycle: int) -> None:
        """Kernel end: drain any buffered work."""
