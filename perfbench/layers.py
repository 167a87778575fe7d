"""Outside-in instrumentation of the simulator's layers.

Both probes attach from the benchmark's side of the public API, so the
program under test runs unchanged:

* :class:`Probe` swaps ``time.perf_counter`` spans in around the public
  calls the harness makes (image, kernel and plane builds,
  ``Simulator.run``, the energy model, run-cache I/O, the engine), and
  can enable a ``cProfile`` profiler inside each ``Simulator.run``.
* :func:`attribute` folds one such profile into self time per
  ``repro.<pkg>.<module>``.
* :class:`HostClock` rescales wall time to one fixed host speed, from a
  reference loop timed on a timer signal while the benchmark runs.

Importing this module imports nothing from ``repro``; :meth:`Probe.attach`
does, after the caller has put the source tree on ``sys.path``.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import signal
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Modules whose self time inside ``Simulator.run`` is reported one by
#: one; every other module, and code outside ``repro``, is ``other``.
MODULES = (
    "gpu.sm", "gpu.soa", "gpu.warp", "gpu.simulator", "gpu.sampling",
    "core.controller",
    "memory.hierarchy", "memory.timeline", "memory.cache",
    "memory.compressed_cache", "memory.dram", "memory.interconnect",
    "memory.metadata",
)
PACKAGES = ("gpu", "core", "memory")



class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def reference_seconds(rounds: int) -> float:
    """Host time of a fixed pure-Python loop (slotted-object attributes,
    dict lookups, list builds, builtin calls: the simulator's own mix)."""
    start = time.perf_counter()
    table = {}
    head = None
    acc = 0
    for i in range(rounds):
        k = (i * 2654435761) & 1023
        node = table.get(k)
        if node is None:
            node = table[k] = _Node(k, i, head)
            head = node
        else:
            node.value += i
        acc ^= node.value & 0xFFFF
        if i & 63 == 0:
            acc += min([x for x in range(16)])
    return time.perf_counter() - start


class HostClock:
    """Wall time rescaled to one fixed host speed.

    The benchmark's host shares its cores with other tenants, and its
    speed drifts by tens of percent within seconds to minutes, far more
    than a change worth measuring. While the clock runs, a ``SIGALRM``
    every ``INTERVAL`` seconds times :func:`reference_seconds`; no change
    to ``repro`` can move that loop, so its time tracks the host alone.
    :meth:`span` removes the handler's own time from an interval and
    rescales the rest by ``NOMINAL`` over the mean reference time sampled
    inside it (the nearest sample when none fell inside).
    """

    INTERVAL = 0.2
    ROUNDS = 20_000
    #: The fixed scale: about the loop's time on a 2-core x86-64 host with
    #: Python 3.11, where 4.4-8 ms was observed. Changing it rescales
    #: every reported timing, so it stays a constant.
    NOMINAL = 0.007

    def __init__(self) -> None:
        #: ``(perf_counter at handler entry, handler seconds, reference
        #: seconds)`` per sample, in time order.
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        ref = reference_seconds(self.ROUNDS)
        self.samples.append((entered, time.perf_counter() - entered, ref))

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def span(self, start: float, end: float) -> tuple[float, float]:
        """``(raw, normalized)`` seconds of ``[start, end]``."""
        inside = [s for s in self.samples if start <= s[0] <= end]
        raw = end - start - sum(s[1] for s in inside)
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - end))]
        ref = sum(s[2] for s in inside) / len(inside)
        return raw, raw * self.NOMINAL / ref


#: (metric, module, function names) of the per-event call counts.
CALLS = (
    ("calls.gpu.sm.tick", "gpu.sm", ("tick", "tick_soa")),
    ("calls.core.controller.tick", "core.controller", ("tick",)),
    ("calls.memory.hierarchy.load", "memory.hierarchy", ("load",)),
    ("calls.memory.dram.access", "memory.dram", ("access",)),
)


class Probe:
    """Span totals and captured results for one pass.

    ``full=False`` wraps only ``Simulator.run`` (host time and
    instruction count, needed by the end-to-end metrics) and
    ``runner.run_spec`` (to capture each sweep run's result for the
    output check); both calls take milliseconds to seconds, so two
    ``perf_counter`` reads each cost nothing measurable. ``full=True``
    adds the stage spans of the traced pass. With ``profile=True`` every
    ``Simulator.run`` executes under its own ``cProfile.Profile``.
    """

    def __init__(self, full: bool = False, profile: bool = False,
                 clock: HostClock | None = None) -> None:
        self.full = full
        self.profile = profile
        self.clock = clock
        #: Host seconds of the last ``Simulator.run``, and the normalized
        #: total of all runs (raw when there is no clock).
        self.last_run_s = 0.0
        self.norm_sim_s = 0.0
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.sim_instructions = 0
        #: ``(label, pstats.Stats)`` per profiled ``Simulator.run``.
        self.profiles: list[tuple[str, pstats.Stats]] = []
        #: ``RunSpec -> RunResult`` of every ``run_spec`` call, in order.
        self.runs: dict = {}
        #: Names the next profiled run (default: kernel/design).
        self.label: str | None = None

    # ------------------------------------------------------------------
    def _span(self, fn, name, after=None):
        seconds, counts = self.seconds, self.counts

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds[name] += time.perf_counter() - start
            counts[name] += 1
            if after is not None:
                after(args, result)
            return result

        return timed

    def _sim_run(self, fn):
        def run(sim):
            profiler = cProfile.Profile() if self.profile else None
            start = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                result = fn(sim)
            finally:
                if profiler is not None:
                    profiler.disable()
            end = time.perf_counter()
            raw = norm = end - start
            if self.clock is not None:
                raw, norm = self.clock.span(start, end)
            self.last_run_s = raw
            self.seconds["simulator.run"] += raw
            self.norm_sim_s += norm
            self.counts["simulator.run"] += 1
            self.sim_instructions += result.stats.instructions
            if profiler is not None:
                label = self.label or f"{sim.kernel.name}/{sim.design.name}"
                self.profiles.append((label, pstats.Stats(profiler)))
            return result

        return run

    def _count_hit(self, args, result):
        self.counts["cache.miss" if result is None else "cache.hit"] += 1

    def _count_lines(self, args, plane):
        self.counts["plane.lines"] += len(plane)

    def _capture(self, args, result):
        self.runs[args[0]] = result

    # ------------------------------------------------------------------
    @contextmanager
    def attach(self):
        """Install the wrappers for the duration of the ``with`` block."""
        from repro.energy.model import EnergyModel
        from repro.gpu.simulator import Simulator
        from repro.harness import cache, figures, runner
        from repro.memory import plane
        from repro.workloads import tracegen

        patches = [
            (Simulator, "run", self._sim_run(Simulator.run)),
            (runner, "run_spec",
             self._span(runner.run_spec, "engine.run_spec", self._capture)),
        ]
        if self.full:
            span = self._span
            patches += [
                (runner, "build_image",
                 span(runner.build_image, "runner.build_image")),
                (runner, "build_kernel",
                 span(runner.build_kernel, "tracegen.build_kernel")),
                (tracegen, "build_kernel",
                 span(tracegen.build_kernel, "tracegen.build_kernel")),
                (plane, "build_plane",
                 span(plane.build_plane, "plane.build", self._count_lines)),
                (plane, "compose_best_of_all",
                 span(plane.compose_best_of_all, "plane.build",
                      self._count_lines)),
                (EnergyModel, "evaluate",
                 span(EnergyModel.evaluate, "energy.evaluate")),
                (cache.RunCache, "get",
                 span(cache.RunCache.get, "cache.get", self._count_hit)),
                (cache.RunCache, "put", span(cache.RunCache.put, "cache.put")),
                (cache.RunCache, "get_plane",
                 span(cache.RunCache.get_plane, "cache.plane_get",
                      self._count_hit)),
                (cache.RunCache, "put_plane",
                 span(cache.RunCache.put_plane, "cache.plane_put")),
                (figures, "run_specs",
                 span(figures.run_specs, "engine.run_specs")),
            ]
        saved = []
        try:
            for owner, attr, wrapper in patches:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# cProfile attribution
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _module_of(filename: str, src: Path) -> str | None:
    """``pkg.module`` of a file under ``src/repro``, else None."""
    try:
        rel = Path(filename).resolve().relative_to(src / "repro")
    except ValueError:
        return None
    return ".".join(rel.with_suffix("").parts)


def attribute(stats: pstats.Stats, src: Path) -> dict[str, float]:
    """Self time (tottime) per ``repro`` module, in seconds.

    A function outside ``repro`` (a builtin, a numpy routine, stdlib
    ``heapq``) has no module of its own here: its self time is charged
    to the ``repro`` modules that called it, in proportion to the time
    each caller spent in it, so ``min()`` inside the SM's issue screen
    counts as SM issue time. Calls made from outside ``repro`` land in
    ``other``. Keys are ``pkg.module`` names plus ``other``.
    """
    own: dict[str, float] = defaultdict(float)
    for (filename, _, _), (_, _, tottime, _, callers) in stats.stats.items():
        name = _module_of(filename, src)
        if name is not None:
            own[name] += tottime
            continue
        spent = sum(entry[2] for entry in callers.values())
        if not callers or spent <= 0:
            own["other"] += tottime
            continue
        for (caller_file, _, _), entry in callers.items():
            caller = _module_of(caller_file, src) or "other"
            own[caller] += tottime * entry[2] / spent
    return own


def call_counts(stats: pstats.Stats, src: Path) -> dict[str, int]:
    """The :data:`CALLS` event counts of one profile."""
    out = {metric: 0 for metric, _, _ in CALLS}
    for (filename, _, func), (_, ncalls, _, _, _) in stats.stats.items():
        name = _module_of(filename, src)
        for metric, module, funcs in CALLS:
            if name == module and func in funcs:
                out[metric] += ncalls
    return out


def split(own: dict[str, float]) -> dict[str, float]:
    """Share of self time per top-level package (plus ``other``)."""
    total = sum(own.values()) or 1.0
    shares = {pkg: 0.0 for pkg in PACKAGES}
    shares["other"] = 0.0
    for name, seconds in own.items():
        pkg = name.split(".", 1)[0]
        shares[pkg if pkg in PACKAGES else "other"] += seconds / total
    return shares
