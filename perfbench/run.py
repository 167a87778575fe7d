#!/usr/bin/env python3
"""The CABA simulator's benchmark: three workloads, end to end and per layer.

Run from the repository root (no install; the simulator is imported from
``src/``)::

    python3 perfbench/run.py --workload table1_loop --seed 0 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``sweep_small`` -- the Fig. 7 five-design matrix through
  ``figures.fig7_performance`` on ``GPUConfig.small()``: a cold pass
  against a fresh temporary run cache, then ``runner.clear_caches()``
  and a warm pass over the populated cache.
* ``table1_loop`` -- ``Simulator.run`` alone for PVC/CABA-BDI and
  MM/Base on the Table-1 machine (``GPUConfig()``) at ``work=0.25``;
  image, plane, kernel and controller factory are built in set-up.
* ``sampled_small`` -- ``Simulator.run`` exact and with the default
  ``SampleConfig`` on the three certified sampling points.

Everything runs in this one process (engine ``jobs=1``). Passes repeat
until the next one would end past ``--seconds``; timings are medians
over passes. Set-up is repeated ``SETUP_REPS`` times and its median is
added to the import time.

The host shares its cores with other tenants and its speed drifts by
tens of percent within seconds to minutes. The untraced run therefore
samples a fixed pure-Python reference loop five times a second
(``layers.HostClock``) and reports ``wall_s``, ``sim_kinstr_per_s`` and
``setup_s`` rescaled to the loop's nominal speed: seconds as an
unloaded host would take them. The report lines ``raw.*`` give the
same timings as measured and ``host.ref_ms`` the median loop time.

``--trace 0`` prints the ``end_to_end`` metrics of ``BENCHMARK.json``.
``--trace 1`` runs set-up and one pass with stage spans around the
public calls into each layer (``perfbench/layers.py``), then one pass
with ``cProfile`` inside every ``Simulator.run``, and prints the
``per_layer`` metrics; module self times and per-event costs come
from the profiled pass, so they are inflated by ``trace_overhead``.
The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report and a provenance record.

``--seed 0`` runs the registered application profiles; any other seed
offsets each profile's data seed for ``table1_loop`` and
``sampled_small``. ``sweep_small`` always runs the registered profiles,
because ``run_app`` persists only those to the run cache.

A run fails when it raises, when a warm-pass result differs from its
cold one, when a sampled run's parent instruction count differs from the
exact run's, or when a repeated run's simulated counts differ. Any
failure is named on stdout and the exit code is 1. Exit code 2 means
the benchmark could not start (no source tree, bad arguments).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from layers import (  # noqa: E402
    CALLS, MODULES, PACKAGES, HostClock, Probe, attribute, call_counts, split,
)

#: Set-up repetitions per run; set-up time is their median.
SETUP_REPS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    """What one workload runs. ``kind`` picks the set-up and pass code."""

    kind: str
    config: str
    apps: tuple[str, ...] = ()
    points: tuple[tuple[str, str], ...] = ()
    work: float = 1.0


#: The Fig. 7 sweep runs two of the four apps the matrix could use:
#: PVC (memory-bound, the paper's running example) and hs (compute-
#: leaning). With bfs and MM added, a cold pass takes ~40 s on a 2-core
#: x86-64 host and the traced run (a spans pass plus a cProfile pass)
#: nears the 180 s budget of one benchmark run.
WORKLOADS = {
    "sweep_small": Workload("sweep", "small", apps=("PVC", "hs")),
    "table1_loop": Workload(
        "loop", "table1",
        points=(("PVC", "CABA-BDI"), ("MM", "Base")), work=0.25,
    ),
    "sampled_small": Workload(
        "sampled", "small",
        points=(("PVC", "Base"), ("PVC", "CABA-BDI"), ("MM", "Base")),
    ),
}

#: Simulated counts reported per run as ``sim.<name>`` (summed over a
#: pass's runs; the three rates are averaged instead).
#: Report-only values of the untraced run: the end-to-end timings as
#: measured, before host-speed normalization, and the host's median
#: reference-loop time (``HostClock.NOMINAL`` is 7 ms).
RAW_UNITS = {"raw.wall_s": "s", "raw.sim_kinstr_per_s": "kinstr/s",
             "raw.setup_s": "s", "host.ref_ms": "ms"}

SIM_COUNTS = ("cycles", "instructions", "assist_instructions", "dram_bursts")
SIM_RATES = ("l2_hit_rate", "md_cache_hit_rate", "bandwidth_utilization")
SAMPLING_ERRORS = tuple(
    f"sampling.{err}.{app}-{design}"
    for app, design in WORKLOADS["sampled_small"].points
    for err in ("ipc_err", "bw_err")
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (exit code 2, no result printed)."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def strip_ambient() -> list[str]:
    """Drop every ``REPRO_*`` variable before ``repro`` is imported, so
    sampling, tracing, the SoA switch, planes, the engine, the cache
    location/backend and fault injection are all at their defaults."""
    stripped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in stripped:
        del os.environ[key]
    return stripped


def import_repro() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator source under {SRC.name}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not the "
                         "source tree next to the benchmark")
    from repro.harness import figures, parallel, runner  # noqa: F401


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def make_config(name: str):
    from repro.gpu.config import GPUConfig

    return GPUConfig.small() if name == "small" else GPUConfig()


def make_design(name: str):
    from repro import design

    return {"Base": design.base,
            "CABA-BDI": lambda: design.caba("bdi")}[name]()


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def sim_counts(result) -> dict:
    """``sim.*`` counts of one ``SimulationResult`` (as ``RunResult``
    derives them in ``runner._simulate``)."""
    memory = result.memory
    stats = memory.stats
    return {
        "cycles": result.cycles,
        "instructions": result.stats.instructions,
        "assist_instructions": result.stats.assist_instructions,
        "dram_bursts": sum(memory.dram_bursts().values()),
        "l2_hit_rate": (stats.l2_hits / stats.l2_accesses
                        if stats.l2_accesses else 0.0),
        "md_cache_hit_rate": memory.md_cache_hit_rate() or 0.0,
        "bandwidth_utilization": result.bandwidth_utilization(),
    }


def run_counts(run) -> dict:
    """``sim.*`` counts of one ``RunResult``."""
    return {
        "cycles": run.cycles,
        "instructions": run.instructions,
        "assist_instructions": run.assist_instructions,
        "dram_bursts": sum(run.dram_bursts.values()),
        "l2_hit_rate": run.l2_hit_rate,
        "md_cache_hit_rate": run.md_cache_hit_rate or 0.0,
        "bandwidth_utilization": run.bandwidth_utilization,
    }


def fingerprint(result) -> str:
    """Exact identity of a run's simulated output, for the checks."""
    if hasattr(result, "memory"):
        return repr(sorted(sim_counts(result).items()))
    return repr(result)


def total_counts(counts: list[dict]) -> dict:
    out = {name: sum(c[name] for c in counts) for name in SIM_COUNTS}
    for name in SIM_RATES:
        out[name] = sum(c[name] for c in counts) / len(counts)
    return out


class Checker:
    """Attempted/failed run accounting with named failures."""

    def __init__(self) -> None:
        self.attempted = 0
        #: Failed run name -> how many runs it stands for.
        self.failures: dict[str, int] = {}
        self._seen: dict[str, str] = {}

    @property
    def failed(self) -> int:
        return min(sum(self.failures.values()), self.attempted)

    def fail(self, run: str, why: str, runs: int = 1) -> None:
        self.failures[run] = max(self.failures.get(run, 0), runs)
        print(f"FAILED {run}: {why}", flush=True)

    def repeat(self, label: str, result, run: str) -> None:
        """Fail ``run`` if ``label`` ran before with another output."""
        mark = fingerprint(result)
        if self._seen.setdefault(label, mark) != mark:
            self.fail(run, "simulated counts differ from an earlier run of "
                           "the same point in this invocation")


# ----------------------------------------------------------------------
# Workloads: set-up and one pass each
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Context:
    name: str
    workload: Workload
    seed: int
    tmp: Path
    check: Checker
    config: object = None
    prepared: list = dataclasses.field(default_factory=list)


class Point(NamedTuple):
    """One prepared (app, design) point of ``table1_loop``/``sampled_small``."""

    label: str
    design: object
    image: object
    kernel: object
    factory: object
    regs: int


@dataclasses.dataclass
class PassResult:
    wall_s: float
    sim_s: float
    instructions: int
    counts: dict
    extra: dict = dataclasses.field(default_factory=dict)
    #: ``wall_s`` and ``sim_s`` at the ``HostClock`` nominal host speed
    #: (the raw values when the pass ran without a clock).
    norm_wall_s: float = 0.0
    norm_sim_s: float = 0.0


def profile_for(app: str, seed: int):
    from repro.workloads.apps import get_app

    profile = get_app(app)
    if seed:
        profile = dataclasses.replace(profile, seed=profile.seed + seed)
    return profile


def setup_sweep(ctx: Context) -> None:
    from repro.harness import parallel

    ctx.config = make_config(ctx.workload.config)
    parallel.configure(jobs=1, retries=0, timeout=0)


def setup_points(ctx: Context) -> None:
    """Build each point's image (with its plane), kernel and controller
    factory from cold in-process caches."""
    from repro.core.params import CabaParams
    from repro.harness import runner
    from repro.workloads import tracegen

    runner.clear_caches()
    w = ctx.workload
    ctx.config = make_config(w.config)
    scale = tracegen.TraceScale(work=w.work)
    ctx.prepared = []
    for app, design_name in w.points:
        profile = profile_for(app, ctx.seed)
        design = make_design(design_name)
        image = runner.build_image(profile, design, ctx.config, scale)
        kernel = tracegen.build_kernel(profile, ctx.config, scale)
        factory, regs = runner._make_caba_factory(
            design, ctx.config, CabaParams(), plane=image.plane
        )
        ctx.prepared.append(Point(f"{app}-{design_name}", design, image,
                                  kernel, factory, regs))


def simulate(ctx: Context, point: Point, probe: Probe, sample=None):
    """One timed ``Simulator.run`` of a prepared point."""
    from repro.gpu.simulator import Simulator

    sim = Simulator(ctx.config, point.kernel, point.design, point.image,
                    caba_factory=point.factory,
                    assist_regs_per_thread=point.regs, sample=sample)
    probe.label = point.label + (" sampled" if sample is not None else "")
    result = sim.run()
    return probe.last_run_s, result


def pass_loop(ctx: Context, n: int, probe: Probe) -> PassResult:
    wall = 0.0
    counts = []
    for point in ctx.prepared:
        ctx.check.attempted += 1
        seconds, result = simulate(ctx, point, probe)
        wall += seconds
        ctx.check.repeat(point.label, result, f"pass {n} {point.label}")
        counts.append(sim_counts(result))
    return PassResult(wall, probe.seconds["simulator.run"],
                      probe.sim_instructions, total_counts(counts),
                      norm_wall_s=probe.norm_sim_s,
                      norm_sim_s=probe.norm_sim_s)


def pass_sampled(ctx: Context, n: int, probe: Probe) -> PassResult:
    from repro.gpu.sampling import SampleConfig

    wall = exact_s = sampled_s = 0.0
    counts = []
    extra = {}
    for point in ctx.prepared:
        label = point.label
        ctx.check.attempted += 2
        e_s, exact = simulate(ctx, point, probe)
        s_s, sampled = simulate(ctx, point, probe, SampleConfig())
        wall += e_s + s_s
        exact_s += e_s
        sampled_s += s_s
        ctx.check.repeat(label, exact, f"pass {n} {label} exact")
        ctx.check.repeat(label + " sampled", sampled,
                         f"pass {n} {label} sampled")
        if (sampled.stats.parent_instructions
                != exact.stats.parent_instructions):
            ctx.check.fail(f"pass {n} {label} sampled",
                           "parent instruction count differs from the "
                           "exact run's")
        counts += [sim_counts(exact), sim_counts(sampled)]
        exact_bw = exact.bandwidth_utilization()
        extra[f"sampling.ipc_err.{label}"] = (
            abs(sampled.ipc - exact.ipc) / exact.ipc)
        extra[f"sampling.bw_err.{label}"] = (
            abs(sampled.bandwidth_utilization() - exact_bw)
            / max(exact_bw, 1e-12))
    extra["sample_err_max"] = max(extra.values())
    extra["sample_speedup"] = exact_s / sampled_s
    return PassResult(wall, probe.seconds["simulator.run"],
                      probe.sim_instructions, total_counts(counts), extra,
                      norm_wall_s=probe.norm_sim_s,
                      norm_sim_s=probe.norm_sim_s)


def _disk_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def pass_sweep(ctx: Context, n: int, probe: Probe) -> PassResult:
    """Cold then warm ``fig7_performance`` over a fresh run cache that is
    deleted afterwards (the user's own cache is never touched)."""
    from repro.harness import figures, runner

    apps = ctx.workload.apps
    cache_dir = Path(tempfile.mkdtemp(prefix="runcache-", dir=ctx.tmp))
    os.environ.update(REPRO_CACHE="1", REPRO_CACHE_DIR=str(cache_dir))
    legs = {}
    try:
        for leg in ("cold", "warm"):
            # Drop the in-process memo so the warm leg reads from disk.
            runner.clear_caches()
            probe.runs.clear()
            ctx.check.attempted += 5 * len(apps)
            start = time.perf_counter()
            figure = figures.fig7_performance(ctx.config, apps=apps)
            end = time.perf_counter()
            raw, norm = ((end - start, end - start) if probe.clock is None
                         else probe.clock.span(start, end))
            legs[leg] = (raw, norm, figure.rows, dict(probe.runs))
            if leg == "cold":
                sim_s = probe.seconds["simulator.run"]
                norm_sim_s = probe.norm_sim_s
                instructions = probe.sim_instructions
                written = _disk_bytes(cache_dir)
    finally:
        runner.clear_caches()
        os.environ["REPRO_CACHE"] = "0"
        del os.environ["REPRO_CACHE_DIR"]
        shutil.rmtree(cache_dir, ignore_errors=True)

    (cold_s, cold_norm, cold_rows, cold), (warm_s, warm_norm, warm_rows,
                                           warm) = legs["cold"], legs["warm"]
    for spec, result in cold.items():
        label = f"{spec.app}-{spec.design.name}"
        ctx.check.repeat(label, result, f"pass {n} {label} cold")
        if spec not in warm or fingerprint(warm[spec]) != fingerprint(result):
            ctx.check.fail(f"pass {n} {label} warm",
                           "warm-cache result differs from the cold run")
    if warm_rows != cold_rows:
        ctx.check.fail(f"pass {n} fig7 warm",
                       "warm-cache figure rows differ from the cold pass")
    counts = total_counts([run_counts(r) for r in cold.values()])
    return PassResult(cold_s + warm_s, sim_s, instructions, counts,
                      {"warm_s": warm_s, "cache.bytes_written": written},
                      norm_wall_s=cold_norm + warm_norm,
                      norm_sim_s=norm_sim_s)


KINDS = {
    "sweep": (setup_sweep, pass_sweep, lambda w: 10 * len(w.apps)),
    "loop": (setup_points, pass_loop, lambda w: len(w.points)),
    "sampled": (setup_points, pass_sampled, lambda w: 2 * len(w.points)),
}


def run_pass(ctx: Context, n: int, probe: Probe) -> PassResult | None:
    """One pass; an exception fails every run the pass attempted."""
    _, one_pass, runs = KINDS[ctx.workload.kind]
    gc.collect()
    before = ctx.check.attempted
    try:
        with probe.attach():
            return one_pass(ctx, n, probe)
    except Exception as exc:  # any raise is a failed run, reported by name
        ctx.check.attempted = before + runs(ctx.workload)
        ctx.check.fail(f"pass {n} ({ctx.name})", f"raised {exc!r}",
                       runs=runs(ctx.workload))
        return None


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def median(values):
    """Median, or 0.0 when every pass failed (the run is then incorrect
    anyway, and JSON has no NaN)."""
    return statistics.median(values) if values else 0.0


def summarize(passes: list[PassResult]) -> dict:
    """Metrics common to both modes, medians over passes. ``wall_s`` and
    ``sim_kinstr_per_s`` are at the nominal host speed; ``raw.*`` are
    the same as measured."""
    out = {
        "wall_s": median([p.norm_wall_s for p in passes]),
        "sim_kinstr_per_s": median(
            [p.instructions / p.norm_sim_s / 1e3
             for p in passes if p.norm_sim_s]),
        "raw.wall_s": median([p.wall_s for p in passes]),
        "raw.sim_kinstr_per_s": median(
            [p.instructions / p.sim_s / 1e3 for p in passes if p.sim_s]),
    }
    for key in passes[0].extra if passes else ():
        out[key] = median([p.extra[key] for p in passes])
    return out


def measure(ctx: Context, seconds: float) -> tuple[dict, int]:
    """The untraced run: repeated set-up, then passes for ``seconds``,
    all under one :class:`HostClock`."""
    setup, _, _ = KINDS[ctx.workload.kind]
    imported = time.perf_counter()
    with HostClock() as clock:
        setups = []
        for _ in range(SETUP_REPS):
            gc.collect()
            start = time.perf_counter()
            setup(ctx)
            setups.append(clock.span(start, time.perf_counter()))
        passes = []
        start = time.perf_counter()
        n = 0
        while True:
            n += 1
            result = run_pass(ctx, n, Probe(clock=clock))
            if result is not None:
                passes.append(result)
            elapsed = time.perf_counter() - start
            if elapsed * (n + 1) / n > seconds:
                break
    # Imports ran before the clock started: rescale them by the run's
    # median host speed rather than by one sample.
    import_s = imported - _STARTED
    ref = median([sample[2] for sample in clock.samples])
    metrics = summarize(passes)
    metrics["setup_s"] = (import_s * clock.NOMINAL / ref
                          + median([s[1] for s in setups]))
    metrics["raw.setup_s"] = import_s + median([s[0] for s in setups])
    metrics["host.ref_ms"] = 1e3 * ref
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return metrics, n


def trace(ctx: Context) -> tuple[dict, int]:
    """The traced run: a stage-span pass, then a cProfile pass."""
    setup, _, _ = KINDS[ctx.workload.kind]
    spans = Probe(full=True)
    with spans.attach():
        setup(ctx)
    spanned = run_pass(ctx, 1, spans)
    profiled = Probe(profile=True)
    run_pass(ctx, 2, profiled)

    metrics = summarize([spanned] if spanned else [])
    s, c = spans.seconds, spans.counts
    metrics.update({
        "runner.build_image_s": s["runner.build_image"],
        "tracegen.build_kernel_s": s["tracegen.build_kernel"],
        "plane.build_s": s["plane.build"],
        "plane.lines": c["plane.lines"],
        "simulator.run_s": s["simulator.run"],
        "energy.evaluate_s": s["energy.evaluate"],
        "engine.overhead_s": max(
            0.0, s["engine.run_specs"] - s["engine.run_spec"]),
        "cache.get_s": s["cache.get"],
        "cache.put_s": s["cache.put"],
        "cache.plane_get_s": s["cache.plane_get"],
        "cache.plane_put_s": s["cache.plane_put"],
        "cache.hits": c["cache.hit"],
        "cache.misses": c["cache.miss"],
    })
    # Workload-specific layers read zero where the workload skips them.
    for name in ("warm_s", "cache.bytes_written", "sample_speedup",
                 "sample_err_max", *SAMPLING_ERRORS):
        metrics.setdefault(name, 0.0)
    if spanned is not None:
        for name, value in spanned.counts.items():
            metrics[f"sim.{name}"] = value

    own: dict[str, float] = {}
    calls = {metric: 0 for metric, _, _ in CALLS}
    for label, stats in profiled.profiles:
        one = attribute(stats, SRC)
        shares = split(one)
        print(f"split {ctx.name} {label}: " + " ".join(
            f"{pkg} {shares[pkg]:.1%}" for pkg in (*PACKAGES, "other"))
            + " of Simulator.run self time (cProfile)", flush=True)
        for name, seconds in one.items():
            own[name] = own.get(name, 0.0) + seconds
        for name, count in call_counts(stats, SRC).items():
            calls[name] += count
    listed = 0.0
    for module in MODULES:
        metrics[f"self.{module}"] = own.get(module, 0.0)
        listed += own.get(module, 0.0)
    metrics["self.other"] = sum(own.values()) - listed
    for pkg, share in split(own).items():
        if pkg in PACKAGES:
            metrics[f"share.{pkg}"] = share
    metrics.update(calls)
    memory_s = sum(v for k, v in own.items() if k.startswith("memory."))
    metrics["us_per_tick.gpu.sm"] = (
        1e6 * own.get("gpu.sm", 0.0) / calls["calls.gpu.sm.tick"]
        if calls["calls.gpu.sm.tick"] else 0.0)
    metrics["us_per_load.memory"] = (
        1e6 * memory_s / calls["calls.memory.hierarchy.load"]
        if calls["calls.memory.hierarchy.load"] else 0.0)
    metrics["trace_overhead"] = (
        profiled.seconds["simulator.run"] / s["simulator.run"]
        if s["simulator.run"] else 0.0)
    return metrics, 2


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def provenance(ctx: Context, args, stripped: list[str], passes: int) -> dict:
    from repro.gpu import soa
    from repro.harness import cache, runner
    from repro.workloads.tracegen import TraceScale

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    w = ctx.workload
    scale = TraceScale(work=w.work) if w.kind != "sweep" else TraceScale()
    return {
        "workload": ctx.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "setup_reps": SETUP_REPS if not args.trace else 1,
        "commit": git_commit(),
        "code_stamp": cache.version_stamp(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "config": w.config,
        "n_sms": ctx.config.n_sms,
        "scale": dataclasses.asdict(scale),
        "apps": list(w.apps),
        "points": ["/".join(p) for p in w.points],
        "profiles": (
            "registered (run_app persists only registered profiles, so "
            "the sweep ignores --seed)" if w.kind == "sweep"
            else f"registered data seeds offset by {args.seed}"),
        "defaults": {
            "soa": soa.soa_enabled(),
            "planes": runner.planes_enabled(),
            "sampling": "off (exact)" if w.kind != "sampled"
                        else "exact and SampleConfig()",
            "obs_trace": False,
            "run_cache": ("fresh temporary dir per sweep pass, else off"
                          if w.kind == "sweep" else "off (REPRO_CACHE=0)"),
            "engine": "jobs=1 retries=0 timeout=0",
        },
        "stripped_env": stripped,
    }


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        stripped = strip_ambient()
        import_repro()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Only a sweep pass turns the run cache on, against its own fresh
    # directory; nothing else may reach the default ~/.cache location.
    os.environ["REPRO_CACHE"] = "0"
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    ctx = Context(args.workload, workload, args.seed, tmp, Checker())
    try:
        if args.trace:
            metrics, passes = trace(ctx)
        else:
            metrics, passes = measure(ctx, args.seconds)
    finally:
        from repro.harness import parallel

        parallel.shutdown()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    check = ctx.check
    metrics["failed_frac"] = (
        check.failed / check.attempted if check.attempted else 0.0)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(RAW_UNITS)
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: not measured: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} attempted={check.attempted} "
          f"failed={check.failed}")
    for name in sorted(metrics):
        if name in units:
            print(f"  {name:<34} {metrics[name]:>16.6f} {units[name]}")
    print("provenance " + json.dumps(
        provenance(ctx, args, stripped, passes), sort_keys=True))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted},
    }), flush=True)
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
