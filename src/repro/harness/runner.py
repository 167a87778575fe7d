"""Experiment runner: one call = one run.

A run is an application under a design point, or an assist-warp
scenario (prefetch/memoization) on the baseline design. Both take the
same path, :func:`_simulate`: it builds the memory image, the kernel and
the assist-warp controllers, runs the simulator and the energy model,
and returns a :class:`RunResult` with every metric the paper's figures
report. An application's compressed image always reads its line sizes
from a precomputed :class:`~repro.memory.plane.CompressionPlane`, built
once per (image, algorithm) and shared by every design that uses the
algorithm.

Caching happens at two levels. Results are memoized per process (the
Figure 7/8/9 harnesses share runs, so each point simulates once), and —
because every run is fully deterministic — raw-free results are also
persisted to a content-addressed on-disk cache
(:mod:`repro.harness.cache`) keyed by the run spec plus a source-code
version stamp, so repeated benchmark/CI invocations skip simulation
entirely. :func:`cached_result` reads both levels and
:func:`record_result` writes both; :func:`run_spec` and the parallel
engine go through the same pair.

A :class:`RunSpec` is the picklable identity of one run; it is both the
cache key and the unit of work the parallel engine
(:mod:`repro.harness.parallel`) ships to worker processes.

The persistent cache doubles as the engine's checkpoint store: a pool
worker persists its result from inside ``run_spec`` and the parent
re-records it via :func:`record_result` the moment the future lands,
so a crashed, killed or interrupted sweep keeps every completed run
and a rerun only redoes the failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.compression import bestofall as bestofall_mod
from repro.compression import make_algorithm
from repro.core.controller import CabaController
from repro.core.params import CabaParams
from repro.core.subroutines import SubroutineLibrary
from repro.design import DesignPoint
from repro.design import base as base_design
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.gpu.config import GPUConfig
from repro.gpu.sampling import SampleConfig
from repro.gpu.simulator import SimulationResult, Simulator
from repro.gpu.stats import Slot
from repro.harness import cache as run_cache_store
from repro.harness.scenarios import (
    ScenarioSpec,
    build_scenario,
    collect_scenario_stats,
)
from repro.memory import plane as plane_mod
from repro.memory.hostlink import CapacityConfig, CapacityModel, plan_capacity
from repro.memory.image import MemoryImage
from repro.memory.plane import CompressionPlane
from repro.obs import ChromeTraceCollector
from repro.workloads.apps import AppProfile, get_app
from repro.workloads.data_patterns import (
    make_block_generator,
    make_line_generator,
)
from repro.workloads.tracegen import TraceScale, build_kernel, footprint_extents


@dataclass(frozen=True)
class RunSpec:
    """Picklable identity of one simulation run.

    Every field is a frozen dataclass (or string) with a deterministic
    ``repr``, which makes the spec hashable, process-portable and usable
    as a stable content address for the persistent cache.
    """

    app: str
    design: DesignPoint
    config: GPUConfig
    scale: TraceScale = field(default_factory=TraceScale)
    params: CabaParams = field(default_factory=CabaParams)
    #: Interval-sampling knobs (None = exact simulation). The default
    #: follows REPRO_SAMPLE at spec-construction time, so env-driven
    #: sweeps sample consistently while pickled specs carry the choice
    #: to pool workers verbatim.
    sample: SampleConfig | None = field(
        default_factory=SampleConfig.from_env
    )
    #: Capacity-mode knobs (None = bandwidth mode, the default). When
    #: set, the app's stored footprint is placed against the budget and
    #: spilled lines travel the host link.
    capacity: CapacityConfig | None = None
    #: Assist-warp scenario (prefetch/memoization). When set, the run
    #: executes the scenario's synthetic kernel instead of a registered
    #: application; ``app`` carries the scenario kernel's name.
    scenario: ScenarioSpec | None = None

    def canonical(self) -> str:
        """Stable serialization used for content addressing. Includes
        the sampling config, so exact and sampled runs of the same
        point never collide in the persistent cache; likewise the
        capacity and scenario fields."""
        return repr((self.app, self.design, self.config,
                     self.scale, self.params, self.sample,
                     self.capacity, self.scenario))


@dataclass
class RunResult:
    """All per-run metrics used by the paper's figures."""

    app: str
    design: str
    cycles: int
    ipc: float
    instructions: int
    assist_instructions: int
    bandwidth_utilization: float
    compression_ratio: float
    energy: EnergyBreakdown
    slot_breakdown: dict[Slot, float]
    md_cache_hit_rate: float | None
    dram_bursts: dict[str, int]
    l2_hit_rate: float
    truncated: bool
    occupancy_blocks: int
    #: Store-path counters (kept on the slim result so the ablation and
    #: example studies do not need the raw simulation state).
    lines_compressed: int = 0
    l1_stores: int = 0
    rmw_reads: int = 0
    #: Capacity-mode outcome (placement + host-link traffic); None for
    #: bandwidth-mode runs, so pre-existing stats stay byte-identical.
    capacity: dict | None = None
    #: Scenario outcome (controller stats); None for compression runs.
    scenario: dict | None = None
    #: Issue slots per refined stall category
    #: (``SimStats.stall_counts``): per SM, totals and extrapolated.
    stalls: dict = field(repr=False, default_factory=dict)
    #: Chrome trace_event timeline, when one was asked for; never
    #: persisted (it is large and optional).
    chrome: dict | None = field(repr=False, default=None)
    #: Full simulation state; only populated for ``keep_raw=True`` runs
    #: and never persisted (it holds the whole memory system).
    raw: SimulationResult | None = field(repr=False, default=None)

    @property
    def energy_total(self) -> float:
        return self.energy.total


# Per-process caches.
_run_cache: dict[RunSpec, RunResult] = {}
#: Compression planes by content address, shared across every design of
#: a sweep (Base/CABA-BDI/... all reuse the same per-algorithm plane).
_plane_cache: dict[str, CompressionPlane] = {}


def clear_caches() -> None:
    """Drop memoized runs, compression planes and the persistent cache
    handle (mainly for tests; the on-disk entries survive)."""
    _run_cache.clear()
    _plane_cache.clear()
    run_cache_store.reset_cache_handle()


def planes_enabled() -> bool:
    """Always True: every compressed image the runner builds reads its
    sizes from a plane. Kept so run-provenance records that report the
    size path keep their field."""
    return True


def _resolve_app(app: str | AppProfile) -> AppProfile:
    if isinstance(app, AppProfile):
        return app
    return get_app(app)


def _plane_for(
    app: AppProfile,
    algorithm_name: str,
    line_size: int,
    burst_bytes: int,
    extents: tuple[tuple[int, int], ...],
) -> CompressionPlane:
    """Build-or-recall the plane for one (image, algorithm) pair.

    Lookup order: in-process memo, persistent cache, build. BestOfAll
    planes are composed from the (cached) component planes instead of
    compressing the image a fourth time.
    """
    key = plane_mod.plane_key(
        app.data, app.seed, algorithm_name, line_size, burst_bytes, extents
    )
    cached = _plane_cache.get(key)
    if cached is not None:
        return cached
    disk = run_cache_store.get_cache()
    if disk is not None:
        hit = disk.get_plane(key)
        if hit is not None:
            _plane_cache[key] = hit
            return hit
    if algorithm_name == "bestofall":
        components = [
            (name, _plane_for(app, name, line_size, burst_bytes, extents))
            for name in bestofall_mod.COMPONENT_PRIORITY
        ]
        built = plane_mod.compose_best_of_all(
            components, line_size, burst_bytes, key
        )
    else:
        built = plane_mod.build_plane(
            make_line_generator(app.data, line_size=line_size, seed=app.seed),
            extents,
            make_algorithm(algorithm_name, line_size),
            burst_bytes=burst_bytes,
            key=key,
            line_block=make_block_generator(
                app.data, line_size=line_size, seed=app.seed
            ),
        )
    _plane_cache[key] = built
    if disk is not None:
        disk.put_plane(key, built)
    return built


def plane_for_app(
    app: str | AppProfile,
    algorithm: str,
    line_count: int,
    line_size: int = 128,
    burst_bytes: int = 32,
) -> CompressionPlane:
    """The plane covering lines ``[0, line_count)`` of ``app``'s image.

    Used by harnesses that sample the image directly (e.g. the Fig. 11
    compression-ratio study) so they share plane construction and
    caching with the simulator.
    """
    profile = _resolve_app(app)
    return _plane_for(
        profile, algorithm, line_size, burst_bytes, ((0, line_count),)
    )


def build_image(
    app: AppProfile,
    design: DesignPoint,
    config: GPUConfig,
    scale: TraceScale = TraceScale(),
) -> MemoryImage:
    """The compressed global-memory view for one run.

    Under a compressing design the whole footprint of the run at
    ``scale`` is batch-compressed upfront into a plane — or recalled
    from a cache — so the simulation itself never calls scalar
    ``compress()``.
    """
    algorithm = None
    plane = None
    # Section 4.3.1: static profiling disables compression for
    # applications that would not benefit (no compressible bandwidth).
    if design.compression_enabled and app.compressible:
        algorithm = make_algorithm(design.algorithm, config.line_size)
        plane = _plane_for(
            app, design.algorithm, config.line_size, config.burst_bytes,
            footprint_extents(app, config, scale),
        )
    return MemoryImage(
        algorithm,
        line_size=config.line_size,
        burst_bytes=config.burst_bytes,
        plane=plane,
    )


def _make_caba_factory(
    design: DesignPoint,
    config: GPUConfig,
    params: CabaParams,
    plane: CompressionPlane | None = None,
) -> tuple[Callable | None, int]:
    """Returns (controller factory, assist register demand per thread).

    With a plane, every encoding in the image is known upfront, so each
    controller gets a prebuilt encoding -> decompression-program table
    and the per-spawn library dispatch disappears from the hot path.
    """
    if not design.uses_assist_warps or design.algorithm is None:
        return None, 0
    library = SubroutineLibrary(line_size=config.line_size)
    programs = None
    if plane is not None:
        programs = {}
        for encoding in plane.encodings():
            if encoding == "uncompressed":
                continue
            try:
                programs[encoding] = library.decompression(
                    design.algorithm, encoding
                )
            except (ValueError, KeyError):
                continue

    def factory(sm):
        return CabaController(
            sm, params, library, design.algorithm, programs=programs
        )

    return factory, library.register_demand(design.algorithm)


def _simulate(
    spec: RunSpec,
    profile: AppProfile | None = None,
    chrome: bool = False,
) -> RunResult:
    """Execute one run; the returned result carries the raw state.

    An application run builds the app's image, kernel and CABA
    controller factory. A scenario run builds an all-zero uncompressed
    image, the scenario's synthetic kernel and its own assist-warp
    controllers; it needs the baseline design point (the controllers
    come from the scenario, not from a compression subroutine library)
    and has no capacity mode. Simulation, energy and the result record
    are the same for both.
    """
    design = spec.design
    config = spec.config
    assist_regs = 0
    capacity_model = None
    if spec.scenario is not None:
        if design.compression_enabled or design.uses_assist_warps:
            raise ValueError(
                "scenario runs use the baseline design point; got "
                f"{design.name!r}"
            )
        if spec.capacity is not None:
            raise ValueError("scenario runs have no capacity mode")
        name = spec.app
        effective_design = design
        image = MemoryImage(
            None,
            line_size=config.line_size,
            burst_bytes=config.burst_bytes,
        )
        kernel, caba_factory, controllers = build_scenario(
            spec.scenario, config
        )
    else:
        if profile is None:
            profile = get_app(spec.app)
        name = profile.name
        # Profiling gate (Section 4.3.1): incompressible apps run the
        # baseline path even under compression designs.
        effective_design = design
        if design.compression_enabled and not profile.compressible:
            effective_design = base_design()
        image = build_image(profile, effective_design, config, spec.scale)
        kernel = build_kernel(profile, config, spec.scale)
        caba_factory, assist_regs = _make_caba_factory(
            effective_design, config, spec.params, plane=image.plane
        )
        if spec.capacity is not None:
            capacity_model = _plan_capacity_model(
                profile, effective_design, config, spec, image
            )
    collector = ChromeTraceCollector() if chrome else None
    simulator = Simulator(
        config,
        kernel,
        effective_design,
        image,
        caba_factory=caba_factory,
        assist_regs_per_thread=assist_regs,
        chrome=collector,
        sample=spec.sample,
        capacity=capacity_model,
    )
    sim_result = simulator.run()
    energy = EnergyModel().evaluate(sim_result, config, effective_design)

    memory = sim_result.memory
    stats = memory.stats
    l2_accesses = stats.l2_accesses
    scenario = None
    if spec.scenario is not None:
        scenario = {
            **collect_scenario_stats(spec.scenario, controllers),
            "l1_load_hits": stats.l1_load_hits,
        }
    return RunResult(
        app=name,
        design=design.name,
        cycles=sim_result.cycles,
        ipc=sim_result.ipc,
        instructions=sim_result.stats.instructions,
        assist_instructions=sim_result.stats.assist_instructions,
        bandwidth_utilization=sim_result.bandwidth_utilization(),
        compression_ratio=memory.image.touched_compression_ratio(),
        energy=energy,
        slot_breakdown=sim_result.stats.slot_breakdown(),
        md_cache_hit_rate=memory.md_cache_hit_rate(),
        dram_bursts=memory.dram_bursts(),
        l2_hit_rate=(stats.l2_hits / l2_accesses if l2_accesses else 0.0),
        truncated=sim_result.truncated,
        occupancy_blocks=sim_result.occupancy.blocks_per_sm,
        lines_compressed=stats.lines_compressed,
        l1_stores=stats.l1_stores,
        rmw_reads=stats.rmw_reads,
        capacity=_capacity_payload(memory, sim_result.cycles),
        scenario=scenario,
        stalls=sim_result.stats.stall_counts(),
        chrome=collector.export() if collector is not None else None,
        raw=sim_result,
    )


def _plan_capacity_model(
    profile: AppProfile,
    design: DesignPoint,
    config: GPUConfig,
    spec: RunSpec,
    image: MemoryImage,
) -> CapacityModel:
    """Place the app's stored footprint against the capacity budget.

    The stored size per line is the plane-backed compressed size when
    the design keeps DRAM compressed, the full line otherwise — the
    same sizes the hierarchy charges, so placement and timing agree.
    """
    extents = footprint_extents(profile, config, spec.scale)
    if design.compress_dram and image.compression_enabled:
        stored_size_of = image.size_of
    else:
        def stored_size_of(line: int, _size=config.line_size) -> int:
            return _size
    plan = plan_capacity(
        extents, config.line_size, stored_size_of, spec.capacity
    )
    return CapacityModel(config=spec.capacity, plan=plan)


def _capacity_payload(memory, cycles: int) -> dict | None:
    """The RunResult capacity section (None in bandwidth mode)."""
    if memory.capacity is None:
        return None
    plan = memory.capacity.plan
    host = memory.host
    return {
        "device_bytes": plan.device_bytes,
        "footprint_bytes": plan.footprint_bytes,
        "stored_bytes": plan.stored_bytes,
        "total_lines": plan.total_lines,
        "spill_lines": len(plan.spilled),
        "spill_fraction": plan.spill_fraction,
        "effective_capacity_ratio": plan.effective_capacity_ratio,
        "host_reads": host.stats.reads,
        "host_writes": host.stats.writes,
        "host_bursts": host.stats.total_bursts,
        "host_bus_utilization": (
            host.bus.busy_time / cycles if cycles else 0.0
        ),
    }


def scenario_spec(
    kind: str,
    config: GPUConfig | None = None,
    sample: SampleConfig | None | object = None,
    **knobs,
) -> RunSpec:
    """Convenience constructor for a scenario RunSpec.

    ``knobs`` are ScenarioSpec fields (assist, distance, degree,
    redundancy, region_len, iterations). ``sample`` defaults to exact
    mode; build the RunSpec directly to follow ``REPRO_SAMPLE``.
    """
    scenario = ScenarioSpec(kind=kind, **knobs)
    kernel_name = (
        "memo_kernel" if kind == "memoization" else "latency_stream"
    )
    return RunSpec(
        app=kernel_name,
        design=base_design(),
        config=config if config is not None else GPUConfig.small(),
        sample=sample,
        scenario=scenario,
    )


def _satisfies(result: RunResult, keep_raw: bool, chrome: bool) -> bool:
    """Whether a cached result can stand in for the requested run."""
    if keep_raw and result.raw is None:
        return False
    return not chrome or result.chrome is not None


def cached_result(
    spec: RunSpec,
    chrome: bool = False,
    keep_raw: bool = False,
    persist: bool = True,
) -> RunResult | None:
    """Look up ``spec`` in the in-process memo and, when ``persist``,
    the persistent cache without simulating. The disk never holds raw
    state, so only the memo can serve a ``keep_raw`` request."""
    cached = _run_cache.get(spec)
    if cached is not None and _satisfies(cached, keep_raw, chrome):
        return cached
    disk = run_cache_store.get_cache() if persist and not keep_raw else None
    if disk is not None:
        hit = disk.get(spec)
        if hit is not None and _satisfies(hit, False, chrome):
            _run_cache[spec] = hit
            return hit
    return None


def record_result(
    spec: RunSpec,
    result: RunResult,
    keep_raw: bool = False,
    persist: bool = True,
) -> None:
    """Integrate a computed (local or pool-worker) result into the
    in-process memo and, when ``persist``, the persistent cache.

    The memo keeps raw state only for ``keep_raw`` results; the disk
    copy never holds raw state or the (large, optional) chrome timeline.
    """
    slim = result if result.raw is None else replace(result, raw=None)
    _run_cache[spec] = result if keep_raw else slim
    disk = run_cache_store.get_cache() if persist else None
    if disk is None:
        return
    if slim.chrome is not None:
        slim = replace(slim, chrome=None)
    disk.put(spec, slim)


def run_spec(
    spec: RunSpec,
    use_cache: bool = True,
    keep_raw: bool = False,
    profile: AppProfile | None = None,
    persist: bool = True,
    chrome: bool = False,
) -> RunResult:
    """Simulate (or recall) one :class:`RunSpec`.

    ``profile`` overrides registry lookup (custom workloads); such runs
    set ``persist=False`` since an unregistered profile's name is not a
    sound content address across processes.

    ``chrome`` collects a Chrome trace_event timeline into
    ``RunResult.chrome``; chrome payloads are kept out of the persistent
    cache.
    """
    if use_cache:
        hit = cached_result(spec, chrome=chrome, keep_raw=keep_raw,
                            persist=persist)
        if hit is not None:
            return hit
    result = _simulate(spec, profile, chrome=chrome)
    if not keep_raw:
        result = replace(result, raw=None)
    if use_cache:
        record_result(spec, result, keep_raw=keep_raw, persist=persist)
    return result


#: Sentinel for run_app's ``sample`` default: follow REPRO_SAMPLE (via
#: RunSpec's default factory) rather than forcing a mode.
_SAMPLE_FROM_ENV = object()


def run_app(
    app: str | AppProfile,
    design: DesignPoint,
    config: GPUConfig | None = None,
    scale: TraceScale = TraceScale(),
    caba_params: CabaParams | None = None,
    use_cache: bool = True,
    keep_raw: bool = False,
    chrome: bool = False,
    sample: SampleConfig | None | object = _SAMPLE_FROM_ENV,
    capacity: CapacityConfig | None = None,
) -> RunResult:
    """Simulate one application under one design point.

    Args:
        app: Application name (see ``repro.workloads.APPLICATIONS``) or a
            profile object.
        design: Compression design point.
        config: Machine configuration; defaults to ``GPUConfig.small()``
            so casual calls stay fast. Use ``GPUConfig()`` for Table 1.
        scale: Workload scaling.
        caba_params: CABA framework knobs (CABA designs only).
        use_cache: Reuse memoized/persisted results for identical runs.
        keep_raw: Attach the full :class:`SimulationResult` to the
            returned result. Raw state is big (it holds the memory
            system), so it is opt-in and never cached on disk.
        chrome: Also collect a Chrome trace_event timeline
            (``RunResult.chrome``).
        sample: Interval-sampling knobs: a
            :class:`~repro.gpu.sampling.SampleConfig` to sample, ``None``
            to force exact simulation, or unset to follow
            ``REPRO_SAMPLE``.
        capacity: Capacity-mode knobs
            (:class:`~repro.memory.hostlink.CapacityConfig`), or ``None``
            (default) for bandwidth mode.
    """
    profile = _resolve_app(app)
    spec_kwargs = {}
    if sample is not _SAMPLE_FROM_ENV:
        spec_kwargs["sample"] = sample
    spec = RunSpec(
        app=profile.name,
        design=design,
        config=config if config is not None else GPUConfig.small(),
        scale=scale,
        params=caba_params if caba_params is not None else CabaParams(),
        capacity=capacity,
        **spec_kwargs,
    )
    try:
        registered = get_app(profile.name) == profile
    except KeyError:
        registered = False
    return run_spec(spec, use_cache=use_cache, keep_raw=keep_raw,
                    profile=profile, persist=registered,
                    chrome=chrome)


def speedup(result: RunResult, baseline: RunResult) -> float:
    """IPC ratio vs. a baseline run of the same application."""
    if baseline.ipc == 0:
        return 0.0
    return result.ipc / baseline.ipc


def geomean(values) -> float:
    """Geometric mean (the conventional speedup aggregate)."""
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
