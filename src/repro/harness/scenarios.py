"""First-class prefetch/memoization scenarios (Sections 7.1, 7.2).

The paper positions CABA as a *framework*; compression is the flagship
case study but assist warps also run prefetchers and memoization
helpers. This module makes those two uses first-class runnable
scenarios instead of one-off extension scripts: a frozen
:class:`ScenarioSpec` rides on a RunSpec (so scenario runs are
content-addressed, cacheable, pool-portable, traceable and samplable
exactly like compression runs), and :func:`build_scenario` produces the
synthetic kernel plus the assist-warp controller factory the simulator
needs.

The kernels are synthetic by design, mirroring the paper's evaluation
regimes: memoization uses a compute-bound kernel with a redundancy-
parameterized memoizable region; prefetching uses a streaming kernel
with too few warps to hide memory latency. Setting ``assist=False``
runs the identical kernel without a controller — the baseline every
scenario figure normalizes against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.memoization import MemoizationController, MemoParams
from repro.core.prefetch import PrefetchController, PrefetchParams
from repro.gpu.config import GPUConfig
from repro.gpu.isa import Instr, MemSpace, OpKind, Program, reg_mask
from repro.gpu.kernel import Kernel

#: Valid ScenarioSpec kinds.
SCENARIO_KINDS = ("prefetch", "memoization")

_M64 = (1 << 64) - 1


def _mix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class ScenarioSpec:
    """Picklable identity of one assist-warp scenario run.

    Frozen with a deterministic ``repr`` so it composes into RunSpec's
    content address the same way DesignPoint/CabaParams do.

    kind: ``prefetch`` or ``memoization``.
    assist: run with the assist-warp controller; ``False`` runs the
        same kernel bare (the scenario's baseline).
    distance/degree: stride-prefetcher knobs (prefetch only).
    redundancy: fraction of iterations whose inputs are shared by every
        warp (memoization only).
    region_len: instructions in the memoizable region (memoization only).
    iterations: kernel loop-trip override (None = the kind's default).
    """

    kind: str
    assist: bool = True
    distance: int = 2
    degree: int = 1
    redundancy: float = 0.5
    region_len: int = 8
    iterations: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r} "
                f"(known: {', '.join(SCENARIO_KINDS)})"
            )
        if not 0.0 <= self.redundancy <= 1.0:
            raise ValueError("redundancy must be in [0, 1]")
        if self.distance < 1 or self.degree < 1 or self.region_len < 1:
            raise ValueError("distance/degree/region_len must be >= 1")


# ----------------------------------------------------------------------
# Scenario kernels
# ----------------------------------------------------------------------
def build_memo_kernel(
    config: GPUConfig,
    region_len: int = 8,
    iterations: int = 40,
    warps_per_block: int = 6,
) -> Kernel:
    """A compute-bound kernel with one memoizable region per iteration.

    The region holds the heavy ALU/SFU work; a MEMO marker in front of
    it lets the memoization controller skip it on LUT hits.
    """
    region: list[Instr] = []
    for i in range(region_len):
        if i % 4 == 3:
            region.append(Instr(OpKind.SFU, latency=20,
                                dst_mask=reg_mask(2), src_mask=reg_mask(1),
                                tag="region_sfu"))
        elif i % 4 == 2:
            region.append(Instr(OpKind.ALU, latency=12,
                                dst_mask=reg_mask(2), src_mask=reg_mask(1),
                                tag="region_heavy"))
        else:
            region.append(Instr(OpKind.ALU, latency=4,
                                dst_mask=reg_mask(1), src_mask=reg_mask(1),
                                tag="region_alu"))
    body = (
        Instr(OpKind.LOAD, dst_mask=reg_mask(3), src_mask=reg_mask(0),
              space=MemSpace.SHARED, tag="load_inputs"),
        Instr(OpKind.MEMO, latency=1, src_mask=reg_mask(3),
              meta=region_len, tag="memo_marker"),
        *region,
        Instr(OpKind.ALU, latency=4, dst_mask=reg_mask(1),
              src_mask=reg_mask(2), tag="consume"),
    )
    program = Program(body=body, iterations=iterations, name="memo_kernel")
    n_blocks = 2 * config.n_sms * min(
        config.max_blocks_per_sm,
        config.max_threads_per_sm // (warps_per_block * config.warp_size),
    )
    return Kernel(
        name="memo_kernel",
        program=program,
        n_blocks=max(1, n_blocks),
        warps_per_block=warps_per_block,
        regs_per_thread=18,
    )


def build_latency_bound_kernel(
    config: GPUConfig,
    iterations: int = 60,
    warps_per_block: int = 2,
    n_blocks: int | None = None,
) -> Kernel:
    """A streaming kernel with too few warps to hide memory latency —
    the regime where prefetching pays."""
    if n_blocks is None:
        n_blocks = config.n_sms
    total_warps = n_blocks * warps_per_block
    base_line = 4_194_301

    def addr(w: int, i: int, base=base_line, tw=total_warps):
        return (base + i * tw + w,)

    body = (
        Instr(OpKind.LOAD, dst_mask=reg_mask(3), src_mask=reg_mask(0),
              space=MemSpace.GLOBAL, addr_fn=addr, tag="stream_load"),
        Instr(OpKind.ALU, latency=4, dst_mask=reg_mask(1),
              src_mask=reg_mask(3), tag="consume"),
        Instr(OpKind.ALU, latency=4, dst_mask=reg_mask(2),
              src_mask=reg_mask(1), tag="alu2"),
    )
    program = Program(body=body, iterations=iterations, name="latency_stream")
    return Kernel(
        name="latency_stream",
        program=program,
        n_blocks=n_blocks,
        warps_per_block=warps_per_block,
        regs_per_thread=16,
    )


def make_signature_fn(redundancy: float, seed: int = 97):
    """Input-signature model: a ``redundancy`` fraction of iterations
    sees inputs shared by every warp (so one computation serves all);
    the rest are unique per warp."""
    threshold = int(redundancy * 1000)

    def signature(warp: int, iteration: int) -> int:
        if _mix(iteration * 2654435761 + seed) % 1000 < threshold:
            return _mix(iteration + seed)
        return _mix((warp << 24) ^ iteration ^ seed)

    return signature


# ----------------------------------------------------------------------
# Scenario -> simulator inputs
# ----------------------------------------------------------------------
def build_scenario(
    scenario: ScenarioSpec, config: GPUConfig
) -> tuple[Kernel, object | None, list]:
    """Materialize one scenario: (kernel, controller factory, controllers).

    ``controllers`` is filled as the simulator instantiates one
    controller per SM through the factory; read it *after* the run to
    aggregate scenario statistics. With ``assist=False`` the factory is
    None and the list stays empty.
    """
    controllers: list = []
    if scenario.kind == "memoization":
        kernel = build_memo_kernel(
            config,
            region_len=scenario.region_len,
            iterations=scenario.iterations or 40,
        )
        if not scenario.assist:
            return kernel, None, controllers
        signature = make_signature_fn(scenario.redundancy)

        def factory(sm):
            controller = MemoizationController(sm, signature, MemoParams())
            controllers.append(controller)
            return controller

        return kernel, factory, controllers

    kernel = build_latency_bound_kernel(
        config, iterations=scenario.iterations or 60
    )
    if not scenario.assist:
        return kernel, None, controllers

    def factory(sm):
        controller = PrefetchController(
            sm,
            PrefetchParams(distance=scenario.distance,
                           degree=scenario.degree),
        )
        controllers.append(controller)
        return controller

    return kernel, factory, controllers


def collect_scenario_stats(
    scenario: ScenarioSpec, controllers: list
) -> dict:
    """Aggregate per-SM controller stats into the RunResult payload."""
    out: dict = {"kind": scenario.kind, "assist": scenario.assist}
    if not scenario.assist:
        return out
    if scenario.kind == "memoization":
        lookups = sum(c.stats.lookups for c in controllers)
        hits = sum(c.stats.hits for c in controllers)
        out.update(
            lookups=lookups,
            hits=hits,
            lut_hit_rate=hits / lookups if lookups else 0.0,
            skipped_instrs=sum(
                c.stats.regions_skipped_instructions for c in controllers
            ),
        )
    else:
        out.update(
            trained_streams=sum(
                c.stats.trained_streams for c in controllers
            ),
            prefetches_issued=sum(
                c.stats.prefetches_issued for c in controllers
            ),
            dropped_mshr=sum(
                c.stats.prefetches_dropped_mshr for c in controllers
            ),
            dropped_throttle=sum(
                c.stats.prefetches_dropped_throttle for c in controllers
            ),
        )
    return out
