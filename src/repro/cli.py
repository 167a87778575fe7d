"""Command-line interface: ``python -m repro <command>``.

Commands:
    list-apps            show the workload pool and its characteristics
    run APP              simulate one application under one design
    trace APP            traced run: stall attribution + metric export
    compare APP          compare all five Figure-7 designs on one app
    figure ID            regenerate one paper figure/table or study
    compress FILE|-      compress raw bytes line by line and report ratios
    cache info|clear|sweep
                         inspect, empty, or sweep leftover temp files
                         from the persistent run cache
    check                differential correctness harness: round-trip
                         fuzzing, cross-backend agreement, simulator
                         conservation invariants; ``--parity DUMP``
                         checks the paper's claims on a saved sweep

The CLI is a thin layer over the public API (``repro.run_app``,
``repro.harness.figures``), so everything it prints is reproducible from
Python.
"""

from __future__ import annotations

import argparse
import sys

from repro import design as designs
from repro.compression import ALGORITHMS, make_algorithm
from repro.harness.figures import CONFIGS, EXPERIMENTS
from repro.harness.parallel import jobs_arg, retries_arg, timeout_arg
from repro.harness.runner import run_app
from repro.knobs import KnobError
from repro.workloads.apps import APPLICATIONS, get_app

DESIGNS = {
    "base": lambda algo: designs.base(),
    "hw-mem": designs.hw_mem,
    "hw": designs.hw,
    "caba": designs.caba,
    "caba-l2u": designs.caba_l2_uncompressed,
    "ideal": designs.ideal,
}

SCENARIOS = ("prefetch", "memoization")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CABA (ISCA 2015) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="show the workload pool")

    run_p = sub.add_parser(
        "run", help="simulate one application or assist-warp scenario"
    )
    run_p.add_argument("app", nargs="?", default=None,
                       help="application name (see list-apps); omit when "
                            "--scenario is given")
    run_p.add_argument("--design", choices=sorted(DESIGNS), default="caba")
    run_p.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                       default="bdi")
    run_p.add_argument("--config", choices=sorted(CONFIGS), default="small")
    run_p.add_argument("--bandwidth-scale", type=float, default=1.0)
    run_p.add_argument("--sample", action="store_true",
                       help="interval-sampled simulation at the certified "
                            "period (default: REPRO_SAMPLE, else exact)")
    run_p.add_argument("--capacity", type=float, default=None,
                       metavar="FRACTION",
                       help="capacity mode: device-memory budget as a "
                            "fraction of the app's uncompressed footprint "
                            "(spilled lines pay host-link transfers)")
    run_p.add_argument("--capacity-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="capacity mode with an absolute device budget "
                            "(overrides --capacity)")
    run_p.add_argument("--scenario", choices=SCENARIOS, default=None,
                       help="run an assist-warp scenario kernel instead "
                            "of an application")
    run_p.add_argument("--no-assist", action="store_true",
                       help="scenario baseline: same kernel, no assist-"
                            "warp controller")
    run_p.add_argument("--distance", type=int, default=2,
                       help="prefetch scenario: stride-prefetch distance")
    run_p.add_argument("--redundancy", type=float, default=0.5,
                       help="memoization scenario: fraction of redundant "
                            "iterations")

    trace_p = sub.add_parser(
        "trace",
        help="run one application with the observability layer and "
             "export stall-attribution / metric artifacts",
    )
    trace_p.add_argument("app", help="application name (see list-apps)")
    trace_p.add_argument("--design", choices=sorted(DESIGNS), default="caba")
    trace_p.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                         default="bdi")
    trace_p.add_argument("--config", choices=sorted(CONFIGS), default="small")
    trace_p.add_argument("--out", default=None,
                         help="output directory (default: the run cache's "
                              "traces directory)")
    trace_p.add_argument("--chrome", action="store_true",
                         help="also emit a chrome://tracing timeline")

    cmp_p = sub.add_parser("compare", help="compare the five designs")
    cmp_p.add_argument("app")
    cmp_p.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                       default="bdi")
    cmp_p.add_argument("--config", choices=sorted(CONFIGS), default="small")

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("id", choices=list(EXPERIMENTS))
    fig_p.add_argument("--config", choices=sorted(CONFIGS), default="small")
    fig_p.add_argument("--jobs", type=jobs_arg, default=None,
                       help="simulation worker processes "
                            "(default: REPRO_JOBS or 1)")
    fig_p.add_argument("--retries", type=retries_arg, default=None,
                       help="retry budget per failed run (default: 1)")
    fig_p.add_argument("--timeout", type=timeout_arg, default=None,
                       help="per-run wall-clock timeout in seconds under "
                            "--jobs > 1 (default and 0: none)")

    comp_p = sub.add_parser(
        "compress", help="compress a file's bytes line by line"
    )
    comp_p.add_argument("path", help="input file, or '-' for stdin")
    comp_p.add_argument("--line-size", type=int, default=128)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the persistent run cache"
    )
    cache_p.add_argument("action", choices=("info", "clear", "sweep"))

    check_p = sub.add_parser(
        "check",
        help="differential correctness harness: round-trip fuzzing, "
             "cross-backend agreement, simulator conservation invariants",
    )
    check_p.add_argument("--seed", type=int, default=1,
                         help="fuzzing seed (failures replay from it)")
    check_p.add_argument("--lines", type=int, default=None,
                         help="fuzzed lines per generator "
                              "(default 256; --quick 32; --all 10000)")
    check_p.add_argument("--apps", nargs="+", default=None,
                         metavar="APP",
                         help="app images for the differential and "
                              "invariant passes")
    check_p.add_argument("--algorithms", nargs="+", default=None,
                         choices=sorted(ALGORITHMS), metavar="ALGO",
                         help="algorithm subset (default: all four)")
    check_p.add_argument("--skip-fuzz", action="store_true",
                         help="skip the round-trip fuzzing pass")
    check_p.add_argument("--skip-differential", action="store_true",
                         help="skip the size-path differential pass")
    check_p.add_argument("--skip-invariants", action="store_true",
                         help="skip the simulation replay invariants")
    check_p.add_argument("--skip-sampling", action="store_true",
                         help="skip the sampled-vs-exact differential "
                              "(the slowest pass: nine complete runs)")
    check_p.add_argument("--sampling-points", nargs="+", default=None,
                         metavar="APP@DESIGN",
                         help="sampling-differential points to certify "
                              "(e.g. PVC@Base MM@CABA-BDI); requesting a "
                              "point outside the certified matrix fails "
                              "with UncertifiedSamplingPointError")
    check_p.add_argument("--skip-scenarios", action="store_true",
                         help="skip the capacity-mode and prefetch/"
                              "memoization scenario invariants")
    check_p.add_argument("--parity", default=None, metavar="DUMP",
                         help="check the paper's claims on a saved "
                              "run_experiments.py --out JSON instead; "
                              "runs no simulation and no other pass")
    check_p.add_argument("--quick", action="store_true",
                         help="CI-sized pass: few lines, one app")
    check_p.add_argument("--all", action="store_true", dest="full",
                         help="acceptance pass: 10k lines per generator, "
                              "full app/algorithm matrix")
    check_p.add_argument("-v", "--verbose", action="store_true",
                         help="list passing checks too")

    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_list_apps() -> int:
    print(f"{'name':6s} {'suite':9s} {'bound':8s} {'compr.':7s} "
          f"{'warps/blk':>9s} {'regs':>5s} {'iters':>6s}")
    for name in sorted(APPLICATIONS):
        app = APPLICATIONS[name]
        print(f"{name:6s} {app.suite:9s} {app.category:8s} "
              f"{'yes' if app.compressible else 'no':7s} "
              f"{app.warps_per_block:9d} {app.regs_per_thread:5d} "
              f"{app.iterations:6d}")
    return 0


def _resolve_design(name: str, algorithm: str):
    return DESIGNS[name](algorithm)


def _print_run(run, sample) -> None:
    print(f"app                : {run.app}")
    print(f"design             : {run.design}")
    if sample is not None:
        print(f"sampling           : {sample.warmup}:{sample.measure}:"
              f"{sample.skip} ({sample.detail_fraction:.0%} detail, "
              f"extrapolated cycles are approximate)")
    print(f"cycles             : {run.cycles}")
    print(f"IPC                : {run.ipc:.4f}")
    print(f"DRAM bus busy      : {run.bandwidth_utilization:.1%}")
    print(f"compression ratio  : {run.compression_ratio:.2f}x")
    print(f"energy             : {run.energy.total * 1e3:.3f} mJ")
    print(f"assist instructions: {run.assist_instructions}")
    if run.md_cache_hit_rate is not None:
        print(f"MD-cache hit rate  : {run.md_cache_hit_rate:.1%}")
    cap = run.capacity
    if cap is not None:
        print(f"capacity budget    : {cap['device_bytes']} B "
              f"(footprint {cap['footprint_bytes']} B, stored "
              f"{cap['stored_bytes']} B)")
        print(f"spilled lines      : {cap['spill_lines']}/"
              f"{cap['total_lines']} ({cap['spill_fraction']:.1%})")
        print(f"effective capacity : "
              f"{cap['effective_capacity_ratio']:.2f}x")
        print(f"host link          : {cap['host_reads']} reads / "
              f"{cap['host_writes']} writes, {cap['host_bursts']} bursts, "
              f"{cap['host_bus_utilization']:.1%} busy")
    scen = run.scenario
    if scen is not None:
        mode = "assist" if scen["assist"] else "baseline (no assist)"
        print(f"scenario           : {scen['kind']} [{mode}]")
        for key in ("trained_streams", "prefetches_issued", "dropped_mshr",
                    "dropped_throttle", "lookups", "hits", "lut_hit_rate",
                    "skipped_instrs", "l1_load_hits"):
            if key in scen:
                value = scen[key]
                text = f"{value:.3f}" if isinstance(value, float) else value
                print(f"  {key:17s}: {text}")
    if run.truncated:
        print("warning: run hit the max-cycle guard (results truncated)")


def _env_knobs():
    """Read the on/off knobs and return ``REPRO_SAMPLE``'s setting
    (``SampleConfig.from_env``). Commands that simulate call it before
    their first run, so a bad value is a :class:`KnobError` (``main``
    exits 2) rather than a failure inside a run."""
    from repro.gpu.sampling import SampleConfig
    from repro.harness.cache import cache_enabled
    from repro.obs import trace_enabled

    cache_enabled()
    trace_enabled()
    return SampleConfig.from_env()


def _cmd_run(args) -> int:
    from repro.gpu.sampling import SampleConfig

    config = CONFIGS[args.config]()
    if args.bandwidth_scale != 1.0:
        config = config.with_bandwidth_scale(args.bandwidth_scale)

    env_sample = _env_knobs()
    sample = SampleConfig() if args.sample else env_sample

    if args.scenario is not None:
        if args.capacity is not None or args.capacity_bytes is not None:
            print("error: --scenario runs have no capacity mode; drop "
                  "--capacity/--capacity-bytes", file=sys.stderr)
            return 2
        from repro.harness.runner import run_spec, scenario_spec

        spec = scenario_spec(
            args.scenario, config, sample=sample,
            assist=not args.no_assist,
            distance=args.distance,
            redundancy=args.redundancy,
        )
        _print_run(run_spec(spec), sample)
        return 0

    if args.app is None:
        print("error: an application name is required unless --scenario "
              "is given", file=sys.stderr)
        return 2
    get_app(args.app)  # early, friendly error for bad names
    design = _resolve_design(args.design, args.algorithm)

    capacity = None
    if args.capacity_bytes is not None or args.capacity is not None:
        from repro.memory.hostlink import CapacityConfig

        if args.capacity_bytes is not None:
            budget = args.capacity_bytes
        else:
            from repro.workloads.tracegen import TraceScale, footprint_extents

            extents = footprint_extents(
                get_app(args.app), config, TraceScale()
            )
            footprint = sum(length for _, length in extents)
            footprint *= config.line_size
            budget = max(config.line_size, int(footprint * args.capacity))
        try:
            capacity = CapacityConfig(device_bytes=budget)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    run = run_app(args.app, design, config, capacity=capacity,
                  sample=sample)
    _print_run(run, sample)
    return 0


def _cmd_trace(args) -> int:
    from pathlib import Path

    from repro.harness.cache import get_cache
    from repro.obs.export import render_ledger, write_trace_files

    _env_knobs()
    get_app(args.app)
    config = CONFIGS[args.config]()
    design = _resolve_design(args.design, args.algorithm)
    run = run_app(args.app, design, config, trace=True, chrome=args.chrome)
    print(f"app    : {run.app}")
    print(f"design : {run.design}")
    print(f"cycles : {run.cycles}")
    print(f"IPC    : {run.ipc:.4f}")
    print()
    print(render_ledger(run.obs))
    if args.out is not None:
        out_dir = Path(args.out)
    else:
        cache = get_cache()
        out_dir = cache.trace_dir() if cache is not None else Path("traces")
    base = f"{run.app}-{run.design}".replace("/", "_")
    for path in write_trace_files(run.obs, out_dir, base):
        print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    _env_knobs()
    get_app(args.app)
    config = CONFIGS[args.config]()
    points = designs.figure7_designs(args.algorithm)
    base = run_app(args.app, points[0], config)
    print(f"{'design':12s} {'speedup':>8s} {'bw':>7s} {'energy':>8s}")
    for point in points:
        run = run_app(args.app, point, config)
        print(f"{point.name:12s} {run.ipc / base.ipc:8.2f} "
              f"{run.bandwidth_utilization:7.1%} "
              f"{run.energy.total / base.energy.total:8.2f}")
    return 0


def _cmd_figure(args) -> int:
    from repro.harness import parallel
    from repro.harness.report import run_experiment

    _env_knobs()
    parallel.configure(jobs=args.jobs, retries=args.retries,
                       timeout=args.timeout)
    try:
        entry, text = run_experiment(args.id, CONFIGS[args.config]())
    finally:
        parallel.shutdown()
    if entry.get("failed"):
        # Report the losers and exit non-zero so CI notices.
        print(f"error: {args.id} incomplete\n{text}", file=sys.stderr)
        return 1
    print(text)
    return 0


def _cmd_parity(path: str, verbose: bool) -> int:
    import json

    from repro.verify.parity import check_dump

    try:
        with open(path) as fh:
            dump = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    report = check_dump(dump if isinstance(dump, dict) else {})
    if not report.results:
        print(f"error: {path} holds no experiment with parity claims",
              file=sys.stderr)
        return 2
    print(report.render(verbose=verbose))
    return 0 if report.ok else 1


def _cmd_cache(args) -> int:
    from repro.harness.cache import DEFAULT_TMP_AGE, RunCache, cache_enabled

    enabled = cache_enabled()
    cache = RunCache()
    if args.action == "info":
        info = cache.info()
        print(f"root          : {info['root']}")
        print(f"version stamp : {info['stamp']}")
        print(f"entries       : {info['entries']}")
        print(f"stale entries : {info['stale_entries']}")
        print(f"total size    : {info['total_bytes'] / 1024:.1f} KiB")
        print(f"plane entries : {info['plane_entries']} "
              f"({info['stale_plane_entries']} stale)")
        print(f"plane size    : {info['plane_bytes'] / 1024:.1f} KiB")
        print(f"trace files   : {info['trace_entries']} "
              f"({info['stale_trace_entries']} stale)")
        print(f"trace size    : {info['trace_bytes'] / 1024:.1f} KiB")
        print(f"tmp leftovers : {info['tmp_entries']} "
              f"({info['tmp_bytes'] / 1024:.1f} KiB; "
              f"'cache sweep' removes them)")
        if info["tmp_young_entries"]:
            print(f"  young (kept) : {info['tmp_young_entries']} newer "
                  f"than {info['tmp_age_threshold']:.0f}s — possible "
                  f"in-flight writes, skipped by 'cache sweep'")
        if not enabled:
            print("note: persistent caching is disabled (REPRO_CACHE is off)")
        return 0
    if args.action == "sweep":
        removed = cache.sweep_tmp()
        skipped = cache.info()["tmp_young_entries"]
        print(f"swept {removed} leftover .tmp file(s) from {cache.root}")
        if skipped:
            print(f"kept {skipped} young .tmp file(s) (possible in-flight "
                  f"writes; swept once older than "
                  f"{DEFAULT_TMP_AGE:.0f}s)")
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached runs from {cache.root}")
    return 0


def _cmd_compress(args) -> int:
    if args.path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.path, "rb") as fh:
            data = fh.read()
    if not data:
        print("no input data", file=sys.stderr)
        return 1
    line_size = args.line_size
    if len(data) % line_size:
        data += bytes(line_size - len(data) % line_size)
    print(f"{len(data)} bytes in {len(data) // line_size} lines "
          f"of {line_size} B")
    for name in sorted(ALGORITHMS):
        algo = make_algorithm(name, line_size)
        compressed = sum(
            algo.compress(data[i:i + line_size]).size_bytes
            for i in range(0, len(data), line_size)
        )
        print(f"  {name:10s} {len(data) / compressed:6.2f}x "
              f"({compressed} bytes)")
    return 0


def _cmd_check(args) -> int:
    from repro.verify import run_checks

    if args.parity is not None:
        return _cmd_parity(args.parity, args.verbose)
    if args.quick and args.full:
        print("error: --quick and --all are mutually exclusive",
              file=sys.stderr)
        return 2
    lines = args.lines
    apps = args.apps
    differential_apps = None
    differential_lines = None
    sampling = not args.skip_sampling
    if args.quick:
        lines = lines if lines is not None else 32
        apps = apps if apps is not None else ["PVC"]
        # The sampling differential is nine complete runs; it is the
        # opposite of quick.
        sampling = False
    elif args.full:
        lines = lines if lines is not None else 10_000
        if apps is None:
            # Acceptance scope: differential agreement on *every* app
            # image; invariant replays stay on the golden trio.
            differential_apps = sorted(APPLICATIONS)
            differential_lines = 2048
    elif lines is None:
        lines = 256
    for app in apps or ():
        get_app(app)  # early, friendly error for bad names
    if args.sampling_points:
        from repro.verify import parse_point

        try:
            for text in args.sampling_points:
                app, _ = parse_point(text)
                get_app(app)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        sampling = True  # an explicit request overrides --quick's skip
    report = run_checks(
        seed=args.seed,
        lines=lines,
        apps=apps,
        algorithms=args.algorithms,
        fuzz=not args.skip_fuzz,
        differential=not args.skip_differential,
        invariants=not args.skip_invariants,
        sampling=sampling,
        scenarios=not args.skip_scenarios,
        differential_apps=differential_apps,
        differential_lines=differential_lines,
        sampling_points=args.sampling_points,
    )
    print(report.render(verbose=args.verbose))
    return 0 if report.ok else 1


_COMMANDS = {
    "list-apps": lambda args: _cmd_list_apps(),
    "run": _cmd_run,
    "trace": _cmd_trace,
    "compare": _cmd_compare,
    "figure": _cmd_figure,
    "compress": _cmd_compress,
    "cache": _cmd_cache,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS.get(args.command)
    if handler is None:
        # A subcommand registered on the parser but missing from the
        # dispatch table must fail like any unknown command (usage +
        # exit 2), not crash with a traceback.
        parser.print_usage(sys.stderr)
        print(f"repro: error: unknown command {args.command!r}",
              file=sys.stderr)
        return 2
    try:
        return handler(args)
    except (KeyError, KnobError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
