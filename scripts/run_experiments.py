#!/usr/bin/env python3
"""Regenerate every paper table/figure and emit the EXPERIMENTS.md data.

Runs the full experiment matrix (all applications in each study) on the
chosen machine configuration and prints each reproduced figure as a
text table, plus a machine-readable JSON dump.

Usage:
    python scripts/run_experiments.py [--config small|medium|full]
                                      [--out results.json]
                                      [--only fig7,fig8,...]
                                      [--jobs N] [--retries N]
                                      [--timeout SECONDS]

``--jobs N`` (or ``REPRO_JOBS=N``) fans the simulation matrix out over
N worker processes; results are identical to a serial run. Completed
runs are persisted in the on-disk cache (``REPRO_CACHE_DIR``), so
re-invocations skip simulation entirely.

Execution is fault tolerant: failed runs retry (``--retries`` /
``REPRO_RETRIES``), hung workers are cancelled after ``--timeout`` /
``REPRO_RUN_TIMEOUT`` seconds, and an experiment whose batch still has
failures is reported (with the per-spec failure list) while the
remaining experiments keep running; the script then exits non-zero.
Completed sibling runs stay checkpointed, so a rerun only redoes the
failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.gpu.config import GPUConfig
from repro.harness import figures, parallel
from repro.harness.extensions import (
    ablation_study,
    capacity_study,
    md_cache_sweep,
    memoization_study,
    prefetch_study,
    scheduler_study,
)
from repro.harness.report import render_table

CONFIGS = {
    "small": GPUConfig.small,
    "medium": GPUConfig.medium,
    "full": GPUConfig,
}


def experiment_matrix(config: GPUConfig):
    """(name, thunk) for every experiment, in paper order."""
    return [
        ("tab1", lambda: figures.tab1_system_config()),
        ("fig1", lambda: figures.fig1_cycle_breakdown(config)),
        ("fig2", lambda: figures.fig2_unallocated_registers()),
        ("fig5", lambda: figures.fig5_bdi_example()),
        ("fig7", lambda: figures.fig7_performance(config)),
        ("fig8", lambda: figures.fig8_bandwidth(config)),
        ("fig9", lambda: figures.fig9_energy(config)),
        ("fig10", lambda: figures.fig10_algorithms(config)),
        ("fig11", lambda: figures.fig11_compression_ratio()),
        ("fig12", lambda: figures.fig12_bw_sensitivity(config)),
        ("fig13", lambda: figures.fig13_cache_compression(config)),
        ("mdcache", lambda: figures.md_cache_study(config)),
        ("memo", lambda: memoization_study(config)),
        ("prefetch", lambda: prefetch_study(config)),
        ("capacity", lambda: capacity_study(config)),
        ("ablations", lambda: ablation_study(config)),
        ("scheduler", lambda: scheduler_study(config)),
        ("mdsweep", lambda: md_cache_sweep(config)),
    ]


def _jobs_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", choices=sorted(CONFIGS), default="small")
    parser.add_argument("--out", default=None, help="JSON output path")
    parser.add_argument("--only", default=None,
                        help="comma-separated experiment ids")
    parser.add_argument("--jobs", type=_jobs_arg, default=None,
                        help="simulation worker processes "
                             "(default: REPRO_JOBS or 1)")
    parser.add_argument("--retries", type=int, default=None,
                        help="retry budget per failed run "
                             "(default: REPRO_RETRIES or 1)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-run wall-clock timeout in seconds "
                             "(default: REPRO_RUN_TIMEOUT; 0 disables)")
    parser.add_argument("--verify", action="store_true",
                        help="run the quick differential correctness "
                             "harness (repro check --quick) before any "
                             "experiment; abort if it fails")
    args = parser.parse_args()
    config = CONFIGS[args.config]()
    matrix = experiment_matrix(config)
    wanted = set(args.only.split(",")) if args.only else None
    if wanted is not None:
        unknown = wanted - {name for name, _ in matrix}
        if unknown:
            parser.error(f"unknown experiment id(s) in --only: "
                         f"{', '.join(sorted(unknown))} (valid: "
                         f"{', '.join(name for name, _ in matrix)})")

    if args.verify:
        from repro.verify import run_checks

        report = run_checks(lines=32, apps=("PVC",))
        print(report.render())
        sys.stdout.flush()
        if not report.ok:
            print("verification failed; not running experiments",
                  file=sys.stderr)
            return 1

    engine = parallel.configure(jobs=args.jobs, retries=args.retries,
                                timeout=args.timeout)
    dump = {"config": args.config, "jobs": engine.jobs}
    failed: dict[str, parallel.ExperimentFailure] = {}

    # The worker pool must come down on every exit path — an exception
    # or Ctrl-C mid-experiment must not leave orphaned workers behind.
    try:
        for name, thunk in matrix:
            if wanted is not None and name not in wanted:
                continue
            start = time.time()
            try:
                result = thunk()
            except parallel.ExperimentFailure as exc:
                # Completed sibling runs of this experiment are already
                # checkpointed; report, keep going with the rest.
                elapsed = time.time() - start
                print(f"\n[{name} FAILED after {elapsed:.1f}s]")
                print(exc)
                sys.stdout.flush()
                failed[name] = exc
                dump[name] = {
                    "failed": True,
                    "failures": [f.describe() for f in exc.failures],
                    "seconds": round(elapsed, 1),
                }
                continue
            elapsed = time.time() - start
            print()
            print(render_table(result))
            print(f"[{name} took {elapsed:.1f}s]")
            sys.stdout.flush()
            dump[name] = {
                "title": result.title,
                "columns": result.columns,
                "rows": result.rows,
                "summary": result.summary,
                "seconds": round(elapsed, 1),
            }
    except KeyboardInterrupt:
        print("\ninterrupted; shutting worker pool down", file=sys.stderr)
        return 130
    finally:
        parallel.shutdown()

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(dump, fh, indent=2, default=str)
        print(f"\nwrote {args.out}")
    if failed:
        print(f"\n{len(failed)} experiment(s) incomplete: "
              f"{', '.join(sorted(failed))}", file=sys.stderr)
        for name in sorted(failed):
            print(f"  {name}: {len(failed[name].failures)} failed run(s)",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
