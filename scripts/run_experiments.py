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

Execution is fault tolerant: failed runs retry (``--retries``, default
one retry), hung workers are cancelled after ``--timeout`` seconds
(default: no timeout), and an experiment whose batch still has failures
is reported (with the per-spec failure list) while the remaining
experiments keep running; the script then exits non-zero. Completed
sibling runs stay checkpointed, so a rerun only redoes the failures.

The ids and their order come from ``repro.harness.figures.EXPERIMENTS``,
the registry ``repro figure`` reads too. Check a dump against the
paper's claims with ``python -m repro check --parity results.json``;
to verify the code first, run ``python -m repro check --quick &&
python scripts/run_experiments.py``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.gpu.sampling import SampleConfig
from repro.harness import parallel
from repro.harness.cache import cache_enabled
from repro.harness.figures import CONFIGS, EXPERIMENTS
from repro.harness.report import run_experiment
from repro.knobs import KnobError
from repro.obs import trace_enabled


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", choices=sorted(CONFIGS), default="small")
    parser.add_argument("--out", default=None, help="JSON output path")
    parser.add_argument("--only", default=None,
                        help="comma-separated experiment ids")
    parser.add_argument("--jobs", type=parallel.jobs_arg, default=None,
                        help="simulation worker processes "
                             "(default: REPRO_JOBS or 1)")
    parser.add_argument("--retries", type=parallel.retries_arg, default=None,
                        help="retry budget per failed run (default: 1)")
    parser.add_argument("--timeout", type=parallel.timeout_arg, default=None,
                        help="per-run wall-clock timeout in seconds under "
                             "--jobs > 1 (default and 0: none)")
    args = parser.parse_args()
    try:  # the on/off knobs, validated before the first run
        cache_enabled()
        trace_enabled()
        SampleConfig.from_env()
    except KnobError as exc:
        parser.error(str(exc))
    config = CONFIGS[args.config]()
    wanted = set(args.only.split(",")) if args.only else None
    if wanted is not None:
        unknown = wanted - set(EXPERIMENTS)
        if unknown:
            parser.error(f"unknown experiment id(s) in --only: "
                         f"{', '.join(sorted(unknown))} (valid: "
                         f"{', '.join(EXPERIMENTS)})")

    engine = parallel.configure(jobs=args.jobs, retries=args.retries,
                                timeout=args.timeout)
    dump = {"config": args.config, "jobs": engine.jobs}

    # The worker pool must come down on every exit path — an exception
    # or Ctrl-C mid-experiment must not leave orphaned workers behind.
    try:
        for name in EXPERIMENTS:
            if wanted is not None and name not in wanted:
                continue
            # A failed experiment is reported and the rest keep going.
            entry, text = run_experiment(name, config)
            dump[name] = entry
            if entry.get("failed"):
                print(f"\n[{name} FAILED after {entry['seconds']:.1f}s]")
                print(text)
            else:
                print()
                print(text)
                print(f"[{name} took {entry['seconds']:.1f}s]")
            sys.stdout.flush()
    except KeyboardInterrupt:
        print("\ninterrupted; shutting worker pool down", file=sys.stderr)
        return 130
    finally:
        parallel.shutdown()

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(dump, fh, indent=2, default=str)
        print(f"\nwrote {args.out}")
    failed = sorted(name for name, entry in dump.items()
                    if isinstance(entry, dict) and entry.get("failed"))
    if failed:
        print(f"\n{len(failed)} experiment(s) incomplete: "
              f"{', '.join(failed)}", file=sys.stderr)
        for name in failed:
            print(f"  {name}: {len(dump[name]['failures'])} failed run(s)",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
