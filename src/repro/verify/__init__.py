"""Differential correctness harness (``repro check``).

Independent verification passes over the repository's correctness
surface:

* :mod:`repro.verify.fuzz` — seeded adversarial round-trip fuzzing of
  every compression algorithm, cross-checked against the batch kernels,
* :mod:`repro.verify.differential` — byte-identical agreement of the
  compressed-size computation paths (scalar, numpy batch, batch without
  numpy, cached planes) on real application images,
* :mod:`repro.verify.invariants` — conservation laws replayed on real
  simulation runs (issue slots, MSHRs, flits, DRAM bursts, compressed
  cache budgets),
* :mod:`repro.verify.sampling` — bounded-error agreement (≤2 % on IPC /
  bandwidth / compression ratio) of interval-sampled runs against exact
  runs on the calibrated matrix, plus bit-exact parent-instruction
  totals and sampled-run determinism,
* :func:`repro.verify.invariants.check_scenarios` — the same
  conservation laws replayed on capacity-mode runs with real spill
  traffic (host-link bursts = host-bus cycles) and on prefetch /
  memoization scenario runs, exact and interval-sampled.

:func:`run_checks` orchestrates the passes into one
:class:`~repro.verify.report.CheckReport`; the CLI's exit code is
``0`` iff every check passed.
"""

from __future__ import annotations

from typing import Sequence

from repro.verify.differential import differential_check
from repro.verify.differential import DEFAULT_APPS as DIFF_APPS
from repro.verify.fuzz import ALL_ALGORITHMS, fuzz_roundtrip
from repro.verify.generators import GENERATOR_NAMES, make_generator
from repro.verify.invariants import check_invariants, check_scenarios
from repro.verify.invariants import DEFAULT_APPS as INVARIANT_APPS
from repro.verify.report import CheckReport, CheckResult
from repro.verify.sampling import (
    CERTIFIED_POINTS,
    UncertifiedSamplingPointError,
    is_certified,
    parse_point,
    require_certified,
    sampling_differential,
)

__all__ = [
    "ALL_ALGORITHMS",
    "CERTIFIED_POINTS",
    "CheckReport",
    "CheckResult",
    "GENERATOR_NAMES",
    "UncertifiedSamplingPointError",
    "check_invariants",
    "check_scenarios",
    "differential_check",
    "fuzz_roundtrip",
    "is_certified",
    "make_generator",
    "parse_point",
    "require_certified",
    "run_checks",
    "sampling_differential",
]


def run_checks(
    seed: int = 1,
    lines: int = 256,
    apps: Sequence[str] | None = None,
    algorithms: Sequence[str] | None = None,
    fuzz: bool = True,
    differential: bool = True,
    invariants: bool = True,
    sampling: bool = True,
    scenarios: bool = True,
    differential_apps: Sequence[str] | None = None,
    differential_lines: int | None = None,
    sampling_points: Sequence[str] | None = None,
) -> CheckReport:
    """Run the selected verification passes and aggregate the results.

    Args:
        seed: Fuzzing seed (every failure replays from it).
        lines: Lines per fuzz generator; the differential pass
            compresses ``max(lines, 512)`` lines per app image unless
            ``differential_lines`` overrides it.
        apps: App image set for the differential and invariant passes
            (defaults per pass: Fig-11 spanning set / golden trio).
        algorithms: Algorithm subset (default: all four).
        fuzz / differential / invariants / sampling / scenarios:
            Enable individual passes. The sampling differential and the
            scenario pass ignore ``apps``/``algorithms``: the sampling
            certification matrix is pinned (see
            :mod:`repro.verify.sampling`) and the scenario pass replays
            its own capacity/prefetch/memoization runs.
        differential_apps: Override ``apps`` for the differential pass
            only (``repro check --all`` widens it to every app without
            also replaying a simulation per app).
        differential_lines: Override the differential pass's image size.
        sampling_points: ``APP@DESIGN`` strings overriding the sampling
            matrix. Certification is still enforced: requesting an
            uncertified point (e.g. ``MM@CABA-BDI``) fails the report
            with a named :class:`UncertifiedSamplingPointError` check
            rather than measuring an uncalibrated bound or skipping.
    """
    report = CheckReport()
    algorithm_set = tuple(algorithms) if algorithms else ALL_ALGORITHMS
    if fuzz:
        report.extend(fuzz_roundtrip(
            algorithms=algorithm_set,
            lines_per_generator=lines,
            seed=seed,
        ))
    if differential:
        diff_apps = differential_apps or apps
        report.extend(differential_check(
            apps=tuple(diff_apps) if diff_apps else DIFF_APPS,
            algorithms=algorithm_set,
            lines=differential_lines or max(lines, 512),
        ))
    if invariants:
        report.extend(check_invariants(
            apps=tuple(apps) if apps else INVARIANT_APPS,
            algorithms=algorithm_set,
        ))
    if sampling:
        if sampling_points:
            points = tuple(parse_point(text) for text in sampling_points)
            report.extend(sampling_differential(points=points))
        else:
            report.extend(sampling_differential())
    if scenarios:
        report.extend(check_scenarios())
    return report
