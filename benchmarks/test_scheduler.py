"""Warp-scheduler sensitivity of CABA (GTO vs. LRR)."""

from conftest import assert_claims, run_once

from repro.harness.extensions import scheduler_study


def test_scheduler(benchmark, bench_config):
    result = run_once(benchmark, scheduler_study, config=bench_config)
    assert_claims("scheduler", result)
