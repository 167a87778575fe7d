"""Capacity-mode compression (Buddy Compression regime)."""

from conftest import assert_claims, run_once

from repro.harness.extensions import capacity_study


def test_capacity(benchmark, bench_config):
    result = run_once(benchmark, capacity_study, config=bench_config)
    assert_claims("capacity", result)
