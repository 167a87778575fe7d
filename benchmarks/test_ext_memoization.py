"""Section 7.1 extension: memoization with assist warps."""

from conftest import assert_claims, run_once

from repro.harness.extensions import memoization_study


def test_memoization(benchmark, bench_config):
    result = run_once(benchmark, memoization_study, config=bench_config)
    assert_claims("memo", result)
