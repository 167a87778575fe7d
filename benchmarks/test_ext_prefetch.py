"""Section 7.2 extension: stride prefetching with assist warps."""

from conftest import assert_claims, run_once

from repro.harness.extensions import prefetch_study


def test_prefetch(benchmark, bench_config):
    result = run_once(benchmark, prefetch_study, config=bench_config)
    assert_claims("prefetch", result)
