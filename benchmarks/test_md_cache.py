"""Section 4.3.2: metadata-cache hit rate (paper: 85% average)."""

from conftest import assert_claims, run_once

from repro.harness import figures


def test_md_cache_hit_rate(benchmark, bench_config, compression_apps):
    result = run_once(
        benchmark,
        figures.md_cache_study,
        config=bench_config,
        apps=compression_apps,
    )
    assert_claims("mdcache", result)
