"""Figure 13: CABA-based cache compression (2x/4x tag stores)."""

from conftest import FULL, assert_claims, run_once

from repro.harness import figures


def test_fig13_cache_compression(benchmark, bench_config, compression_apps):
    apps = compression_apps if FULL else compression_apps[:6]
    result = run_once(
        benchmark,
        figures.fig13_cache_compression,
        config=bench_config,
        apps=apps,
    )
    assert_claims("fig13", result)
