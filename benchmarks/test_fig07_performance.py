"""Figure 7: normalized performance of the five compression designs."""

from conftest import assert_claims, run_once

from repro.harness import figures


def test_fig7_performance(benchmark, bench_config, compression_apps):
    result = run_once(
        benchmark,
        figures.fig7_performance,
        config=bench_config,
        apps=compression_apps,
    )
    assert_claims("fig7", result)
