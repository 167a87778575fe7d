"""Figure 8: DRAM bandwidth utilization of the five designs."""

from conftest import assert_claims, run_once

from repro.harness import figures


def test_fig8_bandwidth(benchmark, bench_config, compression_apps):
    result = run_once(
        benchmark,
        figures.fig8_bandwidth,
        config=bench_config,
        apps=compression_apps,
    )
    assert_claims("fig8", result)
