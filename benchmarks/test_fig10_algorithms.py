"""Figure 10: CABA speedup with FPC, BDI, C-Pack and BestOfAll."""

from conftest import assert_claims, run_once

from repro.harness import figures


def test_fig10_algorithms(benchmark, bench_config, compression_apps):
    result = run_once(
        benchmark,
        figures.fig10_algorithms,
        config=bench_config,
        apps=compression_apps,
    )
    assert_claims("fig10", result)
