"""Figure 1: breakdown of total issue cycles vs. off-chip bandwidth."""

from conftest import assert_claims, run_once

from repro.harness import figures


def test_fig1_cycle_breakdown(benchmark, bench_config, figure1_apps):
    result = run_once(
        benchmark,
        figures.fig1_cycle_breakdown,
        config=bench_config,
        apps=figure1_apps,
    )
    assert_claims("fig1", result)
