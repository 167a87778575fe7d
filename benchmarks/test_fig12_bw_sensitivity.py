"""Figure 12: CABA sensitivity to peak off-chip bandwidth."""

from conftest import FULL, assert_claims, run_once

from repro.harness import figures


def test_fig12_bw_sensitivity(benchmark, bench_config, compression_apps):
    apps = compression_apps if FULL else compression_apps[:5]
    result = run_once(
        benchmark,
        figures.fig12_bw_sensitivity,
        config=bench_config,
        apps=apps,
    )
    assert_claims("fig12", result)
