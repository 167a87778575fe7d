"""Figure 9: normalized energy of the five designs."""

from conftest import assert_claims, run_once

from repro.harness import figures


def test_fig9_energy(benchmark, bench_config, compression_apps):
    result = run_once(
        benchmark,
        figures.fig9_energy,
        config=bench_config,
        apps=compression_apps,
    )
    assert_claims("fig9", result)
