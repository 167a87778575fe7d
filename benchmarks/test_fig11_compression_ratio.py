"""Figure 11: compression ratio of each algorithm on each app's data."""

from conftest import FULL, assert_claims, run_once

from repro.harness import figures
from repro.workloads.apps import COMPRESSION_APPS


def test_fig11_compression_ratio(benchmark):
    result = run_once(
        benchmark,
        figures.fig11_compression_ratio,
        apps=COMPRESSION_APPS,
        sample_lines=500 if FULL else 200,
    )
    assert_claims("fig11", result)
