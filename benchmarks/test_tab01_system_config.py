"""Table 1: parameters of the simulated system."""

from conftest import assert_claims, run_once

from repro.harness import figures


def test_tab1_system_config(benchmark):
    result = run_once(benchmark, figures.tab1_system_config)
    assert_claims("tab1", result)
