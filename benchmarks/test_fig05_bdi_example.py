"""Figure 5: the worked BDI example (64-byte PVC line -> 17 bytes)."""

from conftest import assert_claims, run_once

from repro.harness import figures


def test_fig5_bdi_example(benchmark):
    result = run_once(benchmark, figures.fig5_bdi_example)
    assert_claims("fig5", result)
