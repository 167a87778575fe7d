"""Figure 2: statically unallocated register-file fraction."""

from conftest import assert_claims, run_once

from repro.harness import figures


def test_fig2_unallocated_registers(benchmark):
    result = run_once(benchmark, figures.fig2_unallocated_registers)
    assert_claims("fig2", result)
