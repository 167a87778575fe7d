"""Design-choice ablations for the CABA compression mechanism."""

from conftest import assert_claims, run_once

from repro.harness.extensions import ablation_study, md_cache_sweep


def test_ablations(benchmark, bench_config):
    result = run_once(benchmark, ablation_study, config=bench_config)
    assert_claims("ablations", result)


def test_md_cache_size_sweep(benchmark, bench_config):
    result = run_once(benchmark, md_cache_sweep, config=bench_config,
                      apps=("PVC", "SS"), sizes_kb=(1, 4, 8))
    assert_claims("mdsweep", result)
