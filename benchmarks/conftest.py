"""Shared configuration for the figure-reproduction benchmarks.

Each benchmark regenerates one table/figure of the paper and prints the
rows/series the paper reports. By default a representative application
subset runs on the fast scaled machine so the whole suite finishes in
minutes; set ``REPRO_BENCH_FULL=1`` (an on/off knob, see
``repro.knobs``) to run every application on the medium machine (as
used for EXPERIMENTS.md).

Every test asserts through one table: the claims of its experiment id
in ``repro.verify.parity``, the same table ``repro check --parity``
applies to a saved sweep.

Simulations fan out over worker processes when ``--jobs N`` (or
``REPRO_JOBS=N``) is given; ``--jobs 1`` is the exact serial path.
Completed runs persist in the on-disk run cache, so repeated benchmark
invocations skip simulation.
"""

from __future__ import annotations

import pytest

from repro.gpu.config import GPUConfig
from repro.harness import parallel
from repro.harness.report import print_figure
from repro.knobs import env_flag
from repro.verify import parity
from repro.workloads.apps import COMPRESSION_APPS, FIGURE1_APPS

FULL = env_flag("REPRO_BENCH_FULL")


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", type=int, default=None,
        help="simulation worker processes (default: REPRO_JOBS or 1)",
    )


@pytest.fixture(scope="session", autouse=True)
def experiment_engine(request):
    """Configure the shared engine once per benchmark session."""
    engine = parallel.configure(jobs=request.config.getoption("--jobs"))
    yield engine
    parallel.shutdown()

#: Default compression-study subset: BDI-friendly streaming (PVC, MM,
#: PVR), FPC/C-Pack-friendly (JPEG, MUM), interconnect-bound (bfs),
#: cache-sensitive (RAY, TRA).
BENCH_COMPRESSION_APPS = (
    COMPRESSION_APPS
    if FULL
    else ("PVC", "MM", "PVR", "JPEG", "MUM", "bfs", "RAY", "TRA")
)

#: Default Figure-1 subset: memory-bound and compute-bound exemplars.
BENCH_FIGURE1_APPS = (
    FIGURE1_APPS
    if FULL
    else ("PVC", "MM", "BFS", "RAY", "dmr", "NQU", "STO", "hs")
)


@pytest.fixture(scope="session")
def bench_config() -> GPUConfig:
    return GPUConfig.medium() if FULL else GPUConfig.small()


@pytest.fixture(scope="session")
def compression_apps():
    return BENCH_COMPRESSION_APPS


@pytest.fixture(scope="session")
def figure1_apps():
    return BENCH_FIGURE1_APPS


def run_once(benchmark, fn, *args, **kwargs):
    """Run a figure harness exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def assert_claims(exp_id, result):
    """Print ``result`` and assert every parity claim of ``exp_id``."""
    print_figure(result)
    failed = parity.failures(exp_id, result.to_entry())
    assert not failed, failed
