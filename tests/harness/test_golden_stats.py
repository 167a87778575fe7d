"""Golden-stats regression suite.

Pins the scalar statistics of representative runs byte-exactly against
``tests/fixtures/golden_stats.json``. The simulator is deterministic, so
any drift here means a behavioural change — which is either a bug, or an
intentional change that must regenerate the fixture:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/harness/test_golden_stats.py -q

Floats are stored via ``repr`` so the comparison is exact, not
tolerance-based.

The matrix covers four run families, keyed as:

* ``APP/ALGORITHM`` — the bandwidth-mode app x design matrix (the
  original golden trio plus the DL/HPC profiles ATTN and ST3D),
* ``capacity:APP/ALGORITHM`` — capacity-mode runs with a device budget
  of 25 % of the footprint, pinning spill placement and host traffic,
* ``scenario:KIND/{assist,base}`` — prefetch/memoization scenario runs
  with and without the assist-warp controller.
"""

import json
import os
from pathlib import Path

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness.runner import (
    clear_caches,
    run_app,
    run_spec,
    scenario_spec,
)
from repro.memory.hostlink import CapacityConfig
from repro.workloads import get_app
from repro.workloads.tracegen import TraceScale, footprint_extents

FIXTURE = Path(__file__).parent.parent / "fixtures" / "golden_stats.json"
SCALE = TraceScale(work=0.25, waves=0.25)

APPS = ("PVC", "MM", "CONS", "ATTN", "ST3D")
ALGORITHMS = ("none", "bdi", "fpc", "cpack", "bestofall")

#: Capacity-mode entries: the baseline spills hard at a 25 % budget;
#: CABA-BDI still spills (the budget undercuts even the compressed
#: footprint), pinning the compressed-DRAM spill path too.
CAPACITY_KEYS = ("capacity:PVC/none", "capacity:PVC/bdi")
CAPACITY_BUDGET_FRACTION = 0.25

SCENARIO_KEYS = (
    "scenario:prefetch/assist",
    "scenario:prefetch/base",
    "scenario:memoization/assist",
    "scenario:memoization/base",
)

ALL_KEYS = tuple(
    f"{app}/{algorithm}" for app in APPS for algorithm in ALGORITHMS
) + CAPACITY_KEYS + SCENARIO_KEYS


def _design_for(algorithm):
    if algorithm == "none":
        return designs.base()
    return designs.caba(algorithm)


def _stat_dict(payload):
    """Byte-exact rendering of a capacity/scenario stats dict."""
    return {
        key: (repr(value) if isinstance(value, float) else value)
        for key, value in sorted(payload.items())
    }


def _snapshot(run):
    """Byte-exact scalar summary of a run (floats via repr)."""
    snap = {
        "design": run.design,
        "cycles": run.cycles,
        "ipc": repr(run.ipc),
        "instructions": run.instructions,
        "assist_instructions": run.assist_instructions,
        "bandwidth_utilization": repr(run.bandwidth_utilization),
        "compression_ratio": repr(run.compression_ratio),
        "energy_total": repr(run.energy.total),
        "slot_breakdown": {slot.name: repr(value)
                           for slot, value in run.slot_breakdown.items()},
        "dram_bursts": dict(run.dram_bursts),
        "l2_hit_rate": repr(run.l2_hit_rate),
        "lines_compressed": run.lines_compressed,
        "occupancy_blocks": run.occupancy_blocks,
    }
    if run.capacity is not None:
        snap["capacity"] = _stat_dict(run.capacity)
    if run.scenario is not None:
        snap["scenario"] = _stat_dict(run.scenario)
    return snap


def _capacity_budget(app, config):
    extents = footprint_extents(get_app(app), config, SCALE)
    total_lines = sum(lines for _, lines in extents)
    return max(
        config.line_size,
        int(total_lines * config.line_size * CAPACITY_BUDGET_FRACTION),
    )


def _run_for_key(key):
    """Replay the run a fixture key names, from a cold cache."""
    # Cold in-process caches, so every key replays the whole run (plane
    # build included) rather than a memoized result.
    clear_caches()
    config = GPUConfig.small()
    if key.startswith("capacity:"):
        app, algorithm = key[len("capacity:"):].split("/")
        return run_app(
            app, _design_for(algorithm), config, scale=SCALE,
            use_cache=False,
            capacity=CapacityConfig(
                device_bytes=_capacity_budget(app, config)
            ),
        )
    if key.startswith("scenario:"):
        kind, variant = key[len("scenario:"):].split("/")
        spec = scenario_spec(kind, config, assist=(variant == "assist"))
        return run_spec(spec, use_cache=False)
    app, algorithm = key.split("/")
    return run_app(app, _design_for(algorithm), config, scale=SCALE,
                   use_cache=False)


def _load_golden():
    if not FIXTURE.exists():
        pytest.fail(f"missing fixture {FIXTURE}; regenerate with "
                    "REPRO_REGEN_GOLDEN=1")
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key", ALL_KEYS)
def test_golden_stats(key):
    snapshot = _snapshot(_run_for_key(key))
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        golden = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
        golden[key] = snapshot
        FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True)
                           + "\n")
        return
    golden = _load_golden()
    assert key in golden, f"fixture has no entry for {key}; regenerate"
    assert snapshot == golden[key]


def test_fixture_covers_full_matrix():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("regenerating")
    golden = _load_golden()
    assert set(golden) == set(ALL_KEYS)
