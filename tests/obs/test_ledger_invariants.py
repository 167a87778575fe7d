"""Invariants of the refined stall counts every run carries.

Every SM counts each issue slot under one ``StallCat`` category, and the
Figure-1 slots are those counts regrouped. These tests enforce the
contracts of that accounting on real application runs:

* **Completeness** — every (SM, scheduler) issue slot of every cycle is
  counted under exactly one category; the counts sum to
  ``cycles * schedulers_per_sm`` per SM with nothing double-counted.
* **Export** — ``RunResult.stalls`` (what the run cache persists and
  ``repro trace`` renders) holds the SMs' own counts, and regrouping it
  by ``SLOT_OF_CAT`` reproduces the result's slot breakdown.
* **Isolation** — attaching a Chrome timeline never changes the
  simulation, and runs are deterministic (byte-identical exports).
"""

import json

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.gpu.stats import SLOT_OF_CAT, Slot, StallCat
from repro.harness.runner import run_app
from repro.workloads.tracegen import TraceScale

SCALE = TraceScale(work=0.25, waves=0.25)

DESIGNS = [
    pytest.param(designs.base(), id="base"),
    pytest.param(designs.caba("bdi"), id="caba-bdi"),
    pytest.param(designs.hw("fpc"), id="hw-fpc"),
]


def _run(app, design, **kwargs):
    return run_app(app, design, GPUConfig.small(), scale=SCALE,
                   use_cache=False, keep_raw=True, **kwargs)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("app", ["PVC", "MM"])
def test_attribution_is_complete(app, design):
    run = _run(app, design)
    n_sched = GPUConfig.small().schedulers_per_sm
    for sm in run.raw.stats.sms:
        assert all(count >= 0 for count in sm.stalls)
        assert sum(sm.stalls) == run.cycles * n_sched


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("app", ["PVC", "MM"])
def test_ledger_reconciles_with_slot_stats(app, design):
    run = _run(app, design)
    assert run.stalls["per_sm"] == [sm.stalls for sm in run.raw.stats.sms]
    slots = {slot: 0 for slot in Slot}
    for cat in StallCat:
        slots[SLOT_OF_CAT[cat]] += run.stalls["totals"][cat.name.lower()]
    total = sum(slots.values())
    assert {slot: n / total for slot, n in slots.items()} == \
        run.slot_breakdown


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("app", ["PVC", "CONS"])
def test_tracing_does_not_perturb_the_simulation(app, design):
    traced = _run(app, design, chrome=True)
    untraced = _run(app, design)
    assert traced.chrome is not None and untraced.chrome is None
    assert traced.cycles == untraced.cycles
    assert traced.ipc == untraced.ipc
    assert traced.instructions == untraced.instructions
    assert traced.assist_instructions == untraced.assist_instructions
    assert traced.slot_breakdown == untraced.slot_breakdown
    assert traced.dram_bursts == untraced.dram_bursts
    assert traced.energy.total == untraced.energy.total
    assert traced.stalls == untraced.stalls


def test_traced_runs_are_deterministic():
    first = _run("PVC", designs.caba("bdi"))
    second = _run("PVC", designs.caba("bdi"))
    a = json.dumps(first.stalls, sort_keys=True)
    b = json.dumps(second.stalls, sort_keys=True)
    assert a == b


def test_assist_categories_only_appear_under_caba():
    base_totals = _run("PVC", designs.base()).stalls["totals"]
    caba_totals = _run("PVC", designs.caba("bdi")).stalls["totals"]
    assert base_totals["assist"] == 0
    assert base_totals["assist_wait"] == 0
    # The CABA design on a compressible app must actually run assist
    # warps, or the counts would be vacuous.
    assert caba_totals["assist"] > 0


def test_memory_refinement_attributes_dram_waits():
    totals = _run("PVC", designs.base()).stalls["totals"]
    # PVC is memory-bound (Fig. 1): a real share of its data stalls must
    # be refined into DRAM waits, not left as generic scoreboard stalls.
    assert totals["dram"] > 0


def test_slot_of_cat_covers_every_category():
    assert len(SLOT_OF_CAT) == len(StallCat)
    assert all(isinstance(slot, Slot) for slot in SLOT_OF_CAT)


def test_export_shape_and_no_warp_rows():
    run = _run("MM", designs.caba("bdi"))
    payload = run.stalls
    assert set(payload) == {"categories", "per_sm", "totals",
                            "extrapolated"}
    assert payload["categories"] == [c.name.lower() for c in StallCat]
    assert len(payload["per_sm"]) == GPUConfig.small().n_sms
    total = sum(payload["totals"].values())
    assert total == sum(sum(counts) for counts in payload["per_sm"])
    assert payload["extrapolated"] == [0] * GPUConfig.small().n_sms
