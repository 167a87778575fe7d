"""Trace-invariant suite for the stall-attribution ledger.

The ledger is only trustworthy if it can never drift from the coarse
statistics the paper's figures are built on. These tests enforce the
three contracts of the observability layer on real application runs:

* **Completeness** — every (SM, scheduler) issue slot of every cycle is
  charged to exactly one category; the counts sum to
  ``cycles * schedulers_per_sm`` per SM with nothing double-charged.
* **Reconciliation** — regrouping the refined categories by
  ``SLOT_OF_CAT`` reproduces ``SmStats.slots`` bit-exactly.
* **Isolation** — attaching the ledger never changes the simulation:
  traced and untraced runs produce identical scalar statistics, and
  traced runs are deterministic (byte-identical exports).
"""

import json

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.gpu.stats import Slot
from repro.harness.runner import run_app
from repro.obs import NO_WARP, SLOT_OF_CAT, StallCat
from repro.workloads.tracegen import TraceScale

SCALE = TraceScale(work=0.25, waves=0.25)

DESIGNS = [
    pytest.param(designs.base(), id="base"),
    pytest.param(designs.caba("bdi"), id="caba-bdi"),
    pytest.param(designs.hw("fpc"), id="hw-fpc"),
]


def _traced(app, design, **kwargs):
    return run_app(app, design, GPUConfig.small(), scale=SCALE,
                   use_cache=False, keep_raw=True, trace=True, **kwargs)


def _untraced(app, design):
    return run_app(app, design, GPUConfig.small(), scale=SCALE,
                   use_cache=False, keep_raw=True, trace=False)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("app", ["PVC", "MM"])
def test_attribution_is_complete(app, design):
    run = _traced(app, design)
    ledger = run.raw.ledger
    n_sched = GPUConfig.small().schedulers_per_sm
    for sm_id in range(len(run.raw.stats.sms)):
        assert ledger.attributed_slots(sm_id) == run.cycles * n_sched


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("app", ["PVC", "MM"])
def test_ledger_reconciles_with_slot_stats(app, design):
    run = _traced(app, design)
    ledger = run.raw.ledger
    for sm_id, sm_stats in enumerate(run.raw.stats.sms):
        assert ledger.slot_view(sm_id) == list(sm_stats.slots)


@pytest.mark.parametrize("design", DESIGNS)
def test_per_warp_rows_sum_to_sm_counts(design):
    run = _traced("CONS", design)
    ledger = run.raw.ledger
    for sm_id, rows in enumerate(ledger.warp_counts):
        summed = [0] * len(StallCat)
        for row in rows.values():
            for cat, count in enumerate(row):
                assert count >= 0
                summed[cat] += count
        assert summed == ledger.sm_counts[sm_id]


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("app", ["PVC", "CONS"])
def test_tracing_does_not_perturb_the_simulation(app, design):
    traced = _traced(app, design)
    untraced = _untraced(app, design)
    assert traced.cycles == untraced.cycles
    assert traced.ipc == untraced.ipc
    assert traced.instructions == untraced.instructions
    assert traced.assist_instructions == untraced.assist_instructions
    assert traced.slot_breakdown == untraced.slot_breakdown
    assert traced.dram_bursts == untraced.dram_bursts
    assert traced.energy.total == untraced.energy.total
    for t_sm, u_sm in zip(traced.raw.stats.sms, untraced.raw.stats.sms):
        assert list(t_sm.slots) == list(u_sm.slots)


def test_traced_runs_are_deterministic():
    first = _traced("PVC", designs.caba("bdi"))
    second = _traced("PVC", designs.caba("bdi"))
    a = json.dumps(first.raw.ledger.export(), sort_keys=True)
    b = json.dumps(second.raw.ledger.export(), sort_keys=True)
    assert a == b


def test_assist_categories_only_appear_under_caba():
    base = _traced("PVC", designs.base())
    caba = _traced("PVC", designs.caba("bdi"))
    base_totals = base.raw.ledger.totals()
    caba_totals = caba.raw.ledger.totals()
    assert base_totals[StallCat.ASSIST] == 0
    assert base_totals[StallCat.ASSIST_WAIT] == 0
    # The CABA design on a compressible app must actually run assist
    # warps, or the trace would be vacuous.
    assert caba_totals[StallCat.ASSIST] > 0


def test_memory_refinement_attributes_dram_waits():
    run = _traced("PVC", designs.base())
    totals = run.raw.ledger.totals()
    # PVC is memory-bound (Fig. 1): a real share of its data stalls must
    # be refined into DRAM waits, not left as generic scoreboard stalls.
    assert totals[StallCat.DRAM] > 0


def test_slot_of_cat_covers_every_category():
    assert len(SLOT_OF_CAT) == len(StallCat)
    assert all(isinstance(slot, Slot) for slot in SLOT_OF_CAT)


def test_export_shape_and_no_warp_rows():
    run = _traced("MM", designs.caba("bdi"))
    payload = run.raw.ledger.export()
    assert payload["categories"] == [c.name.lower() for c in StallCat]
    assert len(payload["per_sm"]) == GPUConfig.small().n_sms
    total = sum(payload["totals"].values())
    assert total == sum(sum(counts) for counts in payload["per_sm"])
    # Synthetic warp ids serialize as plain strings.
    rows = payload["per_warp"][0]
    assert all(isinstance(key, str) for key in rows)
    assert str(NO_WARP) in rows or any(int(k) >= 0 for k in rows)
