"""Interval sampling engine (:mod:`repro.gpu.sampling`).

Structural guarantees only — the *accuracy* of sampled runs (≤2 % on
the figure metrics) is certified by ``repro check``'s sampling
differential and the ``cycle_loop_sampled`` bench gate on the full
Table 1 machine, which is far too slow for unit tests. What must hold
on any machine at any knob setting, and is pinned here:

* the on/off knob and the apportionment helper,
* exact mode untouched by default (no ``REPRO_SAMPLE`` → no sampling),
* sampled runs execute every parent instruction (bit-exact totals),
* sampled runs are deterministic,
* every conservation invariant closes on sampled runs, and a Chrome
  timeline covers their extrapolated slots without perturbing them,
* exact and sampled runs never collide in the run cache.
"""

import os
from contextlib import contextmanager

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.gpu.sampling import (
    SampleConfig,
    apportion,
    _mem_suffixes,
    _suffix_counts,
)
from repro.harness.runner import RunSpec, clear_caches, run_app
from repro.workloads.apps import get_app
from repro.workloads.tracegen import TraceScale

#: Small machine + short period: several full sampling periods inside a
#: sub-second run. Accuracy at this operating point is irrelevant here.
SCALE = TraceScale(work=0.25, waves=0.25)
SAMPLE = SampleConfig(warmup=50, measure=100, skip=800)


@contextmanager
def _env(var: str, value: str | None):
    prior = os.environ.get(var)
    if value is None:
        os.environ.pop(var, None)
    else:
        os.environ[var] = value
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = prior


def _run(app="PVC", design=None, sample=None, **kwargs):
    clear_caches()
    return run_app(app, design or designs.caba("bdi"), GPUConfig.small(),
                   scale=SCALE, use_cache=False, sample=sample, **kwargs)


# ----------------------------------------------------------------------
# Knob
# ----------------------------------------------------------------------
def test_parse_defaults_and_triple():
    """On values parse to the default period; a period triple is
    rejected, never run exact or at an uncertified period. Code builds
    other periods directly."""
    for on in ("1", "on", "TRUE"):
        with _env("REPRO_SAMPLE", on):
            assert SampleConfig.from_env() == SampleConfig()
    with _env("REPRO_SAMPLE", "400:800:7000"):
        with pytest.raises(ValueError, match="accepted: 1, on, true, yes"):
            SampleConfig.from_env()
    cfg = SampleConfig(warmup=400, measure=800, skip=7000)
    assert cfg.period == 8200
    assert cfg.detail_fraction == pytest.approx(1200 / 8200)


@pytest.mark.parametrize("bad", ["2:3", "a:b:c", "nope", "1:2:3:4"])
def test_parse_rejects_malformed_specs(bad):
    with _env("REPRO_SAMPLE", bad):
        with pytest.raises(ValueError, match="not an on/off value"):
            SampleConfig.from_env()


@pytest.mark.parametrize("kwargs", [
    {"warmup": -1}, {"measure": 0}, {"skip": 0},
])
def test_constructor_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        SampleConfig(**kwargs)


def test_from_env():
    for off in (None, "", "0", "off", "no"):
        with _env("REPRO_SAMPLE", off):
            assert SampleConfig.from_env() is None
    with _env("REPRO_SAMPLE", "1"):
        assert SampleConfig.from_env() == SampleConfig()


# ----------------------------------------------------------------------
# Apportionment
# ----------------------------------------------------------------------
def test_apportion_conserves_total_and_tracks_weights():
    shares = apportion(100, [1, 1, 2])
    assert sum(shares) == 100
    assert shares == [25, 25, 50]
    shares = apportion(7, [3, 1, 1])
    assert sum(shares) == 7
    assert shares[0] > shares[1]


def test_apportion_zero_weights_fall_to_last_bin():
    assert apportion(13, [0, 0, 0]) == [0, 0, 13]
    assert apportion(0, [5, 5]) == [0, 0]


def test_apportion_is_deterministic_on_ties():
    assert apportion(1, [1, 1, 1]) == apportion(1, [1, 1, 1])
    assert sum(apportion(2, [1, 1, 1])) == 2


# ----------------------------------------------------------------------
# Suffix tables
# ----------------------------------------------------------------------
def test_suffix_tables_cover_whole_body():
    program = get_app("PVC")  # profile; build the kernel's program
    from repro.workloads.tracegen import build_kernel

    kernel = build_kernel(program, GPUConfig.small(), SCALE)
    body = kernel.program.body
    tails = _suffix_counts(kernel.program)
    assert len(tails) == len(body) + 1
    assert tails[0][0] == len(body)
    assert tails[len(body)] == (0,) * 8
    mem = _mem_suffixes(kernel.program)
    # Each pc's memory suffix is a suffix of the whole-body list.
    assert all(mem[pc] == mem[0][len(mem[0]) - len(mem[pc]):]
               for pc in range(len(body) + 1))


# ----------------------------------------------------------------------
# Sampled simulation: structural contracts
# ----------------------------------------------------------------------
def test_sampled_run_executes_every_parent_instruction():
    exact = _run(sample=None, keep_raw=True)
    sampled = _run(sample=SAMPLE, keep_raw=True)
    # Parent instructions (the IPC numerator) are bit-exact; assist-warp
    # instructions are framework overhead and are not credited during
    # skips, so the combined total is *lower* on sampled CABA runs.
    assert sampled.raw.stats.parent_instructions == \
        exact.raw.stats.parent_instructions
    assert not sampled.truncated
    # The run actually sampled: extrapolated slots were charged and the
    # clock is an estimate, not the exact count.
    assert sampled.cycles != exact.cycles


def test_sampled_run_is_deterministic():
    first = _run(sample=SAMPLE)
    second = _run(sample=SAMPLE)
    assert (first.cycles, first.ipc, first.instructions) == \
        (second.cycles, second.ipc, second.instructions)
    assert first.slot_breakdown == second.slot_breakdown


def test_exact_mode_is_default_without_env():
    with _env("REPRO_SAMPLE", None):
        assert RunSpec("PVC", designs.base(), GPUConfig.small()).sample \
            is None


def test_extrapolated_slots_tagged_separately():
    exact = _run(sample=None, keep_raw=True)
    sampled = _run(sample=SAMPLE, keep_raw=True)
    assert exact.raw.stats.extrapolated_slots == 0
    assert sampled.raw.stats.extrapolated_slots > 0
    # Extrapolated slots are a subset of (not in addition to) the total
    # attribution: per-SM slots still sum to cycles x schedulers.
    config = GPUConfig.small()
    for sm in sampled.raw.stats.sms:
        assert sum(sm.slots) == \
            sampled.raw.stats.cycles * config.schedulers_per_sm


@pytest.mark.parametrize("design_name", ["base", "caba-bdi"])
def test_sampled_conservation_invariants(design_name):
    """Every accounting identity the exact simulator guarantees must
    survive sampling, the slot count over extrapolated slots included."""
    from repro.verify.invariants import _check_run

    design = designs.base() if design_name == "base" \
        else designs.caba("bdi")
    result = _run(design=design, sample=SAMPLE, keep_raw=True)
    for check in _check_run("sampled", result, GPUConfig.small()):
        assert check.passed, f"{check.name}: {check.detail}"


def test_traced_and_untraced_sampled_runs_agree():
    """A sampled run with a Chrome timeline attached counts what the
    plain run counts, and the timeline's slot rows cover every counted
    slot, extrapolated ones included."""
    untraced = _run(sample=SAMPLE)
    traced = _run(sample=SAMPLE, chrome=True)
    assert traced.cycles == untraced.cycles
    assert traced.stalls == untraced.stalls
    assert traced.stalls["extrapolated"][0] > 0
    timeline = traced.chrome
    assert timeline["metadata"]["dropped_events"] == 0
    names = traced.stalls["categories"]
    per_sm = [[0] * len(names) for _ in traced.stalls["per_sm"]]
    for event in timeline["traceEvents"]:
        if event["cat"] == "slots":
            per_sm[event["pid"]][names.index(event["name"])] += event["dur"]
    assert per_sm == traced.stalls["per_sm"]


# ----------------------------------------------------------------------
# Cache identity
# ----------------------------------------------------------------------
def test_cache_key_distinguishes_sampling_modes():
    exact = RunSpec("PVC", designs.base(), GPUConfig.small(), sample=None)
    sampled = RunSpec("PVC", designs.base(), GPUConfig.small(),
                      sample=SAMPLE)
    assert exact != sampled
    assert exact.canonical() != sampled.canonical()
    other = RunSpec("PVC", designs.base(), GPUConfig.small(),
                    sample=SampleConfig(50, 100, 900))
    assert sampled.canonical() != other.canonical()
