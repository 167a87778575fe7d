"""Tests for the memoization extension (Section 7.1)."""

import pytest

from repro.core.memoization import (
    MemoParams,
    MemoizationController,
    memo_lookup_program,
    memo_result_load_program,
    memo_store_program,
)
from repro.gpu.config import GPUConfig
from repro.harness.extensions import memoization_study
from repro.harness.scenarios import build_memo_kernel, make_signature_fn
from tests.gpu.test_simulator import run as run_raw


class TestSubroutines:
    def test_lookup_probes_shared_memory(self):
        from repro.gpu.isa import MemSpace, OpKind

        program = memo_lookup_program()
        assert any(
            i.kind is OpKind.LOAD and i.space is MemSpace.SHARED
            for i in program.body
        )

    def test_store_writes_shared_memory(self):
        from repro.gpu.isa import MemSpace, OpKind

        program = memo_store_program()
        assert any(
            i.kind is OpKind.STORE and i.space is MemSpace.SHARED
            for i in program.body
        )

    def test_result_load_is_short(self):
        assert len(memo_result_load_program()) <= 3


class TestSignatureModel:
    def test_full_redundancy_shares_signatures(self):
        sig = make_signature_fn(1.0)
        assert sig(0, 5) == sig(7, 5)

    def test_zero_redundancy_unique_per_warp(self):
        sig = make_signature_fn(0.0)
        assert sig(0, 5) != sig(7, 5)

    def test_deterministic(self):
        sig = make_signature_fn(0.5)
        assert sig(3, 9) == sig(3, 9)


class TestEndToEnd:
    def test_redundancy_increases_speedup(self):
        config = GPUConfig.small()
        kernel = build_memo_kernel(config, iterations=20)
        base = run_raw(kernel, config)

        def run_with(redundancy):
            factory = lambda sm: MemoizationController(
                sm, make_signature_fn(redundancy)
            )
            return run_raw(kernel, config, caba_factory=factory)

        low = run_with(0.1)
        high = run_with(0.9)
        assert high.cycles < low.cycles
        assert high.cycles < base.cycles

    def test_work_is_conserved_or_skipped(self):
        """Instructions executed + instructions skipped must cover the
        full program."""
        config = GPUConfig.small()
        kernel = build_memo_kernel(config, iterations=15)
        controllers = []

        def factory(sm):
            c = MemoizationController(sm, make_signature_fn(0.8))
            controllers.append(c)
            return c

        run = run_raw(kernel, config, caba_factory=factory)
        skipped = sum(c.stats.regions_skipped_instructions
                      for c in controllers)
        total = kernel.total_warps * len(kernel.program)
        assert run.stats.parent_instructions + skipped == total

    def test_lut_hit_rate_tracks_redundancy(self):
        config = GPUConfig.small()
        kernel = build_memo_kernel(config, iterations=20)
        controllers = []

        def factory(sm):
            c = MemoizationController(sm, make_signature_fn(0.9))
            controllers.append(c)
            return c

        run_raw(kernel, config, caba_factory=factory)
        lookups = sum(c.stats.lookups for c in controllers)
        hits = sum(c.stats.hits for c in controllers)
        assert lookups > 0
        assert 0.5 < hits / lookups <= 1.0

    def test_study_shape(self):
        result = memoization_study(redundancies=(0.0, 0.9))
        assert len(result.rows) == 2
        assert result.rows[1]["speedup"] > result.rows[0]["speedup"]

    def test_lut_capacity_bounds_entries(self):
        config = GPUConfig.small()
        kernel = build_memo_kernel(config, iterations=20)
        controllers = []

        def factory(sm):
            c = MemoizationController(
                sm, make_signature_fn(0.0), MemoParams(lut_entries=8)
            )
            controllers.append(c)
            return c

        run_raw(kernel, config, caba_factory=factory)
        assert all(len(c._lut) <= 8 for c in controllers)
