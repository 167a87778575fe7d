"""Unit tests for the SIMT ISA and program representation."""

import pytest

from repro.gpu.isa import (
    ASSIST_REG_BASE,
    AssistProgram,
    Instr,
    MemSpace,
    OpKind,
    Program,
    alu,
    load,
    reg_mask,
    sfu,
    store,
    sync,
)


class TestRegMask:
    def test_single_register(self):
        assert reg_mask(0) == 1
        assert reg_mask(3) == 8

    def test_multiple_registers(self):
        assert reg_mask(0, 1, 2) == 0b111

    def test_assist_space(self):
        assert reg_mask(ASSIST_REG_BASE) == 1 << 32

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reg_mask(64)
        with pytest.raises(ValueError):
            reg_mask(-1)


class TestBuilders:
    def test_alu_masks(self):
        i = alu(latency=4, dst=1, src=3)
        assert i.kind is OpKind.ALU
        assert i.dst_mask == reg_mask(1)
        assert i.src_mask == reg_mask(3)

    def test_sfu(self):
        i = sfu()
        assert i.kind is OpKind.SFU
        assert i.latency == 20

    def test_load_defaults(self):
        fn = lambda w, i: (w,)
        i = load(fn, dst=4)
        assert i.kind is OpKind.LOAD
        assert i.space is MemSpace.GLOBAL
        assert i.addr_fn is fn

    def test_store_has_no_dst(self):
        i = store(lambda w, i: (w,), src=3)
        assert i.dst_mask == 0
        assert i.src_mask == reg_mask(3)

    def test_sync(self):
        assert sync().kind is OpKind.SYNC


class TestProgram:
    def test_length(self):
        p = Program(body=(alu(), alu()), iterations=5)
        assert len(p) == 10

    def test_needs_body(self):
        with pytest.raises(ValueError):
            Program(body=(), iterations=1)

    def test_needs_iterations(self):
        with pytest.raises(ValueError):
            Program(body=(alu(),), iterations=0)


class TestAssistProgram:
    def test_length(self):
        p = AssistProgram(body=(alu(dst=33, src=32),), name="x")
        assert len(p) == 1

    def test_needs_body(self):
        with pytest.raises(ValueError):
            AssistProgram(body=(), name="x")

    def test_lane_bounds(self):
        with pytest.raises(ValueError):
            AssistProgram(body=(alu(),), name="x", lanes=0)
        with pytest.raises(ValueError):
            AssistProgram(body=(alu(),), name="x", lanes=33)
