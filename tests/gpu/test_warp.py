"""Unit tests for warp and block contexts."""

from repro.gpu.isa import Program, alu, sync
from repro.gpu.soa import SCREEN_INACTIVE, SoAState
from repro.gpu.warp import BlockContext, WarpContext, touch


def make_warp(iterations=2, body=None, block=None):
    block = block if block is not None else BlockContext(0)
    program = Program(
        body=tuple(body) if body else (alu(), alu(dst=2, src=1)),
        iterations=iterations,
    )
    soa = SoAState(1, 1, 1)
    warp = WarpContext(soa, soa.alloc(0), 0, block, program, age=0)
    block.warps.append(warp)
    return warp


def considered(warp):
    """Whether the issue scan looks at ``warp`` at all: its live screen
    code (recomputed after the direct field writes below) lacks the
    SCREEN_INACTIVE bit."""
    touch(warp)
    return not warp.soa.code[warp.slot] & SCREEN_INACTIVE


class TestAdvance:
    def test_walks_body_and_iterations(self):
        warp = make_warp(iterations=2)
        assert warp.pc == 0 and warp.iteration == 0
        assert not warp.advance()
        assert warp.pc == 1
        assert not warp.advance()
        assert (warp.pc, warp.iteration) == (0, 1)
        assert not warp.advance()
        assert warp.advance()  # final instruction of final iteration
        assert warp.finished

    def test_advance_keeps_screen_code_live(self):
        warp = make_warp(iterations=1)
        warp.advance()
        assert warp.soa.code[warp.slot] == warp.klass_lut[1]
        warp.advance()
        assert warp.soa.code[warp.slot] & SCREEN_INACTIVE

    def test_drained_requires_no_outstanding(self):
        warp = make_warp(iterations=1)
        warp.advance()
        warp.advance()
        assert warp.finished
        warp.outstanding_mem = 1
        assert not warp.drained
        warp.outstanding_mem = 0
        assert warp.drained


class TestConsideration:
    def test_fresh_warp_considered(self):
        assert considered(make_warp())

    def test_finished_not_considered(self):
        warp = make_warp()
        warp.finished = True
        assert not considered(warp)

    def test_barrier_not_considered(self):
        warp = make_warp()
        warp.at_barrier = True
        assert not considered(warp)

    def test_assist_blocked_not_considered(self):
        warp = make_warp()
        warp.assist_block = 1
        assert not considered(warp)
        warp.assist_block = 0
        assert considered(warp)


class TestBarrier:
    def test_barrier_releases_when_all_arrive(self):
        block = BlockContext(0)
        warps = [make_warp(block=block) for _ in range(3)]
        assert not block.arrive_at_barrier(warps[0])
        assert warps[0].at_barrier
        assert not block.arrive_at_barrier(warps[1])
        assert block.arrive_at_barrier(warps[2])
        assert not any(w.at_barrier for w in warps)

    def test_finished_warps_do_not_block_barrier(self):
        block = BlockContext(0)
        warps = [make_warp(block=block) for _ in range(3)]
        warps[2].finished = True
        block.note_warp_finished()
        block.arrive_at_barrier(warps[0])
        assert block.arrive_at_barrier(warps[1])

    def test_barrier_reusable(self):
        block = BlockContext(0)
        warps = [make_warp(block=block) for _ in range(2)]
        block.arrive_at_barrier(warps[0])
        assert block.arrive_at_barrier(warps[1])
        block.arrive_at_barrier(warps[1])
        assert block.arrive_at_barrier(warps[0])


class TestBlockCompletion:
    def test_block_finishes_when_all_warps_do(self):
        block = BlockContext(0)
        warps = [make_warp(block=block) for _ in range(2)]
        assert not block.note_warp_finished()
        assert block.note_warp_finished()

    def test_drained(self):
        block = BlockContext(0)
        warps = [make_warp(block=block, iterations=1) for _ in range(2)]
        for w in warps:
            w.finished = True
        assert block.drained
        warps[0].outstanding_mem = 2
        assert not block.drained
