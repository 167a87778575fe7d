"""Per-SM sleep is byte-identical on the Table-1 machine.

The golden fixture runs the small machine (3 SMs), where few SMs sleep
at once. Sleep matters most on ``GPUConfig()`` (15 SMs): most of a
memory-bound run's SM ticks are slept there. These runs compare the
default loop with ``forced_ticks()`` (every SM ticks on every cycle the
loop runs) on a memory-bound baseline and on CABA-BDI, whose
controller replays its throttle EMA across every slept tick. Every
SM's refined stall counts must match too, so slept spans are counted
under the categories their ticks would have counted.
"""

import dataclasses

import pytest

from repro import design as designs
from repro.core.params import CabaParams
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import Simulator
from repro.gpu.sm import SM
from repro.harness.runner import _make_caba_factory, build_image
from repro.workloads.apps import get_app
from repro.workloads.tracegen import TraceScale, build_kernel
from tests.gpu.stepping import forced_ticks

SCALE = TraceScale(work=0.1)


def _run(app, point):
    config = GPUConfig()
    profile = get_app(app)
    image = build_image(profile, point, config, SCALE)
    factory, regs = _make_caba_factory(
        point, config, CabaParams(), plane=image.plane
    )
    sim = Simulator(config, build_kernel(profile, config, SCALE), point,
                    image, caba_factory=factory,
                    assist_regs_per_thread=regs)
    result = sim.run()
    assert not result.truncated
    fingerprint = {
        "cycles": result.cycles,
        "sms": [dataclasses.asdict(sm.stats) for sm in sim.sms],
        "caba": [
            dataclasses.asdict(sm.caba.stats) if sm.caba is not None
            else None
            for sm in sim.sms
        ],
        "memory": repr(result.memory.stats),
    }
    return fingerprint


@pytest.mark.parametrize("app,point", [
    ("MM", designs.base()),
    ("PVC", designs.caba("bdi")),
], ids=["MM-Base", "PVC-CABA-BDI"])
def test_sleep_matches_forced_ticks_on_table1(app, point, monkeypatch):
    with forced_ticks():
        ticked = _run(app, point)
    sleeps = [0]
    real_sleep = SM.sleep

    def sleep(self, cycle, iteration):
        sleeps[0] += 1
        real_sleep(self, cycle, iteration)

    monkeypatch.setattr(SM, "sleep", sleep)
    assert _run(app, point) == ticked
    # The pin means something only if SMs actually slept.
    assert sleeps[0] > 0
