"""The stepping oracle: the simulator's loop with per-SM sleep off.

``Simulator._run_detailed`` ticks only the SMs whose state can change
and jumps the clock when no SM issues. Both are accounting shortcuts:
``forced_ticks()`` turns them off, and the tests pin the default loop
against it byte for byte.
"""

from contextlib import contextmanager

import pytest

from repro.gpu.simulator import Simulator
from repro.gpu.sm import SM


@contextmanager
def forced_ticks(fast_forward=True):
    """Within the block no SM sleeps: every SM ticks on every cycle the
    loop runs. With ``fast_forward`` false the loop also runs every
    cycle instead of jumping the clock over cycles in which no SM
    issues. That last mode is exact only without a CABA controller,
    whose utilization monitor samples the cycles the loop runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SM, "quiet_until", lambda self, cycle: 0)
        if not fast_forward:
            mp.setattr(Simulator, "_fast_forward", lambda self, limit: None)
        yield
