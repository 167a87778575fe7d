"""The stepping oracle: the simulator's loop with per-SM sleep off.

``Simulator._run_detailed`` ticks only the SMs whose state can change,
and jumps the clock when every SM sleeps. Both are accounting
shortcuts: ``forced_ticks()`` turns them off, and the tests pin the
default loop against it byte for byte.
"""

from contextlib import contextmanager

import pytest

from repro.gpu.sm import SM


@contextmanager
def forced_ticks():
    """Within the block no SM sleeps: every SM ticks on every cycle, and
    with no sleeper the clock never jumps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SM, "quiet_until", lambda self, cycle: 0)
        yield
