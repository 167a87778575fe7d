"""The one reader of on/off environment knobs.

``REPRO_CACHE`` and ``REPRO_SAMPLE`` accept the same spellings, compared
case-insensitively: ``1``/``on``/``true``/``yes`` and
``0``/``off``/``false``/``no``. Unset or empty means the knob's
default. Anything else raises :class:`KnobError`, naming the knob,
rather than silently meaning one or the other. Knobs are read at call
time, so a process may flip one between runs.
"""

from __future__ import annotations

import os

ON_VALUES = frozenset({"1", "on", "true", "yes"})
OFF_VALUES = frozenset({"0", "off", "false", "no"})


class KnobError(ValueError):
    """An on/off knob set to a value that is neither."""


def env_flag(name: str, default: bool = False) -> bool:
    """The on/off setting of environment variable ``name``."""
    raw = os.environ.get(name, "")
    value = raw.strip().lower()
    if not value:
        return default
    if value in ON_VALUES:
        return True
    if value in OFF_VALUES:
        return False
    raise KnobError(
        f"{name}={raw!r} is not an on/off value; accepted: "
        f"{', '.join(sorted(ON_VALUES))} (on) or "
        f"{', '.join(sorted(OFF_VALUES))} (off); unset means "
        f"{'on' if default else 'off'}"
    )
