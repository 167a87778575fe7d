"""Global test configuration.

Points the persistent run cache at a session-scoped temporary directory
so tests never read from or write to the user's real cache (and never
see entries from earlier sessions), keeping every caching assertion
hermetic. An ambient ``REPRO_SAMPLE`` is likewise stripped per test:
golden values, conservation checks and cross-mode diffs assert
*exact-mode* behaviour, and must not silently flip to approximate
sampled runs because the knob was exported in the developer's (or a CI
lane's) shell. Tests that exercise sampling opt in explicitly — via
``run_app(..., sample=...)`` or by setting the variable inside the
test body. An ambient ``REPRO_CACHE=0`` is stripped the same way: the
cache round-trip, checkpoint and plane-persistence tests assert that
the isolated cache is live, and tests of the knob set it themselves.
"""

import os

import pytest

from repro.harness.runner import clear_caches


@pytest.fixture(scope="session", autouse=True)
def _isolated_run_cache(tmp_path_factory):
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("run-cache"))
    clear_caches()  # drop any handle built against the old directory
    yield


@pytest.fixture(autouse=True)
def _ambient_knobs_stripped(monkeypatch):
    for knob in ("REPRO_SAMPLE", "REPRO_CACHE"):
        monkeypatch.delenv(knob, raising=False)
