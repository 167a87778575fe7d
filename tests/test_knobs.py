"""The README's knob table documents exactly the knobs the code reads,
and every on/off knob accepts the same spellings."""

import pathlib
import re

import pytest

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.gpu.sampling import SampleConfig
from repro.harness.cache import cache_enabled
from repro.harness.runner import clear_caches, run_app
from repro.knobs import KnobError
from repro.workloads.tracegen import TraceScale

ROOT = pathlib.Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _source_knobs() -> set[str]:
    names: set[str] = set()
    for tree in ("src", "scripts", "benchmarks"):
        for path in (ROOT / tree).rglob("*.py"):
            names.update(KNOB.findall(path.read_text()))
    return names


def _table_knobs() -> set[str]:
    rows = re.compile(r"^\| `(REPRO_[A-Z_]+)", re.MULTILINE)
    return set(rows.findall((ROOT / "README.md").read_text()))


def test_readme_knob_table_matches_source():
    source, table = _source_knobs(), _table_knobs()
    assert source, "no REPRO_* knob found under src/, scripts/ or benchmarks/"
    assert sorted(source - table) == [], "knobs missing from README table"
    assert sorted(table - source) == [], "README lists knobs no code reads"


#: (knob, its reader as a bool, the setting when unset).
ON_OFF_KNOBS = [
    pytest.param("REPRO_SAMPLE", lambda: SampleConfig.from_env() is not None,
                 False, id="sample"),
    pytest.param("REPRO_CACHE", cache_enabled, True, id="cache"),
]


@pytest.mark.parametrize("knob,read,default", ON_OFF_KNOBS)
def test_on_off_spellings(monkeypatch, knob, read, default):
    for value in ("1", "on", "TRUE", " yes "):
        monkeypatch.setenv(knob, value)
        assert read() is True, value
    for value in ("0", "off", "False", "no"):
        monkeypatch.setenv(knob, value)
        assert read() is False, value
    monkeypatch.setenv(knob, "")
    assert read() is default
    monkeypatch.delenv(knob)
    assert read() is default


@pytest.mark.parametrize("knob,read,default", ON_OFF_KNOBS)
def test_other_values_name_the_knob(monkeypatch, knob, read, default):
    monkeypatch.setenv(knob, "maybe")
    with pytest.raises(KnobError, match=f"{knob}='maybe'"):
        read()


def test_off_spellings_turn_tracing_and_caching_off(monkeypatch, tmp_path):
    """``REPRO_CACHE=off`` writes no cache entry."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE", "off")
    clear_caches()
    try:
        run = run_app("MM", designs.base(), GPUConfig.small(),
                      scale=TraceScale(work=0.1, waves=0.25))
    finally:
        clear_caches()
    assert run.cycles > 0
    assert not any(p.is_file() for p in tmp_path.rglob("*"))
