"""The README's knob table documents exactly the knobs the code reads."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _source_knobs() -> set[str]:
    names: set[str] = set()
    for tree in ("src", "scripts"):
        for path in (ROOT / tree).rglob("*.py"):
            names.update(KNOB.findall(path.read_text()))
    return names


def _table_knobs() -> set[str]:
    rows = re.compile(r"^\| `(REPRO_[A-Z_]+)", re.MULTILINE)
    return set(rows.findall((ROOT / "README.md").read_text()))


def test_readme_knob_table_matches_source():
    source, table = _source_knobs(), _table_knobs()
    assert source, "no REPRO_* knob found under src/ or scripts/"
    assert sorted(source - table) == [], "knobs missing from README table"
    assert sorted(table - source) == [], "README lists knobs no code reads"
