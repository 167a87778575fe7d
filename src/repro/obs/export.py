"""Trace-artifact serialization: JSON/CSV files and the CLI table.

All writers are deterministic — sorted keys, integer metrics, newline-
terminated — so identical runs produce byte-identical artifacts whether
they ran serially or through the parallel engine (tested in
``tests/obs/test_trace_export.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.ledger import CAT_LABELS, StallCat


def payload_json(payload: dict) -> str:
    """Canonical JSON for a ``RunResult.obs`` payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def payload_csv(payload: dict) -> str:
    """Flat CSV of the ledger: totals, then per-SM counts."""
    lines = ["kind,name,field,value"]
    ledger = payload.get("ledger", {})
    for cat, total in sorted(ledger.get("totals", {}).items()):
        lines.append(f"ledger,total,{cat},{total}")
    for sm_id, counts in enumerate(ledger.get("per_sm", [])):
        for cat, count in zip(ledger.get("categories", []), counts):
            lines.append(f"ledger,sm{sm_id},{cat},{count}")
    return "\n".join(lines) + "\n"


def write_trace_files(payload: dict, out_dir: Path | str,
                      base: str) -> list[Path]:
    """Write ``<base>.json`` / ``<base>.csv`` (and ``<base>.chrome.json``
    when the payload carries chrome events); returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    json_path = out / f"{base}.json"
    json_path.write_text(payload_json(payload))
    written.append(json_path)
    csv_path = out / f"{base}.csv"
    csv_path.write_text(payload_csv(payload))
    written.append(csv_path)
    chrome = payload.get("chrome")
    if chrome is not None:
        chrome_path = out / f"{base}.chrome.json"
        chrome_path.write_text(
            json.dumps(chrome, indent=1, sort_keys=True) + "\n"
        )
        written.append(chrome_path)
    return written


def render_ledger(payload: dict) -> str:
    """Human-readable stall-attribution table for the CLI."""
    ledger = payload["ledger"]
    totals = ledger["totals"]
    denom = sum(totals.values())
    lines = [f"{'category':22s} {'slots':>12s} {'share':>8s}"]
    for cat in StallCat:
        count = totals[cat.name.lower()]
        share = count / denom if denom else 0.0
        lines.append(f"{CAT_LABELS[cat]:22s} {count:12d} {share:8.1%}")
    lines.append(f"{'total':22s} {denom:12d} {1:8.1%}" if denom
                 else f"{'total':22s} {0:12d} {0:8.1%}")
    return "\n".join(lines)
