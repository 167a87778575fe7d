#!/usr/bin/env python3
"""Render a saved experiment JSON (from run_experiments.py --out) as
markdown tables and ASCII bar charts.

Usage:
    python scripts/render_results.py results_small.json [--bars fig7:CABA-BDI]
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.harness.figures import FigureResult
from repro.harness.report import render_bars, render_markdown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path")
    parser.add_argument("--only", default=None,
                        help="comma-separated experiment ids")
    parser.add_argument("--bars", default=None,
                        help="id:column pairs to render as bar charts, "
                             "comma-separated")
    args = parser.parse_args(argv)

    with open(args.json_path) as fh:
        dump = json.load(fh)
    wanted = set(args.only.split(",")) if args.only else None

    for key, entry in dump.items():
        if not isinstance(entry, dict) or "rows" not in entry:
            continue
        if wanted is not None and key not in wanted:
            continue
        print(render_markdown(FigureResult.from_entry(key, entry)))
        print()

    if args.bars:
        for pair in args.bars.split(","):
            exp_id, _, column = pair.partition(":")
            entry = dump.get(exp_id)
            if not isinstance(entry, dict) or "rows" not in entry:
                print(f"(unknown experiment {exp_id!r})", file=sys.stderr)
                continue
            print(render_bars(FigureResult.from_entry(exp_id, entry), column,
                              label_column=entry["columns"][0]))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
