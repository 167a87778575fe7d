"""Plain-text rendering of reproduced figures and tables.

The benchmark drivers print each :class:`FigureResult` through these
helpers so ``pytest benchmarks/ --benchmark-only`` emits the same rows
and series the paper reports, alongside the timing data.
:func:`run_experiment` is the one run/render/dump-entry step that
``repro figure`` and ``scripts/run_experiments.py`` share.
"""

from __future__ import annotations

import time

from repro.gpu.config import GPUConfig
from repro.harness import parallel
from repro.harness.figures import EXPERIMENTS, FigureResult


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_table(result: FigureResult, max_rows: int | None = None) -> str:
    """Render a FigureResult as an aligned monospace table."""
    rows = result.rows if max_rows is None else result.rows[:max_rows]
    header = result.columns
    body = [[_fmt(row.get(col, "")) for col in header] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in body)) if body else len(col)
        for i, col in enumerate(header)
    ]
    lines = [
        f"== {result.title} ==",
        "  ".join(col.ljust(widths[i]) for i, col in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for line in body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    if max_rows is not None and len(result.rows) > max_rows:
        lines.append(f"... ({len(result.rows) - max_rows} more rows)")
    if result.summary:
        lines.append("summary:")
        for key, value in result.summary.items():
            lines.append(f"  {key} = {_fmt(value)}")
    if result.notes:
        lines.append(f"paper: {result.notes}")
    if result.sampled:
        lines.append(f"sampling: {result.sampled}")
    return "\n".join(lines)


def render_markdown(result: FigureResult) -> str:
    """Render a FigureResult as a markdown table plus summary list."""
    columns = result.columns
    lines = [f"### {result.title}", ""]
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "---|" * len(columns))
    for row in result.rows:
        lines.append(
            "| " + " | ".join(_fmt(row.get(c, "")) for c in columns) + " |"
        )
    if result.summary:
        lines.append("")
        for key, value in result.summary.items():
            lines.append(f"- `{key}` = {_fmt(value)}")
    return "\n".join(lines)


def print_figure(result: FigureResult, max_rows: int | None = None) -> None:
    print()
    print(render_table(result, max_rows=max_rows))


def render_bars(
    result: FigureResult,
    value_column: str,
    label_column: str = "app",
    width: int = 40,
    reference: float | None = None,
) -> str:
    """Render one column of a FigureResult as a horizontal bar chart.

    ``reference`` draws a marker at that value (e.g. 1.0 for speedups).
    """
    rows = [r for r in result.rows if value_column in r]
    if not rows:
        return f"== {result.title} == (no data for {value_column!r})"
    peak = max(float(r[value_column]) for r in rows)
    if peak <= 0:
        peak = 1.0
    lines = [f"== {result.title} — {value_column} =="]
    for row in rows:
        value = float(row[value_column])
        filled = int(round(width * value / peak))
        bar = "#" * filled
        if reference is not None and 0 < reference <= peak:
            mark = int(round(width * reference / peak))
            if mark < width:
                bar = (bar + " " * width)[:width]
                bar = bar[:mark] + "|" + bar[mark + 1:]
        lines.append(
            f"  {str(row[label_column]):>10s} {bar:<{width}s} {value:.3f}"
        )
    return "\n".join(lines)


def run_experiment(name: str, config: GPUConfig) -> tuple[dict, str]:
    """Run registry experiment ``name``: (dump entry, printable text).

    The entry is :meth:`FigureResult.to_entry` plus the wall time in
    ``seconds``. A batch that still has failed runs after its retries
    does not raise: its entry is ``{"failed": True, "failures": [...],
    "seconds": ...}`` and the text is the per-spec failure report.
    """
    start = time.time()
    try:
        result = EXPERIMENTS[name](config)
    except parallel.ExperimentFailure as exc:
        # Completed sibling runs are already checkpointed.
        return {
            "failed": True,
            "failures": [f.describe() for f in exc.failures],
            "seconds": round(time.time() - start, 1),
        }, str(exc)
    entry = result.to_entry()
    entry["seconds"] = round(time.time() - start, 1)
    return entry, render_table(result)
