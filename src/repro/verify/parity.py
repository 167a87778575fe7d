"""The paper's qualitative claims, as one table every consumer reads.

One generator per experiment id (a key of
:data:`repro.harness.figures.EXPERIMENTS`) yields ``(label, passed)``
for each claim the paper makes about that figure. A generator reads
only the ``rows`` and ``summary`` of a dump entry: one value of a
``scripts/run_experiments.py --out`` JSON, or
:meth:`~repro.harness.figures.FigureResult.to_entry` of a live result.
``repro check --parity DUMP``, the ``benchmarks/`` figure tests and the
tier-1 shape tests all check through :func:`claims`, so every threshold
lives here and nowhere else.

A claim about a named application is yielded only when that app is in
the entry, so a subset sweep checks what it ran. A missing summary
value reads as NaN, which fails every comparison it is in.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from repro.gpu.stats import SLOT_LABELS, Slot
from repro.verify.report import CheckReport, CheckResult

Claim = tuple[str, bool]

_NAN = float("nan")

#: The five Figure-7/8/9 designs other than Base.
_COMPRESSED = ("HW-BDI-Mem", "HW-BDI", "CABA-BDI", "Ideal-BDI")


def _tab1(rows, summary) -> Iterator[Claim]:
    values = {row["parameter"]: row["value"] for row in rows}
    for parameter, expected in (
        ("SMs", 15),
        ("warps/SM", 48),
        ("registers/SM", 32768),
        ("memory channels", 6),
        ("banks/channel", 16),
        ("peak bandwidth (GB/s)", 177.4),
        ("tCL/tRP/tRC/tRAS", "12/12/40/28"),
    ):
        yield (f"tab1: {parameter} is {expected}",
               values.get(parameter) == expected)


def _fig1(rows, summary) -> Iterator[Claim]:
    at_half, at_1x, at_2x = (
        summary.get(f"mem+dep_stalls@{scale}x", _NAN)
        for scale in (0.5, 1.0, 2.0)
    )
    yield ("fig1: memory+dependence stalls above 35% of issue cycles at 1x",
           at_1x > 0.35)
    yield ("fig1: memory+dependence stalls shrink at 2x, grow at 1/2x",
           at_2x < at_1x < at_half)
    memory = SLOT_LABELS[Slot.MEMORY_STALL]
    for row in rows:
        if row["category"] == "compute" and row["bw"] == 1.0:
            yield (f"fig1: memory stalls below 30% at 1x on {row['app']}",
                   row[memory] < 0.3)


def _fig2(rows, summary) -> Iterator[Claim]:
    yield ("fig2: average unallocated registers within 15-35%",
           0.15 <= summary.get("average_unallocated", _NAN) <= 0.35)
    yield ("fig2: all 27 applications", len(rows) == 27)


def _fig5(rows, summary) -> Iterator[Claim]:
    row = rows[0] if rows else {}
    yield ("fig5: encoding is B8D1", row.get("encoding") == "B8D1")
    yield ("fig5: 64 B line compresses to 17 B",
           row.get("compressed_bytes") == 17)
    yield ("fig5: 47 B saved", row.get("saved_bytes") == 47)
    yield ("fig5: round trip is exact", row.get("round_trip") is True)


def _fig7(rows, summary) -> Iterator[Claim]:
    geo = {name: summary.get(f"geomean_{name}", _NAN) for name in _COMPRESSED}
    for name in _COMPRESSED:
        yield (f"fig7: {name} geomean above 1.05", geo[name] > 1.05)
    caba = geo["CABA-BDI"]
    yield ("fig7: CABA-BDI above 1.15", caba > 1.15)
    yield ("fig7: CABA-BDI within 15% of Ideal-BDI",
           caba >= 0.85 * geo["Ideal-BDI"])
    yield ("fig7: CABA-BDI above HW-BDI-Mem", caba > geo["HW-BDI-Mem"])
    yield ("fig7: CABA-BDI within 15% of HW-BDI",
           abs(caba - geo["HW-BDI"]) < 0.15 * geo["HW-BDI"])
    for row in rows:
        yield (f"fig7: CABA-BDI above 0.95 on {row['app']}",
               row["CABA-BDI"] > 0.95)


def _fig8(rows, summary) -> Iterator[Claim]:
    yield ("fig8: CABA-BDI lowers average utilisation",
           summary.get("avg_CABA-BDI", _NAN) < summary.get("avg_Base", _NAN))
    for row in rows:
        yield (f"fig8: CABA-BDI <= Base + 0.05 on {row['app']}",
               row["CABA-BDI"] <= row["Base"] + 0.05)


def _fig9(rows, summary) -> Iterator[Claim]:
    caba = summary.get("avg_CABA-BDI", _NAN)
    yield ("fig9: CABA-BDI energy below 0.95", caba < 0.95)
    yield ("fig9: CABA-BDI energy at least Ideal-BDI - 0.02",
           caba >= summary.get("avg_Ideal-BDI", _NAN) - 0.02)
    yield ("fig9: CABA-BDI energy within 0.1 of HW-BDI",
           abs(caba - summary.get("avg_HW-BDI", _NAN)) < 0.1)
    yield ("fig9: DRAM energy drops more than 15%",
           summary.get("avg_dram_energy_reduction", _NAN) > 0.15)


def _fig10(rows, summary) -> Iterator[Claim]:
    fpc, bdi, cpack = (
        summary.get(f"geomean_CABA-{name}", _NAN)
        for name in ("FPC", "BDI", "CPack")
    )
    yield ("fig10: CABA-FPC above 1.02", fpc > 1.02)
    yield ("fig10: CABA-CPack above 1.02", cpack > 1.02)
    yield ("fig10: CABA-BDI above 1.10", bdi > 1.10)
    yield ("fig10: CABA-BDI above CABA-FPC", bdi > fpc)
    yield ("fig10: CABA-BDI at least CABA-CPack", bdi >= cpack)


def _fig11(rows, summary) -> Iterator[Claim]:
    by_app = {row["app"]: row for row in rows}
    for app in ("MM", "PVC", "PVR"):
        if app in by_app:
            row = by_app[app]
            yield f"fig11: {app} favours BDI over FPC", row["BDI"] > row["FPC"]
    for app in ("LPS", "JPEG", "MUM", "nw"):
        if app in by_app:
            row = by_app[app]
            yield (f"fig11: {app} favours FPC or C-Pack",
                   max(row["FPC"], row["CPACK"]) > row["BDI"] * 0.98)
    for row in rows:
        yield (f"fig11: BestOfAll envelope on {row['app']}",
               row["BESTOFALL"]
               >= max(row["BDI"], row["FPC"], row["CPACK"]) - 1e-9)
    yield ("fig11: BDI average ratio above 1.5",
           summary.get("avg_bdi", _NAN) > 1.5)


def _fig12(rows, summary) -> Iterator[Claim]:
    geo = {
        f"{scale}-{design}": summary.get(f"geomean_{scale}-{design}", _NAN)
        for scale in ("1/2x", "1x", "2x") for design in ("Base", "CABA")
    }
    for scale in ("1/2x", "1x", "2x"):
        yield (f"fig12: CABA beats Base at {scale}",
               geo[f"{scale}-CABA"] > geo[f"{scale}-Base"])
    yield ("fig12: Base gains with bandwidth",
           geo["2x-Base"] > geo["1x-Base"] > geo["1/2x-Base"])
    yield ("fig12: 1x-CABA above 0.7x 2x-Base",
           geo["1x-CABA"] > 0.7 * geo["2x-Base"])


def _fig13(rows, summary) -> Iterator[Claim]:
    for row in rows:
        yield (f"fig13: CABA-BDI is the 1.0 reference on {row['app']}",
               row["CABA-BDI"] == 1.0)
    yield ("fig13: L1-2x compression hurts some app",
           any(row["CABA-L1-2x"] < 1.0 for row in rows))
    yield ("fig13: L2-4x capacity helps some app",
           any(row["CABA-L2-4x"] > 1.0 for row in rows))


def _mdcache(rows, summary) -> Iterator[Claim]:
    yield ("mdcache: average hit rate above 0.75",
           summary.get("average_hit_rate", _NAN) > 0.75)
    yield ("mdcache: some app hits above 0.95",
           any(row["md_hit_rate"] > 0.95 for row in rows))


def _memo(rows, summary) -> Iterator[Claim]:
    speedups = [row["speedup"] for row in rows]
    yield "memo: speedup grows with redundancy", speedups == sorted(speedups)
    yield ("memo: max speedup above 1.2",
           summary.get("max_speedup", _NAN) > 1.2)
    top = max(rows, key=lambda row: row["redundancy"], default=None)
    yield ("memo: LUT hit rate above 0.7 at the highest redundancy",
           top is not None and top["lut_hit_rate"] > 0.7)


def _prefetch(rows, summary) -> Iterator[Claim]:
    yield ("prefetch: max speedup above 1.2",
           summary.get("max_speedup", _NAN) > 1.2)
    for row in rows:
        yield (f"prefetch: prefetches issued at distance {row['distance']}",
               row["prefetches"] > 0)


def _capacity(rows, summary) -> Iterator[Claim]:
    by_app: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_app.setdefault(row["app"], {})[row["algorithm"]] = row

    def cell(app, algorithm, column):
        return by_app[app].get(algorithm, {}).get(column, _NAN)

    for app in ("PVC", "MM"):
        if app in by_app:
            yield (f"capacity: BDI removes the spill on {app}",
                   cell(app, "bdi", "spill_fraction") == 0)
    if "ATTN" in by_app:
        yield ("capacity: C-Pack spills less than BDI on ATTN",
               cell("ATTN", "cpack", "spill_fraction")
               < cell("ATTN", "bdi", "spill_fraction"))
        yield ("capacity: C-Pack beats BDI on ATTN",
               cell("ATTN", "cpack", "speedup_vs_base")
               > cell("ATTN", "bdi", "speedup_vs_base"))
    if "ST3D" in by_app:
        yield ("capacity: BestOfAll still spills on ST3D",
               cell("ST3D", "bestofall", "spill_fraction") > 0)
    for app, algorithms in by_app.items():
        spill = cell(app, "none", "spill_fraction")
        yield (f"capacity: no algorithm spills more than none on {app}",
               all(row["spill_fraction"] <= spill
                   for row in algorithms.values()))


def _ablations(rows, summary) -> Iterator[Claim]:
    by_variant = {row["variant"]: row for row in rows}
    for row in rows:
        yield (f"ablations: {row['variant']} beats Base",
               row["geomean_speedup"] > 1.0)
    best = max((row["geomean_speedup"] for row in rows), default=_NAN)
    default = by_variant.get("default", {}).get("geomean_speedup", _NAN)
    yield "ablations: default within 10% of the best", default > 0.9 * best
    if "store_buffer_4" in by_variant and "store_buffer_64" in by_variant:
        yield ("ablations: 64-line store buffer compresses at least "
               "as many stores as 4 lines",
               by_variant["store_buffer_64"]["compressed_store_fraction"]
               >= by_variant["store_buffer_4"]["compressed_store_fraction"]
               - 0.05)


def _scheduler(rows, summary) -> Iterator[Claim]:
    speedup = {row["scheduler"]: row["geomean_caba_speedup"] for row in rows}
    gto, lrr = speedup.get("gto", _NAN), speedup.get("lrr", _NAN)
    yield "scheduler: CABA speedup above 1.05 under GTO", gto > 1.05
    yield "scheduler: CABA speedup above 1.05 under LRR", lrr > 1.05
    yield ("scheduler: GTO and LRR speedups within 15%",
           abs(gto - lrr) < 0.15 * min(gto, lrr))


def _mdsweep(rows, summary) -> Iterator[Claim]:
    by_size = sorted(rows, key=lambda row: row["size_kb"])
    smallest = by_size[0]["avg_hit_rate"] if by_size else _NAN
    largest = by_size[-1]["avg_hit_rate"] if by_size else _NAN
    yield ("mdsweep: largest MD cache hits at least the smallest - 0.02",
           largest >= smallest - 0.02)
    yield "mdsweep: largest MD cache hits above 0.8", largest > 0.8


#: Claim generators by experiment id, in paper order.
PARITY: dict[str, Callable[[list, dict], Iterator[Claim]]] = {
    "tab1": _tab1,
    "fig1": _fig1,
    "fig2": _fig2,
    "fig5": _fig5,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "mdcache": _mdcache,
    "memo": _memo,
    "prefetch": _prefetch,
    "capacity": _capacity,
    "ablations": _ablations,
    "scheduler": _scheduler,
    "mdsweep": _mdsweep,
}


def claims(exp_id: str, entry: Mapping) -> list[Claim]:
    """Every ``(label, passed)`` claim of ``exp_id`` on one dump entry."""
    return list(PARITY[exp_id](entry.get("rows", []),
                               entry.get("summary", {})))


def failures(exp_id: str, entry: Mapping) -> list[str]:
    """Labels of the claims of ``exp_id`` that ``entry`` breaks."""
    return [label for label, passed in claims(exp_id, entry) if not passed]


def check_dump(dump: Mapping) -> CheckReport:
    """Check every experiment in a ``run_experiments.py`` dump.

    Claims evaluated on an interval-sampled entry carry a
    ``[sampled]`` mark and the sampling provenance as their detail;
    entries written before dumps recorded ``sampled`` read as exact.
    An experiment whose batch failed yields one failing check.
    """
    report = CheckReport()
    for exp_id in PARITY:
        entry = dump.get(exp_id)
        if not isinstance(entry, dict):
            continue
        if entry.get("failed"):
            report.extend([CheckResult(
                f"{exp_id}: experiment completed", False,
                detail=f"{len(entry.get('failures', []))} failed run(s)",
            )])
            continue
        sampled = entry.get("sampled", "")
        mark = " [sampled]" if sampled else ""
        report.extend([
            CheckResult(label + mark, passed, checked=1, detail=sampled)
            for label, passed in claims(exp_id, entry)
        ])
    return report

