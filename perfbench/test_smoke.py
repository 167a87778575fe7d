"""Smoke test of the benchmark itself, at a tiny scale.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs shrunk to one app or point (``work=0.05`` where the
workload takes a trace scale), in both modes, in a subprocess from the
repository root. Checks that every metric ``BENCHMARK.json`` names is
printed with its unit, that a planted fingerprint mismatch drives
``failed_frac`` above zero, and that the benchmark refuses to run
without the simulator's source tree. Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Loads run.py as a module, shrinks its workloads and runs main();
#: ``--plant-mismatch`` makes every fingerprint unique, so any repeated
#: or warm-vs-cold comparison fails.
TINY = """
import itertools, sys
sys.path.insert(0, "perfbench")
import run
W = run.Workload
run.WORKLOADS.update(
    sweep_small=W("sweep", "small", apps=("hs",)),
    table1_loop=W("loop", "table1", points=(("PVC", "CABA-BDI"),), work=0.05),
    sampled_small=W("sampled", "small", points=(("PVC", "CABA-BDI"),),
                    work=0.05),
)
if "--plant-mismatch" in sys.argv:
    sys.argv.remove("--plant-mismatch")
    counter = itertools.count()
    run.fingerprint = lambda result: str(next(counter))
sys.exit(run.main(sys.argv[1:]))
"""


def bench(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, "-c", TINY, "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc, lines, result = bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    report = {line.split()[0]: line.split()[-1]
              for line in lines if line.startswith("  ")}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert report[metric["name"]] == metric["unit"]
    for metric in SPEC["end_to_end"] if not trace else ():
        assert result["metrics"][metric["name"]]["value"] > 0


def test_planted_mismatch_fails_runs():
    proc, lines, result = bench("sampled_small", 1, "--plant-mismatch")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["failed_frac"]["value"] > 0
    assert any(line.startswith("FAILED pass 2 PVC-CABA-BDI")
               for line in lines)


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "table1_loop",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
