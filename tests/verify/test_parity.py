"""The paper-claims table (``repro.verify.parity``) and ``repro check
--parity``."""

import copy
import json
import pathlib

import pytest

from repro.cli import main
from repro.gpu.config import GPUConfig
from repro.harness import figures
from repro.harness.figures import EXPERIMENTS, FigureResult
from repro.harness.report import run_experiment
from repro.verify import parity

SHIPPED = (pathlib.Path(__file__).resolve().parents[2]
           / "docs" / "results_small.json")

#: The pinned deviation (EXPERIMENTS.md, "Known deviations"): CABA-BDI
#: raises DRAM utilisation by more than 0.05 on CONS and KM. A fix, or
#: any new failure on the shipped dump, changes this set.
KNOWN_DEVIATIONS = {
    "fig8: CABA-BDI <= Base + 0.05 on CONS",
    "fig8: CABA-BDI <= Base + 0.05 on KM",
}

#: The shipped dump predates mdsweep; a small entry stands in for it.
MDSWEEP = {
    "title": "MD-cache capacity sweep (Section 4.3.2)",
    "columns": ["size_kb", "avg_hit_rate", "geomean_speedup"],
    "rows": [
        {"size_kb": 1, "avg_hit_rate": 0.62, "geomean_speedup": 1.2},
        {"size_kb": 8, "avg_hit_rate": 0.91, "geomean_speedup": 1.4},
    ],
    "summary": {},
}


@pytest.fixture(scope="module")
def shipped():
    return json.loads(SHIPPED.read_text())


@pytest.fixture(scope="module")
def entries(shipped):
    return {**shipped, "mdsweep": MDSWEEP}


def _swap(a, b, prefix):
    """Swap columns ``a`` and ``b`` in every row and in the summary."""
    def mutate(entry):
        for row in entry["rows"]:
            row[a], row[b] = row[b], row[a]
        summary = entry["summary"]
        summary[prefix + a], summary[prefix + b] = (
            summary[prefix + b], summary[prefix + a])
    return mutate


def _set_row(key, value, column, new):
    def mutate(entry):
        for row in entry["rows"]:
            if row[key] == value:
                row[column] = new
    return mutate


def _set_summary(key, value):
    def mutate(entry):
        entry["summary"][key] = value
    return mutate


def _swap_summary(a, b):
    def mutate(entry):
        summary = entry["summary"]
        summary[a], summary[b] = summary[b], summary[a]
    return mutate


def _drop_envelope(entry):
    row = entry["rows"][0]
    row["BESTOFALL"] = min(row["BDI"], row["FPC"], row["CPACK"]) - 0.1


def _flatten_l1(entry):
    for row in entry["rows"]:
        row["CABA-L1-2x"] = 1.0


#: id -> (planted mutation, a claim it must fail).
MUTATIONS = {
    "tab1": (_set_row("parameter", "SMs", "value", 14), "tab1: SMs is 15"),
    "fig1": (_swap_summary("mem+dep_stalls@0.5x", "mem+dep_stalls@2.0x"),
             "fig1: memory+dependence stalls shrink at 2x, grow at 1/2x"),
    "fig2": (lambda entry: entry["rows"].pop(), "fig2: all 27 applications"),
    "fig5": (_set_row("encoding", "B8D1", "round_trip", False),
             "fig5: round trip is exact"),
    "fig7": (_swap("Base", "CABA-BDI", "geomean_"),
             "fig7: CABA-BDI above 1.15"),
    "fig8": (_swap("Base", "CABA-BDI", "avg_"),
             "fig8: CABA-BDI lowers average utilisation"),
    "fig9": (_set_summary("avg_dram_energy_reduction", 0.1),
             "fig9: DRAM energy drops more than 15%"),
    "fig10": (_swap("CABA-BDI", "CABA-FPC", "geomean_"),
              "fig10: CABA-BDI above CABA-FPC"),
    "fig11": (_drop_envelope, "fig11: BestOfAll envelope on BFS"),
    "fig12": (_swap("1x-Base", "2x-Base", "geomean_"),
              "fig12: Base gains with bandwidth"),
    "fig13": (_flatten_l1, "fig13: L1-2x compression hurts some app"),
    "mdcache": (_set_summary("average_hit_rate", 0.5),
                "mdcache: average hit rate above 0.75"),
    "memo": (lambda entry: entry["rows"].reverse(),
             "memo: speedup grows with redundancy"),
    "prefetch": (_set_row("distance", 1, "prefetches", 0),
                 "prefetch: prefetches issued at distance 1"),
    "ablations": (_set_row("variant", "default", "geomean_speedup", 0.5),
                  "ablations: default within 10% of the best"),
    "mdsweep": (_set_row("size_kb", 8, "avg_hit_rate", 0.5),
                "mdsweep: largest MD cache hits above 0.8"),
}


class TestTable:
    def test_every_parity_key_is_an_experiment_id(self):
        assert set(parity.PARITY) <= set(EXPERIMENTS)
        # Same (paper) order as the registry.
        assert list(parity.PARITY) == [
            exp_id for exp_id in EXPERIMENTS if exp_id in parity.PARITY]

    def test_every_claim_group_has_a_planted_mutation(self):
        assert set(MUTATIONS) == set(parity.PARITY)

    @pytest.mark.parametrize("exp_id", list(MUTATIONS))
    def test_planted_mutation_fails_its_claim(self, exp_id, entries):
        mutate, label = MUTATIONS[exp_id]
        entry = copy.deepcopy(entries[exp_id])
        assert label not in parity.failures(exp_id, entry)
        mutate(entry)
        assert label in parity.failures(exp_id, entry)

    def test_missing_summary_value_fails(self):
        assert "fig9: DRAM energy drops more than 15%" in parity.failures(
            "fig9", {"rows": [], "summary": {}})


class TestShippedDump:
    def test_fails_exactly_on_the_pinned_fig8_deviation(self, shipped):
        report = parity.check_dump(shipped)
        assert {r.name for r in report.failures} == KNOWN_DEVIATIONS

    def test_every_claimed_experiment_is_checked(self, shipped):
        report = parity.check_dump(shipped)
        groups = {r.name.split(":", 1)[0] for r in report.results}
        assert groups == set(parity.PARITY) & set(shipped)

    def test_broken_fig7_fails(self):
        broken = {"fig7": {"summary": {
            "geomean_Base": 1.0, "geomean_HW-BDI-Mem": 0.9,
            "geomean_HW-BDI": 0.9, "geomean_CABA-BDI": 0.8,
            "geomean_Ideal-BDI": 0.9,
        }}}
        assert not parity.check_dump(broken).ok

    def test_failed_experiment_fails(self):
        report = parity.check_dump(
            {"fig7": {"failed": True, "failures": ["x"], "seconds": 1.0}})
        assert [r.name for r in report.failures] == [
            "fig7: experiment completed"]


#: The figures that simulate nothing (fig11 on a reduced image sample).
ANALYTIC = [
    ("tab1", figures.tab1_system_config),
    ("fig2", figures.fig2_unallocated_registers),
    ("fig5", figures.fig5_bdi_example),
    ("fig11", lambda: figures.fig11_compression_ratio(
        apps=("MM", "PVC", "LPS"), sample_lines=64)),
]


class TestRoundTrip:
    @pytest.mark.parametrize("exp_id,make", ANALYTIC)
    def test_live_and_json_verdicts_agree(self, exp_id, make):
        live = make().to_entry()
        loaded = json.loads(json.dumps(live, default=str))
        assert parity.claims(exp_id, loaded) == parity.claims(exp_id, live)

    def test_sampled_survives_the_dump(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLE", "1")
        entry = figures.md_cache_study(
            GPUConfig.small(), apps=("PVC",)).to_entry()
        assert entry["sampled"].startswith("interval-sampled")
        assert entry["notes"]
        monkeypatch.delenv("REPRO_SAMPLE")
        loaded = json.loads(json.dumps({"mdcache": entry}))
        result = FigureResult.from_entry("mdcache", loaded["mdcache"])
        assert result.sampled == entry["sampled"]
        report = parity.check_dump(loaded)
        assert report.ok
        assert all(r.name.endswith(" [sampled]") for r in report.results)
        assert all(r.detail == entry["sampled"] for r in report.results)

    @pytest.mark.parametrize("exp_id,make", ANALYTIC)
    def test_figure_without_runs_is_never_sampled(self, exp_id, make,
                                                  monkeypatch):
        """Only figures that simulate carry the label: under an ambient
        REPRO_SAMPLE, the analytic figures still report as exact."""
        monkeypatch.setenv("REPRO_SAMPLE", "1")
        entry = make().to_entry()
        assert entry["sampled"] == ""
        report = parity.check_dump({exp_id: entry})
        assert report.results
        assert not any("[sampled]" in r.name for r in report.results)

    def test_entry_without_sampled_reads_exact(self, shipped, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLE", "1")
        assert "sampled" not in shipped["fig5"]
        assert FigureResult.from_entry("fig5", shipped["fig5"]).sampled == ""
        report = parity.check_dump({"fig5": shipped["fig5"]})
        assert not any("[sampled]" in r.name for r in report.results)


class TestCli:
    def test_shipped_dump_names_the_deviation(self, capsys):
        assert main(["check", "--parity", str(SHIPPED)]) == 1
        out = capsys.readouterr().out
        failed = {line.strip()[len("FAIL "):] for line in out.splitlines()
                  if line.strip().startswith("FAIL ")}
        assert failed == KNOWN_DEVIATIONS

    def test_passing_dump_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "fig5.json"
        entry, _ = run_experiment("fig5", GPUConfig.small())
        path.write_text(json.dumps({"config": "small", "fig5": entry}))
        assert main(["check", "--parity", str(path)]) == 0
        assert "all 4 checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, "{not json", "{}", "[]"])
    def test_unusable_dump_is_a_usage_error(self, content, tmp_path,
                                            capsys):
        path = tmp_path / "dump.json"
        if content is not None:
            path.write_text(content)
        assert main(["check", "--parity", str(path)]) == 2
        assert "error" in capsys.readouterr().err
