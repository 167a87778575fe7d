"""Tests for the per-figure harnesses (small subsets for speed)."""

import json
import pathlib

import pytest

from repro.gpu.config import GPUConfig
from repro.harness import extensions, figures
from repro.harness.report import render_table


class _Submitted(Exception):
    """Raised in place of simulating: carries the submitting figure."""


class TestRegistry:
    @pytest.mark.parametrize("exp_id", list(figures.EXPERIMENTS))
    def test_figure_id_is_the_experiment_id(self, exp_id, monkeypatch):
        """Each experiment names its result (and with it its failure
        reports) by its registry id."""
        def submitted(result, specs):
            raise _Submitted(result.figure)

        for module in (figures, extensions):
            monkeypatch.setattr(module, "run_figure", submitted)
        try:
            figure = figures.EXPERIMENTS[exp_id](GPUConfig.small()).figure
        except _Submitted as exc:
            figure = exc.args[0]
        assert figure == exp_id


class TestShippedDump:
    """``docs/results_small.json`` is what the code produces. The
    experiments checked here are the ones cheap enough for tier 1; CI
    compares the simulated fig7, capacity and scheduler entries."""

    DUMP = (pathlib.Path(__file__).resolve().parents[2]
            / "docs" / "results_small.json")

    @pytest.mark.parametrize("exp_id", ["tab1", "fig2", "fig5", "fig11"])
    def test_rows_and_summary_match(self, exp_id):
        shipped = json.loads(self.DUMP.read_text())[exp_id]
        entry = figures.EXPERIMENTS[exp_id](GPUConfig.small()).to_entry()
        # The dump went through json.dump(default=str); compare the
        # regenerated entry in the same form.
        fresh = json.loads(json.dumps(entry, default=str))
        assert fresh["rows"] == shipped["rows"]
        assert fresh["summary"] == shipped["summary"]


class TestFig5:
    def test_matches_paper_numbers(self):
        result = figures.fig5_bdi_example()
        row = result.rows[0]
        assert row["encoding"] == "B8D1"
        assert row["compressed_bytes"] == 17
        assert row["saved_bytes"] == 47
        assert row["round_trip"] is True


class TestFig2:
    def test_average_near_paper(self):
        result = figures.fig2_unallocated_registers()
        avg = result.summary["average_unallocated"]
        # Paper: 24% on average.
        assert 0.15 <= avg <= 0.35

    def test_every_app_has_a_row(self):
        result = figures.fig2_unallocated_registers()
        assert len(result.rows) == 27
        for row in result.rows:
            assert 0.0 <= row["unallocated"] < 1.0


class TestFig11:
    APPS = ("PVC", "MM", "LPS", "JPEG", "MUM", "nw")

    @pytest.fixture(scope="class")
    def result(self):
        return figures.fig11_compression_ratio(
            apps=self.APPS, sample_lines=120
        )

    def test_bdi_wins_on_mm_and_pvc(self, result):
        by_app = {row["app"]: row for row in result.rows}
        for app in ("MM", "PVC"):
            assert by_app[app]["BDI"] > by_app[app]["FPC"]

    def test_fpc_or_cpack_win_on_their_apps(self, result):
        """Paper: LPS, JPEG, MUM, nw compress better with FPC/C-Pack."""
        by_app = {row["app"]: row for row in result.rows}
        for app in ("JPEG", "MUM", "nw"):
            best_other = max(by_app[app]["FPC"], by_app[app]["CPACK"])
            assert best_other > by_app[app]["BDI"]

    def test_bestofall_is_upper_envelope(self, result):
        for row in result.rows:
            assert row["BESTOFALL"] >= max(
                row["BDI"], row["FPC"], row["CPACK"]
            ) - 1e-9

    def test_everything_compressible_at_least_somewhat(self, result):
        for row in result.rows:
            assert row["BESTOFALL"] > 1.2


class TestTab1:
    def test_parameters_echoed(self):
        result = figures.tab1_system_config()
        values = {row["parameter"]: row["value"] for row in result.rows}
        assert values["SMs"] == 15
        assert values["memory channels"] == 6
        assert values["peak bandwidth (GB/s)"] == 177.4
        assert values["tCL/tRP/tRC/tRAS"] == "12/12/40/28"


class TestReport:
    def test_render_table_contains_rows_and_summary(self):
        result = figures.fig5_bdi_example()
        text = render_table(result)
        assert "BDI compression" in text
        assert "17" in text
        assert "summary:" in text

    def test_row_truncation(self):
        result = figures.fig2_unallocated_registers()
        text = render_table(result, max_rows=5)
        assert "more rows" in text

    def test_sampled_sweep_is_annotated(self, monkeypatch):
        from repro import design as designs
        from repro.gpu.config import GPUConfig
        from repro.harness.figures import FigureResult, sample_label
        from repro.harness.runner import RunSpec

        def spec(**kwargs):
            return RunSpec("PVC", designs.base(), GPUConfig.small(),
                           **kwargs)

        assert sample_label([spec()]) == ""
        monkeypatch.setenv("REPRO_SAMPLE", "1")
        # The label follows the runs, not the environment.
        assert FigureResult(figure="x", title="Demo",
                            columns=["app"]).sampled == ""
        assert sample_label([spec(sample=None)]) == ""
        sampled = FigureResult(figure="x", title="Demo", columns=["app"],
                               sampled=sample_label([spec()]))
        assert "500:1000:13500" in sampled.sampled
        text = render_table(sampled)
        assert "extrapolated" in text
        assert "sampling:" in text


class TestBarChart:
    def test_render_bars(self):
        from repro.harness.figures import FigureResult
        from repro.harness.report import render_bars

        result = FigureResult(
            figure="x", title="Demo", columns=["app", "speedup"],
            rows=[{"app": "A", "speedup": 2.0},
                  {"app": "B", "speedup": 1.0}],
        )
        text = render_bars(result, "speedup", reference=1.0)
        assert "A" in text and "B" in text
        # A's bar is twice B's.
        a_bar = text.splitlines()[1].count("#")
        b_bar = text.splitlines()[2].count("#")
        assert a_bar >= 2 * b_bar - 2

    def test_render_bars_missing_column(self):
        from repro.harness.figures import FigureResult
        from repro.harness.report import render_bars

        result = FigureResult(figure="x", title="Demo",
                              columns=["app"], rows=[{"app": "A"}])
        assert "no data" in render_bars(result, "speedup")
