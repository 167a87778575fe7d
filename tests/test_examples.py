"""Smoke checks for the example scripts and the experiments driver.

The examples are exercised end-to-end outside the unit suite (they run
minutes of simulation); here we pin that they stay syntactically valid,
import only public API, and expose a ``main`` entry point.
"""

import ast
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES + SCRIPTS,
                         ids=lambda p: p.name)
def test_script_parses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert tree.body


@pytest.mark.parametrize("path", EXAMPLES + SCRIPTS,
                         ids=lambda p: p.name)
def test_script_has_main_guard(path):
    source = path.read_text()
    assert 'if __name__ == "__main__":' in source
    assert "def main(" in source


def test_at_least_three_examples():
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples_import_only_public_api(path):
    """Examples must demonstrate the public surface, not internals."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            assert root in ("repro",), node.module
            # No private-module imports.
            assert not any(
                part.startswith("_") for part in node.module.split(".")
            ), node.module


class TestExperimentsDriver:
    """``scripts/run_experiments.py`` argument handling."""

    @pytest.mark.parametrize("only", ["fig99", "fig5,fig99"])
    def test_unknown_only_id_is_a_usage_error(self, only, monkeypatch,
                                              capsys):
        import runpy

        module = runpy.run_path(str(REPO / "scripts" / "run_experiments.py"))
        monkeypatch.setattr(
            "sys.argv", ["run_experiments.py", "--only", only])
        with pytest.raises(SystemExit) as exc:
            module["main"]()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        assert "fig7" in err.split("valid:", 1)[1]

    def test_valid_ids_are_the_registry(self, monkeypatch, capsys):
        import runpy

        from repro.harness.figures import EXPERIMENTS

        module = runpy.run_path(str(REPO / "scripts" / "run_experiments.py"))
        monkeypatch.setattr(
            "sys.argv", ["run_experiments.py", "--only", "fig99"])
        with pytest.raises(SystemExit):
            module["main"]()
        valid = capsys.readouterr().err.split("valid: ", 1)[1]
        assert valid.rstrip().rstrip(")") == ", ".join(EXPERIMENTS)

    def test_bad_sample_env_is_a_usage_error(self, monkeypatch, capsys):
        import runpy

        module = runpy.run_path(str(REPO / "scripts" / "run_experiments.py"))
        monkeypatch.setenv("REPRO_SAMPLE", "bogus")
        monkeypatch.setattr("sys.argv", ["run_experiments.py", "--only", "fig7"])
        with pytest.raises(SystemExit) as exc:
            module["main"]()
        assert exc.value.code == 2
        assert "REPRO_SAMPLE='bogus'" in capsys.readouterr().err

    def test_negative_retries_is_a_usage_error(self, monkeypatch, capsys):
        import runpy

        module = runpy.run_path(str(REPO / "scripts" / "run_experiments.py"))
        monkeypatch.setattr(
            "sys.argv",
            ["run_experiments.py", "--only", "tab1", "--retries", "-1"])
        with pytest.raises(SystemExit) as exc:
            module["main"]()
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err
