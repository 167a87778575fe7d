"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestListApps:
    def test_lists_pool(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        assert "PVC" in out and "dmr" in out
        assert "lonestar" in out


class TestRun:
    def test_run_caba(self, capsys):
        assert main(["run", "PVC", "--design", "caba"]) == 0
        out = capsys.readouterr().out
        assert "CABA-BDI" in out
        assert "compression ratio" in out

    def test_run_base(self, capsys):
        assert main(["run", "PVC", "--design", "base"]) == 0
        out = capsys.readouterr().out
        assert "Base" in out

    def test_run_with_algorithm(self, capsys):
        assert main(["run", "PVC", "--design", "caba",
                     "--algorithm", "cpack"]) == 0
        assert "CABA-CPack" in capsys.readouterr().out

    def test_unregistered_algorithm_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "PVC", "--design", "caba", "--algorithm", "lz4"])
        assert exc.value.code == 2
        assert "invalid choice: 'lz4'" in capsys.readouterr().err

    def test_unknown_app_fails_cleanly(self, capsys):
        assert main(["run", "quake3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bandwidth_scale(self, capsys):
        assert main(["run", "NQU", "--design", "base",
                     "--bandwidth-scale", "2.0"]) == 0

    def test_sample_is_a_plain_flag(self, capsys):
        from repro.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["run", "PVC", "--sample"]).sample is True
        assert parser.parse_args(["run", "PVC"]).sample is False
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["run", "PVC", "--sample", "400:800:7000"])
        assert exc.value.code == 2

    def test_sample_period_in_env_is_a_usage_error(self, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLE", "400:800:7000")
        assert main(["run", "PVC"]) == 2
        assert "accepted: 1, on, true, yes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compare", "PVC"],
        ["figure", "fig7"],
        ["trace", "PVC"],
    ], ids=["compare", "figure", "trace"])
    def test_bad_sample_env_is_a_usage_error_everywhere(
        self, capsys, monkeypatch, argv
    ):
        """Every command that simulates validates ``REPRO_SAMPLE``
        before its first run, instead of failing inside one."""
        monkeypatch.setenv("REPRO_SAMPLE", "bogus")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "REPRO_SAMPLE='bogus'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--capacity", "--capacity-bytes"])
    def test_scenario_rejects_capacity(self, capsys, flag):
        value = "0.5" if flag == "--capacity" else "65536"
        assert main(["run", "--scenario", "prefetch", flag, value]) == 2
        assert "no capacity mode" in capsys.readouterr().err


class TestCompare:
    def test_compare_prints_five_designs(self, capsys):
        assert main(["compare", "PVC"]) == 0
        out = capsys.readouterr().out
        for name in ("Base", "HW-BDI-Mem", "HW-BDI", "CABA-BDI",
                     "Ideal-BDI"):
            assert name in out


class TestFigure:
    def test_fig5(self, capsys):
        assert main(["figure", "fig5"]) == 0
        assert "17" in capsys.readouterr().out

    def test_tab1(self, capsys):
        assert main(["figure", "tab1"]) == 0
        assert "177.4" in capsys.readouterr().out

    def test_bad_figure_id(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_accepts_every_registry_id(self):
        from repro.cli import _build_parser
        from repro.harness.figures import EXPERIMENTS

        assert len(EXPERIMENTS) == 18
        parser = _build_parser()
        for exp_id in EXPERIMENTS:
            assert parser.parse_args(["figure", exp_id]).id == exp_id

    def test_negative_retries_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "tab1", "--retries", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_invalid_timeout_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "tab1", "--timeout", value])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_zero_timeout_is_accepted(self, capsys):
        assert main(["figure", "tab1", "--timeout", "0"]) == 0


class TestCompress:
    def test_compress_file(self, tmp_path, capsys):
        path = tmp_path / "data.bin"
        path.write_bytes(bytes(4096))
        assert main(["compress", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bdi" in out and "bestofall" in out

    def test_empty_input(self, tmp_path, capsys):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert main(["compress", str(path)]) == 1

    def test_padding_of_partial_lines(self, tmp_path, capsys):
        path = tmp_path / "odd.bin"
        path.write_bytes(bytes(100))
        assert main(["compress", str(path), "--line-size", "64"]) == 0
        assert "2 lines" in capsys.readouterr().out


class TestExitCodes:
    def test_unknown_subcommand_exits_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "frobnicate" in err

    def test_no_arguments_exits_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_known_commands_are_dispatchable(self):
        from repro.cli import _COMMANDS

        for command in ("run", "trace", "compare", "figure", "compress",
                        "cache", "list-apps"):
            assert command in _COMMANDS


class TestTrace:
    def test_trace_writes_artifacts_and_prints_table(self, tmp_path,
                                                     capsys):
        out_dir = tmp_path / "traces"
        assert main(["trace", "PVC", "--design", "caba",
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "category" in out and "share" in out
        assert "total" in out
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == ["PVC-CABA-BDI.csv", "PVC-CABA-BDI.json"]

    def test_trace_chrome_flag_adds_chrome_file(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        assert main(["trace", "PVC", "--design", "caba", "--chrome",
                     "--out", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert "PVC-CABA-BDI.chrome.json" in names


class TestCheck:
    def test_fuzz_only_quick_passes(self, capsys):
        assert main(["check", "--quick", "--skip-differential",
                     "--skip-invariants", "--lines", "8"]) == 0
        out = capsys.readouterr().out
        assert "roundtrip" in out
        assert "all" in out and "passed" in out

    # The fuzz-focused tests skip the sampling differential and the
    # scenario pass, which they never assert on (both stay covered by
    # tests/verify/test_sampling_differential.py and CI's check steps).
    FUZZ_ONLY = ["check", "--skip-differential", "--skip-invariants",
                 "--skip-sampling", "--skip-scenarios"]

    def test_lines_knob_scales_units(self, capsys):
        assert main(self.FUZZ_ONLY + ["--algorithms", "bdi",
                                      "--lines", "5"]) == 0
        first = capsys.readouterr().out
        assert main(self.FUZZ_ONLY + ["--algorithms", "bdi",
                                      "--lines", "10"]) == 0
        second = capsys.readouterr().out
        units = lambda text: int(text.split("checks, ")[1].split(" units")[0])
        assert units(second) == 2 * units(first)

    def test_seed_knob_accepted(self, capsys):
        assert main(self.FUZZ_ONLY + ["--algorithms", "bdi", "--lines", "4",
                                      "--seed", "99"]) == 0

    def test_apps_knob_limits_differential(self, capsys):
        assert main(["check", "--skip-fuzz", "--skip-invariants",
                     "--apps", "PVC", "--lines", "4"]) == 0
        out = capsys.readouterr().out
        assert "differential" in out
        assert "MUM" not in out

    def test_unknown_app_fails_cleanly(self, capsys):
        assert main(["check", "--skip-fuzz", "--skip-invariants",
                     "--apps", "quake3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_quick_and_all_conflict(self, capsys):
        assert main(["check", "--quick", "--all"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_failing_check_names_the_invariant(self, capsys, monkeypatch):
        import repro.verify.fuzz as fuzz_mod
        from repro.compression import make_algorithm
        from repro.compression.bdi import BdiCompressor

        class Broken(BdiCompressor):
            def decompress(self, line):
                data = bytearray(super().decompress(line))
                data[0] ^= 0xFF
                return bytes(data)

        def fake_make(name, line_size):
            if name == "bdi":
                return Broken(line_size)
            return make_algorithm(name, line_size)

        monkeypatch.setattr(fuzz_mod, "make_algorithm", fake_make)
        assert main(self.FUZZ_ONLY + ["--algorithms", "bdi",
                                      "--lines", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "roundtrip.bdi" in out

    def test_verbose_lists_passing_checks(self, capsys):
        assert main(self.FUZZ_ONLY + ["--algorithms", "bdi", "--lines", "4",
                                      "-v"]) == 0
        assert "pass roundtrip.bdi" in capsys.readouterr().out

    def test_check_command_is_dispatchable(self):
        from repro.cli import _COMMANDS

        assert "check" in _COMMANDS


