"""Tests for the command-line interface."""

import pytest

from repro.cli import RUN_CAMPAIGNS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_isolate_defaults(self):
        args = build_parser().parse_args(["isolate", "--tiny"])
        assert args.tiny and args.faults == 300

    def test_isolate_has_no_engine_switch(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["isolate", "--backend", "legacy"])

    def test_yat_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["yat", "--stagnation", "45"])

    def test_run_campaigns_roundtrip(self, capsys):
        # Every registered campaign parses as a positional choice and is
        # documented in `repro run --help`.
        parser = build_parser()
        assert set(RUN_CAMPAIGNS) == {
            "isolation", "montecarlo", "ipc", "inject", "decide",
            "repair",
        }
        for name in RUN_CAMPAIGNS:
            args = parser.parse_args(["run", name])
            assert args.campaign == name
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--help"])
        help_text = capsys.readouterr().out
        for name in RUN_CAMPAIGNS:
            assert name in help_text
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "nonesuch"])

    def test_inject_defaults(self):
        args = build_parser().parse_args(["inject"])
        assert args.sites == 64
        assert args.model == "both"
        assert args.config == "full"
        assert args.blocks == "all"
        assert args.checkpoint_interval == 128
        assert not args.no_fork
        assert not args.summary_only
        assert args.sampling == "uniform"
        assert not args.profile
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inject", "--model", "bogus"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inject", "--sampling", "bogus"])


class TestCommands:
    def test_graph_command(self, capsys):
        assert main(["graph", "-v"]) == 0
        out = capsys.readouterr().out
        assert "baseline:" in out and "ICI satisfied" in out
        assert "transformation log" in out

    def test_yat_command(self, capsys):
        assert main(["yat", "--growth", "40"]) == 0
        out = capsys.readouterr().out
        assert "18n" in out and "Rescue" in out

    def test_ipc_command_small(self, capsys):
        code = main([
            "ipc", "gzip", "--instructions", "1500", "--warmup", "500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "average" in out

    @pytest.mark.slow  # full scan+ATPG flow (PODEM-bound), ~90 s
    def test_isolate_command_tiny(self, capsys):
        code = main([
            "isolate", "--tiny", "--faults", "40", "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert "isolated to the correct block" in out
        assert code == 0  # 100% isolation expected on Rescue

    def test_lint_command(self, capsys):
        assert main(["lint", "--tiny"]) == 0
        assert "ICI holds" in capsys.readouterr().out
        assert main(["lint", "--tiny", "--baseline"]) == 1
        assert "violated" in capsys.readouterr().out

    def test_inject_command_masking(self, capsys):
        code = main([
            "inject", "--sites", "6", "--instructions", "600",
            "--config", "degraded", "--blocks", "mapped-out",
            "--no-checkpoint",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "masking: PASS" in out
        assert "masked" in out

    def test_run_inject_dispatch(self, capsys):
        code = main([
            "run", "inject", "--faults", "4", "--no-checkpoint",
        ])
        assert code == 0
        assert "injections: 4" in capsys.readouterr().out

    def test_inject_profile_command(self, capsys):
        code = main([
            "inject", "--profile", "--instructions", "600",
            "--config", "degraded",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "site profile:" in out and "hottest" in out

    def test_inject_fork_and_summary_flags(self, capsys):
        code = main([
            "inject", "--sites", "4", "--instructions", "600",
            "--no-fork", "--summary-only", "--sampling", "weighted",
            "--no-checkpoint",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "injections: 4" in out

    def test_verilog_command(self, capsys, tmp_path):
        out_file = tmp_path / "core.v"
        assert main(["verilog", "--tiny", "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert "module rescue_core (" in text
        assert "scan_out" in text
