"""Tests for the command-line interface."""

import dataclasses
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import repro
from repro.cli import RUN_CAMPAIGNS, _inject_spec, _spec, build_parser, main
from repro.runner.registry import REGISTRY
from repro.telemetry import TELEMETRY

#: Flags every campaign needs besides its defaults (fields without one).
REQUIRED = {"ipc": ["--benchmarks", "gzip"]}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_isolate_defaults(self):
        args = build_parser().parse_args(["isolate", "--tiny"])
        assert _spec(args) == REGISTRY["isolation"].make_spec({})

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
            args = parser.parse_args(["run", name] + REQUIRED.get(name, []))
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
        assert args.n_faults == 64
        assert args.model == "both"
        assert args.config == "full"
        assert args.preset_blocks == "all"
        assert args.checkpoint_interval == 128
        assert args.keep_records
        assert args.sampling == "uniform"
        assert not args.profile
        # The presets reproduce the spec defaults.
        assert _inject_spec(args) == REGISTRY["inject"].make_spec({})
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
        assert main(["yat", "--growth", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "18n" in out and "Rescue" in out

    def test_ipc_command_small(self, capsys):
        code = main([
            "ipc", "gzip", "--instructions", "1500", "--warmup", "500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "average" in out

    def test_closed_reader_stops_without_traceback(self):
        # `repro ipc | head -n 1`: the reader takes the header line and
        # exits while the first benchmark is still simulating.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "ipc", "gzip", "swim",
             "--instructions", "2000", "--warmup", "500"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"benchmark")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert err == b""

    @pytest.mark.slow  # full scan+ATPG flow (PODEM-bound), ~15 s
    def test_isolate_command_tiny(self, capsys):
        code = main([
            "isolate", "--n-faults", "40", "--atpg-seed", "2",
            "--fault-seed", "2", "--no-checkpoint",
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
            "inject", "--n-faults", "6", "--n-instructions", "600",
            "--config", "degraded", "--blocks", "mapped-out",
            "--no-checkpoint",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "masking: PASS" in out
        assert "masked" in out

    def test_run_inject_dispatch(self, capsys):
        code = main([
            "run", "inject", "--n-faults", "4", "--no-checkpoint",
        ])
        assert code == 0
        assert "injections: 4" in capsys.readouterr().out

    def test_inject_profile_command(self, capsys):
        code = main([
            "inject", "--profile", "--n-instructions", "600",
            "--config", "degraded",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "site profile:" in out and "hottest" in out

    def test_inject_summary_flags(self, capsys):
        code = main([
            "inject", "--n-faults", "4", "--n-instructions", "600",
            "--no-keep-records", "--sampling", "weighted",
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


def _set_field(f, hint, default):
    """argv that sets spec field ``f`` away from ``default``, and the value."""
    flag = "--" + f.name.replace("_", "-")
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        hint = typing.get_args(hint)[0]
    if hint is bool:
        return [flag if not default else "--no-" + flag[2:]], not default
    if "choices" in f.metadata:
        value = next(c for c in f.metadata["choices"] if c != default)
        return [flag, value], value
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        value = (3, 1) if item is int else ("x", "y")
        return [flag, *map(str, value)], value
    value = hint((default or 0) + 3) if hint in (int, float) else "other"
    return [flag, str(value)], value


class TestGeneratedFlags:
    """The spec dataclasses are the only declaration of campaign flags."""

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_no_flags_build_the_service_spec(self, name):
        argv = ["run", name] + REQUIRED.get(name, [])
        spec = _spec(build_parser().parse_args(argv))
        params = {"benchmarks": ["gzip"]} if name in REQUIRED else {}
        entry = REGISTRY[name]
        assert spec == entry.make_spec(params)
        assert entry.job_key(spec) == entry.job_key(entry.make_spec(params))

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_every_field_flag_sets_its_field(self, name):
        spec_cls = REGISTRY[name].spec_cls
        hints = typing.get_type_hints(spec_cls)
        parser = build_parser()
        base = ["run", name] + REQUIRED.get(name, [])
        default = _spec(parser.parse_args(base))
        for f in dataclasses.fields(spec_cls):
            before = getattr(default, f.name)
            argv, want = _set_field(f, hints[f.name], before)
            spec = _spec(parser.parse_args(base + argv))
            assert getattr(spec, f.name) == want != before, (name, f.name)

    @pytest.mark.parametrize("name", ["inject", "decide", "repair"])
    def test_command_and_run_share_job_key(self, name):
        parser = build_parser()
        entry = REGISTRY[name]
        args = parser.parse_args([name])
        direct = _inject_spec(args) if name == "inject" else _spec(args)
        run = _spec(parser.parse_args(["run", name]))
        assert entry.job_key(direct) == entry.job_key(run)

    @pytest.mark.parametrize("argv", [
        ["inject", "--no-fork"],
        ["inject", "--no-group"],
        ["inject", "--sites", "8"],
        ["inject", "--summary-only"],
        ["run", "isolation", "--faults", "8"],
        ["run", "montecarlo", "--chips", "8"],
        ["run", "ipc", "--benchmarks", "gzip", "--full"],
        ["run", "ipc"],  # benchmarks has no default: required
        # Nothing to resume from without a checkpoint store.
        ["run", "montecarlo", "--resume", "--no-checkpoint"],
    ])
    def test_retired_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(argv)
        assert exit_.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["inject", "--model", "bogus"],
        ["run", "inject", "--sampling", "bogus"],
        ["run", "decide", "--inject-model", "bogus"],
        ["repair", "--model", "bogus"],
        ["run", "inject", "--chunk-size", "0"],
        ["decide", "--inject-chunk", "0"],
        ["repair", "--n-patterns", "0"],
    ])
    def test_bad_value_exits_2_before_simulating(self, argv, capsys):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with TELEMETRY.collect() as metrics:
                with pytest.raises(SystemExit) as exit_:
                    main(argv + ["--no-checkpoint"])
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert exit_.value.code == 2
        assert "inject.golden_sim_cycles" not in metrics.counters
        assert "error:" in capsys.readouterr().err
