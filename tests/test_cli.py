"""Tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "CUBIC"])
        assert args.trace == "A-stationary"
        assert args.algorithm == "CUBIC"

    def test_frontier_grid_flags(self):
        args = build_parser().parse_args(
            ["frontier", "--low", "20", "--high", "60", "--step", "20"]
        )
        assert (args.low, args.high, args.step) == (20, 60, 20)

    def test_unknown_trace_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "CUBIC", "--trace", "nope"])

    def test_scheduler_flag_defaults(self):
        args = build_parser().parse_args(["frontier"])
        assert args.timeout is None
        assert args.retries == 0
        assert args.progress is True

    def test_scheduler_flags_parse(self):
        args = build_parser().parse_args(
            ["shootout", "--jobs", "4", "--timeout", "30",
             "--retries", "2", "--no-progress"]
        )
        assert args.jobs == 4
        assert args.timeout == 30.0
        assert args.retries == 2
        assert args.progress is False


#: The flag surface of every subcommand — (option strings, type or
#: action, default) — as the parser stood before the shared flag groups
#: became ``parents=`` parsers.  Sharing the declarations must not move
#: a name, a type or a default.
_PATH = {
    (("--trace",), "_StoreAction", "A-stationary"),
    (("--duration",), "float", 30.0),
    (("--warmup",), "float", 4.0),
}
_OBSERVERS = {
    (("--telemetry",), "_StoreAction", None),
    (("--sample",), "_StoreAction", None),
    (("--profile",), "_StoreTrueAction", False),
}
_AUDIT = {(("--audit",), "_StoreTrueAction", False)}
_SCHEDULER = {
    (("--jobs",), "int", 1),
    (("--timeout",), "float", None),
    (("--retries",), "int", 0),
    (("--no-progress",), "_StoreFalseAction", True),
}
CLI_SURFACE = {
    "": set(),
    "env": set(),
    "experiments": set(),
    "traces": set(),
    "run": _PATH | _OBSERVERS | _AUDIT | {
        (("algorithm",), "_StoreAction", None),
        (("--target",), "float", None),
    },
    "shootout": _PATH | _OBSERVERS | _AUDIT | _SCHEDULER,
    "frontier": _PATH | _OBSERVERS | _AUDIT | _SCHEDULER | {
        (("--low",), "int", 12),
        (("--high",), "int", 120),
        (("--step",), "int", 12),
    },
    "grid": _OBSERVERS | _AUDIT | _SCHEDULER | {
        (("--reduced",), "_StoreTrueAction", False),
        (("--out",), "_StoreAction", None),
    },
    "fluid": _OBSERVERS | {
        (("--flows",), "int", 1000),
        (("--towers",), "int", 8),
        (("--duration",), "float", 30.0),
        (("--warmup",), "float", 5.0),
        (("--mix",), "_StoreAction", "pr-vs-cubic"),
        (("--handovers",), "int", 0),
        (("--tower-trace",), "_AppendAction", None),
        (("--dt",), "float", 0.005),
        (("--seed",), "int", 0),
        (("--out",), "_StoreAction", None),
    },
    "env rollout": _PATH | _OBSERVERS | _AUDIT | {
        (("--algorithm",), "_StoreAction", "proprate"),
        (("--target",), "float", None),
        (("--policy",), "_StoreAction", "native"),
        (("--step-interval",), "float", 0.25),
    },
    "trace": {
        (("path",), "_StoreAction", None),
        (("--diff",), "_StoreAction", None),
        (("--plot",), "_StoreTrueAction", False),
        (("--plot-width",), "int", 100),
        (("--profile",), "_StoreTrueAction", False),
    },
    "watch": {
        (("path",), "_StoreAction", None),
        (("--connect",), "_StoreAction", None),
        (("--interval",), "float", 1.0),
        (("--once",), "_StoreTrueAction", False),
        (("--frames",), "int", None),
        (("--width",), "int", 100),
        (("--height",), "int", 6),
        (("--no-clear",), "_StoreFalseAction", True),
    },
}


def _surface(parser, prefix=()):
    found, rows = {}, set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_surface(sub, prefix + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            kind = (type(action).__name__ if action.type is None
                    else action.type.__name__)
            rows.add((tuple(action.option_strings) or (action.dest,),
                      kind, action.default))
    found[" ".join(prefix)] = rows
    return found


class TestSurfacePinned:
    def test_every_flag_keeps_name_type_and_default(self):
        assert _surface(build_parser()) == CLI_SURFACE


#: One quick invocation per command that takes the observer flags.
OBSERVED_COMMANDS = [
    ["run", "CUBIC"],
    ["shootout"],
    ["frontier"],
    ["grid", "--reduced"],
    ["fluid", "--flows", "4", "--towers", "1"],
    ["env", "rollout"],
]


class TestObserverValidation:
    """--sample/--profile with no tracer: one usage error, every door."""

    @pytest.mark.parametrize("flag", [["--sample", "queue.sample:every=10"],
                                      ["--profile"]], ids=["sample", "profile"])
    @pytest.mark.parametrize("command", OBSERVED_COMMANDS,
                             ids=lambda c: " ".join(c[:2]))
    def test_exits_2_with_usage_and_no_traceback(
            self, command, flag, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        with pytest.raises(SystemExit) as exc_info:
            main(command + flag)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        (message,) = [ln for ln in err.splitlines() if "error:" in ln]
        assert "--telemetry" in message and "REPRO_TELEMETRY" in message

    def test_env_telemetry_satisfies_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "env"))
        main(["run", "CUBIC", "--duration", "2", "--warmup", "0.5",
              "--sample", "queue.sample:every=10"])
        assert "KB/s" in capsys.readouterr().out
        assert [p for p in tmp_path.iterdir() if p.name.startswith("env.")]


class TestCommands:
    def test_traces_command(self, capsys):
        main(["traces"])
        out = capsys.readouterr().out
        assert "ISP A-stationary" in out
        assert "Sprint-like" in out

    def test_experiments_command(self, capsys):
        main(["experiments"])
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Figure 10" in out

    def test_run_command_quick(self, capsys):
        main(["run", "PropRate", "--target", "40",
              "--duration", "4", "--warmup", "1"])
        out = capsys.readouterr().out
        assert "KB/s" in out
        assert "PropRate" in out

    def test_run_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["run", "NotAnAlgorithm", "--duration", "2"])

    def test_frontier_command_quick(self, capsys):
        main(["frontier", "--low", "40", "--high", "40", "--step", "10",
              "--duration", "4", "--warmup", "1"])
        out = capsys.readouterr().out
        assert "target ms" in out

    def test_frontier_progress_line(self, capsys):
        main(["frontier", "--low", "20", "--high", "40", "--step", "20",
              "--duration", "3", "--warmup", "1", "--jobs", "2",
              "--retries", "1"])
        captured = capsys.readouterr()
        assert "target ms" in captured.out
        assert "[2/2]" in captured.err  # live done/total + ETA line
        assert "eta" in captured.err

    def test_frontier_no_progress(self, capsys):
        main(["frontier", "--low", "40", "--high", "40", "--step", "10",
              "--duration", "3", "--warmup", "1", "--no-progress"])
        assert capsys.readouterr().err == ""


class TestProgressStream:
    def test_progress_defaults_to_stderr(self, capsys):
        # Regression: the live progress line must never pollute stdout,
        # which carries the machine-readable result tables.
        from types import SimpleNamespace

        from repro.__main__ import _progress_printer

        callback = _progress_printer(total=1)
        callback(SimpleNamespace(ok=True, index=0))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[1/1]" in captured.err


class TestTraceSubcommand:
    def test_trace_flags_parse(self):
        args = build_parser().parse_args(["trace", "x.jsonl", "--diff", "y"])
        assert args.path == "x.jsonl"
        assert args.diff == "y"

    def test_telemetry_flag_default_off(self):
        args = build_parser().parse_args(["run", "CUBIC"])
        assert args.telemetry is None

    @pytest.mark.parametrize("views", [["--plot", "--profile"],
                                       ["--diff", "y", "--plot"],
                                       ["--profile", "--diff", "y"]])
    def test_trace_views_are_exclusive(self, views, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["trace", "x.jsonl"] + views)
        assert exc_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_trace_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            main(["trace", "/nonexistent/trace.jsonl"])
