"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheduler == "grefar"
        assert args.v == 7.5

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheduler", "magic"])

    def test_resilience_kinds_are_the_fault_kinds(self):
        from repro import cli
        from repro.faults.events import FAULT_KINDS

        assert cli._FAULT_KINDS == FAULT_KINDS
        assert build_parser().parse_args(["resilience", "--kind", "partition"]).kind == "partition"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resilience", "--kind", "meteor"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "grefar" in out
        assert "fig2" in out

    def test_run_grefar(self, capsys):
        code = main(["run", "--horizon", "30", "--v", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GreFar" in out
        assert "Avg energy" in out

    def test_run_each_scheduler(self, capsys):
        for name in ("always", "threshold", "random", "roundrobin", "trough"):
            assert main(["run", "--scheduler", name, "--horizon", "20"]) == 0
        out = capsys.readouterr().out
        assert "Always" in out

    def test_compare(self, capsys):
        assert main(["compare", "--horizon", "25"]) == 0
        out = capsys.readouterr().out
        assert "GreFar" in out and "Always" in out and "TroughFilling" in out

    def test_sweep_v(self, capsys):
        assert main(["sweep-v", "--values", "0.5,10", "--horizon", "25"]) == 0
        out = capsys.readouterr().out
        assert "0.5" in out and "10" in out

    def test_sweep_v_rejects_empty(self, capsys):
        assert main(["sweep-v", "--values", "", "--horizon", "10"]) == 2

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1", "--horizon", "50"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_experiment_theorem1(self, capsys):
        assert main(["experiment", "theorem1", "--horizon", "48"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out


class TestSupervisionCommands:
    def test_run_json_is_machine_comparable(self, capsys):
        import json

        assert main(["run", "--horizon", "20", "--json", "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"].startswith("GreFar")

    def test_chaos_drill(self, capsys):
        code = main(
            ["chaos", "--scenario", "small", "--horizon", "40",
             "--fail-rate", "0.3", "--v", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "OK:" in out

    def test_chaos_rejects_bad_fail_rate(self, capsys):
        assert main(["chaos", "--fail-rate", "2.0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_flags_rejected_when_invalid(self, capsys):
        assert main(["run", "--kill-at", "0", "--no-cache"]) == 2
        assert main(["run", "--checkpoint-every", "-5", "--no-cache"]) == 2
        assert main(["experiment", "table1", "--checkpoint-every", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_kill_and_resume_round_trip(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.chdir(tmp_path)
        base = ["run", "--horizon", "40", "--v", "5", "--json", "--no-cache"]
        assert main(base + ["--checkpoint-every", "10", "--kill-at", "20"]) == 3
        captured = capsys.readouterr()
        assert "resume" in captured.err
        assert list((tmp_path / ".repro_cache" / "checkpoints").glob("*.ckpt"))

        assert main(base + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert main(base) == 0
        fresh = json.loads(capsys.readouterr().out)
        assert resumed == fresh
