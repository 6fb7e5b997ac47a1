"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure4" in out and "table7" in out


class TestRun:
    def test_run_single(self, capsys):
        assert main(["run", "table5"]) == 0
        out = capsys.readouterr().out
        assert "685" in out and "6531" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "table5", "table6"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out and "table6" in out

    def test_run_analytical_expands(self, capsys):
        assert main(["run", "analytical"]) == 0
        out = capsys.readouterr().out
        for eid in ("figure4", "figure10", "table7"):
            assert eid in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "figure99"]) == 1
        assert "failed" in capsys.readouterr().err

    def test_failure_does_not_stop_others(self, capsys):
        assert main(["run", "figure99", "table5"]) == 1
        captured = capsys.readouterr()
        assert "685" in captured.out


class TestTrace:
    QUERY = 'select Student where hobbies contains "Chess"'

    def test_prints_span_tree(self, capsys):
        assert main(["trace", self.QUERY]) == 0
        out = capsys.readouterr().out
        assert "query.execute" in out
        assert "plan  :" in out and "pages :" in out

    def test_json_payload(self, capsys):
        assert main(["trace", "--json", self.QUERY]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["name"] == "query.execute"
        assert payload["rows"] == payload["trace"]["attributes"]["results"]
        assert "storage.pool.hits" in payload["metrics"]["counters"]

    def test_bad_query_fails(self, capsys):
        assert main(["trace", "select Nope where a contains 1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_ids(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_serve_accepts_shard_of(self):
        args = build_parser().parse_args(["serve", "--shard-of", "1/3"])
        assert args.shard_of == "1/3"

    def test_route_parses_policy_flags(self):
        args = build_parser().parse_args(
            [
                "route",
                "a:7731;b:7731",
                "--partial-results",
                "degraded",
                "--deadline-ms",
                "500",
            ]
        )
        assert args.shards == "a:7731;b:7731"
        assert args.partial_results == "degraded"
        assert args.deadline_ms == 500.0


class TestServeValidation:
    def test_bad_shard_of_rejected(self, capsys):
        assert main(["serve", "--shard-of", "3/3"]) == 2
        assert "--shard-of" in capsys.readouterr().err
