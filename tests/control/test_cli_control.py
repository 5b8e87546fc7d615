"""Tests for the ``repro control`` CLI subcommand."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_control_defaults(self):
        args = build_parser().parse_args(["control"])
        assert args.command == "control"
        assert args.dataset == "DRIFT"
        assert args.algorithm == "SAP"
        assert args.objects == 12_000
        assert args.policy is None
        assert args.json is False

    def test_control_flags(self):
        args = build_parser().parse_args(
            ["control", "--policy", "p.json", "--latency-budget", "0.01", "--json"]
        )
        assert args.policy == "p.json"
        assert args.latency_budget == pytest.approx(0.01)
        assert args.json is True


class TestCommand:
    def test_control_prints_adaptation_log(self, capsys):
        exit_code = main(
            ["control", "--objects", "8000", "--n", "1000", "--k", "10", "--s", "50"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "adaptation:" in out
        assert "swap-partitioner" in out
        assert "score-drift" in out

    def test_control_json_dump(self, capsys):
        exit_code = main(
            ["control", "--objects", "6000", "--n", "500", "--k", "5", "--s", "25",
             "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dataset"] == "DRIFT"
        assert "p99_latency" in payload["stats"]
        assert isinstance(payload["events"], list)
        for event in payload["events"]:
            assert {"slide_index", "subscription", "tactic", "trigger"} <= set(event)

    def test_control_with_policy_file(self, capsys, tmp_path):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(
            json.dumps(
                {
                    "analyzers": {"drift": {"alpha": 0.01, "window": 16}},
                    "rules": [
                        {"when": "score-drift", "tactic": "swap-partitioner",
                         "to": "equal"}
                    ],
                }
            )
        )
        exit_code = main(
            ["control", "--objects", "6000", "--policy", str(policy_path), "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"]["rules"][0]["when"] == "score-drift"

    def test_control_on_stationary_stream_applies_nothing(self, capsys):
        exit_code = main(
            ["control", "--dataset", "TIMEU", "--objects", "4000", "--n", "500",
             "--k", "5", "--s", "25"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "0 applied" in out
