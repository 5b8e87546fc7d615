"""Unit tests for the command-line interface."""

import pytest

from repro.cli import CLI_ALGORITHMS, build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.algorithm == "SAP"
        assert args.dataset == "TIMEU"

    def test_compare_algorithm_list(self):
        args = build_parser().parse_args(
            ["compare", "--algorithms", "SAP", "MinTopK", "--k", "5"]
        )
        assert args.algorithms == ["SAP", "MinTopK"]
        assert args.k == 5

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_registered_algorithm_has_a_factory(self):
        from repro.core.query import TopKQuery
        from repro.registry import get_algorithm

        query = TopKQuery(n=50, k=3, s=5)
        for name, factory in CLI_ALGORITHMS.items():
            # Entries with required options ("clustered" needs vector=...)
            # build through their registry example options.
            algorithm = factory(query, **get_algorithm(name).example_options)
            assert algorithm.query is query, name


class TestCommands:
    def test_run_command_prints_summary(self, capsys):
        exit_code = main(
            ["run", "--dataset", "TIMEU", "--objects", "600", "--n", "100", "--k", "5",
             "--s", "20", "--algorithm", "SAP"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "top-5 over a count-based window of 100" in captured
        assert "final window top-5 scores" in captured

    def test_run_command_other_algorithm(self, capsys):
        exit_code = main(
            ["run", "--dataset", "STOCK", "--objects", "500", "--n", "100", "--k", "3",
             "--s", "25", "--algorithm", "MinTopK"]
        )
        assert exit_code == 0
        assert "MinTopK" in capsys.readouterr().out

    def test_compare_command_agreement(self, capsys):
        exit_code = main(
            ["compare", "--dataset", "TIMER", "--objects", "800", "--n", "150", "--k", "5",
             "--s", "30", "--algorithms", "SAP", "MinTopK", "k-skyband"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "agreement : True" in captured
        assert "MinTopK" in captured and "k-skyband" in captured

    def test_multi_command_reports_shared_plan(self, capsys):
        exit_code = main(
            ["multi", "--dataset", "STOCK", "--objects", "900", "--n", "150",
             "--s", "30", "--k", "3", "6", "9", "--algorithm", "SAP"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "SAP at k_max=9 shared by 3 queries" in captured
        assert "top-3" in captured and "top-9" in captured

    def test_multi_command_deduplicates_clamped_k(self, capsys):
        # Both --k values clamp to n=20: the subscriptions must still get
        # unique names instead of crashing on a duplicate.
        exit_code = main(
            ["multi", "--dataset", "TIMEU", "--objects", "200", "--n", "20",
             "--s", "10", "--k", "30", "40"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "top-20" in captured and "top-20#2" in captured

    def test_multi_parser_defaults(self):
        args = build_parser().parse_args(["multi"])
        assert args.command == "multi"
        assert args.k == [5, 10, 20, 50]
        assert args.algorithm == "SAP"
        assert not hasattr(args, "baseline")


class TestShardCommand:
    def test_shard_parser_defaults(self):
        args = build_parser().parse_args(["shard"])
        assert args.command == "shard"
        assert args.shards == 4
        assert args.queries == 8
        assert args.placement == "least-loaded"
        assert not hasattr(args, "baseline")

    def test_shard_command_runs_small_cluster(self, capsys):
        exit_code = main(
            ["shard", "--dataset", "STOCK", "--objects", "800", "--n", "100",
             "--s", "20", "--k", "3", "6", "--shards", "2", "--queries", "4"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "4 queries on 2 shards" in captured
        assert "shard 0" in captured and "shard 1" in captured
        assert "merged from" in captured

    def test_shard_command_least_loaded_placement(self, capsys):
        exit_code = main(
            ["shard", "--dataset", "TIMEU", "--objects", "400", "--n", "50",
             "--s", "10", "--k", "3", "--shards", "2", "--queries", "2",
             "--placement", "least-loaded"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "least-loaded placement" in captured

    def test_shard_command_resumes_a_durable_cluster(self, tmp_path, capsys):
        """A second run over the same durability directory recovers the
        cluster and continues its arrival clock past the journaled tail."""
        argv = ["shard", "--dataset", "TIMEU", "--objects", "200", "--n", "50",
                "--s", "10", "--k", "3", "--shards", "2", "--queries", "2",
                "--durability-dir", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out.count("2 queries on 2 shards") == 2


class TestServeCommand:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.engine == "local"
        assert args.shards == 2
        assert args.max_subscriptions == 1024
        assert args.client_queue == 256
        assert args.slow_client == "drop-oldest"
        assert args.dedupe_window == 65_536
        # The server pushes every admitted batch at once: no linger timer.
        assert not hasattr(args, "linger_ms")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--linger-ms", "50"])

    def test_serve_rejects_unknown_policy_and_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--slow-client", "drop-newest"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--engine", "distributed"])


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--version"])
        assert exit_info.value.code == 0
        printed = capsys.readouterr().out.strip()
        from repro.cli import package_version

        assert printed == f"repro {package_version()}"

    def test_package_version_matches_source_tree(self):
        # Installed or not, the reported version must agree with the
        # package's own __version__ (pyproject and source are kept equal).
        import repro
        from repro.cli import package_version

        assert package_version() == repro.__version__


class TestGeneratedDocstring:
    def test_docstring_lists_every_registered_command(self):
        import repro.cli as cli

        doc = cli.__doc__
        assert f"{len(cli.COMMANDS)} subcommands are provided" in doc
        for command in cli.COMMANDS:
            assert f"``{command.name}``" in doc

    def test_docstring_matches_parser_surface(self):
        import repro.cli as cli

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, __import__("argparse")._SubParsersAction)
        )
        assert sorted(subparsers.choices) == sorted(c.name for c in cli.COMMANDS)


class TestObservabilityCommands:
    def test_top_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.url.endswith("/v1/metrics.json")
        assert args.interval == 1.0
        assert args.iterations is None

    def test_top_command_renders_frames(self, capsys, monkeypatch):
        documents = iter(
            [
                {"ts": 1000.0, "metrics": []},
                {"ts": 1001.0, "metrics": []},
            ]
        )
        monkeypatch.setattr(
            "repro.obs.top.fetch_snapshot", lambda url, timeout=5.0: next(documents)
        )
        code = main(
            ["top", "--iterations", "2", "--interval", "0", "--no-color"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("repro top") == 2

    def test_top_command_fails_cleanly_when_unreachable(self, capsys):
        code = main(
            ["top", "--url", "http://127.0.0.1:9/metrics.json", "--iterations", "1"]
        )
        assert code == 1
        assert "cannot reach" in capsys.readouterr().out
