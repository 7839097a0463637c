"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.core import sharding
from repro.data.io import write_categorical_csv, write_transactions
from repro.datasets.market_basket import generate_market_baskets
from repro.datasets.votes import generate_votes_like


@pytest.fixture
def votes_csv(tmp_path):
    votes = generate_votes_like(n_republicans=40, n_democrats=60, rng=7)
    path = tmp_path / "votes.csv"
    write_categorical_csv(votes, path)
    return path


@pytest.fixture
def basket_file(tmp_path):
    baskets = generate_market_baskets(rng=0, n_transactions=80, n_clusters=2)
    path = tmp_path / "baskets.txt"
    write_transactions(baskets, path, label_prefix="class=")
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_requires_clusters(self, votes_csv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", str(votes_csv)])

    def test_parses_full_cluster_invocation(self, votes_csv):
        arguments = build_parser().parse_args(
            ["cluster", str(votes_csv), "--clusters", "2", "--theta", "0.65",
             "--label-column", "0", "--min-cluster-size", "3"]
        )
        assert arguments.clusters == 2
        assert arguments.theta == 0.65


class TestClusterCommand:
    def test_cluster_labeled_csv(self, votes_csv, capsys, tmp_path):
        output = tmp_path / "labels.txt"
        code = main([
            "cluster", str(votes_csv), "--clusters", "2", "--theta", "0.65",
            "--label-column", "0", "--min-cluster-size", "3",
            "--output", str(output),
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "clusters" in captured
        assert "clustering error" in captured
        assert output.is_file()
        labels = output.read_text().split()
        assert len(labels) == 100

    def test_cluster_unlabeled_csv(self, tmp_path, capsys):
        votes = generate_votes_like(n_republicans=20, n_democrats=20, rng=1)
        path = tmp_path / "unlabeled.csv"
        write_categorical_csv(votes, path, include_labels=False)
        code = main(["cluster", str(path), "--clusters", "2", "--theta", "0.6"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "Cluster sizes" in captured

    def test_cluster_transactions_file(self, basket_file, capsys):
        code = main([
            "cluster", str(basket_file), "--format", "transactions",
            "--label-prefix", "class=", "--clusters", "2", "--theta", "0.2",
            "--min-cluster-size", "3",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "Cluster composition" in captured

    def test_missing_file_returns_error_code(self, tmp_path, capsys):
        code = main(["cluster", str(tmp_path / "absent.csv"), "--clusters", "2"])
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_datasets_lists_registrations(self, capsys):
        assert main(["datasets"]) == 0
        captured = capsys.readouterr().out
        assert "votes" in captured
        assert "E2-E3" in captured

    def test_experiment_runs_basket_example(self, capsys):
        assert main(["experiment", "E1"]) == 0
        captured = capsys.readouterr().out
        assert "[E1]" in captured
        assert "rock_error" in captured

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "E99"]) == 3
        assert "unknown experiment" in capsys.readouterr().err

    def test_sweep_command(self, votes_csv, capsys):
        code = main([
            "sweep", str(votes_csv), "--clusters", "2", "--label-column", "0",
            "--thetas", "0.6", "0.7",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "theta sweep" in captured
        assert "recommended theta" in captured


class TestRetiredStrategyFlags:
    """Both subcommands run the library defaults: no strategy flags."""

    @pytest.mark.parametrize(
        "flag, value",
        [("--engine", "reference"), ("--neighbor-strategy", "blocked"),
         ("--neighbor-block-size", "16")],
    )
    @pytest.mark.parametrize("command", ["cluster", "serve"])
    def test_rejected_by_parser(self, basket_file, capsys, command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [command, str(basket_file), "--clusters", "2",
                 "--sample-size", "40", flag, value]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


class TestStreamingCli:
    def test_stream_matches_in_memory_labels(self, tmp_path, capsys):
        # The file carries class labels: --stream must strip them exactly
        # like the in-memory reader does, or the item sets (and labels)
        # silently diverge.
        baskets = generate_market_baskets(rng=3, n_transactions=120, n_clusters=3)
        path = tmp_path / "big.txt"
        write_transactions(baskets, path, label_prefix="class=")
        plain_out = tmp_path / "plain.txt"
        stream_out = tmp_path / "stream.txt"
        base = [
            "cluster", str(path), "--format", "transactions",
            "--label-prefix", "class=",
            "--clusters", "3", "--theta", "0.3", "--sample-size", "60",
            "--seed", "5",
        ]
        assert main(base + ["--output", str(plain_out)]) == 0
        assert main(base + ["--stream", "--batch-size", "32",
                            "--output", str(stream_out)]) == 0
        captured = capsys.readouterr().out
        assert "streaming" in captured
        # Ground-truth evaluation must not silently vanish in streaming mode.
        assert captured.count("Cluster composition") == 2
        assert captured.count("clustering error") == 2
        assert plain_out.read_text() == stream_out.read_text()

    def test_stream_requires_transactions_format(self, votes_csv, capsys):
        code = main([
            "cluster", str(votes_csv), "--clusters", "2", "--stream",
        ])
        assert code == 3
        assert "require --format transactions" in capsys.readouterr().err

    def test_stream_flags_parsed(self, tmp_path):
        arguments = build_parser().parse_args(
            ["cluster", "x.txt", "--format", "transactions", "--clusters", "2",
             "--stream", "--batch-size", "256"]
        )
        assert arguments.stream is True
        assert arguments.batch_size == 256

    def test_stream_requires_sample_size(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        path.write_text("a b\nc d\n")
        code = main([
            "cluster", str(path), "--format", "transactions",
            "--clusters", "2", "--stream",
        ])
        assert code == 3
        assert "require --sample-size" in capsys.readouterr().err


class TestOnlineCli:
    def _basket_path(self, tmp_path, n=160):
        baskets = generate_market_baskets(rng=3, n_transactions=n, n_clusters=3)
        path = tmp_path / "online.txt"
        write_transactions(baskets, path, label_prefix="class=")
        return path

    def _base(self, path):
        return [
            "cluster", str(path), "--format", "transactions",
            "--label-prefix", "class=", "--clusters", "3", "--theta", "0.3",
            "--sample-size", "60", "--seed", "5",
        ]

    def test_online_flags_parsed_with_defaults(self):
        arguments = build_parser().parse_args(
            ["cluster", "x.txt", "--format", "transactions", "--clusters", "2"]
        )
        assert arguments.online is False
        assert arguments.refresh_threshold is None

    def test_online_cli_matches_stream_cli(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        online_out = tmp_path / "online_labels.txt"
        stream_out = tmp_path / "stream_labels.txt"
        assert main(self._base(path) + ["--online", "--batch-size", "32",
                                        "--output", str(online_out)]) == 0
        assert main(self._base(path) + ["--stream", "--batch-size", "32",
                                        "--output", str(stream_out)]) == 0
        captured = capsys.readouterr().out
        assert "online" in captured
        assert online_out.read_text() == stream_out.read_text()

    def test_online_with_refresh_threshold_runs(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        code = main(self._base(path) + ["--online", "--batch-size", "16",
                                        "--refresh-threshold", "0.25"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "refreshes" in captured

    # ---- conflicting mode flags ---------------------------------------- #
    def test_online_conflicts_with_stream(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        code = main(self._base(path) + ["--online", "--stream"])
        assert code == 3
        assert "--online conflicts with --stream/--shards" in capsys.readouterr().err

    def test_online_conflicts_with_shards(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        code = main(self._base(path) + ["--online", "--shards", "2"])
        assert code == 3
        assert "--online conflicts with --stream/--shards" in capsys.readouterr().err

    def test_all_three_modes_at_once_rejected(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        code = main(
            self._base(path) + ["--online", "--stream", "--shards", "2"]
        )
        assert code == 3
        assert "pick exactly one" in capsys.readouterr().err

    def test_stream_plus_multi_shards_still_allowed(self, tmp_path, capsys):
        # --stream with --shards N is the historical spelling of the
        # sharded mode (shards imply streaming); it must keep working.
        path = self._basket_path(tmp_path)
        code = main(self._base(path) + ["--stream", "--shards", "2"])
        assert code == 0
        assert "sharded x2" in capsys.readouterr().out

    # ---- invalid --refresh-threshold ----------------------------------- #
    def test_refresh_threshold_without_online_rejected(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        code = main(self._base(path) + ["--refresh-threshold", "0.5"])
        assert code == 3
        assert "--refresh-threshold requires --online" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan"])
    def test_non_positive_refresh_threshold_rejected(self, tmp_path, capsys, value):
        path = self._basket_path(tmp_path)
        code = main(
            self._base(path) + ["--online", "--refresh-threshold", value]
        )
        assert code == 3
        assert "refresh_threshold must be a positive fraction" in (
            capsys.readouterr().err
        )

    # ---- other online error paths -------------------------------------- #
    def test_online_requires_transactions_format(self, tmp_path, capsys):
        votes = generate_votes_like(n_republicans=20, n_democrats=20, rng=1)
        path = tmp_path / "votes.csv"
        from repro.data.io import write_categorical_csv

        write_categorical_csv(votes, path)
        code = main([
            "cluster", str(path), "--clusters", "2", "--online",
            "--sample-size", "20",
        ])
        assert code == 3
        assert "require --format transactions" in capsys.readouterr().err

    def test_online_requires_sample_size(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        path.write_text("a b\nc d\n")
        code = main([
            "cluster", str(path), "--format", "transactions",
            "--clusters", "2", "--online",
        ])
        assert code == 3
        assert "require --sample-size" in capsys.readouterr().err


class TestShardedCli:
    def _basket_path(self, tmp_path, n=240):
        baskets = generate_market_baskets(rng=3, n_transactions=n, n_clusters=3)
        path = tmp_path / "sharded.txt"
        write_transactions(baskets, path, label_prefix="class=")
        return path

    def test_shard_flags_parsed_with_defaults(self):
        arguments = build_parser().parse_args(
            ["cluster", "x.txt", "--format", "transactions", "--clusters", "2"]
        )
        assert arguments.shards == 1
        assert arguments.shard_workers is None
        assert arguments.shard_strategy == "round-robin"
        assert arguments.shard_executor is None
        assert arguments.shard_retries == 1
        assert arguments.merge_fan_in is None

    # "auto" is no shard executor either: the choices are the two pools.
    @pytest.mark.parametrize("executor", ["fiber", "auto"])
    def test_unknown_shard_executor_rejected(self, capsys, executor):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["cluster", "x.txt", "--format", "transactions",
                 "--clusters", "2", "--shards", "2",
                 "--shard-executor", executor]
            )
        assert excinfo.value.code == 2
        assert "invalid choice: %r" % executor in capsys.readouterr().err

    def test_unknown_shard_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "x.txt", "--format", "transactions",
                 "--clusters", "2", "--shards", "2", "--shard-strategy", "warp"]
            )

    def test_sharded_cluster_writes_labels(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        output = tmp_path / "labels.txt"
        code = main([
            "cluster", str(path), "--format", "transactions",
            "--label-prefix", "class=", "--clusters", "3", "--theta", "0.3",
            "--sample-size", "90", "--seed", "5",
            "--shards", "2", "--shard-workers", "2",
            "--output", str(output),
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "sharded x2" in captured
        assert "Cluster composition" in captured
        assert len(output.read_text().split()) == 240

    def test_mode_line_names_the_executor(self, tmp_path, capsys):
        # The line names the executor that ran: without --shard-executor it
        # is threads for one worker, and processes for two where they fork.
        path = self._basket_path(tmp_path)
        base = [
            "cluster", str(path), "--format", "transactions",
            "--label-prefix", "class=", "--clusters", "3", "--theta", "0.3",
            "--sample-size", "90", "--seed", "5", "--shards", "2",
        ]
        assert main(base) == 0
        assert "sharded x2, thread" in capsys.readouterr().out
        parallel = "process" if sharding._start_method() == "fork" else "thread"
        assert main(base + ["--shard-workers", "2"]) == 0
        assert "sharded x2, %s" % parallel in capsys.readouterr().out

    def test_process_executor_cli_matches_thread(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        thread_out = tmp_path / "thread.txt"
        process_out = tmp_path / "process.txt"
        base = [
            "cluster", str(path), "--format", "transactions",
            "--label-prefix", "class=", "--clusters", "3", "--theta", "0.3",
            "--sample-size", "90", "--seed", "5", "--shards", "2",
            "--shard-workers", "2",
        ]
        assert main(base + ["--shard-executor", "thread",
                            "--output", str(thread_out)]) == 0
        assert main(base + ["--shard-executor", "process",
                            "--output", str(process_out)]) == 0
        assert "sharded x2, process" in capsys.readouterr().out
        assert thread_out.read_text() == process_out.read_text()

    def test_degraded_run_warning_reaches_the_summary(self, tmp_path, capsys):
        # Regression: a shard skipped after exhausted retries used to be
        # visible only as a Python warning; the CLI summary must say so.
        from repro.persistence import failpoints

        path = self._basket_path(tmp_path)
        failpoints.reset()
        try:
            with failpoints.failpoint("shard.worker.1", times=2):
                with pytest.warns(RuntimeWarning):
                    code = main([
                        "cluster", str(path), "--format", "transactions",
                        "--label-prefix", "class=", "--clusters", "3",
                        "--theta", "0.3", "--sample-size", "90", "--seed", "5",
                        "--shards", "2",
                    ])
        finally:
            failpoints.reset()
        captured = capsys.readouterr().out
        assert code == 0
        assert "WARNING: degraded run - 1 shard(s) skipped" in captured
        assert ": 1" in captured

    def test_shard_retries_flag_absorbs_repeated_faults(self, tmp_path, capsys):
        from repro.persistence import failpoints

        path = self._basket_path(tmp_path)
        clean_out = tmp_path / "clean.txt"
        retried_out = tmp_path / "retried.txt"
        base = [
            "cluster", str(path), "--format", "transactions",
            "--label-prefix", "class=", "--clusters", "3", "--theta", "0.3",
            "--sample-size", "90", "--seed", "5", "--shards", "2",
        ]
        assert main(base + ["--output", str(clean_out)]) == 0
        failpoints.reset()
        try:
            with failpoints.failpoint("shard.worker.1", times=2):
                code = main(base + ["--shard-retries", "2",
                                    "--output", str(retried_out)])
        finally:
            failpoints.reset()
        captured = capsys.readouterr().out
        assert code == 0
        assert "degraded run" not in captured
        assert clean_out.read_text() == retried_out.read_text()

    def test_merge_fan_in_flag_forwarded(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        flat_out = tmp_path / "flat.txt"
        fanned_out = tmp_path / "fanned.txt"
        base = [
            "cluster", str(path), "--format", "transactions",
            "--label-prefix", "class=", "--clusters", "3", "--theta", "0.3",
            "--sample-size", "90", "--seed", "5", "--shards", "2",
        ]
        assert main(base + ["--output", str(flat_out)]) == 0
        assert main(base + ["--merge-fan-in", "2",
                            "--output", str(fanned_out)]) == 0
        capsys.readouterr()
        # Two shards at fan-in two is a single merge level: bit-identical
        # to the flat merge by contract.
        assert flat_out.read_text() == fanned_out.read_text()

    def test_one_shard_cli_matches_stream_cli(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        stream_out = tmp_path / "stream.txt"
        shard_out = tmp_path / "shard.txt"
        base = [
            "cluster", str(path), "--format", "transactions",
            "--label-prefix", "class=", "--clusters", "3", "--theta", "0.3",
            "--sample-size", "90", "--seed", "5",
        ]
        assert main(base + ["--stream", "--output", str(stream_out)]) == 0
        assert main(base + ["--shards", "1", "--stream",
                            "--output", str(shard_out)]) == 0
        capsys.readouterr()
        assert stream_out.read_text() == shard_out.read_text()

    def test_zero_shards_rejected_not_silently_in_memory(self, tmp_path, capsys):
        path = self._basket_path(tmp_path, n=40)
        code = main([
            "cluster", str(path), "--format", "transactions",
            "--clusters", "2", "--shards", "0",
        ])
        assert code == 3
        assert "--shards must be at least 1" in capsys.readouterr().err

    def test_sharded_requires_sample_size(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        path.write_text("a b\nc d\n")
        code = main([
            "cluster", str(path), "--format", "transactions",
            "--clusters", "2", "--shards", "2",
        ])
        assert code == 3
        assert "require --sample-size" in capsys.readouterr().err


class TestExitCodes:
    """Library errors exit 3, argparse usage errors keep exit 2."""

    def test_repro_error_exits_3(self, tmp_path, capsys):
        code = main(["cluster", str(tmp_path / "absent.csv"), "--clusters", "2"])
        assert code == 3
        message = capsys.readouterr().err
        assert message.startswith("error:")
        assert message.count("\n") == 1  # one-line message, no traceback

    def test_argparse_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "x.txt"])  # missing required --clusters
        assert excinfo.value.code == 2


class TestSnapshotCli:
    def _basket_path(self, tmp_path, n=160):
        baskets = generate_market_baskets(rng=3, n_transactions=n, n_clusters=3)
        path = tmp_path / "online.txt"
        write_transactions(baskets, path, label_prefix="class=")
        return path

    def _base(self, path):
        return [
            "cluster", str(path), "--format", "transactions",
            "--label-prefix", "class=", "--clusters", "3", "--theta", "0.3",
            "--sample-size", "60", "--seed", "5", "--online",
            "--batch-size", "32",
        ]

    def test_snapshot_flags_parsed_with_defaults(self):
        arguments = build_parser().parse_args(
            ["cluster", "x.txt", "--format", "transactions", "--clusters", "2"]
        )
        assert arguments.snapshot_dir is None
        assert arguments.snapshot_every is None
        assert arguments.resume is False

    @pytest.mark.parametrize("flags", [
        ["--snapshot-dir", "snaps"],
        ["--snapshot-every", "2"],
        ["--resume"],
    ])
    def test_snapshot_flags_require_online(self, tmp_path, capsys, flags):
        path = self._basket_path(tmp_path, n=40)
        base = [
            "cluster", str(path), "--format", "transactions",
            "--clusters", "2", "--sample-size", "20",
        ]
        code = main(base + flags)
        assert code == 3
        assert "require --online" in capsys.readouterr().err

    def test_snapshot_run_matches_plain_online_run(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        plain_out = tmp_path / "plain.txt"
        snap_out = tmp_path / "snap.txt"
        assert main(self._base(path) + ["--output", str(plain_out)]) == 0
        assert main(self._base(path) + [
            "--snapshot-dir", str(tmp_path / "snaps"), "--snapshot-every", "1",
            "--output", str(snap_out),
        ]) == 0
        capsys.readouterr()
        assert plain_out.read_text() == snap_out.read_text()
        assert (tmp_path / "snaps" / "CURRENT").is_file()

    def test_resume_of_finished_run_reproduces_labels(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        first_out = tmp_path / "first.txt"
        resumed_out = tmp_path / "resumed.txt"
        snaps = str(tmp_path / "snaps")
        assert main(self._base(path) + [
            "--snapshot-dir", snaps, "--output", str(first_out),
        ]) == 0
        assert main(self._base(path) + [
            "--snapshot-dir", snaps, "--resume", "--output", str(resumed_out),
        ]) == 0
        capsys.readouterr()
        assert first_out.read_text() == resumed_out.read_text()

    def test_resume_without_checkpoint_falls_back_to_fresh_run(
        self, tmp_path, capsys
    ):
        path = self._basket_path(tmp_path)
        code = main(self._base(path) + [
            "--snapshot-dir", str(tmp_path / "empty"), "--resume",
        ])
        assert code == 0
        assert "online" in capsys.readouterr().out

    def test_resume_with_mismatched_theta_exits_3(self, tmp_path, capsys):
        path = self._basket_path(tmp_path)
        snaps = str(tmp_path / "snaps")
        assert main(self._base(path) + ["--snapshot-dir", snaps]) == 0
        capsys.readouterr()
        mismatched = [
            argument if argument != "0.3" else "0.4"
            for argument in self._base(path)
        ]
        code = main(mismatched + ["--snapshot-dir", snaps, "--resume"])
        assert code == 3
        assert "different session configuration" in capsys.readouterr().err


class TestServeCli:
    """Flag surface of the ``serve`` subcommand.

    The end-to-end socket round trip (spawn, drive, --resume) lives in
    ``tests/test_serve.py::TestServeCliEndToEnd``; these tests cover the
    parser and validation paths, which never bind a socket.
    """

    def _base(self, path):
        return [
            "serve", str(path), "--clusters", "2", "--theta", "0.3",
            "--sample-size", "40", "--label-prefix", "class=",
        ]

    def test_flags_parsed_with_defaults(self, basket_file):
        arguments = build_parser().parse_args(self._base(basket_file))
        assert arguments.clusters == 2
        assert arguments.host == "127.0.0.1"
        assert arguments.port == 0
        assert arguments.batch_size == 1024
        assert arguments.snapshot_dir is None
        assert arguments.snapshot_every is None
        assert arguments.max_live_points is None
        assert arguments.resume is False
        assert arguments.refresh_threshold is None

    @pytest.mark.parametrize("port", ["-1", "65536"])
    def test_port_out_of_range_exits_3(self, basket_file, capsys, port):
        code = main(self._base(basket_file) + ["--port", port])
        assert code == 3
        assert "--port must lie in [0, 65535]" in capsys.readouterr().err

    def test_snapshot_every_requires_snapshot_dir(self, basket_file, capsys):
        code = main(self._base(basket_file) + ["--snapshot-every", "4"])
        assert code == 3
        assert "--snapshot-every requires --snapshot-dir" in capsys.readouterr().err

    def test_resume_requires_snapshot_dir(self, basket_file, capsys):
        code = main(self._base(basket_file) + ["--resume"])
        assert code == 3
        assert "--resume requires --snapshot-dir" in capsys.readouterr().err

    def test_max_live_points_must_be_positive(self, basket_file, capsys):
        code = main(self._base(basket_file) + ["--max-live-points", "0"])
        assert code == 3
        assert "--max-live-points must be at least 1" in capsys.readouterr().err

    def test_sample_size_required(self, basket_file, capsys):
        code = main(["serve", str(basket_file), "--clusters", "2"])
        assert code == 3
        assert "serve requires --sample-size" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--stream"], ["--shards", "2"], ["--online"]])
    def test_batch_mode_flags_rejected_by_parser(self, basket_file, flag):
        # serve IS the online mode; the batch-mode switches of `cluster`
        # do not exist on this subparser, so argparse exits 2.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(self._base(basket_file) + flag)
        assert excinfo.value.code == 2

    def test_help_names_the_serving_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in (
            "--host", "--port", "--snapshot-dir", "--snapshot-every",
            "--max-live-points", "--resume", "--refresh-threshold",
        ):
            assert flag in text
