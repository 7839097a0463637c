"""Command-line interface.

Five subcommands mirror the library's main entry points::

    python -m repro cluster data.csv --clusters 2 --theta 0.73 --label-column 0
    python -m repro cluster baskets.txt --format transactions --clusters 4 --theta 0.3
    python -m repro serve baskets.txt --clusters 4 --sample-size 500 --port 8771
    python -m repro experiment E2-E3
    python -m repro sweep data.csv --clusters 2 --thetas 0.6 0.7 0.8
    python -m repro datasets

``cluster`` reads a UCI-style CSV (or a one-transaction-per-line file with
``--format transactions``), runs the ROCK pipeline and prints the cluster
composition table (plus, with ``--output``, a per-record label file).  With
``--stream`` (transactions format only) the file is labelled out-of-core
batch by batch (``--batch-size``), keeping peak memory bounded by the
sample plus one batch while producing the same labels as an in-memory run.
With ``--shards N`` (N > 1; implies the out-of-core mode) the clustering
phase itself is sharded: every shard clusters its own slice of the sample
(``--shard-workers`` at a time — threads by default, or spawn-based
processes with ``--shard-executor process``, the same per-shard task
either way; failed workers are retried ``--shard-retries`` times), the
per-shard cluster summaries are merged (flat, or hierarchically with
``--merge-fan-in``), and the file is labelled against the merged
clustering.  With ``--online`` the file is *ingested* through the incremental engine
(:mod:`repro.core.incremental`): every batch is labelled and spliced into
a live clustering, and ``--refresh-threshold`` bounds its drift by
triggering full re-clusters.
``serve`` bootstraps (or, with ``--resume``, recovers) a live online
session from a transactions file and serves ``label``/``ingest`` traffic
over the length-prefixed JSON protocol of :mod:`repro.serve`.
``experiment`` runs one of the reproduced paper experiments by id.
``sweep`` reports the theta-sensitivity table for a data file.

``cluster`` and ``serve`` run every phase with the library's defaults and
take no strategy flags: the frozen specs (``engine="reference"``, the
``bruteforce`` neighbour backend) are selected through the library API
only (:class:`repro.core.rock.RockClustering`,
:func:`repro.core.neighbors.compute_neighbors`).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

from repro.bench.harness import available_experiments, get_experiment
from repro.core.pipeline import RockPipeline
from repro.core.sharding import (
    DEFAULT_SHARD_EXECUTOR,
    DEFAULT_SHARD_STRATEGY,
    SHARD_EXECUTORS,
    SHARD_STRATEGIES,
)
from repro.data.encoding import records_to_transactions
from repro.data.io import (
    atomic_write_text,
    read_categorical_csv,
    read_transaction_labels,
    read_transactions,
)
from repro.datasets.registry import available_datasets
from repro.errors import ConfigurationError, ReproError
from repro.persistence.session import PersistentSession
from repro.serve.server import DEFAULT_HOST, ReproServer
from repro.evaluation.composition import composition_table
from repro.evaluation.metrics import clustering_error
from repro.evaluation.reporting import format_composition_table, format_table
from repro.extensions.auto_theta import best_theta, sweep_theta


def _write_labels(output, labels) -> Path:
    """Atomically write one integer label per line to ``output``.

    Goes through :func:`repro.data.io.atomic_write_text` so an interrupted
    run never leaves a torn label file behind (IO001).
    """
    output_path = Path(output)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    return atomic_write_text(
        output_path, "\n".join(str(int(label)) for label in labels) + "\n"
    )


def _load_input(arguments) -> tuple:
    """Load the input file and return (transactions, labels_or_none, n_records)."""
    if arguments.format == "transactions":
        dataset = read_transactions(arguments.path, label_prefix=arguments.label_prefix)
        return dataset.transactions, dataset.labels, dataset.n_transactions
    dataset = read_categorical_csv(
        arguments.path,
        delimiter=arguments.delimiter,
        label_column=arguments.label_column,
        missing_token=arguments.missing_token,
        has_header=arguments.header,
    )
    transactions = records_to_transactions(dataset)
    return transactions.transactions, dataset.labels, dataset.n_records


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="input data file")
    parser.add_argument(
        "--format", choices=["csv", "transactions"], default="csv",
        help="input format (default: UCI-style CSV)",
    )
    parser.add_argument("--delimiter", default=",", help="CSV value delimiter")
    parser.add_argument(
        "--label-column", type=int, default=None,
        help="index of the class-label column (omit when the file has no labels)",
    )
    parser.add_argument("--missing-token", default="?", help="missing-value token")
    parser.add_argument("--header", action="store_true", help="first CSV line is a header")
    parser.add_argument(
        "--label-prefix", default=None,
        help="transaction format: items starting with this prefix are class labels",
    )


def _build_pipeline(arguments) -> RockPipeline:
    """The pipeline ``cluster`` and ``serve`` run, from their shared flags."""
    return RockPipeline(
        n_clusters=arguments.clusters,
        theta=arguments.theta,
        sample_size=arguments.sample_size,
        min_neighbors=arguments.min_neighbors,
        min_cluster_size=arguments.min_cluster_size,
        rng=arguments.seed,
    )


#: ``cluster``'s modes: the entry point each calls, given the pipeline, the
#: parsed flags and the loaded input (``None`` for the out-of-core modes,
#: which read ``path`` batch by batch).
CLUSTER_MODES = {
    "in-memory": lambda pipeline, arguments, data: pipeline.run(data),
    "streaming": lambda pipeline, arguments, data: pipeline.run_streaming(
        arguments.path,
        batch_size=arguments.batch_size,
        label_prefix=arguments.label_prefix,
    ),
    "sharded": lambda pipeline, arguments, data: pipeline.run_sharded(
        arguments.path,
        n_shards=arguments.shards,
        batch_size=arguments.batch_size,
        shard_workers=arguments.shard_workers,
        shard_strategy=arguments.shard_strategy,
        shard_executor=arguments.shard_executor,
        shard_retries=arguments.shard_retries,
        merge_fan_in=arguments.merge_fan_in,
        label_prefix=arguments.label_prefix,
    ),
    "online": lambda pipeline, arguments, data: pipeline.run_online(
        arguments.path,
        batch_size=arguments.batch_size,
        refresh_threshold=arguments.refresh_threshold,
        label_prefix=arguments.label_prefix,
        snapshot_dir=arguments.snapshot_dir,
        snapshot_every=arguments.snapshot_every,
        resume=arguments.resume,
    ),
}


def _command_cluster(arguments) -> int:
    """Run ``cluster`` in the mode its flags select (see :data:`CLUSTER_MODES`).

    ``--stream``, ``--shards N`` with N > 1 and ``--online`` label the file
    out-of-core, batch by batch; they require the transactions format and
    an explicit ``--sample-size``.
    """
    if arguments.shards < 1:
        raise ConfigurationError(
            "--shards must be at least 1, got %d" % arguments.shards
        )
    if arguments.online and (arguments.stream or arguments.shards > 1):
        raise ConfigurationError(
            "--online conflicts with --stream/--shards: pick exactly one "
            "out-of-core mode (online ingest already labels the file batch "
            "by batch)"
        )
    if arguments.refresh_threshold is not None and not arguments.online:
        raise ConfigurationError(
            "--refresh-threshold requires --online (it bounds the drift of "
            "the live online clustering)"
        )
    if not arguments.online and (
        arguments.snapshot_dir is not None
        or arguments.snapshot_every is not None
        or arguments.resume
    ):
        raise ConfigurationError(
            "--snapshot-dir/--snapshot-every/--resume require --online "
            "(checkpoints capture the live incremental session)"
        )
    if arguments.shards > 1:
        mode = "sharded"
    elif arguments.online:
        mode = "online"
    elif arguments.stream:
        mode = "streaming"
    else:
        mode = "in-memory"
    data = labels = None
    if mode == "in-memory":
        data, labels, _ = _load_input(arguments)
    elif arguments.format != "transactions":
        raise ConfigurationError(
            "--stream/--shards/--online require --format transactions "
            "(one transaction per line)"
        )
    elif arguments.sample_size is None:
        raise ConfigurationError(
            "--stream/--shards/--online require --sample-size: without it "
            "the whole file would be clustered in memory, defeating the "
            "out-of-core mode (see repro.core.sampling.chernoff_sample_size "
            "for how large the sample must be)"
        )
    result = CLUSTER_MODES[mode](_build_pipeline(arguments), arguments, data)
    summary = "%d records -> %d clusters (%d outliers) in %.2fs" % (
        len(result.labels), result.n_clusters, result.n_outliers,
        result.timings["total"])
    if mode != "in-memory":
        detail = mode
        if mode == "sharded":
            detail = "sharded x%d, %s" % (
                arguments.shards, result.parameters["shard_executor"])
        elif result.parameters.get("n_refreshes"):
            detail += ", %d refreshes" % result.parameters["n_refreshes"]
        summary += " [%s, batch=%d]" % (detail, arguments.batch_size)
        if arguments.label_prefix:
            collected = read_transaction_labels(
                arguments.path, label_prefix=arguments.label_prefix
            )
            if any(label is not None for label in collected):
                labels = collected
    print(summary)
    skipped = result.parameters.get("skipped_shards") or []
    if skipped:
        # A degraded run must be visible in the summary, not only in the
        # RuntimeWarning (which a redirected stderr can swallow) or the
        # parameters dict (which the CLI does not print).
        print(
            "WARNING: degraded run - %d shard(s) skipped after worker "
            "failures: %s" % (len(skipped), ", ".join(str(s) for s in skipped))
        )
    if labels is not None:
        table = composition_table(result.labels, labels)
        print(format_composition_table(table, title="Cluster composition"))
        print("clustering error: %.4f" % clustering_error(result.labels, labels))
    else:
        rows = [[i, len(members)] for i, members in enumerate(result.clusters)]
        print(format_table(["cluster", "size"], rows, title="Cluster sizes"))
    if arguments.output:
        written = _write_labels(arguments.output, result.labels)
        print("labels written to %s" % written)
    return 0


def _command_serve(arguments) -> int:
    """Bootstrap (or resume) a live session and serve it over a socket."""
    if not 0 <= arguments.port <= 65535:
        raise ConfigurationError(
            "--port must lie in [0, 65535], got %d" % arguments.port
        )
    if arguments.snapshot_every is not None and arguments.snapshot_dir is None:
        raise ConfigurationError(
            "--snapshot-every requires --snapshot-dir (there is nowhere to "
            "write the checkpoints)"
        )
    if arguments.resume and arguments.snapshot_dir is None:
        raise ConfigurationError(
            "--resume requires --snapshot-dir (there is nothing to resume "
            "from)"
        )
    if arguments.max_live_points is not None and arguments.max_live_points < 1:
        raise ConfigurationError(
            "--max-live-points must be at least 1, got %d"
            % arguments.max_live_points
        )
    if arguments.sample_size is None:
        raise ConfigurationError(
            "serve requires --sample-size: the live session is bootstrapped "
            "from a clustered sample exactly like --online"
        )
    try:
        asyncio.run(_serve_async(arguments, _build_pipeline(arguments)))
    except KeyboardInterrupt:
        # The WAL already holds every acked ingest; a later --resume run
        # recovers from the last durable checkpoint plus the WAL tail.
        print("interrupted; restart with --resume to recover", file=sys.stderr)
    return 0


async def _serve_async(arguments, pipeline: RockPipeline) -> None:
    """The server's event-loop body: build/resume the session and run."""
    server_options = dict(
        host=arguments.host,
        port=arguments.port,
        max_live_points=arguments.max_live_points,
    )
    resumable = (
        arguments.resume
        and arguments.snapshot_dir is not None
        and PersistentSession.can_resume(arguments.snapshot_dir)
    )
    if resumable:
        server = ReproServer.resume(
            arguments.snapshot_dir,
            snapshot_every=arguments.snapshot_every,
            expected_config=pipeline.online_expected_config(
                arguments.refresh_threshold
            ),
            **server_options,
        )
        print(
            "resumed session from %s: %d live points, %d ingested, "
            "%d WAL records replayed"
            % (
                arguments.snapshot_dir,
                server.session.n_points,
                server.session.n_ingested,
                server.store.n_replayed if server.store is not None else 0,
            )
        )
    else:
        result = pipeline.run_online(
            arguments.path,
            batch_size=arguments.batch_size,
            refresh_threshold=arguments.refresh_threshold,
            label_prefix=arguments.label_prefix,
        )
        session = pipeline.online_session
        if arguments.snapshot_dir is not None:
            server = ReproServer.create(
                session,
                arguments.snapshot_dir,
                snapshot_every=arguments.snapshot_every,
                **server_options,
            )
        else:
            server = ReproServer(session, **server_options)
        print(
            "bootstrapped %d records -> %d clusters (%d outliers) in %.2fs"
            % (
                len(result.labels),
                result.n_clusters,
                result.n_outliers,
                result.timings["total"],
            )
        )
    host, port = await server.start()
    # The smoke script and tests parse this line for the ephemeral port.
    print("repro serve: listening on %s:%d" % (host, port), flush=True)
    await server.serve_forever()
    print("server stopped")


def _command_experiment(arguments) -> int:
    runner = get_experiment(arguments.experiment_id)
    record = runner()
    print(record.render())
    return 0


def _command_sweep(arguments) -> int:
    transactions, labels, _ = _load_input(arguments)
    entries = sweep_theta(
        transactions,
        n_clusters=arguments.clusters,
        thetas=arguments.thetas,
        labels_true=labels,
    )
    rows = []
    for entry in entries:
        rows.append([
            "%.2f" % entry.theta,
            entry.n_clusters,
            "%.1f" % entry.criterion,
            "-" if entry.error is None else "%.4f" % entry.error,
            entry.stopped_early,
        ])
    print(format_table(
        ["theta", "clusters", "criterion", "error", "stopped early"],
        rows,
        title="theta sweep",
    ))
    print("recommended theta: %.2f" % best_theta(entries))
    return 0


def _command_datasets(_arguments) -> int:
    print("registered data sets:")
    for name in available_datasets():
        print("  %s" % name)
    print("registered experiments:")
    for experiment_id in available_experiments():
        print("  %s" % experiment_id)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    cluster = subparsers.add_parser("cluster", help="cluster a data file with ROCK")
    _add_input_arguments(cluster)
    cluster.add_argument("--clusters", type=int, required=True, help="number of clusters")
    cluster.add_argument("--theta", type=float, default=0.5, help="similarity threshold")
    cluster.add_argument("--sample-size", type=int, default=None, help="random-sample size")
    cluster.add_argument("--min-neighbors", type=int, default=0, help="outlier pre-filter")
    cluster.add_argument("--min-cluster-size", type=int, default=1, help="prune smaller clusters")
    cluster.add_argument("--seed", type=int, default=0, help="random seed")
    cluster.add_argument(
        "--stream", action="store_true",
        help="label the file out-of-core, batch by batch (transactions format "
             "only, requires --sample-size; peak memory is bounded by the "
             "sample plus one batch)",
    )
    cluster.add_argument(
        "--batch-size", type=int, default=1024,
        help="transactions per labelling batch with --stream (default 1024)",
    )
    cluster.add_argument(
        "--online", action="store_true",
        help="ingest the file through the incremental engine: the sample is "
             "clustered once, then every batch is labelled and spliced into "
             "the live clustering (transactions format and --sample-size "
             "required; conflicts with --stream/--shards)",
    )
    cluster.add_argument(
        "--refresh-threshold", type=float, default=None,
        help="with --online: re-cluster all live points when the inserted "
             "fraction since the last full clustering exceeds this positive "
             "fraction (default: never refresh)",
    )
    cluster.add_argument(
        "--snapshot-dir", default=None,
        help="with --online: checkpoint the live session into this directory "
             "(write-ahead log + periodic snapshots; a killed run resumes "
             "bit-identically with --resume)",
    )
    cluster.add_argument(
        "--snapshot-every", type=int, default=None,
        help="with --snapshot-dir: checkpoint after every N ingested batches "
             "(default: only at start and end; the WAL still makes every "
             "batch durable)",
    )
    cluster.add_argument(
        "--resume", action="store_true",
        help="with --snapshot-dir: recover from the last durable checkpoint "
             "plus the WAL tail instead of starting over (falls back to a "
             "fresh run when the directory holds no checkpoint)",
    )
    cluster.add_argument(
        "--shards", type=int, default=1,
        help="shard the clustering phase across N shards (N > 1 implies the "
             "out-of-core mode: transactions format and --sample-size "
             "required; per-shard clusterings are merged via summary "
             "agglomeration)",
    )
    cluster.add_argument(
        "--shard-workers", type=int, default=None,
        help="workers clustering shards concurrently (default: serial; the "
             "worker count never changes the result)",
    )
    cluster.add_argument(
        "--shard-strategy", choices=list(SHARD_STRATEGIES),
        default=DEFAULT_SHARD_STRATEGY,
        help="how stream positions map to shards (round-robin, contiguous "
             "blocks, or a stable content hash)",
    )
    cluster.add_argument(
        "--shard-executor",
        choices=list(SHARD_EXECUTORS),
        default=DEFAULT_SHARD_EXECUTOR,
        help="run shard workers as threads (default) or as spawn-based "
             "processes (escapes the GIL at about a second of pool "
             "start-up; the same per-shard task runs either way, so labels "
             "are bit-identical)",
    )
    cluster.add_argument(
        "--shard-retries", type=int, default=1,
        help="re-attempts for a failed shard worker before the shard is "
             "skipped (a retried shard reproduces the fault-free result "
             "bit-identically; default: 1)",
    )
    cluster.add_argument(
        "--merge-fan-in", type=int, default=None,
        help="merge per-shard summaries hierarchically, at most N shard "
             "groups per agglomeration level (default: one flat merge)",
    )
    cluster.add_argument("--output", default=None, help="write per-record labels to this file")
    cluster.set_defaults(handler=_command_cluster)

    serve = subparsers.add_parser(
        "serve",
        help="serve a live labelling session over a socket (label/ingest "
             "verbs; length-prefixed JSON protocol)",
    )
    serve.add_argument("path", help="transactions file (one transaction per line)")
    serve.add_argument(
        "--label-prefix", default=None,
        help="items starting with this prefix are class labels (stripped "
             "before clustering)",
    )
    serve.add_argument("--clusters", type=int, required=True, help="number of clusters")
    serve.add_argument("--theta", type=float, default=0.5, help="similarity threshold")
    serve.add_argument(
        "--sample-size", type=int, default=None,
        help="random-sample size the live session bootstraps from (required)",
    )
    serve.add_argument("--min-neighbors", type=int, default=0, help="outlier pre-filter")
    serve.add_argument("--min-cluster-size", type=int, default=1, help="prune smaller clusters")
    serve.add_argument("--seed", type=int, default=0, help="random seed")
    serve.add_argument(
        "--batch-size", type=int, default=1024,
        help="transactions per ingest batch while absorbing the input file",
    )
    serve.add_argument(
        "--refresh-threshold", type=float, default=None,
        help="re-cluster all live points when the inserted fraction since "
             "the last full clustering exceeds this positive fraction",
    )
    serve.add_argument(
        "--host", default=DEFAULT_HOST, help="listen address (default %s)" % DEFAULT_HOST
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="listen port; 0 binds an ephemeral port, reported on stdout",
    )
    serve.add_argument(
        "--snapshot-dir", default=None,
        help="checkpoint the served session into this directory (WAL'd "
             "ingests + snapshots; a killed server resumes with --resume)",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=None,
        help="with --snapshot-dir: checkpoint after every N applied ingest "
             "groups (the WAL still makes every ack durable)",
    )
    serve.add_argument(
        "--max-live-points", type=int, default=None,
        help="bounded-memory live mode: evict the oldest live points down "
             "to this bound after every ingest (evicted points stay "
             "labellable)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="with --snapshot-dir: recover the served session from the last "
             "durable checkpoint plus the WAL tail instead of "
             "re-bootstrapping (falls back to a fresh bootstrap when the "
             "directory holds no checkpoint)",
    )
    serve.set_defaults(handler=_command_serve)

    experiment = subparsers.add_parser("experiment", help="run a reproduced paper experiment")
    experiment.add_argument("experiment_id", help="experiment id (see 'repro datasets')")
    experiment.set_defaults(handler=_command_experiment)

    sweep = subparsers.add_parser("sweep", help="theta sensitivity sweep on a data file")
    _add_input_arguments(sweep)
    sweep.add_argument("--clusters", type=int, required=True, help="number of clusters")
    sweep.add_argument(
        "--thetas", type=float, nargs="+", default=[0.5, 0.6, 0.7, 0.8],
        help="threshold grid",
    )
    sweep.set_defaults(handler=_command_sweep)

    datasets = subparsers.add_parser("datasets", help="list data sets and experiments")
    datasets.set_defaults(handler=_command_datasets)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        # Exit 3 keeps library errors distinguishable from argparse usage
        # errors, which exit 2.
        print("error: %s" % error, file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
