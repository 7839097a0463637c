"""Instacart-scale sharding benchmark: process vs thread shard executors.

Drives :meth:`RockPipeline.run_sharded` over the Instacart-shaped Zipfian
basket workload (:func:`repro.datasets.generate_instacart_baskets`) with
both shard executors and reports the clustering-phase time, end-to-end
time, and adjusted Rand agreement with the streaming labels.  Four checks
make the benchmark a gate rather than a report:

* **executor equivalence** — the ``process`` run must produce labels
  bit-identical to the ``thread`` run on the same data and seed (the
  executor-invisibility contract, re-checked at benchmark scale);
* **fan-in identity** — a run with ``merge_fan_in >= n_shards`` must be
  bit-identical to the flat (``merge_fan_in=None``) merge, and a
  hierarchical ``merge_fan_in=2`` run must still clear the ARI floor;
* **summary-merge quality** — every sharded run must agree with the
  streaming labels at ARI >= ``ARI_FLOOR``;
* **process speed-up gate** — in full mode (``REPRO_BENCH_FULL=1``,
  n >= 100k baskets) on a machine with at least ``MIN_GATE_CPUS`` cores,
  the process executor's clustering phase must be at least
  ``PROCESS_SPEEDUP_FLOOR``x faster than the thread executor's.  Both
  phases are measured in the same process so machine speed divides out.
  On smaller machines (and in smoke mode) the ratio is recorded but not
  gated — a process pool cannot beat the GIL without spare cores.

Run modes (see ``conftest.bench_full``): smoke clusters 20k baskets with a
400-point budget across 4 shards; full clusters 200k baskets with a
3200-point budget across 8 shards.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import bench_full, write_record

from repro.core.pipeline import RockPipeline
from repro.core.sharding import PROCESS_SHARD_EXECUTOR, THREAD_SHARD_EXECUTOR
from repro.datasets.market_basket import generate_instacart_baskets
from repro.evaluation.metrics import adjusted_rand_index

#: Minimum adjusted Rand agreement between a sharded run and the streaming
#: run on the same data and seed.
ARI_FLOOR = 0.6

#: Required clustering-phase speed-up of the process executor over the
#: thread executor in full mode.
PROCESS_SPEEDUP_FLOOR = 2.0

#: The speed-up gate only applies on machines with at least this many
#: cores; process workers cannot outrun the GIL without spare CPUs.
MIN_GATE_CPUS = 4


#: Link threshold tuned for the Zipfian workload: baskets of a segment
#: share their pool's head products, so a moderate Jaccard threshold keeps
#: within-segment neighbours while the staples alone cannot form links.
BENCH_THETA = 0.4


def _pipeline(sample_size: int, rng: int = 7) -> RockPipeline:
    return RockPipeline(
        n_clusters=8,
        theta=BENCH_THETA,
        sample_size=sample_size,
        min_cluster_size=2,
        rng=rng,
    )


def _run(transactions, sample_size, n_shards, executor, shard_workers, **kwargs):
    start = time.perf_counter()
    result = _pipeline(sample_size).run_sharded(
        transactions,
        n_shards=n_shards,
        shard_workers=shard_workers,
        shard_executor=executor,
        batch_size=4096,
        **kwargs,
    )
    return result, time.perf_counter() - start


def test_benchmark_instacart(results_dir):
    if bench_full():
        n, sample_size, n_shards = 200_000, 3200, 8
    else:
        n, sample_size, n_shards = 20_000, 400, 4
    data = generate_instacart_baskets(n_transactions=n, rng=0)
    transactions = data.transactions
    shard_workers = min(n_shards, max(2, os.cpu_count() or 1))

    start = time.perf_counter()
    streamed = _pipeline(sample_size).run_streaming(transactions, batch_size=4096)
    streaming_seconds = time.perf_counter() - start

    lines = ["[INSTACART] shard executors on the Zipfian basket workload"]
    lines.append(
        "workload: instacart-synthetic, n=%d, sample=%d, shards=%d, workers=%d"
        % (n, sample_size, n_shards, shard_workers)
    )
    lines.append(
        "  streaming            cluster %.3fs  total %.3fs  (%d clusters)"
        % (streamed.timings["clustering"], streaming_seconds, streamed.n_clusters)
    )

    threaded, thread_seconds = _run(
        transactions, sample_size, n_shards, THREAD_SHARD_EXECUTOR, shard_workers
    )
    processed, process_seconds = _run(
        transactions, sample_size, n_shards, PROCESS_SHARD_EXECUTOR, shard_workers
    )
    for name, result, seconds in (
        ("thread", threaded, thread_seconds),
        ("process", processed, process_seconds),
    ):
        ari = adjusted_rand_index(result.labels, streamed.labels)
        lines.append(
            "  sharded (%-7s)    cluster %.3fs  total %.3fs  merge %.3fs  "
            "ARI(streaming) %.3f  (%d clusters)"
            % (name, result.timings["clustering"], seconds,
               result.timings["merge"], ari, result.n_clusters)
        )
        assert ari >= ARI_FLOOR, (
            "summary-merge quality regressed (%s executor): ARI %.3f < %.2f"
            % (name, ari, ARI_FLOOR)
        )
    assert np.array_equal(threaded.labels, processed.labels), (
        "process-executor labels diverged from the thread executor"
    )

    # Fan-in: a single merge level must be bit-identical to the flat merge;
    # a deeper hierarchy must still clear the quality floor.
    flat_fan_in, _ = _run(
        transactions, sample_size, n_shards, THREAD_SHARD_EXECUTOR,
        shard_workers, merge_fan_in=n_shards,
    )
    assert np.array_equal(flat_fan_in.labels, threaded.labels), (
        "merge_fan_in >= n_shards diverged from the flat merge"
    )
    hierarchical, _ = _run(
        transactions, sample_size, n_shards, THREAD_SHARD_EXECUTOR,
        shard_workers, merge_fan_in=2,
    )
    hierarchical_ari = adjusted_rand_index(hierarchical.labels, streamed.labels)
    lines.append(
        "  fan-in: flat == fan_in=%d (bit-identical); fan_in=2 levels=%d "
        "ARI(streaming) %.3f"
        % (n_shards, hierarchical.parameters["merge_levels"], hierarchical_ari)
    )
    assert hierarchical_ari >= ARI_FLOOR, (
        "hierarchical merge quality regressed: ARI %.3f < %.2f"
        % (hierarchical_ari, ARI_FLOOR)
    )

    thread_clustering = threaded.timings["clustering"]
    process_clustering = processed.timings["clustering"]
    speedup = thread_clustering / max(process_clustering, 1e-9)
    gate_active = bench_full() and (os.cpu_count() or 1) >= MIN_GATE_CPUS
    lines.append(
        "  process speed-up: %.2fx (thread %.3fs / process %.3fs) -- gate %s"
        % (speedup, thread_clustering, process_clustering,
           "ACTIVE (floor %.1fx)" % PROCESS_SPEEDUP_FLOOR if gate_active
           else "RECORD-ONLY (needs REPRO_BENCH_FULL=1 and >= %d cpus, have %d)"
           % (MIN_GATE_CPUS, os.cpu_count() or 1))
    )
    write_record(results_dir, "INSTACART_executors", "\n".join(lines))
    if gate_active:
        assert speedup >= PROCESS_SPEEDUP_FLOOR, (
            "process executor speed-up regressed: %.2fx < %.1fx "
            "(thread %.3fs, process %.3fs)"
            % (speedup, PROCESS_SPEEDUP_FLOOR, thread_clustering,
               process_clustering)
        )
