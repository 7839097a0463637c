"""Labelling benchmark: one-shot vs streaming/batched labelling throughput.

Clusters a synthetic random-basket sample once, then labels a disk-scale
remainder two ways: with one :func:`repro.core.labeling.label_points` call
holding everything in memory, and with
:func:`repro.core.labeling.label_points_streaming` folding the same points
through the batched path at several batch sizes.  The record reports
points-per-second throughput per configuration; every batched run is
asserted bit-identical to the one-shot labels, so the benchmark doubles as
an equivalence check at benchmark scale.

Run modes (see ``conftest.bench_full``): smoke labels ~1500 points, full
(``REPRO_BENCH_FULL=1``) labels ~8000 points against a 2000-point sample.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import bench_full, write_record

from repro.bench.engine_bench import BENCH_CLUSTERS, BENCH_THETA, engine_workload
from repro.core.labeling import label_points, label_points_streaming
from repro.core.rock import RockClustering

#: Batch sizes the streaming path is timed at.
BATCH_SIZES = (64, 256, 1024)


def _cluster_sample(n_sample: int):
    transactions = engine_workload(n_sample, rng=0)
    model = RockClustering(n_clusters=BENCH_CLUSTERS, theta=BENCH_THETA)
    result = model.fit(transactions).result_
    return transactions, result.clusters


def test_benchmark_labeling_throughput(results_dir):
    n_sample, n_unlabeled = (2000, 8000) if bench_full() else (500, 1500)
    sample, clusters = _cluster_sample(n_sample)
    unlabeled = engine_workload(n_unlabeled, rng=1)

    start = time.perf_counter()
    one_shot = label_points(
        unlabeled, sample, clusters, theta=BENCH_THETA, rng=0
    )
    one_shot_seconds = time.perf_counter() - start

    lines = ["[LABELING] one-shot vs batched labelling throughput"]
    lines.append(
        "workload: market-basket, sample=%d, unlabeled=%d, theta=%s"
        % (n_sample, n_unlabeled, BENCH_THETA)
    )
    lines.append(
        "  one-shot            %.3fs  %8.0f points/s"
        % (one_shot_seconds, n_unlabeled / one_shot_seconds)
    )

    for batch_size in BATCH_SIZES:
        batches = [
            unlabeled[i:i + batch_size]
            for i in range(0, len(unlabeled), batch_size)
        ]
        start = time.perf_counter()
        streamed = label_points_streaming(
            batches, sample, clusters, theta=BENCH_THETA, rng=0
        )
        seconds = time.perf_counter() - start
        assert np.array_equal(streamed.merged.labels, one_shot.labels), (
            "batched labels diverged from one-shot at batch_size=%d" % batch_size
        )
        assert streamed.n_batches == len(batches)
        lines.append(
            "  batched (size %4d) %.3fs  %8.0f points/s  (%d batches, %.2fx one-shot)"
            % (
                batch_size,
                seconds,
                n_unlabeled / seconds,
                streamed.n_batches,
                seconds / one_shot_seconds,
            )
        )

    write_record(results_dir, "LABELING_throughput", "\n".join(lines))
