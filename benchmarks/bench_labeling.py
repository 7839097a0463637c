"""Labelling benchmark: the count kernel's two forms on each side of the crossover.

The labelling kernel (:mod:`repro.core.labeling`) picks its dense or sparse
form from the fill of the retained incidence (``nnz / (rows * items)``
against ``DENSE_MIN_FILL``).  Two Instacart-shaped rows
(:func:`repro.datasets.market_basket.generate_instacart_baskets`) sit on
either side of that choice:

* ``instacart-117`` — the default ~117-product universe, where every
  basket shares popular items and the dense form wins;
* ``instacart-wide`` — ``items_per_cluster=1500, shared_items=0``, a wide
  rare-item universe (~12k products), where a dense product over every
  item is many times slower and the sparse form wins.

Each row takes a sample's generator segments as its clusters (k = 8, as a
ROCK run on the narrow row finds; on the wide row ROCK at theta 0.3 stops
early with about one cluster per sampled basket, which would time the
``points × clusters`` output instead of the kernel).  It then times both
forms on the same batch through the labeler's private entry point
(``_matmul_counts`` with ``_dense_form`` set; there is no public option)
and asserts that the form ``auto`` chose is within 10% of the faster one
(best of several interleaved repeats).  It also labels the remainder one-shot and batched
and asserts the labels are identical, and records the retained fill beside
the timings.

Run modes (see ``conftest.bench_full``): smoke labels 4096 baskets against
a 1000-basket sample; full (``REPRO_BENCH_FULL=1``) 16384 baskets against a
4000-basket sample.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import bench_full, write_record

from repro.core.labeling import (
    DENSE_MIN_FILL,
    StreamingLabeler,
    label_points,
    label_points_streaming,
)
from repro.datasets.market_basket import generate_instacart_baskets

#: The rows: name -> (generator overrides, whether ``auto`` must pick dense).
ROWS = {
    "instacart-117": ({}, True),
    "instacart-wide": ({"items_per_cluster": 1500, "shared_items": 0}, False),
}
THETA = 0.3
#: Points of the batch both forms are timed on (the dense form on the wide
#: row is the slow side, so the timed batch stays small).
TIMED_POINTS = 1024
REPEATS = 5
BATCH_SIZE = 1024
#: ``auto``'s form may be at most this much slower than the faster form.
AUTO_SLACK = 1.10

_records: dict[str, list[str]] = {}


def _counts(labeler, batch, dense: bool) -> np.ndarray:
    labeler._dense_form = dense
    return labeler._matmul_counts(batch)


def _seconds(labeler, batch, dense: bool) -> float:
    start = time.perf_counter()
    _counts(labeler, batch, dense)
    return time.perf_counter() - start


@pytest.mark.parametrize("row", list(ROWS))
def test_benchmark_labeling_forms(row, results_dir):
    n_sample, n_unlabeled = (4000, 16384) if bench_full() else (1000, 4096)
    overrides, dense_side = ROWS[row]
    data = generate_instacart_baskets(
        n_transactions=n_sample + n_unlabeled, rng=0, **overrides
    )
    sample, unlabeled = data.transactions[:n_sample], data.transactions[n_sample:]
    segments = np.asarray(data.labels[:n_sample])
    clusters = [np.flatnonzero(segments == s).tolist() for s in np.unique(segments)]

    labeler = StreamingLabeler(sample, clusters, theta=THETA, rng=0)
    n_rows, n_items = labeler._retained_incidence.shape
    auto = labeler._dense_form
    timed = unlabeled[:TIMED_POINTS]
    assert np.array_equal(_counts(labeler, timed, True), _counts(labeler, timed, False))
    seconds = {True: [], False: []}
    for _ in range(REPEATS):
        for dense in (True, False):
            seconds[dense].append(_seconds(labeler, timed, dense))
    best = {dense: min(values) for dense, values in seconds.items()}
    ratio = best[auto] / min(best.values())

    start = time.perf_counter()
    one_shot = label_points(unlabeled, sample, clusters, theta=THETA, rng=0)
    one_shot_seconds = time.perf_counter() - start
    batches = [unlabeled[i:i + BATCH_SIZE] for i in range(0, len(unlabeled), BATCH_SIZE)]
    start = time.perf_counter()
    streamed = label_points_streaming(batches, sample, clusters, theta=THETA, rng=0)
    batched_seconds = time.perf_counter() - start

    _records[row] = [
        "row %s: sample=%d retained=%d items=%d clusters=%d fill=%.4f auto=%s"
        % (
            row, n_sample, n_rows, n_items, len(clusters), labeler._fill,
            "dense" if auto else "sparse",
        ),
        "  dense form  %.4fs   sparse form %.4fs   (%d points, best of %d)"
        % (best[True], best[False], len(timed), REPEATS),
        "  auto/best   %.2fx (gate <= %.2fx)" % (ratio, AUTO_SLACK),
        "  one-shot    %.3fs  %8.0f points/s"
        % (one_shot_seconds, n_unlabeled / one_shot_seconds),
        "  batched     %.3fs  %8.0f points/s  (%d batches of %d, labels identical)"
        % (batched_seconds, n_unlabeled / batched_seconds, len(batches), BATCH_SIZE),
    ]
    lines = [
        "[LABELING] count-kernel forms on each side of the crossover",
        "workload: instacart baskets, theta=%s, dense form from fill >= %.4f"
        % (THETA, DENSE_MIN_FILL),
    ]
    for name in ROWS:
        lines.extend(_records.get(name, []))
    write_record(results_dir, "LABELING_throughput", "\n".join(lines))

    assert auto is dense_side, "row %s is not on its side of the crossover" % row
    assert np.array_equal(streamed.merged.labels, one_shot.labels), (
        "batched labels diverged from one-shot on row %s" % row
    )
    assert ratio <= AUTO_SLACK, (
        "auto picked the %s form on row %s at %.2fx the faster form"
        % ("dense" if auto else "sparse", row, ratio)
    )
