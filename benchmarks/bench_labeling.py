"""Labelling benchmark: the count kernel's two forms on each side of the
crossover, the latency of one batch, and the kernel's memory gate.

The labelling kernel (:mod:`repro.core.labeling`) picks its dense integer
or sparse form from the fill of the retained incidence
(``nnz / (rows * items)`` against ``DENSE_MIN_FILL``).  Two Instacart-shaped
rows (:func:`repro.datasets.market_basket.generate_instacart_baskets`) sit
on either side of that choice:

* ``instacart-117`` — the default ~117-product universe, where every
  basket shares popular items and the dense form wins;
* ``instacart-wide`` — ``items_per_cluster=1500, shared_items=0``, a wide
  rare-item universe (~12k products), where the dense operand spans every
  item (83 MB at 4000 retained rows) and the sparse form wins.

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

``test_label_batch_latency`` times one ``label_batch`` of 1, 8 and 4096
baskets against a 4000-basket sample (perfbench's stream-100k shape: a
served read, an online ingest and a streaming batch) and records the
medians beside those of the float32 BLAS form the integer form replaced.

``test_label_memory_gate`` (every mode) traces one 4096-basket
``label_batch`` of that shape on a forced 4-thread pool and fails when it
allocates more than 8 MiB above its inputs, the size of the one float32
block buffer of the BLAS form.  Allocation sizes do not depend on the
machine, so the gate holds on any hardware.

Run modes (see ``conftest.bench_full``): smoke labels 4096 baskets against
a 1000-basket sample; full (``REPRO_BENCH_FULL=1``) 16384 baskets against a
4000-basket sample.
"""

from __future__ import annotations

import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import bench_full, write_record

import repro.core.labeling as labeling_module
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

#: Sample and batch sizes of the latency and memory measurements
#: (perfbench's stream-100k: sample 4000, batches of 4096).
STREAM_SAMPLE = 4000
LATENCY_BATCHES = (1, 8, 4096)
LATENCY_REPEATS = {1: 400, 8: 200, 4096: 15}

#: ``label_batch`` medians in seconds of the float32 BLAS form the integer
#: form replaced, measured by ``test_label_batch_latency`` itself on a
#: 2-CPU host: the median of 3 runs alternating with the integer form,
#: which read 170 us, 283 us and 29.0 ms in the same runs.
BLAS_FORM_LATENCY = {1: 493e-6, 8: 855e-6, 4096: 57.2e-3}

#: Ceiling on one traced 4096-basket ``label_batch``: 8 MiB, the one
#: float32 block buffer of the BLAS form (which traced 8.9 MiB in all).
MAX_LABEL_PEAK_BYTES = 8 * 2**20

#: Threads of the pool the memory gate forces (more than the 2 CPUs the
#: benchmarks usually get: the blocks in flight must share one block's
#: cells however many threads run them).
GATE_WORKERS = 4

_records: dict[str, list[str]] = {}


def _write_throughput(results_dir) -> None:
    lines = [
        "[LABELING] count-kernel forms on each side of the crossover",
        "workload: instacart baskets, theta=%s, dense form from fill >= %.4f"
        % (THETA, DENSE_MIN_FILL),
    ]
    for name in (*ROWS, "latency"):
        lines.extend(_records.get(name, []))
    write_record(results_dir, "LABELING_throughput", "\n".join(lines))


def _stream_case(n_batch: int):
    """A labeler on a 4000-basket Instacart sample, clustered by its
    generator segments, and ``n_batch`` further baskets."""
    data = generate_instacart_baskets(n_transactions=STREAM_SAMPLE + n_batch, rng=0)
    sample = data.transactions[:STREAM_SAMPLE]
    segments = np.asarray(data.labels[:STREAM_SAMPLE])
    clusters = [np.flatnonzero(segments == s).tolist() for s in np.unique(segments)]
    labeler = StreamingLabeler(sample, clusters, theta=THETA, rng=0)
    return labeler, data.transactions[STREAM_SAMPLE:]


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
    _write_throughput(results_dir)

    assert auto is dense_side, "row %s is not on its side of the crossover" % row
    assert np.array_equal(streamed.merged.labels, one_shot.labels), (
        "batched labels diverged from one-shot on row %s" % row
    )
    assert ratio <= AUTO_SLACK, (
        "auto picked the %s form on row %s at %.2fx the faster form"
        % ("dense" if auto else "sparse", row, ratio)
    )


def test_label_batch_latency(results_dir):
    labeler, rest = _stream_case(2 * max(LATENCY_BATCHES))
    labeler.label_batch(rest[: max(LATENCY_BATCHES)])  # every set size seen
    medians = {}
    for size in LATENCY_BATCHES:
        seconds = []
        for repeat in range(LATENCY_REPEATS[size]):
            low = repeat * size % (len(rest) - size)
            start = time.perf_counter()
            labeler.label_batch(rest[low:low + size])
            seconds.append(time.perf_counter() - start)
        medians[size] = float(np.median(seconds))

    def shown(seconds):
        return "%.0f us" % (seconds * 1e6) if seconds < 1e-2 else "%.1f ms" % (seconds * 1e3)

    _records["latency"] = [
        "label_batch latency: sample=%d retained=%d clusters=%d form=%s "
        "(median of %s repeats)"
        % (
            STREAM_SAMPLE,
            labeler._retained_incidence.shape[0],
            labeler.n_clusters,
            "dense" if labeler._dense_form else "sparse",
            "/".join(str(LATENCY_REPEATS[size]) for size in LATENCY_BATCHES),
        ),
    ] + [
        "  %4d baskets  %9s   (float32 BLAS form: %s)"
        % (size, shown(medians[size]), shown(BLAS_FORM_LATENCY[size]))
        for size in LATENCY_BATCHES
    ]
    _write_throughput(results_dir)
    assert labeler._dense_form


def test_label_memory_gate(results_dir, monkeypatch):
    labeler, batch = _stream_case(4096)
    pool = ThreadPoolExecutor(max_workers=GATE_WORKERS)
    monkeypatch.setattr(labeling_module, "cpu_pool", lambda: (pool, GATE_WORKERS))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = labeler.label_batch(batch)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        pool.shutdown()
    n_rows = labeler._retained_incidence.shape[0]
    write_record(
        results_dir,
        "LABELING_memory",
        "[LABELING] memory gate: one traced label_batch of %d baskets against %d "
        "retained rows (%s operand, %d-thread pool)\n"
        "  peak %.2f MiB above its inputs (limit %.0f MiB)"
        % (
            len(batch), n_rows, labeler._operand.dtype, GATE_WORKERS,
            peak / 2**20, MAX_LABEL_PEAK_BYTES / 2**20,
        ),
    )
    assert len(result.labels) == len(batch)
    assert peak <= MAX_LABEL_PEAK_BYTES, (
        "one %d-basket label_batch traced %.2f MiB above its inputs, above the "
        "%.0f MiB ceiling" % (len(batch), peak / 2**20, MAX_LABEL_PEAK_BYTES / 2**20)
    )
