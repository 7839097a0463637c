"""Labelling benchmark: the count kernel's two forms on each side of the
crossover, the latency of one batch, and the kernel's memory gates.

The labelling kernel (:mod:`repro.core.labeling`) picks its dense integer
or sparse form by the overlap kernel's one form rule
(:func:`repro.core.neighbors.vectorized.prefers_dense`: at most
``DENSE_MAX_CELLS_PER_NONZERO`` dense cells per retained nonzero, each
cluster sum counted as ``CLUSTER_SUM_ROWS`` retained rows).
Instacart-shaped rows
(:func:`repro.datasets.market_basket.generate_instacart_baskets`) sit on
either side of that choice:

* ``instacart-117`` — the default ~117-product universe, where every
  basket shares popular items and the dense form wins;
* ``instacart-80``, ``instacart-150``, ``instacart-250`` — wider
  universes (``items_per_cluster`` 80/150/250, no staples) whose fills
  (~0.015, ~0.0085, ~0.0054) lie between 0.004 and 1/64, where the dense
  form still wins;
* ``instacart-wide`` — ``items_per_cluster=1500, shared_items=0``, a wide
  rare-item universe (~12k products), where the sparse form wins;
* ``instacart-250-k1000`` — the 250-product universe with the sample cut
  into about 1000 clusters, where the cluster sums tip it to the sparse
  form.

Each row but the last takes a sample's generator segments as its
clusters (k = 8, as a ROCK run on the narrow row finds).  It then times
both forms on the same batch through the labeler's private entry point
(``_matmul_counts`` with ``_dense_form`` set; there is no public option),
on both paths a batch can take:

* **pooled** — on the main thread with the CPU pool as it is, the path of
  a lone payload, ``label_points`` and a large ingest: a dense batch of
  more than one row block splits its blocks over the pool (the sparse
  form has no pooled blocks).  In smoke mode the timed batch fits one row
  block of the 1000-row sample, so this path runs inline there too; full
  mode (4000 retained rows) splits it;
* **inline** — with the pool switched off, the path of the streaming
  loop's batches in flight and of a host with one usable CPU.

It asserts on each path that the form ``auto`` chose is within 10% of
the faster one (best of several interleaved repeats), labels the
remainder one-shot and batched, asserts the labels are identical, and
records the retained fill beside the timings.

``test_label_batch_latency`` times one ``label_batch`` of 1, 8 and 4096
baskets against a 4000-basket sample (perfbench's stream-100k shape: a
served read, an online ingest and a streaming batch) and records the
medians beside those of the float32 BLAS form the integer form replaced.

``test_label_memory_gate`` (every mode) traces one 4096-basket
``label_batch`` of that shape on a forced 4-thread pool and fails when it
allocates more than 8 MiB above its inputs, the size of the one float32
block buffer of the BLAS form.  ``test_streamed_label_memory_gate`` (every
mode) traces a whole ``label_points_streaming`` of four 4096-basket
batches against the same 4000-basket sample on a forced 4-CPU pool — the
labeller's set-up, all four batches in flight at once and every batch's
kept result — and fails above ``MAX_STREAMED_PEAK_BYTES``.  Allocation sizes do not depend on the
machine, so the gates hold on any hardware.

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

import repro.core.cpu_pool as cpu_pool_module
import repro.core.labeling as labeling_module
from repro.core.labeling import (
    StreamingLabeler,
    label_points,
    label_points_streaming,
)
from repro.core.neighbors.vectorized import CLUSTER_SUM_ROWS, DENSE_MAX_CELLS_PER_NONZERO
from repro.datasets.market_basket import generate_instacart_baskets

#: The rows: name -> (generator overrides, clusters (``None``: the sample's
#: generator segments), whether ``auto`` must pick dense).
ROWS = {
    "instacart-117": ({}, None, True),
    "instacart-80": ({"items_per_cluster": 80, "shared_items": 0}, None, True),
    "instacart-150": ({"items_per_cluster": 150, "shared_items": 0}, None, True),
    "instacart-250": ({"items_per_cluster": 250, "shared_items": 0}, None, True),
    "instacart-wide": ({"items_per_cluster": 1500, "shared_items": 0}, None, False),
    "instacart-250-k1000": ({"items_per_cluster": 250, "shared_items": 0}, 1000, False),
}
THETA = 0.3
#: Points of the batch both forms are timed on (the dense form on the wide
#: row is the slow side, so the timed batch stays small).
TIMED_POINTS = 1024
REPEATS = 5
#: The paths both forms are timed on: the main thread's, with the CPU pool
#: as it is, and inline, with the pool switched off.
PATHS = ("pooled", "inline")
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

#: Batches of ``STREAM_BATCH`` baskets the streamed gate labels.
STREAMED_BATCHES = 4
STREAM_BATCH = 4096

#: Threads of the pool the memory gates force (more than the 2 CPUs the
#: benchmarks usually get: the blocks in flight must share one block's
#: cells however many threads run them, and the streaming loop keeps one
#: batch per pool thread in flight).
GATE_WORKERS = 4

#: Ceiling on one traced ``label_points_streaming`` of those batches with
#: ``GATE_WORKERS`` usable CPUs, all four batches in flight at once: 10
#: MiB, a fifth above the 8.3 MiB measured (5.3 MiB on 2 CPUs, 3.8 MiB
#: one batch at a time).
MAX_STREAMED_PEAK_BYTES = 10 * 2**20

_records: dict[str, list[str]] = {}
_memory_records: dict[str, list[str]] = {}


def _write_throughput(results_dir) -> None:
    lines = [
        "[LABELING] count-kernel forms on each side of the crossover",
        "workload: instacart baskets, theta=%s, dense form while items x (rows + %d x "
        "clusters) <= %d x nnz; forms timed pooled and inline" % (
            THETA, CLUSTER_SUM_ROWS, DENSE_MAX_CELLS_PER_NONZERO
        ),
    ]
    for name in (*ROWS, "latency"):
        lines.extend(_records.get(name, []))
    write_record(results_dir, "LABELING_throughput", "\n".join(lines))


def _segments(data, n_sample: int) -> list[list[int]]:
    """The first ``n_sample`` baskets' generator segments as clusters."""
    segments = np.asarray(data.labels[:n_sample])
    return [np.flatnonzero(segments == s).tolist() for s in np.unique(segments)]


def _write_memory(results_dir) -> None:
    lines = [line for name in ("batch", "streamed") for line in _memory_records.get(name, [])]
    write_record(results_dir, "LABELING_memory", "\n".join(lines))


def _stream_sample(n_batch: int):
    """A 4000-basket Instacart sample, its segments and ``n_batch`` further
    baskets."""
    data = generate_instacart_baskets(n_transactions=STREAM_SAMPLE + n_batch, rng=0)
    return (
        data.transactions[:STREAM_SAMPLE],
        _segments(data, STREAM_SAMPLE),
        data.transactions[STREAM_SAMPLE:],
    )


def _stream_case(n_batch: int):
    """A labeler on a 4000-basket Instacart sample, clustered by its
    generator segments, and ``n_batch`` further baskets."""
    sample, clusters, rest = _stream_sample(n_batch)
    return StreamingLabeler(sample, clusters, theta=THETA, rng=0), rest


def _counts(labeler, batch, dense: bool) -> np.ndarray:
    labeler._dense_form = dense
    return labeler._matmul_counts(batch)


def _seconds(labeler, batch, dense: bool) -> float:
    start = time.perf_counter()
    _counts(labeler, batch, dense)
    return time.perf_counter() - start


@pytest.mark.parametrize("row", list(ROWS))
def test_benchmark_labeling_forms(row, results_dir, monkeypatch):
    n_sample, n_unlabeled = (4000, 16384) if bench_full() else (1000, 4096)
    overrides, n_clusters, dense_side = ROWS[row]
    data = generate_instacart_baskets(
        n_transactions=n_sample + n_unlabeled, rng=0, **overrides
    )
    sample, unlabeled = data.transactions[:n_sample], data.transactions[n_sample:]
    clusters = _segments(data, n_sample)
    if n_clusters is not None:
        # The segments cut into runs of equal length, about n_clusters in all.
        run = max(1, n_sample // n_clusters)
        clusters = [c[i:i + run] for c in clusters for i in range(0, len(c), run)]

    labeler = StreamingLabeler(sample, clusters, theta=THETA, rng=0)
    n_rows, n_items = labeler._retained_incidence.shape
    auto = labeler._dense_form
    timed = unlabeled[:TIMED_POINTS]
    assert np.array_equal(_counts(labeler, timed, True), _counts(labeler, timed, False))
    seconds = {(path, dense): [] for path in PATHS for dense in (True, False)}
    for _ in range(REPEATS):
        for path in PATHS:
            with monkeypatch.context() as patch:
                if path == "inline":
                    patch.setattr(labeling_module, "cpu_pool", lambda: None)
                for dense in (True, False):
                    seconds[path, dense].append(_seconds(labeler, timed, dense))
    labeler._dense_form = auto
    best = {key: min(values) for key, values in seconds.items()}
    ratios = {
        path: best[path, auto] / min(best[path, True], best[path, False]) for path in PATHS
    }

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
    ] + [
        "  %-6s dense form %.4fs   sparse form %.4fs   auto/best %.2fx (gate <= %.2fx; "
        "%d points, best of %d)"
        % (
            path, best[path, True], best[path, False], ratios[path], AUTO_SLACK,
            len(timed), REPEATS,
        )
        for path in PATHS
    ] + [
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
    for path, ratio in ratios.items():
        assert ratio <= AUTO_SLACK, (
            "auto picked the %s form on row %s at %.2fx the faster form (%s)"
            % ("dense" if auto else "sparse", row, ratio, path)
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
    _memory_records["batch"] = [
        "[LABELING] memory gate: one traced label_batch of %d baskets against %d "
        "retained rows (%s operand, %d-thread pool)"
        % (len(batch), n_rows, labeler._operand.dtype, GATE_WORKERS),
        "  peak %.2f MiB above its inputs (limit %.0f MiB)"
        % (peak / 2**20, MAX_LABEL_PEAK_BYTES / 2**20),
    ]
    _write_memory(results_dir)
    assert len(result.labels) == len(batch)
    assert peak <= MAX_LABEL_PEAK_BYTES, (
        "one %d-basket label_batch traced %.2f MiB above its inputs, above the "
        "%.0f MiB ceiling" % (len(batch), peak / 2**20, MAX_LABEL_PEAK_BYTES / 2**20)
    )


def test_streamed_label_memory_gate(results_dir, monkeypatch):
    # The real CPU pool rules on GATE_WORKERS usable CPUs, whatever the
    # host has: the loop keeps one batch per pool thread in flight.
    monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: GATE_WORKERS)
    monkeypatch.setattr(cpu_pool_module, "_pool", None)
    sample, clusters, rest = _stream_sample(STREAMED_BATCHES * STREAM_BATCH)
    batches = [
        rest[low:low + STREAM_BATCH] for low in range(0, len(rest), STREAM_BATCH)
    ]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        streamed = label_points_streaming(batches, sample, clusters, theta=THETA, rng=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        if cpu_pool_module._pool is not None:
            cpu_pool_module._pool[0].shutdown()
    _memory_records["streamed"] = [
        "[LABELING] streamed memory gate: one traced label_points_streaming of %d "
        "batches of %d baskets against a %d-basket sample (set-up, %d usable CPUs: "
        "up to %d batches in flight, every batch's result kept)"
        % (len(batches), STREAM_BATCH, len(sample), GATE_WORKERS, GATE_WORKERS),
        "  peak %.2f MiB above its inputs (limit %.0f MiB)"
        % (peak / 2**20, MAX_STREAMED_PEAK_BYTES / 2**20),
    ]
    _write_memory(results_dir)
    assert streamed.n_batches == len(batches) == STREAMED_BATCHES
    assert streamed.n_points == STREAMED_BATCHES * STREAM_BATCH
    assert peak <= MAX_STREAMED_PEAK_BYTES, (
        "label_points_streaming of %d batches traced %.2f MiB above its inputs, "
        "above the %.0f MiB ceiling"
        % (len(batches), peak / 2**20, MAX_STREAMED_PEAK_BYTES / 2**20)
    )
