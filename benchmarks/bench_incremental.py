"""Incremental-ingest benchmark: online ingest vs a from-scratch re-run.

The value proposition of :mod:`repro.core.incremental` is that absorbing
new points into a live clustering is cheaper than re-running the whole
pipeline on the grown data set.  This benchmark measures exactly that
claim on the standard tight-cluster basket workload and turns it into two
gates:

* **equivalence gate** — ``run_online`` over the full data set (refresh
  disabled) must produce labels bit-identical to ``run_streaming`` on the
  same data and seed, re-checked here at benchmark scale;
* **perf gate** — after bootstrapping on the first 80% of the points,
  ingesting the final 20% through :meth:`RockPipeline.ingest` must beat a
  from-scratch ``run_online`` over all points — the re-run it replaces:
  both leave the same artifact behind (labels for every point plus a live
  session with the exact maintained link matrix, ready for further
  ingest).  A plain ``run_streaming`` re-run is reported alongside for
  context; it is cheaper than the live state it does *not* maintain, so
  it is a reference point, not the gate.  Both sides are measured in the
  same process, so the comparison divides machine speed out exactly like
  the sharding gate.

A refresh exercise rides along: the same ingest tail with a tight
``refresh_threshold`` must trigger at least one full re-cluster and stay
seed-reproducible.

A live-size sweep times 8-basket ingests of Instacart-shaped baskets at
theta 0.3 into sessions of 1k and 2k live points (smoke) or 1k/2k/4k/8k
(full), bootstrapped on the generator's segments, and gates them:

* **memory gate** (every mode) — one ``tracemalloc``-traced ingest may
  allocate at most ``INGEST_BYTES_PER_NNZ`` bytes per live adjacency
  nonzero.  Growing the adjacency copies it once (5 bytes per nonzero,
  twice at the peak); a point-level link matrix rebuilt per ingest costs
  over 100.  Allocation sizes do not depend on the machine;
* **live-size gate** (full mode) — an ingest at 8k live points may cost
  at most ``LIVE_SIZE_RATIO_BOUND`` times one at 1k.  Each basket
  neighbours ~5.5% of the live set, so the batch's own neighbourhood work
  grows ~70x over that range and a flat ratio is out of reach; the bound
  catches a return to whole-state rebuilds (24-32x).  Both sizes run in the
  same process, so the ratio divides machine speed out.

The sweep and the refresh time at its largest size are recorded with the
ingest-vs-re-run figures in ``INCREMENTAL_ingest.txt``.

Run modes (see ``conftest.bench_full``): smoke ingests the tail of ~1200
baskets with a 300-point sample, full (``REPRO_BENCH_FULL=1``) the tail of
4000 baskets with an 800-point sample — the ISSUE-5 gate size.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import bench_full, write_record

from repro.bench.engine_bench import BENCH_CLUSTERS, BENCH_THETA, WORKLOAD, traced_call
from repro.core.incremental import IncrementalRock
from repro.core.pipeline import RockPipeline
from repro.datasets.market_basket import generate_instacart_baskets, generate_market_baskets

#: Fraction of the stream ingested incrementally by the perf gate.
INGEST_TAIL_FRACTION = 0.2

#: Batch size of both the streaming labelling pass and the ingest loop.
BATCH_SIZE = 1024

#: Live-size sweep: baskets per ingest, timed ingests per size (the median
#: is reported) and the theta of the Instacart-shaped workload.
SWEEP_BATCH = 8
SWEEP_REPEATS = 20
SWEEP_THETA = 0.3

#: Memory gate: traced peak of one ingest per live adjacency nonzero.
INGEST_BYTES_PER_NNZ = 24

#: Live-size gate (full mode): ingest at the largest size over the smallest.
LIVE_SIZE_RATIO_BOUND = 8.0


def _sweep_sizes() -> list[int]:
    return [1000, 2000, 4000, 8000] if bench_full() else [1000, 2000]


def _sweep_point(n_live: int, with_refresh: bool) -> dict:
    """Median ingest time and one traced ingest's peak at ``n_live`` points."""
    data = generate_instacart_baskets(
        n_transactions=n_live + SWEEP_BATCH * (SWEEP_REPEATS + 1), rng=0
    )
    transactions = list(data.transactions)
    segments = np.asarray(data.labels[:n_live])
    session = IncrementalRock(n_clusters=8, theta=SWEEP_THETA, rng=0)
    session.bootstrap(
        transactions[:n_live],
        [np.nonzero(segments == segment)[0].tolist() for segment in np.unique(segments)],
    )
    batches = list(_ingest_batches(transactions[n_live:], SWEEP_BATCH))
    seconds = []
    for batch in batches[:SWEEP_REPEATS]:
        start = time.perf_counter()
        session.ingest(batch)
        seconds.append(time.perf_counter() - start)
    adjacency_nnz = session.adjacency_.nnz
    _, peak = traced_call(session.ingest, batches[SWEEP_REPEATS])
    point = {
        "n_live": n_live,
        "adjacency_nnz": adjacency_nnz,
        "ingest_s": float(np.median(seconds)),
        "peak_bytes_per_nnz": peak / adjacency_nnz,
    }
    if with_refresh:
        start = time.perf_counter()
        session.refresh()
        point["refresh_s"] = time.perf_counter() - start
    return point


@pytest.fixture(scope="module")
def ingest_sweep() -> list[dict]:
    sizes = _sweep_sizes()
    return [_sweep_point(n_live, n_live == sizes[-1]) for n_live in sizes]


def _sweep_lines(sweep: list[dict]) -> list[str]:
    lines = [
        "live-size sweep: %d-basket Instacart ingests, theta=%s, median of %d"
        % (SWEEP_BATCH, SWEEP_THETA, SWEEP_REPEATS)
    ]
    for point in sweep:
        lines.append(
            "  %5d live  adjacency nnz %9d  ingest %7.1f ms  traced peak %5.1f B/nnz"
            % (
                point["n_live"],
                point["adjacency_nnz"],
                1000.0 * point["ingest_s"],
                point["peak_bytes_per_nnz"],
            )
        )
    largest, smallest = sweep[-1], sweep[0]
    lines.append(
        "  ingest %d/%d live: %.1fx (gate <= %.0fx, full mode only)"
        % (
            largest["n_live"],
            smallest["n_live"],
            largest["ingest_s"] / smallest["ingest_s"],
            LIVE_SIZE_RATIO_BOUND,
        )
    )
    lines.append(
        "  memory gate: traced ingest peak <= %d B per adjacency nonzero"
        % INGEST_BYTES_PER_NNZ
    )
    lines.append(
        "  refresh at %d live: %.2fs (computes the link matrix once)"
        % (largest["n_live"], largest["refresh_s"])
    )
    return lines


def _pipeline(sample_size: int, rng: int = 7) -> RockPipeline:
    return RockPipeline(
        n_clusters=BENCH_CLUSTERS,
        theta=BENCH_THETA,
        sample_size=sample_size,
        min_cluster_size=2,
        rng=rng,
    )


def _ingest_batches(transactions, batch_size: int):
    for start in range(0, len(transactions), batch_size):
        yield transactions[start:start + batch_size]


def test_benchmark_incremental_ingest(results_dir, ingest_sweep):
    if bench_full():
        n, sample_size = 4000, 800
    else:
        n, sample_size = 1200, 300
    boundary = int(n * (1.0 - INGEST_TAIL_FRACTION))
    data = generate_market_baskets(n_transactions=n, rng=0, **WORKLOAD)
    transactions = data.transactions

    # ---- equivalence gate: online == streaming on the full stream ---- #
    streamed = _pipeline(sample_size).run_streaming(
        transactions, batch_size=BATCH_SIZE
    )
    online = _pipeline(sample_size).run_online(
        transactions, batch_size=BATCH_SIZE
    )
    assert np.array_equal(online.labels, streamed.labels), (
        "run_online labels diverged from run_streaming at n=%d" % n
    )

    # ---- perf gate: ingest of the final 20% vs a from-scratch run ---- #
    pipeline = _pipeline(sample_size)
    bootstrap = pipeline.run_online(transactions[:boundary], batch_size=BATCH_SIZE)
    tail = transactions[boundary:]
    start = time.perf_counter()
    for batch in _ingest_batches(tail, BATCH_SIZE):
        pipeline.ingest(batch)
    ingest_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rerun = _pipeline(sample_size).run_online(transactions, batch_size=BATCH_SIZE)
    rerun_seconds = time.perf_counter() - start
    start = time.perf_counter()
    _pipeline(sample_size).run_streaming(transactions, batch_size=BATCH_SIZE)
    streaming_seconds = time.perf_counter() - start
    speedup = rerun_seconds / max(ingest_seconds, 1e-9)

    session = pipeline.online_session
    assert session.n_ingested >= len(tail)

    # ---- refresh exercise: tight threshold, reproducible ------------- #
    def refreshing_tail_labels():
        refresh_pipeline = _pipeline(sample_size)
        refresh_pipeline.run_online(
            transactions[:boundary],
            batch_size=BATCH_SIZE,
            refresh_threshold=0.05,
        )
        chunks = [
            refresh_pipeline.ingest(batch).labels
            for batch in _ingest_batches(tail, BATCH_SIZE)
        ]
        return refresh_pipeline.online_session.n_refreshes, np.concatenate(chunks)

    refreshes_a, labels_a = refreshing_tail_labels()
    refreshes_b, labels_b = refreshing_tail_labels()
    assert refreshes_a >= 1, "tight refresh threshold never triggered"
    assert refreshes_a == refreshes_b
    assert np.array_equal(labels_a, labels_b), (
        "refreshing ingest not seed-reproducible"
    )

    lines = ["[INCREMENTAL] online ingest vs from-scratch re-run"]
    lines.append(
        "workload: market-basket, n=%d, sample=%d, theta=%s, clusters=%d, "
        "tail=%d points" % (n, sample_size, BENCH_THETA, BENCH_CLUSTERS, len(tail))
    )
    lines.append(
        "  from-scratch run_online     %.3fs  (%d clusters, %d outliers)"
        % (rerun_seconds, rerun.n_clusters, rerun.n_outliers)
    )
    lines.append(
        "  run_streaming (no live state) %.3fs  [context only]"
        % streaming_seconds
    )
    lines.append(
        "  ingest final %d%%            %.3fs  (%.1fx faster, %d live clusters)"
        % (
            int(INGEST_TAIL_FRACTION * 100),
            ingest_seconds,
            speedup,
            len(session.live_clusters()),
        )
    )
    lines.append(
        "  refresh exercise: %d refreshes at threshold 0.05, reproducible"
        % refreshes_a
    )
    gate_ok = ingest_seconds < rerun_seconds
    lines.append(
        "  perf gate: %s (ingest %.3fs must beat the run_online re-run %.3fs)"
        % ("PASS" if gate_ok else "FAIL", ingest_seconds, rerun_seconds)
    )
    lines.extend(_sweep_lines(ingest_sweep))
    write_record(results_dir, "INCREMENTAL_ingest", "\n".join(lines))
    assert gate_ok, (
        "ingesting the final %d%% (%.3fs) did not beat a from-scratch "
        "run_online re-run (%.3fs) at n=%d" % (
            int(INGEST_TAIL_FRACTION * 100), ingest_seconds, rerun_seconds, n,
        )
    )
    assert bootstrap.parameters["online"] is True


def test_ingest_sweep_gates(ingest_sweep):
    for point in ingest_sweep:
        assert point["peak_bytes_per_nnz"] <= INGEST_BYTES_PER_NNZ, (
            "one ingest at %d live points allocated %.1f B per adjacency "
            "nonzero (gate %d)"
            % (point["n_live"], point["peak_bytes_per_nnz"], INGEST_BYTES_PER_NNZ)
        )
    if bench_full():
        ratio = ingest_sweep[-1]["ingest_s"] / ingest_sweep[0]["ingest_s"]
        assert ratio <= LIVE_SIZE_RATIO_BOUND, (
            "ingest at %d live points cost %.1fx one at %d (gate %.0fx)"
            % (
                ingest_sweep[-1]["n_live"],
                ratio,
                ingest_sweep[0]["n_live"],
                LIVE_SIZE_RATIO_BOUND,
            )
        )
