"""Engine benchmark: per-phase timings of the clustering hot paths.

Times the four pipeline phases — neighbour graph (per backend strategy),
link matrix, agglomeration (per engine) and labelling (one-shot and
batched through the streaming labeler) — on a reproducible synthetic
random-basket workload, and emits the ``BENCH_engine.json`` perf baseline
consumed by :mod:`repro.bench.perf_gate`.  :func:`trace_neighbor_peak`
and :func:`trace_link_peak` measure the traced allocation peaks of one
``auto`` neighbour call and one link product for the benchmark's memory
gates.

The workload is a tight-cluster market-basket shape (eight latent groups
whose baskets share most of a small item pool), the regime ROCK targets:
at ``theta = 0.5`` the in-cluster Jaccard similarities clear the threshold,
giving a link graph dense enough to exercise the agglomeration engines
properly.  Up to ``reference_max`` the arena engine's merge history is
asserted bit-identical to the reference spec's, and up to
:data:`SPEC_CHECK_MAX` points every timed neighbour adjacency is asserted
bit-identical to the ``bruteforce`` spec's, so every benchmark run doubles
as an equivalence check on a full-size workload.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

from repro.core import links as links_module
from repro.core.engines import ARENA_ENGINE, REFERENCE_ENGINE
from repro.core.labeling import label_points, label_points_streaming
from repro.data.io import atomic_write_text
from repro.core.links import links_from_neighbors
from repro.core.neighbors import DEFAULT_BLOCK_SIZE, compute_neighbors
from repro.core.rock import RockClustering
from repro.datasets.market_basket import (
    generate_instacart_baskets,
    generate_market_baskets,
)

#: Parameters of the benchmark's random-basket workload (see module doc).
WORKLOAD = {
    "n_clusters": 8,
    "items_per_cluster": 12,
    "basket_size_mean": 10.0,
    "shared_items": 5,
    "shared_rate": 0.1,
    "cross_pool_rate": 0.05,
}

#: Theta used throughout the benchmark.
BENCH_THETA = 0.5

#: Clusters requested from the agglomeration phase.
BENCH_CLUSTERS = 8

#: Number of batches the streaming labelling measurement splits the
#: unlabelled points into.
LABEL_BATCHES = 8

#: Neighbour strategies timed per size, and the row keys their timings are
#: recorded under.  ``auto`` comes first: its graph feeds the later phases
#: and its time is ``neighbors_s``, the base of the labelling ratio.
NEIGHBOR_BENCH_STRATEGIES = (
    ("auto", "neighbors_s"),
    ("blocked", "neighbors_blocked_s"),
)

#: Largest size at which every timed strategy's adjacency is asserted
#: identical to the ``bruteforce`` spec's (untimed; ~1 s at n=1000), so
#: each run doubles as a spec check at benchmark scale.
SPEC_CHECK_MAX = 1000


def engine_workload(n: int, rng: int = 0) -> list[frozenset]:
    """Generate the benchmark's random-basket transactions."""
    dataset = generate_market_baskets(n_transactions=n, rng=rng, **WORKLOAD)
    return dataset.transactions


def _best_of(repeats: int, measure) -> float:
    """Smallest wall-clock time of ``repeats`` calls to ``measure()``."""
    return min(measure() for _ in range(max(1, repeats)))


def _first_and_best_of(repeats: int, call):
    """``call()``'s first result and its smallest wall-clock time over
    ``repeats`` calls.

    Best-of-``repeats`` like every other gated phase (a single measurement
    of a millisecond-scale phase would let one scheduler stall trip the
    gate), and the first run's result is reused rather than built again
    outside the timed region.
    """
    result = None
    best = float("inf")
    for attempt in range(max(1, repeats)):
        start = time.perf_counter()
        candidate = call()
        best = min(best, time.perf_counter() - start)
        if attempt == 0:
            result = candidate
    return result, best


def time_engine_phases(
    n: int,
    theta: float = BENCH_THETA,
    n_clusters: int = BENCH_CLUSTERS,
    include_reference: bool = True,
    repeats: int = 3,
    rng: int = 0,
) -> dict:
    """Time every pipeline phase at workload size ``n``.

    Returns a row with the phase timings in seconds (best of ``repeats``
    runs each), the workload shape, and — when the reference engine is
    included — the arena-over-reference agglomeration speedup.  Raises if
    the two engines disagree on the merge history.
    """
    transactions = engine_workload(n, rng=rng)

    # One timing loop per neighbour strategy; the first one's graph is
    # what the link/agglomeration phases consume.  Up to SPEC_CHECK_MAX
    # every timed graph is asserted bit-identical to the bruteforce spec.
    spec = None
    if n <= SPEC_CHECK_MAX:
        spec = compute_neighbors(transactions, theta=theta, strategy="bruteforce")
    neighbor_timings: dict[str, float] = {}
    graph = None
    for strategy, key in NEIGHBOR_BENCH_STRATEGIES:
        candidate, seconds = _first_and_best_of(
            repeats, partial(compute_neighbors, transactions, theta=theta, strategy=strategy)
        )
        neighbor_timings[key] = seconds
        if graph is None:
            graph = candidate
        if spec is not None and (spec.adjacency != candidate.adjacency).nnz:
            raise AssertionError(
                "neighbour backend mismatch at n=%d: %r disagrees with the "
                "bruteforce spec" % (n, strategy)
            )
    links, links_seconds = _first_and_best_of(repeats, partial(links_from_neighbors, graph))

    def agglomerate(engine: str):
        model = RockClustering(n_clusters=n_clusters, theta=theta, engine=engine)
        return model._agglomerate(links, n)

    arena_result = agglomerate(ARENA_ENGINE)
    arena_seconds = _best_of(
        repeats, lambda: agglomerate(ARENA_ENGINE).elapsed_seconds
    )

    row = {
        "n": n,
        "theta": theta,
        "n_clusters_requested": n_clusters,
        "links_nnz": int(links.nnz),
        "n_merges": len(arena_result.merge_history),
        **neighbor_timings,
        "links_s": links_seconds,
        "agglomerate_arena_s": arena_seconds,
        "merge_counters": {
            key: int(value)
            for key, value in arena_result.merge_counters.items()
        },
    }

    if include_reference:
        reference_result = agglomerate(REFERENCE_ENGINE)
        if reference_result.merge_history != arena_result.merge_history:
            raise AssertionError(
                "engine mismatch at n=%d: arena and reference merge histories "
                "differ" % n
            )
        reference_seconds = _best_of(
            max(1, repeats - 1), lambda: agglomerate(REFERENCE_ENGINE).elapsed_seconds
        )
        row["agglomerate_reference_s"] = reference_seconds
        row["agglomerate_speedup"] = reference_seconds / arena_seconds
    else:
        # The quadratic reference engine is skipped by design above
        # ``reference_max``; say so explicitly instead of silently omitting
        # its keys (the perf gate rejects rows that have neither).
        row["reference_skipped"] = True

    # Labelling: place n // 2 freshly drawn baskets against the clustering,
    # once in one shot and once batch-by-batch through the streaming path.
    # Both timings are best-of-`repeats` like the agglomeration ones: these
    # metrics feed the perf gate, and a single measurement of a
    # millisecond-scale phase would let one scheduler stall trip it.
    unlabeled = engine_workload(max(2, n // 2), rng=rng + 1)
    batch_size = max(1, len(unlabeled) // LABEL_BATCHES)
    batches = [
        unlabeled[i:i + batch_size] for i in range(0, len(unlabeled), batch_size)
    ]

    def label_one_shot():
        return label_points(
            unlabeled, transactions, arena_result.clusters, theta=theta, rng=0
        )

    def label_batched():
        return label_points_streaming(
            batches, transactions, arena_result.clusters, theta=theta, rng=0
        )

    def timed(run):
        start = time.perf_counter()
        run()
        return time.perf_counter() - start

    one_shot = label_one_shot()
    streamed = label_batched()
    if not np.array_equal(streamed.merged.labels, one_shot.labels):
        raise AssertionError(
            "labelling mismatch at n=%d: batched and one-shot labels differ" % n
        )
    row["label_s"] = _best_of(repeats, lambda: timed(label_one_shot))
    row["label_batched_s"] = _best_of(repeats, lambda: timed(label_batched))
    row["label_batches"] = streamed.n_batches
    return row


def traced_call(function, *args):
    """Call ``function(*args)``; return its result and the peak bytes it
    allocated (``tracemalloc``, started and stopped here unless already on)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = function(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


def trace_neighbor_peak(n: int, theta: float = BENCH_THETA, rng: int = 0) -> dict:
    """Traced allocation peak of one ``auto`` neighbour call at size ``n``.

    Returns the peak in bytes (``neighbors_peak_bytes``) and per cell of
    one row block against every point (``neighbors_peak_bytes_per_cell``,
    over ``DEFAULT_BLOCK_SIZE * n`` cells), the unit the blocked product
    bounds its intermediates by.  Allocation sizes do not depend on the
    machine, so the per-cell figure is gateable anywhere.
    """
    graph, peak = traced_call(compute_neighbors, engine_workload(n, rng=rng), theta)
    cells = DEFAULT_BLOCK_SIZE * n
    return {
        "n": n,
        "edges": graph.n_edges(),
        "neighbors_peak_bytes": peak,
        "block_cells": cells,
        "neighbors_peak_bytes_per_cell": peak / cells,
    }


#: Theta of the link memory gate's Instacart-shaped baskets (the perfbench
#: workloads' theta).
LINK_GATE_THETA = 0.3


def trace_link_peak(
    n: int, theta: float = LINK_GATE_THETA, rng: int = 0, product=links_from_neighbors
) -> dict:
    """Traced allocation peak of one link product on ``n`` Instacart-shaped
    baskets: ``product`` is :func:`~repro.core.links.links_from_neighbors`
    (the public int64 matrix) or :func:`~repro.core.links.canonical_links`
    (what a fit seeds the arena from).

    Returns the peak in bytes (``links_peak_bytes``) and per nonzero of the
    link matrix (``links_peak_bytes_per_nnz``), the product's multiply-adds
    and the path it took (``"pool"`` for the row blocks on the CPU pool,
    ``"single"`` for the one call).  Allocation sizes do not depend on the
    machine, so the per-nonzero figure is gateable anywhere.
    """
    transactions = generate_instacart_baskets(n_transactions=n, rng=rng).transactions
    graph = compute_neighbors(transactions, theta=theta)
    links, peak = traced_call(product, graph)
    lengths = graph.neighbor_counts().astype(np.int64) + 1
    multiply_adds = int(lengths @ lengths)
    pooled = links_module._link_pool(multiply_adds) is not None
    return {
        "n": n,
        "product": product.__name__,
        "links_nnz": int(links.nnz),
        "multiply_adds": multiply_adds,
        "path": "pool" if pooled else "single",
        "links_peak_bytes": peak,
        "links_peak_bytes_per_nnz": peak / max(1, links.nnz),
    }


def run_engine_bench(
    sizes: list[int],
    reference_max: int,
    theta: float = BENCH_THETA,
    repeats: int = 3,
    path: str | Path | None = None,
) -> dict:
    """Run the engine benchmark over ``sizes`` and optionally persist it.

    Parameters
    ----------
    sizes:
        Workload sizes (number of transactions) to time.
    reference_max:
        Largest size at which the quadratic-cost reference engine is also
        timed (larger sizes report the arena engine only).
    theta, repeats:
        Forwarded to :func:`time_engine_phases`.
    path:
        When given, the payload is written there as JSON
        (``BENCH_engine.json`` format).
    """
    rows = [
        time_engine_phases(
            n, theta=theta, include_reference=n <= reference_max, repeats=repeats
        )
        for n in sizes
    ]
    payload = {
        "benchmark": "engine",
        "workload": {"generator": "market-basket", **WORKLOAD},
        "theta": theta,
        "n_clusters_requested": BENCH_CLUSTERS,
        "repeats": repeats,
        "numpy_version": np.__version__,
        "sizes": rows,
    }
    if path is not None:
        atomic_write_text(
            Path(path), json.dumps(payload, indent=2, sort_keys=False) + "\n"
        )
    return payload
