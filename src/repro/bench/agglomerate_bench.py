"""Merge-loop microbenchmark: the arena engine against the reference spec.

Unlike :mod:`repro.bench.engine_bench`, which times every pipeline phase,
this module isolates the agglomeration merge loop: the link matrix is
built once and each engine is timed on ``agglomerate`` alone (best of
``repeats``), alongside the arena engine's native work counters
(selection scans, stale-bound reworks, frontier sizes, arena bookkeeping)
and the ``tracemalloc`` peak of one untimed arena run.
When the quadratic-cost reference engine is included its merge history is
asserted bit-identical to the arena's before any number is reported, so
the benchmark cannot quietly time two different clusterings; the script
(``benchmarks/bench_agglomerate.py``) gates the arena engine's speed-up
over the reference at n=2000 and its n=4000 time against the committed
``BENCH_engine.json`` baseline.
"""

from __future__ import annotations

import time

from repro.bench.engine_bench import (
    BENCH_CLUSTERS,
    BENCH_THETA,
    engine_workload,
    traced_call,
)
from repro.core.engines import ARENA_ENGINE, REFERENCE_ENGINE, get_engine
from repro.core.links import links_from_neighbors
from repro.core.neighbors import compute_neighbors


def _best_agglomerate_seconds(engine_name: str, links, n_points: int,
                              n_clusters: int, theta: float, repeats: int) -> float:
    engine = get_engine(engine_name)
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        engine.agglomerate(links, n_points, n_clusters, theta)
        best = min(best, time.perf_counter() - start)
    return best


def merge_loop_bench(
    n: int,
    theta: float = BENCH_THETA,
    n_clusters: int = BENCH_CLUSTERS,
    repeats: int = 3,
    rng: int = 0,
    include_reference: bool = False,
) -> dict:
    """Time the arena merge loop (and optionally the reference's) on one
    prebuilt link matrix.

    Returns a row with the workload shape, the best-of-``repeats``
    ``agglomerate_arena_s``, the arena engine's counters, the derived mean
    frontier size per merge and the traced allocation peak of one arena run
    (``agglomerate_arena_peak_bytes``, and per link nonzero in
    ``arena_peak_bytes_per_nnz``; allocation sizes do not depend on the
    machine, so the per-nonzero figure is gateable anywhere); with
    ``include_reference`` also
    ``agglomerate_reference_s`` (best of ``repeats - 1``, at least one run)
    and ``agglomerate_speedup`` (reference / arena).  The keys match
    ``BENCH_engine.json`` rows, so the row feeds :mod:`repro.bench.perf_gate`
    directly.  Raises when the two engines disagree on the merge history.
    """
    transactions = engine_workload(n, rng=rng)
    graph = compute_neighbors(transactions, theta=theta, strategy="blocked")
    links = links_from_neighbors(graph)

    arena_run, arena_peak = traced_call(
        get_engine(ARENA_ENGINE).agglomerate, links, n, n_clusters, theta
    )
    arena_seconds = _best_agglomerate_seconds(
        ARENA_ENGINE, links, n, n_clusters, theta, repeats
    )
    arena_counters = {key: int(value) for key, value in arena_run.counters.items()}
    merges = arena_counters.get("merges", 0)
    row = {
        "n": n,
        "theta": theta,
        "n_clusters_requested": n_clusters,
        "links_nnz": int(links.nnz),
        "n_merges": len(arena_run.merge_history),
        "stopped_early": bool(arena_run.stopped_early),
        "agglomerate_arena_s": arena_seconds,
        "arena_counters": arena_counters,
        "mean_frontier": (
            arena_counters.get("frontier_total", 0) / merges if merges else 0.0
        ),
        "agglomerate_arena_peak_bytes": arena_peak,
        "arena_peak_bytes_per_nnz": arena_peak / max(int(links.nnz), 1),
    }
    if include_reference:
        start = time.perf_counter()
        reference_run = get_engine(REFERENCE_ENGINE).agglomerate(
            links, n, n_clusters, theta
        )
        reference_seconds = time.perf_counter() - start
        if reference_run.merge_history != arena_run.merge_history:
            raise AssertionError(
                "engine mismatch at n=%d: arena and reference merge histories "
                "differ" % n
            )
        if repeats > 2:
            reference_seconds = min(
                reference_seconds,
                _best_agglomerate_seconds(
                    REFERENCE_ENGINE, links, n, n_clusters, theta, repeats - 2
                ),
            )
        row["agglomerate_reference_s"] = reference_seconds
        row["agglomerate_speedup"] = reference_seconds / arena_seconds
    return row
