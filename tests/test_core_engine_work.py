"""Pins of the arena merge loop's work on fixed inputs.

The cross-engine suites pin *what* the arena merges; this file pins *how
much work* it does to get there.  For each input below it records the
engine's counters and a digest of the merge history and the surviving
members, and asserts both unchanged.  Equal ``selection_scans``,
``best_rescans`` and ``rescan_cells`` mean the loop reworks exactly the
same stale bests at the same moments; equal ``row_relocations``,
``compactions`` and ``frontier_total`` mean it moves and appends the same
cells.  A change
that is meant to alter the loop's work (a new row layout, say) re-records
the pins and says why.

The inputs: the engine benchmark's baskets at two sizes and two thetas,
baskets with many exact duplicates (so goodness values tie exactly), and
float-weighted starting clusters built the way the sharded summary merge
builds them (representative links folded through ``W L W``).
"""

import hashlib

import numpy as np
import pytest
from scipy import sparse

from repro.bench.engine_bench import BENCH_CLUSTERS, WORKLOAD, engine_workload
from repro.core.engine_arena import arena_agglomerate
from repro.core.links import links_from_neighbors
from repro.core.neighbors import compute_neighbors
from repro.datasets.market_basket import generate_market_baskets


def _digest(history, members) -> str:
    """SHA-256 prefix over every step's ids, exact goodness and size, then
    every surviving cluster's members in the order the engine lists them."""
    steps = ";".join(
        "%d,%d,%s,%d" % (step.left, step.right, step.goodness.hex(), step.new_size)
        for step in history
    )
    groups = ";".join(
        "%d:%s" % (cluster, ",".join(map(str, points)))
        for cluster, points in sorted(members.items())
    )
    return hashlib.sha256((steps + "|" + groups).encode("ascii")).hexdigest()[:16]


def _basket_run(n, theta):
    transactions = engine_workload(n)
    links = links_from_neighbors(compute_neighbors(transactions, theta=theta))
    return arena_agglomerate(links, n, BENCH_CLUSTERS, theta)


def _duplicate_run():
    # 400 baskets drawn with replacement from 40: whole link rows repeat,
    # so many pairs score exactly the same goodness.
    rng = np.random.default_rng(29)
    distinct = engine_workload(40, rng=1)
    transactions = [distinct[i] for i in rng.integers(0, len(distinct), size=400)]
    links = links_from_neighbors(compute_neighbors(transactions, theta=0.5))
    return arena_agglomerate(links, len(transactions), 4, 0.5)


def _summary_run():
    # Label-coherent summaries of 3-20 baskets, up to five representatives
    # each, weighted by size / representatives, and the summary-by-summary
    # cross mass M (W L W) M^T in float64, as the summary merge has it.
    rng = np.random.default_rng(29)
    dataset = generate_market_baskets(n_transactions=600, rng=2, **WORKLOAD)
    order = np.argsort(np.asarray(dataset.labels), kind="stable")
    summaries = []
    start = 0
    while start < order.size:
        stop = min(order.size, start + int(rng.integers(3, 21)))
        summaries.append(order[start:stop])
        start = stop
    sizes = np.array([len(members) for members in summaries], dtype=np.int64)
    chosen = [
        members if len(members) <= 5 else np.sort(rng.choice(members, 5, replace=False))
        for members in summaries
    ]
    owner = np.repeat(np.arange(len(summaries)), [len(c) for c in chosen])
    weights = (sizes / np.array([len(c) for c in chosen], dtype=np.float64))[owner]
    representatives = [dataset.transactions[i] for c in chosen for i in c]
    links = links_from_neighbors(compute_neighbors(representatives, theta=0.3))
    weight_diagonal = sparse.diags(weights)
    membership = sparse.csr_matrix(
        (np.ones(owner.size), (owner, np.arange(owner.size))),
        shape=(len(summaries), owner.size),
    )
    cross = membership @ (weight_diagonal @ links @ weight_diagonal) @ membership.T
    assert cross.dtype == np.float64
    return arena_agglomerate(cross, len(summaries), 4, 0.3, sizes=sizes)


RUNS = {
    "baskets-500-theta0.3": lambda: _basket_run(500, 0.3),
    "baskets-500-theta0.5": lambda: _basket_run(500, 0.5),
    "baskets-2000-theta0.3": lambda: _basket_run(2000, 0.3),
    "baskets-2000-theta0.5": lambda: _basket_run(2000, 0.5),
    "duplicates-400": _duplicate_run,
    "summaries-float": _summary_run,
}

#: Recorded per input: the digest, the number of merges, whether
#: the loop stopped early, and every counter the engine reports.
PINS = {
    "baskets-2000-theta0.3": {
        "digest": "b4174c9199798dc5",
        "merges": 1992,
        "stopped_early": False,
        "counters": {
            "merges": 1992, "selection_scans": 9450, "best_rescans": 7458,
            "rescan_cells": 1559302, "frontier_total": 256210, "frontier_max": 388,
            "appended_cells": 256210, "row_relocations": 2272, "compactions": 2,
            "arena_grows": 0, "arena_cells": 955425,
        },
    },
    "baskets-2000-theta0.5": {
        "digest": "a4b861623c902093",
        "merges": 1921,
        "stopped_early": True,
        "counters": {
            "merges": 1921, "selection_scans": 4058, "best_rescans": 2136,
            "rescan_cells": 395991, "frontier_total": 227661, "frontier_max": 245,
            "appended_cells": 227661, "row_relocations": 3966, "compactions": 2,
            "arena_grows": 0, "arena_cells": 737439,
        },
    },
    "baskets-500-theta0.3": {
        "digest": "f7506b2d26fc6898",
        "merges": 492,
        "stopped_early": False,
        "counters": {
            "merges": 492, "selection_scans": 1910, "best_rescans": 1418,
            "rescan_cells": 86873, "frontier_total": 15823, "frontier_max": 82,
            "appended_cells": 15823, "row_relocations": 397, "compactions": 2,
            "arena_grows": 0, "arena_cells": 61851,
        },
    },
    "baskets-500-theta0.5": {
        "digest": "46082c7ecfe5eaf2",
        "merges": 449,
        "stopped_early": True,
        "counters": {
            "merges": 449, "selection_scans": 825, "best_rescans": 375,
            "rescan_cells": 14126, "frontier_total": 12326, "frontier_max": 68,
            "appended_cells": 12326, "row_relocations": 650, "compactions": 2,
            "arena_grows": 0, "arena_cells": 41431,
        },
    },
    "duplicates-400": {
        "digest": "bb8696a1aa489735",
        "merges": 372,
        "stopped_early": True,
        "counters": {
            "merges": 372, "selection_scans": 397, "best_rescans": 24,
            "rescan_cells": 966, "frontier_total": 3826, "frontier_max": 48,
            "appended_cells": 3826, "row_relocations": 167, "compactions": 1,
            "arena_grows": 0, "arena_cells": 17910,
        },
    },
    "summaries-float": {
        "digest": "761f6192ceb8fc5a",
        "merges": 50,
        "stopped_early": False,
        "counters": {
            "merges": 50, "selection_scans": 124, "best_rescans": 74,
            "rescan_cells": 632, "frontier_total": 180, "frontier_max": 7,
            "appended_cells": 180, "row_relocations": 6, "compactions": 1,
            "arena_grows": 0, "arena_cells": 1062,
        },
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_merge_loop_work_is_pinned(name):
    history, members, stopped_early, counters = RUNS[name]()
    pin = PINS[name]
    assert _digest(history, members) == pin["digest"]
    assert len(history) == pin["merges"]
    assert stopped_early == pin["stopped_early"]
    assert counters == pin["counters"]
