"""Blocked neighbour backend: the overlap product in row blocks.

Computes the pairwise overlaps ``incidence @ incidence.T`` one row block
at a time and only against the columns at or above the block (the strict
upper triangle), so that

* the product never holds more than ``block_size x n`` entries at once —
  a one-shot product would materialise every pair sharing an item
  (``O(nnz(n^2))``) at once, and
* each unordered pair is counted once instead of twice.

Each block goes through the exact overlap kernel
(:mod:`repro.core.neighbors.vectorized`), and only the pairs that pass
``theta`` are kept across blocks, so peak memory is
``O(block_size x n + edges)`` and the adjacency is bit-identical to the
brute-force spec.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.neighbors.base import VECTORIZED_CAPABILITY_HINT, validate_block_size
from repro.core.neighbors.graph import complete_adjacency
from repro.core.neighbors.vectorized import (
    incidence_and_sizes,
    overlap_thresholds,
    qualifying_pairs,
)
from repro.similarity.base import (
    SetSimilarity,
    VectorizedSetSimilarity,
    supports_vectorized_counts,
)


class BlockedBackend:
    """Row-blocked upper-triangle sparse matmul with bounded intermediates."""

    name = "blocked"
    capability_hint = VECTORIZED_CAPABILITY_HINT

    def supports(self, measure: SetSimilarity) -> bool:
        return supports_vectorized_counts(measure)

    def build_adjacency(
        self,
        transactions: list[frozenset],
        theta: float,
        measure: VectorizedSetSimilarity,
        item_index: dict | None = None,
        block_size: int | None = None,
    ) -> sparse.csr_matrix:
        block_size = validate_block_size(block_size)
        n = len(transactions)
        if theta == 0.0:
            return complete_adjacency(n)
        incidence, sizes = incidence_and_sizes(transactions, item_index)
        size_values, group = np.unique(sizes, return_inverse=True)
        table = overlap_thresholds(measure, theta, size_values, size_values)
        # CSC so the per-block column slice [start:] is a cheap copy of the
        # trailing columns rather than a full-matrix conversion.
        transposed = incidence.T.tocsc()

        edge_rows: list[np.ndarray] = []
        edge_cols: list[np.ndarray] = []
        for start in range(0, n, block_size):
            stop = min(start + block_size, n)
            # (stop - start, n - start) overlaps: rows of the block against
            # every column from the block's first row onward.
            product = (incidence[start:stop] @ transposed[:, start:]).tocsr()
            rows, cols = qualifying_pairs(
                product, table, group[start:stop], group[start:]
            )
            upper = cols > rows
            edge_rows.append(rows[upper] + start)
            edge_cols.append(cols[upper] + start)

        upper_rows = np.concatenate(edge_rows)
        upper_cols = np.concatenate(edge_cols)
        return sparse.coo_matrix(
            (
                np.ones(2 * len(upper_rows), dtype=bool),
                (
                    np.concatenate([upper_rows, upper_cols]),
                    np.concatenate([upper_cols, upper_rows]),
                ),
            ),
            shape=(n, n), dtype=bool,
        ).tocsr()
