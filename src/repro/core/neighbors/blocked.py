"""Blocked neighbour backend: the intersection product in row blocks.

Computes the pairwise intersection counts ``incidence @ incidence.T`` one
row block at a time and only against the columns at or above the block
(the strict upper triangle), so that

* the COO intermediate never exceeds ``block_size x n`` entries — a
  one-shot product would materialise every pair sharing an item
  (``O(nnz(n^2))``) at once, and
* each unordered pair is counted once instead of twice.

Only the pairs that actually clear ``theta`` are accumulated across
blocks, so peak memory is ``O(block_size x n + edges)`` instead of
``O(pairs with any shared item)``.  The result is bit-identical to the
brute-force adjacency: the per-pair counts are exact integers and the
similarity arithmetic is the measure's own ``similarity_from_counts``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.neighbors.base import VECTORIZED_CAPABILITY_HINT, validate_block_size
from repro.core.neighbors.graph import complete_adjacency, empty_pair_edges
from repro.core.neighbors.vectorized import incidence_and_sizes, threshold_count_pairs
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
        # CSC so the per-block column slice [start:] is a cheap copy of the
        # trailing columns rather than a full-matrix conversion.
        transposed = incidence.T.tocsc()

        edge_rows: list[np.ndarray] = []
        edge_cols: list[np.ndarray] = []
        for start in range(0, n, block_size):
            stop = min(start + block_size, n)
            block = incidence[start:stop]
            # (stop - start, n - start) counts: rows of the block against
            # every column from the block's first row onward.  At most
            # block_size x n entries live at once.
            product = (block @ transposed[:, start:]).tocoo()
            rows = product.row.astype(np.int64) + start
            cols = product.col.astype(np.int64) + start
            upper = cols > rows
            rows, cols = threshold_count_pairs(
                rows[upper], cols[upper], product.data[upper], sizes, theta, measure
            )
            edge_rows.append(rows)
            edge_cols.append(cols)

        upper_rows = np.concatenate(edge_rows) if edge_rows else np.empty(0, dtype=np.int64)
        upper_cols = np.concatenate(edge_cols) if edge_cols else np.empty(0, dtype=np.int64)
        extra_rows, extra_cols = empty_pair_edges(sizes, theta, measure)
        # Mirror the upper-triangle pairs; the empty-pair edges already
        # come in both directions.
        all_rows = np.concatenate([upper_rows, upper_cols, extra_rows])
        all_cols = np.concatenate([upper_cols, upper_rows, extra_cols])
        adjacency = sparse.coo_matrix(
            (np.ones(len(all_rows), dtype=bool), (all_rows, all_cols)),
            shape=(n, n), dtype=bool,
        ).tocsr()
        adjacency.eliminate_zeros()
        return adjacency
