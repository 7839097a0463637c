"""Blocked neighbour backend: the overlap test in row blocks.

Tests every pair one row block at a time and only against the columns at
or above the block (the upper triangle), so that

* a block never holds more than ``block_size x n`` pairs at once — a
  one-shot product would materialise every pair sharing an item
  (``O(nnz(n^2))``) at once, and
* each unordered pair is tested once instead of twice.

Each block goes through the exact overlap kernel
(:mod:`repro.core.neighbors.vectorized`) in the form its one fill rule
picks for the point set: the dense margin form (one integer product of
``overlap - t`` per block, int8 cells wherever the sets hold at most 127
items) or the sparse form (the sparse overlap product, thresholded).  Only
the pairs that pass ``theta`` are kept across blocks, so peak memory is
``O(block_size x n + edges)`` plus, in the dense form, the operand, and
the adjacency is bit-identical to the brute-force spec.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.neighbors.base import VECTORIZED_CAPABILITY_HINT, validate_block_size
from repro.core.neighbors.graph import complete_adjacency
from repro.core.neighbors.vectorized import (
    incidence_and_sizes,
    margin_operand,
    margin_rows,
    margins,
    occupied_columns,
    overlap_thresholds,
    prefers_dense,
    qualifying_pairs,
)
from repro.similarity.base import (
    SetSimilarity,
    VectorizedSetSimilarity,
    supports_vectorized_counts,
)


class BlockedBackend:
    """Row-blocked upper-triangle overlap test with bounded intermediates."""

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
        # Items no point holds never overlap: neither the fill nor the dense
        # operand spans the unused columns of a wider shared index.
        occupied = occupied_columns(incidence)
        if occupied is not None:
            incidence = incidence[:, occupied]
        blocks = _dense_blocks if prefers_dense(incidence) else _sparse_blocks
        edge_rows: list[np.ndarray] = []
        edge_cols: list[np.ndarray] = []
        for start, rows, cols in blocks(incidence, group, table, block_size):
            upper = cols > rows
            edge_rows.append(rows[upper] + start)
            edge_cols.append(cols[upper] + start)
        rows, cols = np.concatenate(edge_rows), np.concatenate(edge_cols)
        # The upper triangle once, then its mirror: adding the two sorted
        # triangles is cheaper than sorting both directions at once.
        upper = sparse.coo_matrix(
            (np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n)
        ).tocsr()
        return (upper + upper.T).tocsr()


def _dense_blocks(incidence, group, table, block_size):
    """Yield ``(start, rows, cols)``: the pairs of each row block that pass,
    against the columns from the block's first row onward, from the dense
    margin form.  The operand's threshold row of size group ``g`` holds
    ``-t(g, group of j)`` in column ``j``."""
    n_items = incidence.shape[1]
    operand = margin_operand(incidence, len(table))
    operand[n_items:] = -table[:, group]
    rows = margin_rows(incidence, n_items + group, operand.dtype)
    n = incidence.shape[0]
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        passed = margins(rows, start, stop, operand[:, start:])
        # 0/1 int8 cells read as booleans find the pairs fastest.
        if passed.dtype == np.int8:
            passed = passed.view(bool)
        yield (start, *np.divmod(np.flatnonzero(passed), n - start))


def _sparse_blocks(incidence, group, table, block_size):
    """The same pairs from the sparse form: each block's sparse overlap
    product, thresholded by :func:`qualifying_pairs`."""
    # CSC so the per-block column slice [start:] is a cheap copy of the
    # trailing columns rather than a full-matrix conversion.
    transposed = incidence.T.tocsc()
    n = incidence.shape[0]
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        # (stop - start, n - start) overlaps: rows of the block against
        # every column from the block's first row onward.
        product = (incidence[start:stop] @ transposed[:, start:]).tocsr()
        yield (start, *qualifying_pairs(product, table, group[start:stop], group[start:]))
