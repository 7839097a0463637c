"""The exact overlap kernel: the one theta test of every vectorised path.

Two baskets are neighbours when ``sim >= theta`` (Section 3.1 of the
paper).  A measure with the
:class:`~repro.similarity.base.VectorizedSetSimilarity` capability scores
a pair from three integers, the overlap and the two set sizes, and never
scores lower for a larger overlap (the monotone-overlap contract).  So for
sets of sizes ``a`` and ``b`` the float test is an integer one,
``overlap >= t(a, b)``, where ``t`` is the smallest overlap that passes.
This module owns that test.  The ``blocked`` neighbour backend, the online
splice's cross block and the labelling kernel all call it:

* :func:`overlap_thresholds` builds the table ``t`` from the measure
  itself and spot-checks the contract;
* :func:`qualifying_pairs` (the sparse form) compares a sparse overlap
  product against the table.  It keeps the nonzeros with
  ``overlap >= t > 0`` and adds every pair with ``t == 0`` (empty sets,
  ``theta == 0``, or a measure that scores above 0 at zero overlap) one
  size group at a time, since a product stores no zero overlap;
* the dense margin form computes ``overlap - t`` of every pair of a row
  block in integer arithmetic, no BLAS.  Its right operand
  (:func:`margin_operand`) holds the right sets' incidence transposed
  (items × sets) above threshold rows ``-t``, one per left size; its left
  factor (:func:`margin_rows`) is the left sets' incidence with one more
  1 per row, in the row of its size's thresholds.  One SciPy product of a
  row block of the two (:func:`margins`) is then ``overlap - t``, and
  ``>= 0`` decides each pair, ``t == 0`` included.  The cells take the
  smallest signed dtype that holds ``-(largest set + 1)`` — int8 up to
  127 items per set — so every margin and partial sum fits and the
  arithmetic is exact.

:func:`prefers_dense` is the one rule choosing between the two forms, for
the neighbour backend and the labelling kernel alike.  Each decision is
the measure's own float test on the same integers, so every caller
matches the brute-force spec bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.data.encoding import transactions_to_incidence
from repro.errors import ConfigurationError
from repro.similarity.base import VectorizedSetSimilarity

#: Most dense-form cells per nonzero of the right sets' incidence
#: (:func:`prefers_dense`).  The dense operand alone holds ``1 / fill``
#: cells per nonzero, so this bounds it at 256.  Measured on Instacart-shaped
#: baskets at theta 0.3 on 2 CPUs, int8 cells against the sparse form: the
#: neighbour backend's crossover lies at fill 0.0034-0.0053 (n = 2000 and
#: 4000), the labeller's, inline at k = 8, near 0.002.
DENSE_MAX_CELLS_PER_NONZERO = 256

#: Retained rows one cluster sum of the labeller costs, in the dense form's
#: cells (:func:`prefers_dense`): ``np.add.reduceat`` pays ~8 ns per cluster
#: and batch point against ~2.5 ns per retained row.  With it the rule
#: follows the measured crossovers at many clusters: fill ~0.0075 with
#: 4-row clusters (k = 254 of 1000 rows, k = 1004 of 4000), ~0.013 with
#: one row each (k = 1000).
CLUSTER_SUM_ROWS = 3

#: Signed integer dtypes of the dense form's cells and counts, smallest first.
_SIGNED_DTYPES = (np.int8, np.int16, np.int32, np.int64)

_INT32_MAX = np.iinfo(np.int32).max


def incidence_and_sizes(
    transactions: list[frozenset], item_index: dict | None
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The item-incidence matrix of ``transactions`` and per-row set sizes."""
    incidence, _ = transactions_to_incidence(transactions, item_index)
    sizes = np.asarray(incidence.sum(axis=1)).ravel()
    return incidence, sizes


def signed_dtype(most: int) -> np.dtype:
    """The smallest signed integer dtype that holds ``most``, and with it
    ``-(most + 1)``."""
    return np.dtype(next(d for d in _SIGNED_DTYPES if most <= np.iinfo(d).max))


def prefers_dense(incidence: sparse.csr_matrix, clusters: int = 0) -> bool:
    """The one form rule: whether the dense margin form runs against the
    right sets of ``incidence`` (over its occupied columns, see
    :func:`occupied_columns`).

    The dense form's cells — the operand's ``items × rows``, plus
    :data:`CLUSTER_SUM_ROWS` rows' worth per cluster the labeller sums —
    may number at most :data:`DENSE_MAX_CELLS_PER_NONZERO` per nonzero.
    Per left item the dense form adds a whole operand row, the sparse form
    only the nonzeros it meets, about ``fill`` times as many, so the rule
    is a lower bound on the fill that rises with the clusters per row; the
    neighbour backend sums no clusters.
    """
    n_rows, n_items = incidence.shape
    cells = n_items * (n_rows + CLUSTER_SUM_ROWS * clusters)
    return cells <= DENSE_MAX_CELLS_PER_NONZERO * incidence.nnz


def occupied_columns(incidence: sparse.csr_matrix) -> np.ndarray | None:
    """The mask of the columns some row holds, or ``None`` when there is
    nothing to drop (every column held, or none: an incidence keeps one
    column at least)."""
    occupied = np.bincount(incidence.indices, minlength=incidence.shape[1]) > 0
    if occupied.all() or not occupied.any():
        return None
    return occupied


def overlap_thresholds(
    measure: VectorizedSetSimilarity,
    theta: float,
    left_sizes: np.ndarray,
    right_sizes: np.ndarray,
) -> np.ndarray:
    """Smallest qualifying overlap of every (left size, right size) pair.

    Entry ``[i, j]`` is the least ``t`` in ``0 .. min(a, b)`` with
    ``similarity_from_counts(t, a, b) >= theta``, for ``a = left_sizes[i]``
    and ``b = right_sizes[j]``, or ``min(a, b) + 1`` when no overlap
    qualifies.  Found by vectorised bisection: ``log2`` of the largest size
    in rounds, each one evaluation of the measure over the whole table.

    Each threshold is then spot-checked against the measure — just below
    and at ``t``, and at both ends of the overlap range — and a measure
    caught falling as the overlap grows raises :class:`ConfigurationError`.
    The check cannot see every dip in between; the monotone-overlap contract
    of :class:`~repro.similarity.base.VectorizedSetSimilarity` is what keeps
    the table exact.
    """
    size_left = np.asarray(left_sizes, dtype=np.int64)[:, np.newaxis]
    size_right = np.asarray(right_sizes, dtype=np.int64)[np.newaxis, :]
    top = np.minimum(size_left, size_right)

    def qualifies(overlap: np.ndarray) -> np.ndarray:
        similarity = measure.similarity_from_counts(overlap, size_left, size_right)
        return np.asarray(similarity) >= theta

    low = np.zeros_like(top)
    high = top + 1
    while True:
        active = low < high
        if not active.any():
            break
        middle = (low + high) // 2
        found = qualifies(np.minimum(middle, top))
        high = np.where(active & found, middle, high)
        low = np.where(active & ~found, middle + 1, low)

    at, at_top, below, at_zero = qualifies(
        np.stack([np.minimum(low, top), top, np.maximum(low - 1, 0), 0 * top])
    )
    upper_ok = (low > top) | (at & at_top)
    lower_ok = (low == 0) | ~(below | at_zero)
    bad = np.argwhere(~(upper_ok & lower_ok))
    if bad.size:
        i, j = bad[0]
        raise ConfigurationError(
            "measure %r is not non-decreasing in the overlap (set sizes %d and "
            "%d, theta=%r), so the exact overlap kernel behind the blocked "
            "neighbour backend, the online splice and sparse-matmul labelling "
            "cannot threshold it; use strategy='bruteforce'"
            % (
                getattr(measure, "name", measure),
                size_left[i, 0],
                size_right[0, j],
                theta,
            )
        )
    return low


def qualifying_pairs(
    product: sparse.csr_matrix,
    table: np.ndarray,
    left_group: np.ndarray,
    right_group: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(row, column)`` pairs of an overlap product that pass theta.

    ``product`` holds the overlaps of some left sets (rows) with some right
    sets (columns); ``left_group`` and ``right_group`` give each row's and
    column's size group, and ``table`` the thresholds between the groups
    (:func:`overlap_thresholds` over the groups' sizes).  The result is
    every nonzero with ``overlap >= t > 0`` plus every pair with ``t == 0``.
    """
    rows = np.repeat(np.arange(product.shape[0]), np.diff(product.indptr))
    columns = product.indices
    need = table[left_group[rows], right_group[columns]]
    keep = (product.data >= need) & (need > 0)
    pair_rows, pair_columns = [rows[keep]], [columns[keep]]
    zero = table == 0
    for group in np.flatnonzero(zero.any(axis=1)).tolist():
        members = np.flatnonzero(left_group == group)
        partners = np.flatnonzero(zero[group, right_group])
        pair_rows.append(np.repeat(members, partners.size))
        pair_columns.append(np.tile(partners, members.size))
    return np.concatenate(pair_rows), np.concatenate(pair_columns)


def margin_operand(incidence: sparse.csr_matrix, spare_rows: int) -> np.ndarray:
    """The dense form's right operand before any threshold row.

    ``incidence`` transposed (items × sets) with ``spare_rows`` zero rows
    below it for the threshold rows, in :func:`signed_dtype` of the
    largest set, so that ``overlap - t`` in ``[-(largest + 1), largest]``
    fits every cell.
    """
    n_rows, n_items = incidence.shape
    lengths = np.diff(incidence.indptr)
    operand = np.zeros(
        (n_items + spare_rows, n_rows), dtype=signed_dtype(int(lengths.max(initial=0)))
    )
    operand[incidence.indices, np.repeat(np.arange(n_rows), lengths)] = 1
    return operand


def margin_rows(
    incidence: sparse.csr_matrix, threshold_rows: np.ndarray, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense form's left factor as CSR arrays ``(data, indices,
    indptr)``: ``incidence`` with one more 1 per row, in the operand row
    ``threshold_rows[i]`` that holds row ``i``'s thresholds ``-t``, with
    entries in the operand's ``dtype``.  Those rows follow the item rows,
    so every row's indices stay sorted.  :func:`margins` makes one matrix
    per row block of them."""
    n_points = incidence.shape[0]
    # The incidence's own index dtype wherever the extra entries still fit.
    index_dtype = np.int64 if incidence.nnz + n_points > _INT32_MAX else np.int32
    indices = np.insert(
        incidence.indices.astype(index_dtype, copy=False),
        incidence.indptr[1:],
        np.asarray(threshold_rows, dtype=index_dtype),
    )
    indptr = incidence.indptr.astype(index_dtype, copy=False) + np.arange(
        n_points + 1, dtype=index_dtype
    )
    return np.ones(len(indices), dtype=dtype), indices, indptr


def margins(
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    low: int,
    high: int,
    operand: np.ndarray,
) -> np.ndarray:
    """Whether ``overlap >= t`` for rows ``low:high`` of the left factor
    (:func:`margin_rows`) against every column of ``operand``: 0/1 cells in
    the operand's dtype, from one integer SciPy product of ``overlap - t``
    and one in-place ``>= 0``.  The block's arrays are views."""
    data, indices, indptr = rows
    start, stop = indptr[low], indptr[high]
    block = sparse.csr_matrix(
        (data[start:stop], indices[start:stop], indptr[low:high + 1] - start),
        shape=(high - low, len(operand)),
    ) @ operand
    np.greater_equal(block, 0, out=block)
    return block
