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
* :func:`qualifying_pairs` compares a sparse overlap product against the
  table.  It keeps the nonzeros with ``overlap >= t > 0`` and adds every
  pair with ``t == 0`` (empty sets, ``theta == 0``, or a measure that
  scores above 0 at zero overlap) one size group at a time, since a
  product stores no zero overlap.

Each decision is the measure's own float test on the same integers, so
every caller matches the brute-force spec bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.data.encoding import transactions_to_incidence
from repro.errors import ConfigurationError
from repro.similarity.base import VectorizedSetSimilarity


def incidence_and_sizes(
    transactions: list[frozenset], item_index: dict | None
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The item-incidence matrix of ``transactions`` and per-row set sizes."""
    incidence, _ = transactions_to_incidence(transactions, item_index)
    sizes = np.asarray(incidence.sum(axis=1)).ravel()
    return incidence, sizes


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
