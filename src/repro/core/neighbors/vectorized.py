"""Intersection-count helpers shared by the vectorizable neighbour backends.

The blocked and inverted-index backends both turn the binary
item-incidence matrix into pairwise intersection counts, then let the
measure's :class:`~repro.similarity.base.VectorizedSetSimilarity`
capability turn the ``(intersection, |A|, |B|)`` count triples into
similarities in one array operation.  These two steps live here so every
backend evaluates the same arithmetic, which is what keeps their
adjacencies bit-identical to brute force.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.data.encoding import transactions_to_incidence
from repro.similarity.base import VectorizedSetSimilarity


def incidence_and_sizes(
    transactions: list[frozenset], item_index: dict | None
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The item-incidence matrix of ``transactions`` and per-row set sizes."""
    incidence, _ = transactions_to_incidence(transactions, item_index)
    sizes = np.asarray(incidence.sum(axis=1)).ravel()
    return incidence, sizes


def threshold_count_pairs(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    sizes: np.ndarray,
    theta: float,
    measure: VectorizedSetSimilarity,
) -> tuple[np.ndarray, np.ndarray]:
    """Keep the ``(row, col)`` pairs whose similarity clears ``theta``.

    ``values`` holds the intersection sizes of the listed pairs; the
    diagonal must already be excluded by the caller.
    """
    similarity = measure.similarity_from_counts(values, sizes[rows], sizes[cols])
    keep = similarity >= theta
    return rows[keep], cols[keep]
