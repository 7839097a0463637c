"""Similarity protocol and shared helpers.

A *set similarity* maps two item sets to a value in ``[0, 1]`` where 1 means
identical.  ROCK only ever thresholds similarities, so the protocol is
intentionally tiny: a callable plus a name.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import DataValidationError


@runtime_checkable
class SetSimilarity(Protocol):
    """Protocol implemented by all set-similarity measures."""

    #: Short machine-readable name used by the registry.
    name: str

    def __call__(self, left: frozenset, right: frozenset) -> float:
        """Return the similarity of ``left`` and ``right`` in ``[0, 1]``."""
        ...  # pragma: no cover - protocol definition


@runtime_checkable
class VectorizedSetSimilarity(SetSimilarity, Protocol):
    """Capability protocol for measures computable from pair *counts*.

    A measure with this capability evaluates whole arrays of pairs at once
    from the overlap ``|A ∩ B|`` and the two set sizes alone, which is what
    the exact overlap kernel (:mod:`repro.core.neighbors.vectorized`)
    behind the ``blocked`` neighbour backend, the online splice and the
    sparse-matmul labelling works with.  ``similarity_from_counts`` must
    return what ``__call__`` returns on sets with those counts, through the
    same IEEE-754 operations.

    Contract (monotone overlap): for fixed set sizes ``a`` and ``b``,
    ``similarity_from_counts(i, a, b)`` is non-decreasing in the overlap
    ``i``.  The kernel then replaces each float test ``sim >= theta`` by an
    integer one, ``i >= t(a, b)``, with ``t`` the smallest overlap that
    qualifies, computed from this same method, so every decision matches
    the brute-force spec bit for bit.  The four built-in measures (Jaccard,
    Dice, overlap coefficient, set cosine) satisfy it because correctly
    rounded division and ``sqrt`` are monotone; a measure caught breaking
    it is rejected with a :class:`~repro.errors.ConfigurationError`.
    """

    def similarity_from_counts(
        self,
        intersection: np.ndarray,
        size_left: np.ndarray,
        size_right: np.ndarray,
    ) -> np.ndarray:
        """Vectorized similarity of pairs described by their counts.

        Parameters are broadcastable integer arrays: the intersection size
        ``|A ∩ B|`` and the set sizes ``|A|`` and ``|B|``.  Returns the
        float similarity per pair, identical to what ``__call__`` would
        return on sets with those counts.
        """
        ...  # pragma: no cover - protocol definition


def supports_vectorized_counts(measure: SetSimilarity) -> bool:
    """Whether ``measure`` implements :class:`VectorizedSetSimilarity`."""
    return isinstance(measure, VectorizedSetSimilarity)


def validate_similarity_value(value: float, measure_name: str = "similarity") -> float:
    """Clamp tiny floating-point drift and reject out-of-range similarities."""
    if value < -1e-9 or value > 1 + 1e-9:
        raise DataValidationError(
            "%s produced an out-of-range value %r (expected [0, 1])"
            % (measure_name, value)
        )
    return float(min(1.0, max(0.0, value)))


def pairwise_similarity_matrix(
    transactions: Sequence[frozenset],
    measure: SetSimilarity,
) -> np.ndarray:
    """Compute the dense ``(n, n)`` similarity matrix under ``measure``.

    The matrix is symmetric with ones on the diagonal.  This helper is meant
    for small inputs (tests, examples, the motivating basket example); the
    core algorithm uses vectorised neighbour computation instead.
    """
    n = len(transactions)
    matrix = np.eye(n, dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            value = validate_similarity_value(
                measure(transactions[i], transactions[j]), measure_name=measure.name
            )
            matrix[i, j] = value
            matrix[j, i] = value
    return matrix
