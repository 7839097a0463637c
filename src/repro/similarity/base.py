"""Similarity protocol and shared helpers.

A *set similarity* maps two item sets to a value in ``[0, 1]`` where 1 means
identical and 0 means disjoint.  ROCK only ever thresholds similarities, so
the protocol is intentionally tiny: a callable plus a name.
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

    A measure with this capability can evaluate whole arrays of pairs at
    once given only the intersection size and the two set sizes — which is
    exactly what the sparse incidence products of the fast neighbour
    backends (:mod:`repro.core.neighbors`) produce.  Any measure
    implementing it works with the ``blocked`` and ``inverted-index``
    backends.

    Contract (required by the candidate generation of those backends):
    two *disjoint* sets must have similarity 0 unless both are empty —
    i.e. ``similarity_from_counts(0, a, b) == 0`` whenever ``a + b > 0``.
    All the built-in set measures (Jaccard, Dice, overlap coefficient,
    set cosine) satisfy it.

    Monotone-overlap contract (required by the labelling kernel of
    :mod:`repro.core.labeling`): for fixed set sizes ``a`` and ``b``,
    ``similarity_from_counts(i, a, b)`` is non-decreasing in the overlap
    ``i``.  The kernel then replaces each float test ``sim >= theta`` by an
    integer one, ``i >= t(a, b)``, with ``t`` the smallest overlap that
    qualifies, computed from this same method.  The four built-in measures
    satisfy it because correctly rounded division and ``sqrt`` are
    monotone; a measure caught breaking it is rejected with a
    :class:`~repro.errors.ConfigurationError`.

    ``similarity_from_counts`` must agree bit-for-bit with ``__call__`` on
    the same sizes: the cross-backend equivalence guarantee (brute force ≡
    blocked ≡ inverted-index adjacency) rests on both paths
    performing the same IEEE-754 operations.
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

    def minimum_intersection(
        self,
        theta: float,
        size_left: np.ndarray,
        size_right: np.ndarray,
    ) -> np.ndarray:
        """Smallest intersection size at which a pair can reach ``theta``.

        The exact mathematical bound (as a float array): a pair with
        ``|A ∩ B| < minimum_intersection(theta, |A|, |B|)`` cannot have
        similarity >= ``theta``.  The inverted-index backend uses it to
        prune candidate pairs before exact verification; callers should
        apply a small epsilon slack when comparing integer counts against
        it so floating-point rounding never prunes a boundary pair.
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
