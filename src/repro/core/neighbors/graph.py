"""The :class:`NeighborGraph` result type and shared construction helpers.

Every neighbour backend (:mod:`repro.core.neighbors.base`) produces the
same artefact — a boolean CSR adjacency matrix with an empty diagonal —
and this module holds that result type plus the small helpers the
backends share: parameter validation and the direct-CSR all-pairs graph
used at ``theta == 0``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.errors import ConfigurationError, DataValidationError


@dataclass
class NeighborGraph:
    """The neighbour relation of a point set under a similarity threshold.

    Attributes
    ----------
    adjacency:
        ``(n, n)`` boolean CSR matrix; ``adjacency[i, j]`` is ``True`` when
        points ``i`` and ``j`` are neighbours.  The diagonal is always zero
        (a point is not recorded as its own neighbour; the link computation
        adds the convention it needs explicitly).
    theta:
        The similarity threshold used to build the graph.
    measure_name:
        Name of the similarity measure used.
    """

    adjacency: sparse.csr_matrix
    theta: float
    measure_name: str

    @property
    def n_points(self) -> int:
        """Number of points in the graph."""
        return self.adjacency.shape[0]

    def neighbors_of(self, index: int) -> np.ndarray:
        """Return the sorted array of neighbour indices of point ``index``."""
        start, end = self.adjacency.indptr[index], self.adjacency.indptr[index + 1]
        return np.sort(self.adjacency.indices[start:end])

    def neighbor_counts(self) -> np.ndarray:
        """Return the number of neighbours of every point."""
        return np.diff(self.adjacency.indptr)

    def n_edges(self) -> int:
        """Number of neighbour pairs (undirected edges)."""
        return int(self.adjacency.nnz // 2)

    def degree_histogram(self) -> dict[int, int]:
        """Map ``degree -> number of points with that degree``."""
        degrees, counts = np.unique(self.neighbor_counts(), return_counts=True)
        return {int(degree): int(count) for degree, count in zip(degrees, counts)}

    def subgraph(self, indices: Sequence[int]) -> "NeighborGraph":
        """Return the induced subgraph on ``indices`` (reindexed from 0)."""
        index_array = np.asarray(list(indices), dtype=int)
        sub = self.adjacency[index_array][:, index_array].tocsr()
        return NeighborGraph(adjacency=sub, theta=self.theta, measure_name=self.measure_name)


def validate_theta(theta: float) -> float:
    """Validate and normalise the similarity threshold."""
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ConfigurationError("theta must lie in [0, 1], got %r" % theta)
    return theta


def as_transaction_list(transactions: Sequence[frozenset]) -> list[frozenset]:
    """Normalise the input to a non-empty list of frozensets."""
    converted = [frozenset(t) for t in transactions]
    if not converted:
        raise DataValidationError("neighbour computation requires at least one point")
    return converted


def complete_adjacency(n: int) -> sparse.csr_matrix:
    """All-pairs adjacency (every pair connected, empty diagonal).

    Built directly in CSR form — row ``i`` holds every column except ``i``
    — so no dense ``(n, n)`` intermediate is allocated.  This is the
    ``theta == 0`` graph of every measure: similarities are non-negative,
    so every pair clears a zero threshold.
    """
    if n < 2:
        return sparse.csr_matrix((n, n), dtype=bool)
    positions = np.tile(np.arange(n - 1, dtype=np.int64), n)
    rows = np.repeat(np.arange(n, dtype=np.int64), n - 1)
    indices = positions + (positions >= rows)
    indptr = np.arange(0, n * (n - 1) + 1, n - 1, dtype=np.int64)
    return sparse.csr_matrix(
        (np.ones(n * (n - 1), dtype=bool), indices, indptr), shape=(n, n)
    )

