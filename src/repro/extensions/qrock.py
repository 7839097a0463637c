"""QROCK: clusters as connected components of the neighbour graph.

A published follow-on observation (the QROCK algorithm) notes that when the
number of clusters is left unspecified — i.e. ROCK is allowed to merge while
*any* cross-cluster links remain — the final clusters are exactly the
connected components of the neighbour graph.  Computing components directly
avoids the quadratic link computation and the heap machinery entirely, at
the cost of giving up control over the number of clusters.

This module provides both the plain function and a small estimator wrapper
mirroring :class:`repro.core.rock.RockClustering`.
"""

from __future__ import annotations

import numpy as np

from repro.core.neighbors import NeighborGraph, compute_neighbors, validate_theta
from repro.core.rock import as_transactions
from repro.errors import NotFittedError
from repro.similarity.base import SetSimilarity


def connected_component_clusters(graph: NeighborGraph) -> tuple[np.ndarray, list[tuple]]:
    """Cluster points as connected components of the neighbour graph.

    Returns
    -------
    (labels, clusters):
        ``labels`` assigns every point a component label renumbered by
        decreasing component size; ``clusters`` lists the member indices of
        each label.
    """
    # Imported here: scipy.sparse.csgraph loads scipy.sparse.linalg and
    # scipy.linalg, which nothing else on the import path of ``repro``,
    # the pipeline, the server or the CLI needs.
    from scipy.sparse import csgraph

    n_components, raw_labels = csgraph.connected_components(
        graph.adjacency, directed=False
    )
    clusters = [
        tuple(np.nonzero(raw_labels == component)[0].tolist())
        for component in range(n_components)
    ]
    clusters.sort(key=lambda members: (-len(members), members[0]))
    labels = np.full(graph.n_points, -1, dtype=int)
    for label, members in enumerate(clusters):
        labels[list(members)] = label
    return labels, clusters


class QRock:
    """Connected-component clustering at a similarity threshold.

    Parameters
    ----------
    theta:
        Similarity threshold of the neighbour relation.
    measure:
        Similarity measure; defaults to Jaccard.
    min_cluster_size:
        Components smaller than this are reported as outliers (label ``-1``).

    Examples
    --------
    >>> model = QRock(theta=0.5).fit([{1, 2}, {1, 2, 3}, {7, 8}, {7, 8, 9}])
    >>> int(model.n_clusters_)
    2
    """

    def __init__(
        self,
        theta: float,
        measure: SetSimilarity | None = None,
        min_cluster_size: int = 1,
    ) -> None:
        self.theta = validate_theta(theta)
        self.measure = measure
        self.min_cluster_size = int(min_cluster_size)
        self._labels: np.ndarray | None = None
        self._clusters: list[tuple] | None = None

    @property
    def labels_(self) -> np.ndarray:
        """Cluster label per point (``-1`` marks small-component outliers)."""
        if self._labels is None:
            raise NotFittedError("call fit() before accessing labels_")
        return self._labels

    @property
    def clusters_(self) -> list[tuple]:
        """Clusters ordered by decreasing size (small components excluded)."""
        if self._clusters is None:
            raise NotFittedError("call fit() before accessing clusters_")
        return self._clusters

    @property
    def n_clusters_(self) -> int:
        """Number of clusters (components of at least ``min_cluster_size``)."""
        return len(self.clusters_)

    def fit(self, data) -> "QRock":
        """Cluster ``data`` by connected components of the neighbour graph."""
        transactions = as_transactions(data)
        graph = compute_neighbors(transactions, theta=self.theta, measure=self.measure)
        labels, clusters = connected_component_clusters(graph)
        if self.min_cluster_size > 1:
            kept = [c for c in clusters if len(c) >= self.min_cluster_size]
            labels = np.full(len(transactions), -1, dtype=int)
            for label, members in enumerate(kept):
                labels[list(members)] = label
            clusters = kept
        self._labels = labels
        self._clusters = clusters
        return self

    def fit_predict(self, data) -> np.ndarray:
        """Cluster ``data`` and return the label array."""
        return self.fit(data).labels_
