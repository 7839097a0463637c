"""Outlier handling (ROCK Section 4.5).

The paper handles outliers in two places:

* **Before agglomeration** — points with very few neighbours participate in
  almost no links, never get merged and can be discarded up front.  A point
  whose neighbour count is below a small threshold (relative to the
  requested cluster structure) is flagged as isolated.
* **Near the end of agglomeration** — outliers sometimes survive as tiny
  clusters that only start merging very late; clusters whose size stays
  below a minimum when the merge count has dropped substantially are pruned.

Both mechanisms are exposed as pure functions so the pipeline (and tests)
can apply them explicitly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.neighbors import NeighborGraph
from repro.errors import ConfigurationError


def isolated_point_mask(
    graph: NeighborGraph,
    min_neighbors: int = 1,
) -> np.ndarray:
    """Boolean mask of points with fewer than ``min_neighbors`` neighbours.

    Parameters
    ----------
    graph:
        The neighbour graph of the full point set.
    min_neighbors:
        Minimum number of neighbours (excluding the point itself) required
        for the point to participate in clustering.  The default of 1 drops
        only completely isolated points.
    """
    if min_neighbors < 0:
        raise ConfigurationError("min_neighbors must be non-negative, got %r" % min_neighbors)
    return graph.neighbor_counts() < min_neighbors


def partition_isolated_points(
    graph: NeighborGraph,
    min_neighbors: int = 1,
) -> tuple[list[int], list[int]]:
    """Split point indices into (participating, isolated) lists."""
    mask = isolated_point_mask(graph, min_neighbors=min_neighbors)
    isolated = np.nonzero(mask)[0].tolist()
    participating = np.nonzero(~mask)[0].tolist()
    return participating, isolated


def drop_small_clusters(
    clusters: Sequence[Sequence[int]],
    min_size: int,
) -> tuple[list[tuple], list[int]]:
    """Remove clusters smaller than ``min_size``.

    Returns
    -------
    (kept_clusters, outlier_indices):
        The surviving clusters (in their original order) and the indices of
        all points that belonged to the dropped clusters.
    """
    if min_size < 1:
        raise ConfigurationError("min_size must be at least 1, got %r" % min_size)
    kept: list[tuple] = []
    outliers: list[int] = []
    for members in clusters:
        members = tuple(members)
        if len(members) >= min_size:
            kept.append(members)
        else:
            outliers.extend(members)
    return kept, sorted(outliers)

