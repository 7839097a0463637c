"""Criterion function and goodness measure (ROCK Sections 3.3 and 3.4).

The key quantity is ``f(theta) = (1 - theta) / (1 + theta)``: in a cluster
``C_i`` of size ``n_i`` each point is expected to have roughly
``n_i ** f(theta)`` neighbours, so the expected total number of (ordered)
point pairs contributing links inside the cluster is
``n_i ** (1 + 2 f(theta))``.  Dividing the actual link mass by this
expectation prevents the criterion from being maximised by one giant
cluster, and the *goodness measure* for a candidate merge normalises the
cross-links between two clusters by the expected increase of that quantity.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.core.links import intra_cluster_links
from repro.errors import ConfigurationError

#: Type of the ``f(theta)`` exponent function.
ExponentFunction = Callable[[float], float]


def default_expected_links_exponent(theta: float) -> float:
    """The paper's ``f(theta) = (1 - theta) / (1 + theta)``.

    ``f`` decreases from 1 at ``theta = 0`` to 0 at ``theta = 1``: the more
    similar two points must be to count as neighbours, the fewer neighbours a
    point is expected to share with the rest of its cluster.

    Examples
    --------
    >>> default_expected_links_exponent(0.5)
    0.3333333333333333
    """
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ConfigurationError("theta must lie in [0, 1], got %r" % theta)
    return (1.0 - theta) / (1.0 + theta)


def theta_power(size: int | float, theta: float, f: ExponentFunction | None = None) -> float:
    """Return ``size ** (1 + 2 f(theta))``, the expected link normaliser.

    Parameters
    ----------
    size:
        Cluster size (non-negative).
    theta:
        Similarity threshold.
    f:
        Exponent function; defaults to the paper's
        :func:`default_expected_links_exponent`.
    """
    if size < 0:
        raise ConfigurationError("cluster size must be non-negative, got %r" % size)
    if f is None:
        f = default_expected_links_exponent
    return float(size) ** (1.0 + 2.0 * f(theta))


def expected_pairwise_links(size: int, theta: float, f: ExponentFunction | None = None) -> float:
    """Expected total link mass inside a cluster of ``size`` points.

    This is the denominator of one term of the criterion function,
    ``size ** (1 + 2 f(theta))``, exposed under a descriptive name.
    """
    return theta_power(size, theta, f)


def goodness(
    cross_links: float,
    size_left: int,
    size_right: int,
    theta: float,
    f: ExponentFunction | None = None,
) -> float:
    """The goodness measure ``g(C_i, C_j)`` of merging two clusters.

    ``g = link[C_i, C_j] / ((n_i + n_j)^(1+2f) - n_i^(1+2f) - n_j^(1+2f))``

    Merging the pair with the highest goodness greedily maximises the
    criterion function.  Zero cross-links give goodness 0; the denominator is
    strictly positive for positive cluster sizes because ``1 + 2 f > 1``.

    Parameters
    ----------
    cross_links:
        Total number of links between the two clusters.
    size_left, size_right:
        Cluster sizes (positive integers).
    theta:
        Similarity threshold.
    f:
        Exponent function; defaults to the paper's.
    """
    if size_left <= 0 or size_right <= 0:
        raise ConfigurationError(
            "cluster sizes must be positive, got %r and %r" % (size_left, size_right)
        )
    if cross_links < 0:
        raise ConfigurationError("cross_links must be non-negative, got %r" % cross_links)
    if cross_links == 0:
        return 0.0
    denominator = (
        theta_power(size_left + size_right, theta, f)
        - theta_power(size_left, theta, f)
        - theta_power(size_right, theta, f)
    )
    return float(cross_links) / denominator


def criterion_function(
    links: sparse.csr_matrix,
    clusters: Sequence[Sequence[int]],
    theta: float,
    f: ExponentFunction | None = None,
) -> float:
    """The global criterion function ``E_l`` for a complete clustering.

    ``E_l = sum_i n_i * (intra-cluster link mass of C_i) / n_i^(1 + 2 f)``

    where the intra-cluster link mass counts each unordered pair once.  The
    paper's formulation sums ``link(p, q)`` over ordered pairs; the constant
    factor of two does not change which clustering maximises the criterion,
    and the unordered form is what :func:`intra_cluster_links` returns.  For
    comparisons across clusterings only relative values matter.

    Parameters
    ----------
    links:
        The link matrix of the full point set.
    clusters:
        Cluster membership as sequences of point indices.
    theta:
        Similarity threshold.
    f:
        Exponent function; defaults to the paper's.
    """
    links = sparse.csr_matrix(links)
    n_points = links.shape[0]
    labels = np.full(n_points, -1, dtype=np.int64)
    member_total = 0
    for index, members in enumerate(clusters):
        member_array = np.asarray(list(members), dtype=int)
        member_total += member_array.size
        labels[member_array] = index

    if member_total == np.count_nonzero(labels >= 0):
        # Disjoint clusters: gather every cluster's intra-link mass in one
        # pass over the matrix.  The masses are exact integer sums, and the
        # per-cluster accumulation below runs in the same order as the
        # fallback, so the result is bit-identical.
        matrix = links.tocoo()
        row_labels = labels[matrix.row]
        same_cluster = (row_labels >= 0) & (row_labels == labels[matrix.col])
        masses = np.bincount(
            row_labels[same_cluster],
            weights=matrix.data[same_cluster],
            minlength=len(clusters),
        )
        return criterion_from_masses(
            [(len(members), int(masses[index]) // 2) for index, members in enumerate(clusters)],
            theta,
            f,
        )

    # Overlapping clusters cannot be expressed as one label vector; fall
    # back to per-cluster block sums.
    return criterion_from_masses(
        [
            (len(members), intra_cluster_links(links, np.asarray(list(members), dtype=int)))
            for members in clusters
        ],
        theta,
        f,
    )


def criterion_from_masses(
    clusters: Iterable[tuple[int, float]],
    theta: float,
    f: ExponentFunction | None = None,
) -> float:
    """``E_l`` from each cluster's ``(size, intra-cluster link mass)``.

    The sum :func:`criterion_function` computes once it has the masses
    (each unordered pair once), in the same order and float operations, so
    equal masses give a bit-identical value.  Empty clusters add nothing.
    """
    total = 0.0
    for size, link_mass in clusters:
        if size == 0:
            continue
        total += size * (link_mass / theta_power(size, theta, f))
    return float(total)
