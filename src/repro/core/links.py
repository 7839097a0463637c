"""Link computation: counting common neighbours (ROCK Section 3.2 / 4.2).

``link(p, q)`` is the number of points that are neighbours of both ``p`` and
``q``.  The paper's ``compute_links`` procedure iterates over every point's
neighbour list and increments the link count of every pair in the list; an
equivalent formulation is the sparse boolean matrix product ``A @ A`` of the
adjacency matrix with itself.  Both are implemented and tested against each
other (and benchmarked in the ablation bench ``bench_ablation_links``):
``"sparse-matmul"`` (the ``"auto"`` choice) delegates to SciPy's sparse
matrix product, while ``"neighbor-lists"`` enumerates each row's neighbour
pairs with NumPy (cached upper-triangle index templates per neighbourhood
size, one global ``np.unique`` count) — the paper's procedure without the
per-pair Python dict.

The returned matrix always has canonically sorted indices; both
agglomeration engines (see :mod:`repro.core.rock`) rely on that order for
their deterministic tie-breaking, so the choice of link strategy never
changes the clustering.

A convention detail: because ``sim(p, p) = 1 >= theta`` always holds, the
paper treats every point as a neighbour of itself, so two points that are
neighbours of each other contribute (at least) two common neighbours —
themselves.  The adjacency matrix built by :mod:`repro.core.neighbors` is
kept free of self-loops, and ``include_self`` adds the convention
explicitly; the default (``True``) follows the paper, while ``False``
reproduces the stricter convention used by the pyclustering and R ``cba``
implementations (only *other* common neighbours count).  The ablation bench
``bench_ablation_links`` compares the two.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.neighbors import NeighborGraph
from repro.errors import ConfigurationError

#: Pair occurrences buffered before folding into the running unique-pair
#: counts (bounds peak memory to unique pairs + one buffer, ~16 MB).
_PAIR_FOLD_LIMIT = 2_000_000

#: Strategies accepted by :func:`compute_links`.
LINK_STRATEGIES = ("auto", "neighbor-lists", "sparse-matmul")


def links_from_neighbors(
    graph: NeighborGraph,
    strategy: str = "auto",
    include_self: bool = True,
) -> sparse.csr_matrix:
    """Compute the link matrix of a neighbour graph.

    Parameters
    ----------
    graph:
        The neighbour graph.
    strategy:
        ``"neighbor-lists"`` reproduces the paper's ``compute_links``
        procedure; ``"sparse-matmul"`` computes ``A @ A``; ``"auto"`` picks
        the matrix product (the two are equivalent; see the test suite).
    include_self:
        When ``True`` (the default, the paper's convention), every point is
        additionally treated as a neighbour of itself, so two points that
        are neighbours of each other gain two extra common neighbours
        (themselves).  ``False`` counts only other common neighbours.

    Returns
    -------
    scipy.sparse.csr_matrix
        Symmetric integer matrix with ``links[i, j]`` = number of common
        neighbours of ``i`` and ``j``; the diagonal is zeroed.
    """
    if strategy not in LINK_STRATEGIES:
        raise ConfigurationError(
            "unknown link strategy %r; expected one of %s"
            % (strategy, ", ".join(LINK_STRATEGIES))
        )
    adjacency = graph.adjacency
    if include_self:
        adjacency = (adjacency + sparse.identity(graph.n_points, dtype=bool, format="csr")).tocsr()

    if strategy == "neighbor-lists":
        links = _links_by_neighbor_lists(adjacency)
    else:
        links = _links_by_matmul(adjacency)

    links.setdiag(0)
    links.eliminate_zeros()
    links = links.tocsr()
    # Canonical index order: the agglomeration engines derive deterministic
    # tie-breaking from the storage order, and SciPy's sparse matmul does
    # not guarantee sorted column indices.
    links.sort_indices()
    return links


def _links_by_matmul(adjacency: sparse.csr_matrix) -> sparse.csr_matrix:
    counted = adjacency.astype(np.int64)
    return (counted @ counted.T).tocsr()


def _links_by_neighbor_lists(adjacency: sparse.csr_matrix) -> sparse.csr_matrix:
    """The paper's ``compute_links``, vectorised per neighbour list.

    For every point the unordered pairs of its neighbourhood are enumerated
    with pre-built upper-triangle index templates (cached per neighbourhood
    size), encoded as ``first * n + second`` scalars and counted with
    ``np.unique`` — no per-pair Python dict.  Occurrences are folded into
    the running unique-pair counts every ``_PAIR_FOLD_LIMIT`` entries, so
    peak memory tracks the number of *unique* linked pairs (like the dict
    it replaced), not the total pair mass.
    """
    n = adjacency.shape[0]
    if not adjacency.has_sorted_indices:
        adjacency = adjacency.copy()
        adjacency.sort_indices()
    indptr, indices = adjacency.indptr, adjacency.indices
    neighborhood_sizes = np.diff(indptr)
    triu_templates: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    running: tuple[np.ndarray, np.ndarray] | None = None
    pair_chunks: list[np.ndarray] = []
    buffered = 0
    for point in np.nonzero(neighborhood_sizes >= 2)[0].tolist():
        neighborhood = indices[indptr[point]:indptr[point + 1]].astype(np.int64)
        size = neighborhood.size
        template = triu_templates.get(size)
        if template is None:
            template = np.triu_indices(size, k=1)
            triu_templates[size] = template
        # Row indices are sorted, so first < second holds pairwise.
        pair_chunks.append(neighborhood[template[0]] * n + neighborhood[template[1]])
        buffered += pair_chunks[-1].size
        if buffered >= _PAIR_FOLD_LIMIT:
            running = _fold_pair_counts(running, pair_chunks)
            pair_chunks = []
            buffered = 0
    if pair_chunks:
        running = _fold_pair_counts(running, pair_chunks)
    if running is None:
        return sparse.csr_matrix((n, n), dtype=np.int64)
    encoded, values = running
    upper = sparse.coo_matrix(
        (values, (encoded // n, encoded % n)), shape=(n, n)
    )
    return (upper + upper.T).tocsr()


def _fold_pair_counts(
    running: tuple[np.ndarray, np.ndarray] | None,
    buffered: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Merge buffered pair-code chunks into the running ``(codes, counts)``."""
    codes, occurrences = np.unique(np.concatenate(buffered), return_counts=True)
    occurrences = occurrences.astype(np.int64)
    if running is None:
        return codes, occurrences
    merged_codes = np.concatenate([running[0], codes])
    merged_counts = np.concatenate([running[1], occurrences])
    unique_codes, inverse = np.unique(merged_codes, return_inverse=True)
    totals = np.zeros(unique_codes.size, dtype=np.int64)
    np.add.at(totals, inverse, merged_counts)
    return unique_codes, totals


def compute_links(
    graph: NeighborGraph,
    strategy: str = "auto",
    include_self: bool = True,
) -> sparse.csr_matrix:
    """Alias of :func:`links_from_neighbors` (kept for API symmetry)."""
    return links_from_neighbors(graph, strategy=strategy, include_self=include_self)


def cross_cluster_links(
    links: sparse.csr_matrix,
    members_left: np.ndarray,
    members_right: np.ndarray,
) -> int:
    """Total number of links between two disjoint groups of points.

    ``link[C_i, C_j]`` in the paper's notation: the sum of ``link(p, q)``
    over ``p`` in the first group and ``q`` in the second.
    """
    block = links[np.asarray(members_left, dtype=int)][:, np.asarray(members_right, dtype=int)]
    return int(block.sum())


def intra_cluster_links(links: sparse.csr_matrix, members: np.ndarray) -> int:
    """Sum of ``link(p, q)`` over unordered pairs ``p != q`` within one group."""
    index = np.asarray(members, dtype=int)
    block = links[index][:, index]
    return int(block.sum() // 2)
