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

:func:`links_from_neighbors` returns int64 counts.  :func:`canonical_links`
is the same matrix with the counts in the arena engine's count cells
(:func:`count_dtype`: int32 while the upper triangle's link mass fits):
what :class:`~repro.core.engine_arena.ArenaAgglomerationEngine` seeds
from, written once in that dtype on either path below, so a fit holds no
int64 copy.

The matrix product runs one of two ways, with the same result down to the
index order and the dtypes:

* **one call** — one SciPy product over the whole adjacency (which releases
  the GIL), then the diagonal is dropped and the indices sorted;
* **row blocks on the CPU pool** — only the strict upper triangle is
  formed, in row blocks balanced by estimated work, on the process's
  shared thread pool (:mod:`repro.core.cpu_pool`, sized to the CPUs the
  process may use); each block lands in the final arrays twice, once as
  is and once transposed.

The blocks are used for a product above :data:`_POOL_MIN_MULTIPLY_ADDS`
wherever :func:`~repro.core.cpu_pool.cpu_pool` allows the pool: on the
main thread of a process that may use at least two CPUs and is not a
multiprocessing child.  So shard tasks keep the one call on either
executor: their worker threads or processes already keep the CPUs busy.

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

import math
from concurrent.futures import Executor

import numpy as np
from scipy import sparse

from repro.core.cpu_pool import cpu_pool
from repro.core.neighbors import NeighborGraph
from repro.errors import ConfigurationError

#: Pair occurrences buffered before folding into the running unique-pair
#: counts (bounds peak memory to unique pairs + one buffer, ~16 MB).
_PAIR_FOLD_LIMIT = 2_000_000

#: Strategies accepted by :func:`compute_links`.
LINK_STRATEGIES = ("auto", "neighbor-lists", "sparse-matmul")

#: Multiply-adds of the product, the sum of the squared row lengths of the
#: adjacency (with the self-links when counted), above which it runs in
#: row blocks on the CPU pool.  On 2 CPUs the blocks took 0.07 s against
#: 0.12 s for the one call at 27M (2000 Instacart baskets), but forced onto
#: the pool at that size inmem-40k won 2 of 6 pairs and its peak RSS rose
#: 3.3 MB; at 207M stream-100k won 10 of 10.  The bound sits between the
#: two, below the 77.5M of ``bench_engine`` at n=4000.
_POOL_MIN_MULTIPLY_ADDS = 64_000_000

#: Row blocks per pool thread, so the threads finish close together.
_BLOCKS_PER_WORKER = 4

#: Most estimated multiply-adds one row block may take, which bounds what
#: a block holds while it runs as the product grows.
_MAX_BLOCK_MULTIPLY_ADDS = 32_000_000

_INT32_MAX = int(np.iinfo(np.int32).max)


def count_dtype(dtype: np.dtype, mass: float) -> np.dtype:
    """Count cells for links of ``dtype`` whose upper triangle sums to
    ``mass``: int32 while the mass (a bound on every count merging can
    reach) fits, else int64; float weights stay float64."""
    if not np.issubdtype(dtype, np.integer):
        return np.dtype(np.float64)
    return np.dtype(np.int32 if mass <= _INT32_MAX else np.int64)


def _link_pool(multiply_adds: int) -> tuple[Executor, int] | None:
    """The CPU pool and its thread count when a product of
    ``multiply_adds`` should run in row blocks here, else ``None``."""
    if multiply_adds < _POOL_MIN_MULTIPLY_ADDS:
        return None
    return cpu_pool()


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
    adjacency = _with_self_links(graph, include_self)
    if strategy == "neighbor-lists":
        return _without_diagonal(_links_by_neighbor_lists(adjacency))
    return _link_product(adjacency, narrow=False)


def canonical_links(graph: NeighborGraph, include_self: bool = True) -> sparse.csr_matrix:
    """The link matrix in the form the arena engine seeds from.

    ``links_from_neighbors(graph, include_self=include_self)`` with the
    same indptr, indices and values, its counts in :func:`count_dtype`
    (int32 while the upper triangle's link mass fits, else int64).  Both
    paths of the product write the counts once, in that dtype.
    """
    return _link_product(_with_self_links(graph, include_self), narrow=True)


def _with_self_links(graph: NeighborGraph, include_self: bool) -> sparse.csr_matrix:
    adjacency = graph.adjacency
    if include_self:
        adjacency = (adjacency + sparse.identity(graph.n_points, dtype=bool, format="csr")).tocsr()
    return adjacency


def _without_diagonal(links: sparse.spmatrix) -> sparse.csr_matrix:
    links.setdiag(0)
    links.eliminate_zeros()
    links = links.tocsr()
    # Canonical index order: the agglomeration engines derive deterministic
    # tie-breaking from the storage order, and SciPy's sparse matmul does
    # not guarantee sorted column indices.
    links.sort_indices()
    return links


def _link_product(adjacency: sparse.csr_matrix, narrow: bool) -> sparse.csr_matrix:
    """``A @ A`` without its diagonal: int64 counts, or with ``narrow`` the
    :func:`count_dtype` ones."""
    lengths = np.diff(adjacency.indptr).astype(np.int64)
    pool = _link_pool(int(lengths @ lengths))
    if pool is not None:
        return _links_in_blocks(adjacency, *pool, narrow)
    # A count is at most n, so int32 holds every count the narrow product
    # makes; only the link mass decides whether the cells must widen.  The
    # adjacency is symmetric, so it is its own transpose: multiplying by it
    # directly skips converting a transposed copy back to CSR.
    counted = adjacency.astype(np.int32 if narrow else np.int64)
    links = _without_diagonal(counted @ counted)
    if narrow:
        mass = float(links.data.sum(dtype=np.float64)) / 2
        links.data = links.data.astype(count_dtype(links.dtype, mass), copy=False)
    return links


def _links_in_blocks(
    adjacency: sparse.csr_matrix, pool: Executor, workers: int, narrow: bool
) -> sparse.csr_matrix:
    """The link matrix from the strict upper triangle of the product,
    computed in row blocks on ``pool`` (``workers`` threads), with int64
    counts or, with ``narrow``, the :func:`count_dtype` ones.

    Block ``low:high`` multiplies the trailing rows ``low:`` by the
    transpose of its own rows.  The adjacency is symmetric, so that is the
    transpose of ``A[low:high] @ A_csc[:, low:]``: the same pairs, from a
    view of the trailing rows (SciPy's own row slice would copy them) and
    the small transpose of the block's rows, instead of a copy of every
    trailing column per block.  Row ``r`` of a product is row ``low + r``
    of the link matrix over the columns ``low:high``;
    :func:`_earlier_links` keeps each row's links with earlier rows.

    Once every block is in, the row lengths of the result are known: row
    ``i`` holds its links with earlier rows (row ``i`` of every block from
    ``i``'s own on), then those with later rows (column ``i - low`` of its
    own block).  Each block is written straight into the final arrays at
    those places, in block order, so every row comes out sorted and
    nothing the size of the result is built twice.
    """
    n = adjacency.shape[0]
    counted = adjacency.astype(np.int32)
    bounds = _row_blocks(counted, workers)
    # The workers only multiply: the operands are made here and every
    # product is cut down here as it arrives, so what a worker allocates is
    # freed before it takes its next block.  The workers' malloc arenas,
    # which the rest of the process never reuses, stay about one product
    # large.
    operands = [
        (_row_view(counted, low, n), _row_view(counted, low, high).T.tocsr())
        for low, high in bounds
    ]
    products = pool.map(_multiply, operands)
    del operands, counted
    blocks = []
    for (low, high), product in zip(bounds, products):
        blocks.append(_earlier_links(product, high - low))
        del product

    earlier = np.zeros(n, dtype=np.int64)
    later = np.zeros(n, dtype=np.int64)
    for (low, high), block in zip(bounds, blocks):
        earlier[low:] += np.diff(block.indptr)
        later[low:high] += np.bincount(block.indices, minlength=high - low)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(earlier + later, out=indptr[1:])
    nnz = int(indptr[-1])
    index_dtype = np.int32 if max(nnz, n) <= _INT32_MAX else np.int64
    data_dtype = np.dtype(np.int64)
    if narrow:
        # The blocks hold each unordered pair once: the upper triangle.
        mass = sum(float(block.data.sum(dtype=np.float64)) for block in blocks)
        data_dtype = count_dtype(data_dtype, mass)
    indices = np.empty(nnz, dtype=index_dtype)
    data = np.empty(nnz, dtype=data_dtype)

    cursor = indptr[:-1].copy()
    later_start = indptr[:-1] + earlier
    for (low, high), block in zip(bounds, blocks):
        lengths = np.diff(block.indptr)
        _scatter(indices, data, cursor[low:], block, low)
        cursor[low:] += lengths
        _scatter(indices, data, later_start[low:high], block.tocsc(), low)
    links = sparse.csr_matrix((data, indices, indptr.astype(index_dtype)), shape=(n, n))
    links.has_sorted_indices = True
    return links


def _row_blocks(counted: sparse.csr_matrix, workers: int) -> list[tuple[int, int]]:
    """Row ranges of about equal estimated work, at least
    :data:`_BLOCKS_PER_WORKER` per thread and none above
    :data:`_MAX_BLOCK_MULTIPLY_ADDS`.

    Row ``i``'s full product costs the summed row lengths of its
    neighbours; the upper triangle keeps the share of it at or after ``i``,
    about ``(n - i) / n`` of it for points in random order.
    """
    n = counted.shape[0]
    lengths = np.diff(counted.indptr).astype(np.float64)
    work = np.cumsum((counted @ lengths) * np.arange(n, 0, -1) / max(n, 1))
    total = float(work[-1]) if n else 0.0
    pieces = max(_BLOCKS_PER_WORKER * workers, math.ceil(total / _MAX_BLOCK_MULTIPLY_ADDS))
    cuts = np.searchsorted(work, total * np.arange(1, pieces) / pieces)
    edges = np.unique(np.concatenate(([0], cuts, [n]))).tolist()
    return list(zip(edges[:-1], edges[1:]))


def _multiply(operands: tuple[sparse.csr_matrix, sparse.csr_matrix]) -> sparse.csr_matrix:
    """One block's product, the only step that runs on a pool thread."""
    left, right = operands
    return left @ right


def _row_view(matrix: sparse.csr_matrix, low: int, high: int) -> sparse.csr_matrix:
    """Rows ``low:high`` of ``matrix`` sharing its index and data arrays."""
    start, stop = matrix.indptr[low], matrix.indptr[high]
    return sparse.csr_matrix(
        (
            matrix.data[start:stop],
            matrix.indices[start:stop],
            matrix.indptr[low : high + 1] - start,
        ),
        shape=(high - low, matrix.shape[1]),
    )


def _earlier_links(product: sparse.csr_matrix, size: int) -> sparse.csr_matrix:
    """A block product cut to each row's links with earlier rows.

    Only the first ``size`` rows (the block's own) reach a column at or
    after their own row; the result keeps the columns before it, with
    sorted indices.
    """
    indptr = product.indptr
    head = int(indptr[size])
    rows = np.repeat(np.arange(size, dtype=indptr.dtype), np.diff(indptr[: size + 1]))
    keep = product.indices[:head] < rows
    kept = np.zeros_like(indptr)
    np.cumsum(np.bincount(rows[keep], minlength=size), out=kept[1 : size + 1])
    kept[size + 1 :] = indptr[size + 1 :] - head + kept[size]
    block = sparse.csr_matrix(
        (
            np.concatenate((product.data[:head][keep], product.data[head:])),
            np.concatenate((product.indices[:head][keep], product.indices[head:])),
            kept,
        ),
        shape=product.shape,
    )
    block.sort_indices()
    return block


def _scatter(
    indices: np.ndarray,
    data: np.ndarray,
    row_starts: np.ndarray,
    part: sparse.spmatrix,
    offset: int,
) -> None:
    """Write each compressed row ``r`` of ``part`` at ``row_starts[r]`` of
    the final arrays, its indices shifted by ``offset``."""
    lengths = np.diff(part.indptr)
    destination = np.repeat(row_starts - part.indptr[:-1], lengths)
    destination += np.arange(part.nnz)
    indices[destination] = part.indices + offset
    data[destination] = part.data


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
