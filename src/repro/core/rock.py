"""The ROCK agglomerative clustering algorithm (paper Section 4.1).

The algorithm starts with every point in its own cluster, computes the link
matrix once, and then repeatedly merges the pair of clusters with the
highest *goodness measure* until the requested number of clusters remains or
no pair of clusters shares any links.

The merge loop is implemented by pluggable agglomeration engines, selected
by the ``engine`` parameter and registered in :mod:`repro.core.engines`:

* ``"arena"`` — the batch-recompute engine of
  :mod:`repro.core.engine_arena`: heap-free best tracking over growable
  scratch arenas (what ``"auto"``, the default, resolves to).
* ``"reference"`` — the direct transcription of the paper's pseudo-code
  below: dict-of-dicts link counts, per-cluster local heaps and a global
  heap, maintained incrementally so each merge costs ``O(n log n)`` in the
  worst case, matching the paper's ``O(n^2 log n)`` overall bound.

Both engines produce bit-identical merge histories, labels and criterion
values (enforced by the test suite and the engine benchmarks);
``"reference"`` exists as the executable specification the arena engine
is tested against.  The neighbour and link phases run with their
defaults (``auto``); their specs are selected at
:func:`repro.core.neighbors.compute_neighbors` and
:func:`repro.core.links.links_from_neighbors`.

The public entry point is :class:`RockClustering`, a scikit-learn-flavoured
estimator (``fit`` / ``fit_predict`` / ``labels_``) that accepts transaction
datasets, categorical datasets, plain sequences of item sets or binary
matrices.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import sparse

from repro.core.engine_arena import ArenaAgglomerationEngine
from repro.core.engines import (
    ARENA_ENGINE,
    DEFAULT_ENGINE,
    REFERENCE_ENGINE,
    AgglomerationEngine,
    available_engines,
    get_engine,
    resolve_engine_name,
    validate_engine_name,
)
from repro.core.goodness import (
    ExponentFunction,
    criterion_from_masses,
    criterion_function,
    goodness,
)
from repro.core.heaps import AddressableMaxHeap
from repro.core.links import canonical_links, links_from_neighbors
from repro.core.neighbors import NeighborGraph, compute_neighbors, validate_theta
from repro.data.dataset import CategoricalDataset, TransactionDataset
from repro.data.encoding import attribute_value_items, binary_matrix_to_transactions
from repro.errors import (
    ConfigurationError,
    DataValidationError,
    InsufficientLinksError,
    NotFittedError,
)
from repro.similarity.base import SetSimilarity
from repro.types import ClusterSummary, MergeStep

#: Registered agglomeration engines, in registration order (``"auto"`` is
#: additionally accepted everywhere an engine name is).
ENGINES = tuple(available_engines())


def as_transactions(data) -> list[frozenset]:
    """Normalise any supported input shape to a list of item sets.

    Accepted shapes: :class:`TransactionDataset`, :class:`CategoricalDataset`
    (records become ``(attribute, value)`` item sets, missing values
    ignored), a two-dimensional 0/1 NumPy array (rows become item sets of
    their non-zero column indices) or any sequence of item collections.  A
    ``str`` or ``bytes`` is not a collection of transactions, and neither is
    a sequence holding a non-iterable element: both raise
    :class:`DataValidationError`.
    """
    if isinstance(data, TransactionDataset):
        return data.transactions
    if isinstance(data, CategoricalDataset):
        return [attribute_value_items(record) for record in data]
    if isinstance(data, np.ndarray):
        return binary_matrix_to_transactions(data).transactions
    if isinstance(data, (str, bytes)):
        raise DataValidationError(
            "cannot cluster a %s as a collection of transactions; to cluster "
            "a transaction file, pass its path to RockPipeline.run_streaming "
            "or load it with repro.data.io.read_transactions" % type(data).__name__
        )
    if isinstance(data, Sequence) or hasattr(data, "__iter__"):
        try:
            transactions = [frozenset(t) for t in data]
        except TypeError as error:
            raise DataValidationError(
                "every transaction must be an iterable of hashable items: %s" % error
            ) from error
        if not transactions:
            raise DataValidationError("cannot cluster an empty collection")
        return transactions
    raise DataValidationError(
        "unsupported input type for clustering: %r" % type(data).__name__
    )


@dataclass
class RockResult:
    """Outcome of a single ROCK agglomeration run.

    Attributes
    ----------
    labels:
        Integer cluster label per input point, numbered ``0 .. n_clusters-1``
        in order of decreasing cluster size.
    clusters:
        For each label, the tuple of member point indices.
    merge_history:
        The merges performed, in execution order.
    n_clusters:
        Number of clusters in the final partition.
    criterion:
        Value of the paper's criterion function ``E_l`` for the final
        partition.
    theta:
        The similarity threshold used.
    stopped_early:
        ``True`` when agglomeration halted because no cross-cluster links
        remained before reaching the requested number of clusters.
    elapsed_seconds:
        Wall-clock time of the agglomeration (excluding neighbour/link
        computation, which is reported separately by the pipeline).
    merge_counters:
        Merge-loop observability counters reported by the engine (empty
        for engines that do not instrument themselves — ``reference`` is
        the frozen spec and stays uninstrumented).
    """

    labels: np.ndarray
    clusters: list[tuple]
    merge_history: list[MergeStep]
    n_clusters: int
    criterion: float
    theta: float
    stopped_early: bool
    elapsed_seconds: float = 0.0
    merge_counters: dict = dataclass_field(default_factory=dict)

    def summaries(self) -> list[ClusterSummary]:
        """Return a :class:`ClusterSummary` per cluster, largest first."""
        return [
            ClusterSummary(cluster_id=i, size=len(members), member_indices=tuple(members))
            for i, members in enumerate(self.clusters)
        ]

    def cluster_sizes(self) -> list[int]:
        """Cluster sizes in label order (decreasing)."""
        return [len(members) for members in self.clusters]


class RockClustering:
    """ROCK: RObust Clustering using linKs.

    Parameters
    ----------
    n_clusters:
        The number of clusters to stop at.  More clusters may be returned
        when agglomeration stops early because no links remain between any
        pair of clusters; set ``strict=True`` to treat that as an error.
    theta:
        Similarity threshold in ``[0, 1]`` defining the neighbour relation.
    measure:
        Set-similarity measure; defaults to the Jaccard coefficient used in
        the paper.
    engine:
        Agglomeration engine: any name registered in
        :mod:`repro.core.engines` (``"arena"``, ``"reference"``) or
        ``"auto"`` (the default, resolving to the fastest registered
        engine).  Every engine produces identical results.
    include_self_links:
        Whether a point counts as its own neighbour when counting common
        neighbours.  Default ``True`` (the paper's convention: a point's
        similarity to itself is 1, hence always at least ``theta``).
    exponent_function:
        The ``f(theta)`` function of the goodness measure; defaults to the
        paper's ``(1 - theta) / (1 + theta)``.
    strict:
        When ``True``, raise :class:`InsufficientLinksError` if the requested
        number of clusters cannot be reached.

    Examples
    --------
    >>> transactions = [{1, 2, 3}, {1, 2, 4}, {5, 6}, {5, 6, 7}]
    >>> model = RockClustering(n_clusters=2, theta=0.3).fit(transactions)
    >>> sorted(model.result_.cluster_sizes())
    [2, 2]
    """

    def __init__(
        self,
        n_clusters: int,
        theta: float = 0.5,
        measure: SetSimilarity | None = None,
        engine: str = DEFAULT_ENGINE,
        include_self_links: bool = True,
        exponent_function: ExponentFunction | None = None,
        strict: bool = False,
    ) -> None:
        if int(n_clusters) < 1:
            raise ConfigurationError("n_clusters must be at least 1, got %r" % n_clusters)
        self.n_clusters = int(n_clusters)
        self.theta = validate_theta(theta)
        self.measure = measure
        self.engine = validate_engine_name(engine)
        self.include_self_links = bool(include_self_links)
        self.exponent_function = exponent_function
        self.strict = bool(strict)

        self._result: RockResult | None = None
        self._neighbor_graph: NeighborGraph | None = None
        self._links: sparse.csr_matrix | None = None

    # ------------------------------------------------------------------ #
    # Fitted-attribute access
    # ------------------------------------------------------------------ #
    def _require_fitted(self) -> RockResult:
        if self._result is None:
            raise NotFittedError("call fit() before accessing results")
        return self._result

    @property
    def result_(self) -> RockResult:
        """The full :class:`RockResult` of the last :meth:`fit` call."""
        return self._require_fitted()

    @property
    def labels_(self) -> np.ndarray:
        """Cluster label per point from the last :meth:`fit` call."""
        return self._require_fitted().labels

    @property
    def clusters_(self) -> list[tuple]:
        """Cluster membership (point indices) from the last :meth:`fit` call."""
        return self._require_fitted().clusters

    @property
    def n_clusters_(self) -> int:
        """Number of clusters actually produced."""
        return self._require_fitted().n_clusters

    @property
    def neighbor_graph_(self) -> NeighborGraph:
        """The neighbour graph computed during :meth:`fit`."""
        if self._neighbor_graph is None:
            raise NotFittedError("call fit() before accessing the neighbour graph")
        return self._neighbor_graph

    @property
    def links_(self) -> sparse.csr_matrix:
        """The link matrix of the points :meth:`fit` clustered.

        Built on first access from the kept neighbour graph by
        :func:`~repro.core.links.links_from_neighbors`: the arena engine
        seeds its merge loop from a narrower copy that it drops once
        seeded, so a fit holds no link matrix of its own.
        """
        if self._neighbor_graph is None:
            raise NotFittedError("call fit() before accessing the link matrix")
        if self._links is None:
            self._links = links_from_neighbors(
                self._neighbor_graph, include_self=self._fitted_include_self
            )
        return self._links

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, data, item_index: dict | None = None) -> "RockClustering":
        """Cluster ``data`` and store the result on the estimator.

        ``item_index`` optionally supplies a pre-built item-to-column index
        (see :func:`repro.data.encoding.build_item_index`) covering every
        item of ``data``, so pipelines that already indexed the full data
        set do not rebuild it per phase.
        """
        transactions = as_transactions(data)
        graph = compute_neighbors(
            transactions, theta=self.theta, measure=self.measure, item_index=item_index
        )
        return self._fit_graph(graph)

    def _fit_graph(self, graph: NeighborGraph) -> "RockClustering":
        """:meth:`fit` from its points' neighbour graph on."""
        self._neighbor_graph = graph
        self._links = None
        self._fitted_include_self = self.include_self_links
        if resolve_engine_name(self.engine) == ARENA_ENGINE:
            self._result = self._agglomerate_arena(graph)
        else:
            self._result = self._agglomerate(self.links_, graph.n_points)
        return self

    def fit_predict(self, data) -> np.ndarray:
        """Cluster ``data`` and return the label array."""
        return self.fit(data).labels_

    # ------------------------------------------------------------------ #
    # Agglomeration
    # ------------------------------------------------------------------ #
    def _agglomerate(self, links: sparse.csr_matrix, n_points: int) -> RockResult:
        name = resolve_engine_name(self.engine)
        if name == REFERENCE_ENGINE:
            # The frozen spec path stays dispatched in place (going through
            # the registry adapter would build a second estimator).
            return self._agglomerate_reference(links, n_points)
        return self._agglomerate_registered(get_engine(name), links, n_points)

    def _agglomerate_arena(self, graph: NeighborGraph) -> RockResult:
        """The arena engine, seeded from :func:`canonical_links`.

        The product goes straight into the engine's constructor, so the
        engine is its only holder and drops it once seeded; no frame on
        the way down keeps it alive through the merge loop.  The criterion
        is summed from the intra-cluster link masses the engine folds.
        """
        n_points = graph.n_points
        engine = ArenaAgglomerationEngine(
            canonical_links(graph, include_self=self.include_self_links),
            n_points,
            self.n_clusters,
            self.theta,
            self.exponent_function,
            canonical=True,
        )
        start_time = time.perf_counter()
        merge_history, members, stopped_early, counters = engine.run()
        self._check_strict(stopped_early, len(members))
        return self._build_result(
            None,
            n_points,
            members,
            merge_history,
            stopped_early,
            start_time,
            merge_counters=counters,
            masses={cluster: engine.intra_link_mass(cluster) for cluster in members},
        )

    def _agglomerate_registered(
        self,
        engine: AgglomerationEngine,
        links: sparse.csr_matrix,
        n_points: int,
    ) -> RockResult:
        start_time = time.perf_counter()
        run = engine.agglomerate(
            links,
            n_points,
            self.n_clusters,
            self.theta,
            self.exponent_function,
        )
        self._check_strict(run.stopped_early, len(run.members))
        return self._build_result(
            links,
            n_points,
            run.members,
            run.merge_history,
            run.stopped_early,
            start_time,
            merge_counters=run.counters,
        )

    def _agglomerate_reference(
        self, links: sparse.csr_matrix, n_points: int
    ) -> RockResult:
        start_time = time.perf_counter()

        members: dict[int, list[int]] = {i: [i] for i in range(n_points)}
        # Cross-cluster link counts, kept symmetric: link_counts[u][v] == link_counts[v][u].
        link_counts: dict[int, dict[int, int]] = {i: {} for i in range(n_points)}
        matrix = links.tocoo()
        for u, v, value in zip(matrix.row, matrix.col, matrix.data):
            if u < v and value > 0:
                link_counts[int(u)][int(v)] = int(value)
                link_counts[int(v)][int(u)] = int(value)

        local_heaps: dict[int, AddressableMaxHeap] = {}
        global_heap = AddressableMaxHeap()
        for u in range(n_points):
            heap = AddressableMaxHeap()
            for v, count in link_counts[u].items():
                heap.push(v, self._goodness(count, len(members[u]), len(members[v])))
            local_heaps[u] = heap
            global_heap.push(u, heap.peek()[1] if len(heap) else float("-inf"))

        merge_history: list[MergeStep] = []
        next_cluster_id = n_points
        stopped_early = False

        while len(members) > self.n_clusters:
            best_cluster, best_goodness = global_heap.peek()
            if not np.isfinite(best_goodness) or best_goodness <= 0.0:
                stopped_early = True
                break
            partner, _ = local_heaps[best_cluster].peek()
            merged_id = next_cluster_id
            next_cluster_id += 1

            merge_history.append(
                MergeStep(
                    step=len(merge_history),
                    left=int(best_cluster),
                    right=int(partner),
                    goodness=float(best_goodness),
                    new_size=len(members[best_cluster]) + len(members[partner]),
                )
            )
            self._merge_clusters(
                best_cluster,
                partner,
                merged_id,
                members,
                link_counts,
                local_heaps,
                global_heap,
            )

        self._check_strict(stopped_early, len(members))
        return self._build_result(
            links, n_points, members, merge_history, stopped_early, start_time
        )

    def _check_strict(self, stopped_early: bool, n_remaining: int) -> None:
        if stopped_early and self.strict:
            raise InsufficientLinksError(
                "no cross-cluster links remain with %d clusters (requested %d); "
                "lower theta or reduce n_clusters" % (n_remaining, self.n_clusters)
            )

    def _build_result(
        self,
        links: sparse.csr_matrix | None,
        n_points: int,
        members: dict[int, list[int]],
        merge_history: list[MergeStep],
        stopped_early: bool,
        start_time: float,
        merge_counters: dict | None = None,
        masses: Mapping[int, float] | None = None,
    ) -> RockResult:
        """The result of a run; the criterion is summed from ``masses``
        (cluster id → intra-cluster link mass) when given, else from
        ``links``."""
        order = self._ordered_ids(members)
        clusters = [tuple(sorted(members[cluster])) for cluster in order]
        labels = np.full(n_points, -1, dtype=int)
        for label, cluster_members in enumerate(clusters):
            labels[list(cluster_members)] = label

        elapsed = time.perf_counter() - start_time
        if masses is None:
            criterion = criterion_function(
                links, clusters, self.theta, self.exponent_function
            )
        else:
            criterion = criterion_from_masses(
                [(len(members[cluster]), masses[cluster]) for cluster in order],
                self.theta,
                self.exponent_function,
            )
        return RockResult(
            labels=labels,
            clusters=clusters,
            merge_history=merge_history,
            n_clusters=len(clusters),
            criterion=criterion,
            theta=self.theta,
            stopped_early=stopped_early,
            elapsed_seconds=elapsed,
            merge_counters=dict(merge_counters or {}),
        )

    def _goodness(self, cross_links: int, size_left: int, size_right: int) -> float:
        return goodness(
            cross_links, size_left, size_right, self.theta, self.exponent_function
        )

    def _merge_clusters(
        self,
        left: int,
        right: int,
        merged_id: int,
        members: dict[int, list[int]],
        link_counts: dict[int, dict[int, int]],
        local_heaps: dict[int, AddressableMaxHeap],
        global_heap: AddressableMaxHeap,
    ) -> None:
        """Merge clusters ``left`` and ``right`` into ``merged_id`` in place."""
        merged_members = members.pop(left) + members.pop(right)
        members[merged_id] = merged_members
        merged_size = len(merged_members)

        # Combine cross-link counts of the two merged clusters.
        combined: dict[int, int] = {}
        for source in (left, right):
            for other, count in link_counts.pop(source).items():
                if other in (left, right):
                    continue
                combined[other] = combined.get(other, 0) + count

        merged_links: dict[int, int] = {}
        merged_heap = AddressableMaxHeap()
        for other, count in combined.items():
            other_links = link_counts[other]
            other_links.pop(left, None)
            other_links.pop(right, None)
            other_links[merged_id] = count
            merged_links[other] = count

            other_heap = local_heaps[other]
            other_heap.discard(left)
            other_heap.discard(right)
            other_size = len(members[other])
            pair_goodness = self._goodness(count, merged_size, other_size)
            other_heap.push_or_update(merged_id, pair_goodness)
            merged_heap.push(other, pair_goodness)
            global_heap.update(
                other, other_heap.peek()[1] if len(other_heap) else float("-inf")
            )

        # Clusters that had links with neither left nor right still need the
        # stale entries removed from their heaps (there are none by
        # construction: only clusters present in `combined` referenced them).
        link_counts[merged_id] = merged_links
        local_heaps.pop(left, None)
        local_heaps.pop(right, None)
        local_heaps[merged_id] = merged_heap
        global_heap.discard(left)
        global_heap.discard(right)
        global_heap.push(
            merged_id, merged_heap.peek()[1] if len(merged_heap) else float("-inf")
        )

    @staticmethod
    def _ordered_ids(members: dict[int, list[int]]) -> list[int]:
        """Cluster ids by decreasing size (ties: smallest member index)."""
        return sorted(members, key=lambda cluster: (-len(members[cluster]), min(members[cluster])))
