"""Incremental/online ROCK: ingest new points into a live clustering.

The in-memory (:meth:`~repro.core.pipeline.RockPipeline.run`), streaming
(:meth:`~repro.core.pipeline.RockPipeline.run_streaming`) and sharded
(:meth:`~repro.core.pipeline.RockPipeline.run_sharded`) entry points all
cluster a *fixed* data set.  This module adds the last execution mode: an
engine that maintains a **live clustering** and accepts new points in
batches without a full re-run.

:class:`IncrementalRock` is bootstrapped from a clustered sample (the
outcome of the ordinary sample/cluster phases) and then serves
:meth:`IncrementalRock.ingest` calls.  Each ingest does three things:

1. **Label** the batch through the retained
   :class:`~repro.core.labeling.StreamingLabeler` — exactly the labelling
   pass the streaming pipeline runs, so batch labels are bit-identical to
   what :meth:`~repro.core.pipeline.RockPipeline.run_streaming` would
   assign the same points (and, by the PR-2 contract, independent of how
   the stream is split into batches).
2. **Splice** the batch into the live link structure.  The inserted
   points' neighbour rows are computed against the retained incidence
   (one ``batch x live`` sparse product thresholded through the measure's
   vectorized-counts capability; the within-batch block goes through the
   pluggable backend registry via
   :func:`~repro.core.neighbors.compute_neighbors`).  The point-level
   link matrix is updated with three block products — inserting points
   ``P`` with cross-adjacency ``C`` adds ``C^T C`` links between existing
   pairs, ``C A + B C`` links between batch and existing points and
   ``C C^T + B B^T`` links within the batch — which keeps the maintained
   matrix bit-identical to :func:`~repro.core.links.links_from_neighbors`
   recomputed from scratch over the live points (enforced by the property
   suite).  The cluster-level cross-link matrix is updated with the same
   deltas folded through the cluster membership.
3. **Re-agglomerate the frontier**: the batch points enter as singleton
   clusters and the arena engine (:mod:`repro.core.engine_arena`) runs
   over the live clusters as weighted starting clusters — their sizes and
   cross-link counts — until the live cluster count returns to the target
   (or no positive-goodness merge remains).

A ``refresh_threshold`` bounds drift: when the fraction of points
inserted since the last full clustering exceeds it, the session re-runs
its registered agglomeration engine (:mod:`repro.core.engines`; every
engine is bit-identical) over the maintained link matrix of *all* live
points, rebuilds the labeler against the refreshed clusters and resets
the drift counter.  Labels assigned after a refresh are therefore no
longer bit-identical to a streaming run on the union — they come from
the refreshed clustering — but they remain fully seed-reproducible: the
link matrix is split-independent, the engines are deterministic, and the
labeler draws from the session generator in a fixed order.

Determinism contract (enforced by ``tests/test_core_incremental.py``,
the property suite and the golden fixtures):

* without a refresh trigger, ingesting the points of a stream in *any*
  batch split produces labels bit-identical to one
  ``run_streaming`` pass over the union on the same data and seed;
* with refreshes, runs are seed-reproducible for a given batch split.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.engine_arena import arena_agglomerate
from repro.core.engines import (
    DEFAULT_ENGINE,
    get_engine,
    resolve_engine_name,
    restored_engine_name,
    validate_engine_name,
)
from repro.core.goodness import (
    ExponentFunction,
    default_expected_links_exponent,
)
from repro.core.labeling import StreamingLabeler
from repro.core.links import links_from_neighbors
from repro.core.neighbors import compute_neighbors, restored_backend_name
from repro.core.neighbors.graph import complete_adjacency
from repro.data.encoding import build_item_index, transactions_to_incidence
from repro.errors import ConfigurationError, DataValidationError
from repro.similarity.base import SetSimilarity, supports_vectorized_counts
from repro.similarity.jaccard import JaccardSimilarity


def validate_refresh_threshold(refresh_threshold: float | None) -> float | None:
    """Normalise an optional refresh threshold (``None`` disables refresh).

    The threshold is a positive fraction: a refresh triggers when
    ``points inserted since the last full clustering / points clustered at
    the last full clustering`` exceeds it.  Non-positive or NaN values are
    rejected rather than silently treated as "always refresh".
    """
    if refresh_threshold is None:
        return None
    refresh_threshold = float(refresh_threshold)
    if math.isnan(refresh_threshold) or refresh_threshold <= 0.0:
        raise ConfigurationError(
            "refresh_threshold must be a positive fraction or None, got %r"
            % refresh_threshold
        )
    return refresh_threshold


def _offset_columns(
    block: sparse.csr_matrix, offset: int, width: int, dtype
) -> sparse.csr_matrix:
    """``block`` re-addressed at column ``offset`` inside ``width`` columns."""
    return sparse.csr_matrix(
        (block.data.astype(dtype), block.indices + offset, block.indptr),
        shape=(block.shape[0], width),
    )


def _grow_symmetric(
    existing: sparse.csr_matrix,
    cross: sparse.csr_matrix,
    within: sparse.csr_matrix,
    dtype,
) -> sparse.csr_matrix:
    """Extend a symmetric CSR matrix by a batch of rows/columns.

    Assembles ``[[existing, cross.T], [cross, within]]`` without the COO
    round-trip of ``sparse.bmat``: the column count grows via an in-place
    ``resize`` (free for CSR), the off-diagonal block lands through one
    canonical CSR addition, and the row blocks concatenate through the
    same-format ``vstack`` fast path.  The result has sorted indices, which
    the cluster-link folds and the engines rely on.
    """
    n_old = existing.shape[0]
    n_new = cross.shape[0]
    total = n_old + n_new
    top = existing.astype(dtype)
    top.resize((n_old, total))
    top = top + _offset_columns(cross.T.tocsr(), n_old, total, dtype)
    bottom = cross.astype(dtype)
    bottom.resize((n_new, total))
    bottom = bottom + _offset_columns(within.tocsr(), n_old, total, dtype)
    grown = sparse.vstack([top, bottom], format="csr")
    grown.sort_indices()
    return grown


def _partition(clusters: Sequence[Sequence[int]], n_points: int) -> np.ndarray:
    """Cluster index per point for ``clusters`` (cluster ``i`` is
    ``clusters[i]``), which must cover ``0 .. n_points - 1``."""
    cluster_of = np.empty(n_points, dtype=np.int64)
    for cluster_id, members in enumerate(clusters):
        cluster_of[np.asarray(members, dtype=np.int64)] = cluster_id
    return cluster_of


def _membership(cluster_of: np.ndarray, n_clusters: int) -> sparse.csr_matrix:
    """The ``n_clusters x len(cluster_of)`` 0/1 matrix of a partition."""
    n = len(cluster_of)
    return sparse.csr_matrix(
        (np.ones(n, dtype=np.int64), (cluster_of, np.arange(n))),
        shape=(n_clusters, n),
    )


def _cross_links(
    links: sparse.spmatrix, membership: sparse.csr_matrix
) -> sparse.csr_matrix:
    """Cross-group link counts ``M L M^T``, within-group mass dropped."""
    folded = (membership @ links @ membership.T).tocoo()
    off_diagonal = (folded.row != folded.col) & (folded.data != 0)
    cross = sparse.csr_matrix(
        (
            folded.data[off_diagonal].astype(np.int64),
            (folded.row[off_diagonal], folded.col[off_diagonal]),
        ),
        shape=folded.shape,
    )
    cross.sort_indices()
    return cross


@dataclass
class IngestResult:
    """Outcome of one :meth:`IncrementalRock.ingest` call.

    Attributes
    ----------
    labels:
        One label per batch point, in the labeler's cluster space at call
        time (``0 .. n_labeler_clusters - 1``; ``-1`` marks outliers).
        After a refresh the space is the refreshed clustering's clusters,
        ordered by decreasing size; ``label_space`` says which space the
        labels belong to.
    n_points:
        Number of points in the batch.
    drift:
        Inserted fraction since the last full clustering *after* this
        batch (the value compared against ``refresh_threshold``).
    refreshed:
        ``True`` when this ingest triggered a full re-cluster (the batch's
        own labels were assigned *before* the refresh, so they are still
        in the pre-refresh space).
    label_space:
        Number of refreshes that had happened when the labels were
        assigned (``0`` = the bootstrap clustering's space).
    n_live_clusters:
        Live cluster count after the splice / frontier re-agglomeration
        (and after the refresh, when one triggered).
    """

    labels: np.ndarray
    n_points: int
    drift: float
    refreshed: bool
    label_space: int
    n_live_clusters: int


class IncrementalRock:
    """A live ROCK clustering that accepts new points in batches.

    Parameters mirror the pipeline knobs (see
    :class:`~repro.core.pipeline.RockPipeline`); ``refresh_threshold`` is
    the drift bound described in the module docstring and ``rng`` seeds
    the labelling-fraction draws (sharing the pipeline generator keeps the
    streaming equivalence bit-exact).

    Usage::

        session = IncrementalRock(n_clusters=4, theta=0.5, rng=0)
        session.bootstrap(clustered_sample, kept_clusters)
        result = session.ingest(batch)       # labels + live-state update

    The live state is inspectable through :attr:`live_points`,
    :attr:`links_`, :attr:`adjacency_` and :meth:`live_clusters`; the
    property-based test suite asserts after every ingest that the
    maintained point- and cluster-level link matrices are bit-identical to
    a from-scratch recomputation.
    """

    def __init__(
        self,
        n_clusters: int,
        theta: float = 0.5,
        measure: SetSimilarity | None = None,
        exponent_function: ExponentFunction | None = None,
        labeling_fraction: float = 1.0,
        labeling_strategy: str = "auto",
        assign_outliers: bool = True,
        neighbor_strategy: str = "auto",
        neighbor_block_size: int | None = None,
        link_strategy: str = "auto",
        include_self_links: bool = True,
        refresh_threshold: float | None = None,
        engine: str = DEFAULT_ENGINE,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if int(n_clusters) < 1:
            raise ConfigurationError(
                "n_clusters must be at least 1, got %r" % n_clusters
            )
        if not 0.0 <= float(theta) <= 1.0:
            raise ConfigurationError("theta must lie in [0, 1], got %r" % theta)
        self.n_clusters = int(n_clusters)
        self.theta = float(theta)
        self.measure = measure if measure is not None else JaccardSimilarity()
        self.exponent_function = (
            exponent_function
            if exponent_function is not None
            else default_expected_links_exponent
        )
        self.labeling_fraction = float(labeling_fraction)
        self.labeling_strategy = labeling_strategy
        self.assign_outliers = bool(assign_outliers)
        self.neighbor_strategy = neighbor_strategy
        self.neighbor_block_size = neighbor_block_size
        self.link_strategy = link_strategy
        self.include_self_links = bool(include_self_links)
        self.refresh_threshold = validate_refresh_threshold(refresh_threshold)
        self.engine = validate_engine_name(engine)
        self.rng = np.random.default_rng(rng)

        self.n_refreshes = 0
        self.n_ingested = 0
        #: Merge-loop counters of the most recent full refresh (empty until
        #: one ran, or when the refresh engine is uninstrumented).
        self.last_refresh_counters: dict = {}
        self._labeler: StreamingLabeler | None = None
        self._vectorizable = supports_vectorized_counts(self.measure)

    # ------------------------------------------------------------------ #
    # Bootstrap
    # ------------------------------------------------------------------ #
    def bootstrap(
        self,
        sample: Sequence[frozenset],
        clusters: Sequence[Sequence[int]],
        item_index: dict | None = None,
    ) -> "IncrementalRock":
        """Bind the session to a clustered sample.

        Parameters
        ----------
        sample:
            Item sets of the clustered sample (what the labeler retains —
            the same list the streaming pipeline hands its
            :class:`StreamingLabeler`).
        clusters:
            Cluster membership over ``sample`` as sequences of sample
            indices.  Points outside every cluster (e.g. pruned by
            ``min_cluster_size``) stay out of the live clustering but are
            still retained by the labeler.
        item_index:
            Optional pre-built item-to-column index covering ``sample``.
            The session keeps a private *growable* copy: items first seen
            in later batches are appended so the live link structure stays
            exact, while the labeler's bounded index is never mutated.
        """
        sample = [frozenset(t) for t in sample]
        if not clusters:
            raise DataValidationError("bootstrap requires at least one cluster")
        seen: set[int] = set()
        for members in clusters:
            for index in members:
                if not 0 <= index < len(sample):
                    raise DataValidationError(
                        "cluster member %r outside the sample of %d points"
                        % (index, len(sample))
                    )
                if index in seen:
                    raise DataValidationError(
                        "sample point %d appears in more than one cluster" % index
                    )
                seen.add(index)

        self._labeler = StreamingLabeler(
            sample,
            clusters,
            theta=self.theta,
            measure=self.measure,
            exponent_function=self.exponent_function,
            labeling_fraction=self.labeling_fraction,
            rng=self.rng,
            strategy=self.labeling_strategy,
            item_index=item_index,
            assign_outliers=self.assign_outliers,
        )

        # Live points: the members of the bootstrap clusters, in sample
        # order (pruned sample points stay out of the live clustering).
        live_of_sample = sorted(seen)
        self._points = [sample[i] for i in live_of_sample]
        live_index_of = {s: i for i, s in enumerate(live_of_sample)}
        live_clusters = [
            [live_index_of[int(member)] for member in members] for members in clusters
        ]

        self._item_index = dict(
            item_index if item_index is not None else build_item_index(sample)
        )
        for transaction in self._points:
            for item in transaction:
                if item not in self._item_index:
                    self._item_index[item] = len(self._item_index)
        self._incidence, _ = transactions_to_incidence(self._points, self._item_index)
        self._sizes = np.asarray([len(t) for t in self._points], dtype=np.int64)

        graph = compute_neighbors(
            self._points,
            theta=self.theta,
            measure=self.measure,
            strategy=self.neighbor_strategy,
            item_index=self._item_index,
            block_size=self.neighbor_block_size,
        )
        self._adjacency = graph.adjacency.tocsr()
        self._links = links_from_neighbors(
            graph, strategy=self.link_strategy, include_self=self.include_self_links
        )

        self._assign_clusters(_partition(live_clusters, len(self._points)))
        self._base_points = len(self._points)
        self._inserted_since_refresh = 0
        return self

    def _assign_clusters(self, cluster_of: np.ndarray) -> None:
        """Set the live partition (cluster index per live point, every
        index in ``0 .. k - 1`` used) and fold its cross-cluster link
        counts from the point-level links."""
        self._cluster_of = cluster_of
        self._cluster_links = _cross_links(
            self._links, _membership(cluster_of, int(cluster_of.max()) + 1)
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _require_bootstrapped(self) -> StreamingLabeler:
        if self._labeler is None:
            raise ConfigurationError(
                "the incremental session is not bootstrapped; call bootstrap() "
                "(or RockPipeline.run_online) first"
            )
        return self._labeler

    @property
    def n_points(self) -> int:
        """Number of live points (bootstrap cluster members + ingested)."""
        self._require_bootstrapped()
        return len(self._points)

    @property
    def live_points(self) -> list[frozenset]:
        """Item sets of the live points, in insertion order."""
        self._require_bootstrapped()
        return list(self._points)

    @property
    def links_(self) -> sparse.csr_matrix:
        """The maintained point-level link matrix over the live points."""
        self._require_bootstrapped()
        return self._links

    @property
    def adjacency_(self) -> sparse.csr_matrix:
        """The maintained neighbour adjacency over the live points."""
        self._require_bootstrapped()
        return self._adjacency

    @property
    def n_labeler_clusters(self) -> int:
        """Cluster count of the current labelling space."""
        return self._require_bootstrapped().n_clusters

    @property
    def drift(self) -> float:
        """Inserted fraction since the last full clustering."""
        self._require_bootstrapped()
        return self._inserted_since_refresh / max(1, self._base_points)

    @property
    def n_live_clusters(self) -> int:
        """Number of clusters in the live clustering."""
        self._require_bootstrapped()
        return int(self._cluster_links.shape[0])

    def live_clusters(self) -> list[tuple]:
        """The live clustering as member tuples, largest cluster first."""
        self._require_bootstrapped()
        order = np.argsort(self._cluster_of, kind="stable")
        counts = np.bincount(self._cluster_of, minlength=self.n_live_clusters)
        clusters = [
            tuple(members.tolist())
            for members in np.split(order, np.cumsum(counts)[:-1])
        ]
        clusters.sort(key=lambda cluster: (-len(cluster), cluster[0]))
        return clusters

    # ------------------------------------------------------------------ #
    # State capture / restore (the persistence layer's view of a session)
    # ------------------------------------------------------------------ #
    def config_dict(self) -> dict:
        """The session configuration as JSON-compatible values.

        Recorded in every snapshot manifest and compared on restore: resuming
        under different parameters would break the restore ≡ uninterrupted
        contract, so a mismatch is refused
        (:class:`~repro.errors.SnapshotConfigMismatchError`).
        """
        return {
            "n_clusters": self.n_clusters,
            "theta": self.theta,
            "measure": getattr(self.measure, "name", type(self.measure).__name__),
            "labeling_fraction": self.labeling_fraction,
            "labeling_strategy": self.labeling_strategy,
            "assign_outliers": self.assign_outliers,
            "neighbor_strategy": self.neighbor_strategy,
            "neighbor_block_size": self.neighbor_block_size,
            "link_strategy": self.link_strategy,
            "include_self_links": self.include_self_links,
            "refresh_threshold": self.refresh_threshold,
            "engine": self.engine,
        }

    def session_state(self) -> dict:
        """Capture the complete live state for a snapshot.

        Everything a later :meth:`from_session_state` needs to continue the
        session bit-for-bit: the maintained matrices, the live partition
        (its cross-cluster links are re-folded from the point-level links
        on restore, bit-identically), the labeler's retained fractions and
        the RNG stream position.  The measure and exponent function are
        code, not data — the caller re-supplies them on restore.
        """
        self._require_bootstrapped()
        return {
            "config": self.config_dict(),
            "counters": {
                "n_refreshes": int(self.n_refreshes),
                "n_ingested": int(self.n_ingested),
                "base_points": int(self._base_points),
                "inserted_since_refresh": int(self._inserted_since_refresh),
            },
            "rng": self.rng.bit_generator.state,
            "points": list(self._points),
            "item_index": dict(self._item_index),
            "cluster_of": self._cluster_of.tolist(),
            "labeler": self._labeler.state(),
            "arrays": {
                "adjacency": self._adjacency.copy(),
                "links": self._links.copy(),
                "incidence": self._incidence.copy(),
                "sizes": self._sizes.copy(),
            },
        }

    @classmethod
    def from_session_state(
        cls,
        state: dict,
        measure: SetSimilarity | None = None,
        exponent_function: ExponentFunction | None = None,
    ) -> "IncrementalRock":
        """Rebuild a live session from :meth:`session_state` output.

        The restored session's subsequent :meth:`ingest` calls are
        bit-identical to the uninterrupted original: matrices and the live
        partition are reinstated verbatim, the labeler is rebuilt without
        consuming RNG, and the generator resumes at the captured stream
        position.
        """
        config = state["config"]
        session = cls(
            n_clusters=config["n_clusters"],
            theta=config["theta"],
            measure=measure,
            exponent_function=exponent_function,
            labeling_fraction=config["labeling_fraction"],
            labeling_strategy=config["labeling_strategy"],
            assign_outliers=config["assign_outliers"],
            neighbor_strategy=restored_backend_name(config["neighbor_strategy"]),
            neighbor_block_size=config["neighbor_block_size"],
            link_strategy=config["link_strategy"],
            include_self_links=config["include_self_links"],
            refresh_threshold=config["refresh_threshold"],
            engine=restored_engine_name(config.get("engine")),
        )
        rng_state = state["rng"]
        bit_generator = getattr(np.random, rng_state["bit_generator"])()
        session.rng = np.random.Generator(bit_generator)
        session.rng.bit_generator.state = rng_state

        counters = state["counters"]
        session.n_refreshes = counters["n_refreshes"]
        session.n_ingested = counters["n_ingested"]
        session._base_points = counters["base_points"]
        session._inserted_since_refresh = counters["inserted_since_refresh"]

        session._labeler = StreamingLabeler.from_state(
            state["labeler"],
            theta=session.theta,
            measure=session.measure,
            exponent_function=session.exponent_function,
            assign_outliers=session.assign_outliers,
        )
        session._points = [frozenset(t) for t in state["points"]]
        session._item_index = dict(state["item_index"])

        arrays = state["arrays"]
        session._adjacency = arrays["adjacency"].tocsr()
        session._links = arrays["links"].tocsr()
        session._incidence = arrays["incidence"].tocsr()
        session._sizes = np.asarray(arrays["sizes"], dtype=np.int64)
        # Checkpoints of the earlier id-per-merge layout compact to slots
        # in id order.
        session._assign_clusters(
            np.unique(state["cluster_of"], return_inverse=True)[1]
        )
        return session

    # ------------------------------------------------------------------ #
    # Label-only path (the serving front end's read verb)
    # ------------------------------------------------------------------ #
    def label_only(self, batch: Sequence[frozenset]) -> np.ndarray:
        """Label a batch through the retained labeler *without* ingesting.

        The read-only counterpart of :meth:`ingest`: the points are never
        spliced into the live clustering, no randomness is consumed and no
        live state that labels depend on changes, so interleaving
        ``label_only`` calls between ingests leaves every subsequent ingest
        bit-identical (the labeler only advances its summary counters).
        Labels are in the current labelling space, ``-1`` marking outliers.
        """
        labeler = self._require_bootstrapped()
        return labeler.label_batch([frozenset(t) for t in batch]).labels

    # ------------------------------------------------------------------ #
    # Eviction (bounded-memory live mode)
    # ------------------------------------------------------------------ #
    def evict_oldest(self, n_evict: int) -> int:
        """Drop the ``n_evict`` oldest live points to label-only status.

        The serving front end's memory bound: evicted points leave the
        maintained matrices and the live clustering (their rows/columns
        are sliced out and the cluster links are re-folded over the
        survivors), but the labeler keeps its own retained sample, so
        labelling is untouched — without a refresh trigger, labels
        assigned after an eviction are bit-identical to a run that never
        evicted.  A refresh after eviction re-clusters only the surviving
        live points.  At least one live point must survive.  Drift
        counters are left as they are (eviction is forgetting, not
        re-clustering).  Returns the number of points evicted.
        """
        self._require_bootstrapped()
        n_evict = int(n_evict)
        if n_evict <= 0:
            return 0
        if n_evict >= len(self._points):
            raise ConfigurationError(
                "cannot evict %d of %d live points: at least one live point "
                "must survive" % (n_evict, len(self._points))
            )
        self._points = self._points[n_evict:]
        self._incidence = self._incidence[n_evict:].tocsr()
        self._sizes = self._sizes[n_evict:].copy()
        keep = np.arange(n_evict, self._adjacency.shape[0])
        adjacency = self._adjacency[keep][:, keep].tocsr()
        adjacency.sort_indices()
        self._adjacency = adjacency
        links = self._links[keep][:, keep].tocsr()
        links.sort_indices()
        self._links = links

        self._assign_clusters(
            np.unique(self._cluster_of[n_evict:], return_inverse=True)[1]
        )
        return n_evict

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def ingest(self, batch: Sequence[frozenset]) -> IngestResult:
        """Label one batch and splice it into the live clustering."""
        labeler = self._require_bootstrapped()
        batch = [frozenset(t) for t in batch]
        label_space = self.n_refreshes
        if not batch:
            return IngestResult(
                labels=np.zeros(0, dtype=int),
                n_points=0,
                drift=self.drift,
                refreshed=False,
                label_space=label_space,
                n_live_clusters=self.n_live_clusters,
            )
        labels = labeler.label_batch(batch).labels

        self._splice(batch)
        self._reagglomerate()

        self.n_ingested += len(batch)
        self._inserted_since_refresh += len(batch)
        drift = self.drift
        refreshed = False
        if self.refresh_threshold is not None and drift > self.refresh_threshold:
            self.refresh()
            refreshed = True
        return IngestResult(
            labels=labels,
            n_points=len(batch),
            drift=drift,
            refreshed=refreshed,
            label_space=label_space,
            n_live_clusters=self.n_live_clusters,
        )

    # ------------------------------------------------------------------ #
    # Splice: extend adjacency / links / cluster links with one batch
    # ------------------------------------------------------------------ #
    def _batch_blocks(
        self, batch: list[frozenset]
    ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Adjacency blocks of a batch: ``(batch x live, batch x batch)``.

        The cross block is one sparse intersection product thresholded
        through the measure's vectorized-counts capability (with the same
        empty-pair and ``theta == 0`` conventions as the fast backends);
        the within-batch block goes through the backend registry.  For
        measures without the capability both blocks fall back to pair-by-
        pair evaluation (the bruteforce spec).
        """
        n_old = len(self._points)
        n_new = len(batch)
        # Grow the private item index so intersections on never-seen items
        # stay exact (the labeler's bounded index is deliberately separate).
        for transaction in batch:
            for item in transaction:
                if item not in self._item_index:
                    self._item_index[item] = len(self._item_index)
        batch_incidence, _ = transactions_to_incidence(batch, self._item_index)
        n_columns = batch_incidence.shape[1]
        if self._incidence.shape[1] < n_columns:
            self._incidence.resize((n_old, n_columns))
        batch_sizes = np.asarray([len(t) for t in batch], dtype=np.int64)

        if self.theta == 0.0:
            cross = sparse.csr_matrix(np.ones((n_new, n_old), dtype=bool))
        elif self._vectorizable:
            intersections = (batch_incidence @ self._incidence.T).tocoo()
            rows, cols = intersections.row, intersections.col
            similarity = self.measure.similarity_from_counts(
                intersections.data.astype(np.int64),
                batch_sizes[rows],
                self._sizes[cols],
            )
            keep = similarity >= self.theta
            rows, cols = rows[keep], cols[keep]
            # Empty-vs-empty pairs never intersect, so the product misses
            # them; the measure decides whether they qualify (the same
            # rule as empty_pair_edges / the labeler's zero thresholds).
            zero = np.zeros(1, dtype=np.int64)
            empty_similarity = float(
                np.asarray(
                    self.measure.similarity_from_counts(zero, zero, zero)
                ).ravel()[0]
            )
            empty_new = np.nonzero(batch_sizes == 0)[0]
            empty_old = np.nonzero(self._sizes == 0)[0]
            if empty_similarity >= self.theta and empty_new.size and empty_old.size:
                rows = np.concatenate(
                    [rows, np.repeat(empty_new, empty_old.size)]
                )
                cols = np.concatenate([cols, np.tile(empty_old, empty_new.size)])
            cross = sparse.coo_matrix(
                (np.ones(len(rows), dtype=bool), (rows, cols)),
                shape=(n_new, n_old),
                dtype=bool,
            ).tocsr()
        else:
            rows_list: list[int] = []
            cols_list: list[int] = []
            for t, point in enumerate(batch):
                for j, other in enumerate(self._points):
                    if self.measure(point, other) >= self.theta:
                        rows_list.append(t)
                        cols_list.append(j)
            cross = sparse.coo_matrix(
                (np.ones(len(rows_list), dtype=bool), (rows_list, cols_list)),
                shape=(n_new, n_old),
                dtype=bool,
            ).tocsr()

        if n_new == 1:
            within = sparse.csr_matrix((1, 1), dtype=bool)
        elif self.theta == 0.0:
            within = complete_adjacency(n_new)
        else:
            within = compute_neighbors(
                batch,
                theta=self.theta,
                measure=self.measure,
                strategy=self.neighbor_strategy,
                block_size=self.neighbor_block_size,
            ).adjacency.tocsr()

        self._incidence = sparse.vstack(
            [self._incidence, batch_incidence], format="csr"
        )
        self._sizes = np.concatenate([self._sizes, batch_sizes])
        return cross, within

    def _splice(self, batch: list[frozenset]) -> None:
        """Splice one batch into adjacency, links and the cluster links."""
        n_old = len(self._points)
        cross, within = self._batch_blocks(batch)

        cross_counts = cross.astype(np.int64)
        adjacency_counts = self._adjacency.astype(np.int64)
        if self.include_self_links:
            identity_old = sparse.identity(n_old, dtype=np.int64, format="csr")
            identity_new = sparse.identity(len(batch), dtype=np.int64, format="csr")
            existing_bar = (adjacency_counts + identity_old).tocsr()
            within_bar = (within.astype(np.int64) + identity_new).tocsr()
        else:
            existing_bar = adjacency_counts
            within_bar = within.astype(np.int64)

        # Link deltas of inserting the batch P with cross-adjacency C and
        # within-batch adjacency B (both without self-loops; the self-link
        # convention enters through the +I terms above):
        #   existing x existing gains C^T C,
        #   batch x existing is C (A + I) + (B + I) C,
        #   batch x batch is C C^T + (B + I)(B + I)^T.
        delta_existing = (cross_counts.T @ cross_counts).tocsr()
        delta_existing.setdiag(0)
        delta_existing.eliminate_zeros()
        links_batch_existing = (
            cross_counts @ existing_bar + within_bar @ cross_counts
        ).tocsr()
        links_batch_batch = (
            cross_counts @ cross_counts.T + within_bar @ within_bar.T
        ).tocsr()
        links_batch_batch.setdiag(0)
        links_batch_batch.eliminate_zeros()

        self._adjacency = _grow_symmetric(
            self._adjacency, cross, within, dtype=bool
        )
        self._links = _grow_symmetric(
            self._links + delta_existing,
            links_batch_existing,
            links_batch_batch,
            dtype=np.int64,
        )
        self._points.extend(batch)

        # The same deltas at cluster granularity: existing pairs gain the
        # fold of C^T C, and every batch point enters as a singleton
        # cluster whose row is the fold of its links by cluster.
        n_live_clusters = self.n_live_clusters
        membership = _membership(self._cluster_of, n_live_clusters)
        self._cluster_links = _grow_symmetric(
            self._cluster_links + _cross_links(delta_existing, membership),
            (links_batch_existing @ membership.T).tocsr(),
            links_batch_batch,
            dtype=np.int64,
        )
        self._cluster_of = np.concatenate(
            [self._cluster_of, n_live_clusters + np.arange(len(batch))]
        )

    # ------------------------------------------------------------------ #
    # Frontier re-agglomeration
    # ------------------------------------------------------------------ #
    def _reagglomerate(self) -> None:
        """Greedy merges until the target count or no positive goodness.

        The live clusters enter the arena engine as weighted starting
        clusters (sizes plus cross-link counts).  Each merged group takes
        the slot of its first starting cluster, so the other clusters keep
        their relative order.
        """
        n_live_clusters = self.n_live_clusters
        if n_live_clusters <= self.n_clusters:
            return
        merge_history, groups, _, _ = arena_agglomerate(
            self._cluster_links,
            n_live_clusters,
            self.n_clusters,
            self.theta,
            self.exponent_function,
            np.bincount(self._cluster_of, minlength=n_live_clusters),
        )
        if not merge_history:
            return
        first = np.empty(n_live_clusters, dtype=np.int64)
        for members in groups.values():
            first[members] = min(members)
        group_of = np.unique(first, return_inverse=True)[1]
        self._cluster_links = _cross_links(
            self._cluster_links, _membership(group_of, len(groups))
        )
        self._cluster_of = group_of[self._cluster_of]

    # ------------------------------------------------------------------ #
    # Refresh
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Full re-cluster of every live point via the session's engine.

        Runs the session's registered agglomeration engine (every engine
        is bit-identical, so the refresh contract does not depend on the
        choice) over the maintained link matrix — no neighbour or link
        computation is repeated — rebuilds the live clustering and
        rebinds the labeler to the refreshed clusters; the refreshed
        clusters are ordered by decreasing size (ties by smallest member),
        which defines the new labelling space.  The engine's merge-loop
        counters are retained in :attr:`last_refresh_counters` for the
        serve ``status`` verb and the benchmarks.
        """
        self._require_bootstrapped()
        run = get_engine(resolve_engine_name(self.engine)).agglomerate(
            self._links,
            len(self._points),
            self.n_clusters,
            self.theta,
            self.exponent_function,
        )
        members = run.members
        self.last_refresh_counters = dict(run.counters)
        ordered = [tuple(sorted(cluster)) for cluster in members.values()]
        ordered.sort(key=lambda cluster: (-len(cluster), cluster[0]))
        self._labeler = StreamingLabeler(
            self._points,
            ordered,
            theta=self.theta,
            measure=self.measure,
            exponent_function=self.exponent_function,
            labeling_fraction=self.labeling_fraction,
            rng=self.rng,
            strategy=self.labeling_strategy,
            item_index=dict(self._item_index),
            assign_outliers=self.assign_outliers,
        )
        self._assign_clusters(_partition(ordered, len(self._points)))
        self._base_points = len(self._points)
        self._inserted_since_refresh = 0
        self.n_refreshes += 1
