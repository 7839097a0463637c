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
2. **Splice** the batch into the live adjacency and cluster links.  The
   inserted points' neighbour rows are computed against the retained
   incidence (one ``batch x live`` sparse product decided by the exact
   overlap kernel of :mod:`repro.core.neighbors.vectorized`; the
   within-batch block goes through the pluggable backend registry via
   :func:`~repro.core.neighbors.compute_neighbors`).  No point-level link
   matrix is kept: the merge criterion reads only ``link[Ci, Cj]``, the
   off-diagonal of ``M L M^T`` with ``L = Ā Ā^T`` (``A`` the adjacency,
   ``Ā = A + I`` under the self-link convention, ``M`` the ``k x n``
   cluster membership), which :meth:`IncrementalRock._splice` extends at
   cluster granularity from the batch's neighbourhood alone.
3. **Re-agglomerate the frontier**: the batch points enter as singleton
   clusters and the arena engine (:mod:`repro.core.engine_arena`) runs
   over the live clusters as weighted starting clusters — their sizes and
   cross-link counts — until the live cluster count returns to the target
   (or no positive-goodness merge remains).

A ``refresh_threshold`` bounds drift: when the fraction of points
inserted since the last full clustering exceeds it, the session re-runs
the agglomeration engine ``auto`` resolves to (:mod:`repro.core.engines`;
every engine is bit-identical) over the link matrix of *all* live points,
computed once from the live adjacency, rebuilds the labeler against the
refreshed clusters and resets the drift counter.  Labels assigned after
a refresh are therefore no longer bit-identical to a streaming run on
the union — they come from the refreshed clustering — but they remain
fully seed-reproducible: the link matrix is split-independent, the
engines are deterministic, and the labeler draws from the session
generator in a fixed order.

Determinism contract (enforced by ``tests/test_core_incremental.py``,
the property suite and the golden fixtures):

* without a refresh trigger, ingesting the points of a stream in *any*
  batch split produces labels bit-identical to one
  ``run_streaming`` pass over the union on the same data and seed;
* with refreshes, runs are seed-reproducible for a given batch split;
* the adjacency and cluster links equal a from-scratch recomputation over
  the live points after every ingest and eviction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.config import RockConfig, check_session_config
from repro.core.engine_arena import arena_agglomerate
from repro.core.engines import DEFAULT_ENGINE, get_engine, resolve_engine_name
from repro.core.goodness import ExponentFunction
from repro.core.labeling import StreamingLabeler
from repro.core.links import links_from_neighbors
from repro.core.neighbors import compute_neighbors
from repro.core.neighbors.graph import NeighborGraph
from repro.core.neighbors.vectorized import overlap_thresholds, qualifying_pairs
from repro.data.encoding import build_item_index, transactions_to_incidence
from repro.errors import ConfigurationError, DataValidationError
from repro.similarity.base import SetSimilarity, supports_vectorized_counts


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


def _off_diagonal(product: sparse.spmatrix) -> sparse.csr_matrix:
    """``product`` as a canonical int64 CSR, diagonal and zeros dropped
    (the within-group mass of a fold such as ``M L M^T``)."""
    folded = product.tocoo()
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
    :class:`~repro.core.pipeline.RockPipeline`) and are held as :attr:`config`;
    ``refresh_threshold`` is the drift bound described in the module docstring
    and ``rng`` seeds the labelling-fraction draws (sharing the pipeline
    generator keeps the streaming equivalence bit-exact).  The neighbour,
    link, labelling and refresh phases run with their library defaults: the
    path each takes follows from the measure's vectorized-counts capability.

    Usage::

        session = IncrementalRock(n_clusters=4, theta=0.5, rng=0)
        session.bootstrap(clustered_sample, kept_clusters)
        result = session.ingest(batch)       # labels + live-state update

    The live state is the incidence, the neighbour adjacency and the
    ``k x k`` cluster links; it is inspectable through :attr:`live_points`,
    :attr:`adjacency_`, :meth:`live_clusters` and the derived
    :attr:`links_`.  The property-based test suite asserts after every
    ingest and eviction that the maintained adjacency and cluster links are
    bit-identical to a from-scratch recomputation.
    """

    def __init__(
        self,
        n_clusters: int,
        theta: float = 0.5,
        measure: SetSimilarity | None = None,
        exponent_function: ExponentFunction | None = None,
        labeling_fraction: float = 1.0,
        assign_outliers: bool = True,
        include_self_links: bool = True,
        refresh_threshold: float | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        config = RockConfig(
            n_clusters=n_clusters, theta=theta, measure=measure,
            exponent_function=exponent_function, labeling_fraction=labeling_fraction,
            assign_outliers=assign_outliers, include_self_links=include_self_links,
        )
        self._bind(config, refresh_threshold, rng)

    @classmethod
    def _from_config(cls, config: RockConfig, refresh_threshold, rng) -> "IncrementalRock":
        """An unbootstrapped session under ``config``: the one path the
        pipeline's online mode and a restore take."""
        session = cls.__new__(cls)
        session._bind(config, refresh_threshold, rng)
        return session

    def _bind(self, config: RockConfig, refresh_threshold, rng) -> None:
        self.config = config
        self.refresh_threshold = validate_refresh_threshold(refresh_threshold)
        self.rng = np.random.default_rng(rng)
        self.n_refreshes = 0
        self.n_ingested = 0
        #: Merge-loop counters of the most recent full refresh (empty until
        #: one ran, or when the refresh engine is uninstrumented).
        self.last_refresh_counters: dict = {}
        self._labeler: StreamingLabeler | None = None

    # ------------------------------------------------------------------ #
    # Bootstrap
    # ------------------------------------------------------------------ #
    def bootstrap(
        self,
        sample: Sequence[frozenset],
        clusters: Sequence[Sequence[int]],
        item_index: dict | None = None,
        *,
        _live_adjacency: sparse.csr_matrix | None = None,
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
        _live_adjacency:
            Private to :meth:`RockPipeline.run_online
            <repro.core.pipeline.RockPipeline.run_online>`: the neighbour
            adjacency over the cluster members, in sample order, that its
            fit already built (the same matrix, dtypes included, that this
            method would compute).  Without it the adjacency is computed.
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

        self._labeler = self.config.labeler(sample, clusters, self.rng, item_index)

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

        if _live_adjacency is None:
            _live_adjacency = compute_neighbors(
                self._points, theta=self.config.theta, measure=self.config.measure,
                item_index=self._item_index,
            ).adjacency.tocsr()
        self._adjacency = _live_adjacency
        self._assign_clusters(_partition(live_clusters, len(self._points)))
        self._base_points = len(self._points)
        self._inserted_since_refresh = 0
        return self

    def _assign_clusters(self, cluster_of: np.ndarray) -> None:
        """Set the live partition (cluster index per live point, every
        index in ``0 .. k - 1`` used) and fold its cross-cluster link
        counts ``offdiag(N^T N)`` from ``N = Ā M^T``, each point's
        neighbour count per cluster (itself included under the self-link
        convention)."""
        self._cluster_of = cluster_of
        membership_t = _membership(cluster_of, int(cluster_of.max()) + 1).T.tocsr()
        per_cluster = self._adjacency @ membership_t
        if self.config.include_self_links:
            per_cluster = per_cluster + membership_t
        self._cluster_links = _off_diagonal(per_cluster.T @ per_cluster)

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
        """The point-level link matrix over the live points.

        Not maintained: every access runs a full link product over the live
        adjacency.
        """
        self._require_bootstrapped()
        graph = NeighborGraph(self._adjacency, self.config.theta, self.config_dict()["measure"])
        return links_from_neighbors(graph, include_self=self.config.include_self_links)

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

        Derived from :attr:`config` (:meth:`RockConfig.session_dict`).
        Recorded in every snapshot manifest and compared on restore: resuming
        under different parameters would break the restore ≡ uninterrupted
        contract, so a mismatch is refused
        (:class:`~repro.errors.SnapshotConfigMismatchError`).
        """
        return self.config.session_dict(self.refresh_threshold)

    def session_state(self) -> dict:
        """Capture the complete live state for a snapshot.

        Everything a later :meth:`from_session_state` needs to continue the
        session bit-for-bit: the adjacency, incidence and set sizes, the
        live partition (its cross-cluster links are re-folded from the
        adjacency on restore, bit-identically), the labeler's retained
        fractions and the RNG stream position.  The measure and exponent
        function are code, not data — the caller re-supplies them on
        restore, and the config records their name and ``f(theta)`` so the
        restore can check them.
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
        position.  A ``links`` entry in ``state["arrays"]`` is ignored, and
        so is any config key :meth:`config_dict` no longer records (the
        strategy choices earlier checkpoints carried; every one of them
        reproduced the defaults' results bit-identically).

        ``measure`` and ``exponent_function`` are code the caller
        re-supplies (``None``: the defaults).  A session rebuilt under them
        must record the ``measure`` and ``exponent`` (``f(theta)``) that
        ``state["config"]`` records, or the restore raises
        :class:`~repro.errors.SnapshotConfigMismatchError` naming the key; a
        recorded config without ``exponent`` skips that key.
        """
        recorded = state["config"]
        rng_state = state["rng"]
        config = RockConfig.from_session_dict(recorded, measure, exponent_function)
        refresh_threshold = recorded["refresh_threshold"]
        check_session_config(
            recorded, config.session_dict(refresh_threshold), ("measure", "exponent")
        )
        session = cls._from_config(
            config,
            refresh_threshold,
            np.random.Generator(getattr(np.random, rng_state["bit_generator"])()),
        )
        session.rng.bit_generator.state = rng_state

        counters = state["counters"]
        session.n_refreshes = counters["n_refreshes"]
        session.n_ingested = counters["n_ingested"]
        session._base_points = counters["base_points"]
        session._inserted_since_refresh = counters["inserted_since_refresh"]

        session._labeler = session.config.restored_labeler(state["labeler"])
        session._points = [frozenset(t) for t in state["points"]]
        session._item_index = dict(state["item_index"])

        arrays = state["arrays"]
        session._adjacency = arrays["adjacency"].tocsr()
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
        session state changes — the labeler's running totals included, so
        :meth:`session_state` (and every checkpoint) does not depend on how
        many reads were served.  Interleaving ``label_only`` calls between
        ingests leaves every subsequent ingest bit-identical.  Labels are in
        the current labelling space, ``-1`` marking outliers.
        """
        labeler = self._require_bootstrapped()
        return labeler._label(batch).labels

    # ------------------------------------------------------------------ #
    # Eviction (bounded-memory live mode)
    # ------------------------------------------------------------------ #
    def evict_oldest(self, n_evict: int) -> int:
        """Drop the ``n_evict`` oldest live points to label-only status.

        The serving front end's memory bound: evicted points leave the
        adjacency and the live clustering (their rows/columns are sliced
        out and the cluster links are re-folded over the survivors), but
        the labeler keeps its own retained sample, so labelling is
        untouched — without a refresh trigger, labels assigned after an
        eviction are bit-identical to a run that never evicted.  A refresh after eviction re-clusters only the surviving
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
        adjacency = self._adjacency[n_evict:, n_evict:].tocsr()
        adjacency.sort_indices()
        self._adjacency = adjacency

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
    # Splice: extend the adjacency and the cluster links with one batch
    # ------------------------------------------------------------------ #
    def _batch_blocks(
        self, batch: list[frozenset]
    ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Adjacency blocks of a batch: ``(batch x live, batch x batch)``.

        The cross block is one sparse overlap product decided by the exact
        overlap kernel (:mod:`repro.core.neighbors.vectorized`), the same
        test the ``blocked`` backend makes; the within-batch block goes
        through the backend registry.  For measures without the
        vectorized-counts capability the cross block is evaluated pair by
        pair (the bruteforce spec).
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

        measure, theta = self.config.measure, self.config.theta
        if supports_vectorized_counts(measure):
            batch_values, batch_group = np.unique(batch_sizes, return_inverse=True)
            live_values, live_group = np.unique(self._sizes, return_inverse=True)
            rows, cols = qualifying_pairs(
                (batch_incidence @ self._incidence.T).tocsr(),
                overlap_thresholds(measure, theta, batch_values, live_values),
                batch_group,
                live_group,
            )
        else:
            pairs = [
                (t, j)
                for t, point in enumerate(batch)
                for j, other in enumerate(self._points)
                if measure(point, other) >= theta
            ]
            rows, cols = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        cross = sparse.csr_matrix(
            (np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n_new, n_old)
        )
        within = compute_neighbors(batch, theta=theta, measure=measure).adjacency.tocsr()

        self._incidence = sparse.vstack(
            [self._incidence, batch_incidence], format="csr"
        )
        self._sizes = np.concatenate([self._sizes, batch_sizes])
        return cross, within

    def _splice(self, batch: list[frozenset]) -> None:
        """Splice one batch into the adjacency and the cluster links."""
        cross, within = self._batch_blocks(batch)
        n_live_clusters = self.n_live_clusters
        membership_t = _membership(self._cluster_of, n_live_clusters).T.tocsr()
        cross_counts = cross.astype(np.int64)
        within_bar = within.astype(np.int64)
        if self.config.include_self_links:
            within_bar = within_bar + sparse.identity(
                len(batch), dtype=np.int64, format="csr"
            )

        # With cross-adjacency C, within-batch adjacency B (both without
        # self-loops; the self-link convention enters through the bars)
        # and P = C M^T, each batch point's neighbour count per cluster:
        #   existing cluster pairs gain offdiag(P^T P), the fold of C^T C;
        #   batch point rows are (C Ā) M^T + B̄ P, where C Ā reads only
        #   the adjacency rows of the batch's neighbours;
        #   batch pairs link by offdiag(C C^T + B̄ B̄^T).
        per_cluster = cross_counts @ membership_t
        reached = np.unique(cross.indices)
        batch_rows = (
            cross_counts[:, reached] @ (self._adjacency[reached] @ membership_t)
            + within_bar @ per_cluster
        )
        if self.config.include_self_links:
            batch_rows = batch_rows + per_cluster
        self._cluster_links = _grow_symmetric(
            self._cluster_links + _off_diagonal(per_cluster.T @ per_cluster),
            batch_rows.tocsr(),
            _off_diagonal(cross_counts @ cross_counts.T + within_bar @ within_bar.T),
            dtype=np.int64,
        )
        self._cluster_of = np.concatenate(
            [self._cluster_of, n_live_clusters + np.arange(len(batch))]
        )
        self._adjacency = _grow_symmetric(
            self._adjacency, cross, within, dtype=bool
        )
        self._points.extend(batch)

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
        config = self.config
        if n_live_clusters <= config.n_clusters:
            return
        merge_history, groups, _, _ = arena_agglomerate(
            self._cluster_links,
            n_live_clusters,
            config.n_clusters,
            config.theta,
            config.exponent_function,
            np.bincount(self._cluster_of, minlength=n_live_clusters),
        )
        if not merge_history:
            return
        first = np.empty(n_live_clusters, dtype=np.int64)
        for members in groups.values():
            first[members] = min(members)
        group_of = np.unique(first, return_inverse=True)[1]
        membership = _membership(group_of, len(groups))
        self._cluster_links = _off_diagonal(
            membership @ self._cluster_links @ membership.T
        )
        self._cluster_of = group_of[self._cluster_of]

    # ------------------------------------------------------------------ #
    # Refresh
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Full re-cluster of every live point via the default engine.

        Runs the agglomeration engine ``auto`` resolves to (every engine
        is bit-identical, so the refresh contract does not depend on the
        choice) over the link matrix computed once from the live adjacency
        (no neighbour computation is repeated), rebuilds the live
        clustering and rebinds the labeler to the refreshed clusters; the
        refreshed clusters are ordered by decreasing size (ties by smallest
        member), which defines the new labelling space.  The engine's merge-loop
        counters are retained in :attr:`last_refresh_counters` for the
        serve ``status`` verb and the benchmarks.
        """
        self._require_bootstrapped()
        config = self.config
        run = get_engine(resolve_engine_name(DEFAULT_ENGINE)).agglomerate(
            self.links_,
            len(self._points),
            config.n_clusters,
            config.theta,
            config.exponent_function,
        )
        members = run.members
        self.last_refresh_counters = dict(run.counters)
        ordered = [tuple(sorted(cluster)) for cluster in members.values()]
        ordered.sort(key=lambda cluster: (-len(cluster), cluster[0]))
        self._labeler = config.labeler(
            self._points, ordered, self.rng, dict(self._item_index)
        )
        self._assign_clusters(_partition(ordered, len(self._points)))
        self._base_points = len(self._points)
        self._inserted_since_refresh = 0
        self.n_refreshes += 1
