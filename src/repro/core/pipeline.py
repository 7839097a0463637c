"""End-to-end ROCK pipeline: sample, cluster, label, handle outliers.

The paper's pipeline is one sequence of phases:

1. draw a random sample (optional — small data sets are clustered whole);
2. optionally discard isolated points (outlier pre-filtering);
3. run the agglomerative ROCK algorithm on the (filtered) sample;
4. optionally prune tiny clusters (late-outlier handling);
5. label every point that was not clustered — the non-sampled remainder
   and the sample points phases 2 and 4 set aside — against the sampled
   clusters.

One private driver (:meth:`RockPipeline._drive`) runs that sequence for
every entry point.  It normalises the source into re-iterable batches,
draws the sample in one counting-and-collecting pass, seeds the labels of
the clustered sample points, collects the set-aside sample points, times
the phases and assembles every result in one finalizer.  The entry points
differ at two plug points only:

* **the cluster phase** (phases 2-4): the whole sample as one shard through
  the shard task's phases, or — :meth:`RockPipeline.run_sharded` with several
  shards — every shard's sample through :func:`cluster_shard` on
  :func:`repro.core.sharding.cluster_shards`, with the per-shard cluster
  summaries merged by :func:`repro.core.sharding.merge_shard_summaries`;
* **the label phase** (phase 5): one
  :class:`repro.core.labeling.StreamingLabeler` over the pending batches,
  or — :meth:`RockPipeline.run_online` — a bootstrapped
  :class:`repro.core.incremental.IncrementalRock` session ingesting them,
  write-ahead logged with ``snapshot_dir`` (a resumed run restores the
  session and its label bookkeeping from a checkpoint and skips phases
  1-4).

:meth:`RockPipeline.run` is the driver over the in-memory data as a single
batch; :meth:`RockPipeline.run_streaming` is the driver over a re-iterable
source (a transaction file path, an in-memory collection or an iterator
factory) in batches of ``batch_size``, keeping peak memory bounded by the
sample plus two batches.  Because every mode walks the same phases, three
contracts hold by construction: streaming ≡ in-memory, 1-shard ≡
streaming and — without a refresh trigger — incremental ≡ streaming, each
with bit-identical labels on the same data and seed.  The result exposes
labels over the *full* input, cluster membership, the intermediate
artefacts and per-phase timings, which is what the scalability benchmarks
consume.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import dataclass, field, fields
from typing import Any, NamedTuple

import numpy as np

from repro.core.config import RockConfig
from repro.core.goodness import ExponentFunction
from repro.core.incremental import (
    IncrementalRock,
    IngestResult,
    validate_refresh_threshold,
)
from repro.core.labeling import (
    LabelingResult,
    # Kept as a module global for perfbench's ``labeling.label_points``
    # span, which wraps it by this name.
    label_points,  # noqa: F401
)
from repro.core.neighbors import NeighborGraph, compute_neighbors
from repro.core.outliers import drop_small_clusters, partition_isolated_points
from repro.core.rock import RockClustering, RockResult, as_transactions
from repro.core.sampling import draw_sample, reservoir_sample
from repro.core.sharding import (
    DEFAULT_SHARD_STRATEGY,
    HASH_SHARD_STRATEGY,
    SHARD_STRATEGIES,
    ShardClusterResult,
    ShardPlan,
    allocate_sample_sizes,
    build_shard_samples,
    cluster_shards,
    count_shard_sizes,
    merge_shard_summaries,
    resolve_shard_executor,
    validate_merge_options,
)
from repro.data.encoding import build_item_index
from repro.data.io import iter_transactions
from repro.errors import (
    ConfigurationError,
    DataValidationError,
    InsufficientLinksError,
    SnapshotConfigMismatchError,
    SnapshotCorruptionError,
)
from repro.persistence.session import PersistentSession
from repro.similarity.base import SetSimilarity
from repro.types import ClusterSummary

#: Sampling strategies accepted by :meth:`RockPipeline.run_streaming`.
STREAMING_SAMPLE_METHODS = ("exact", "reservoir")


@dataclass
class RockPipelineResult:
    """Outcome of the full ROCK pipeline on a data set.

    Every entry point returns this shape.

    Attributes
    ----------
    labels:
        One label per input point (over the *full* data set); ``-1`` marks
        outliers.
    clusters:
        For each label, the tuple of member indices into the full data set,
        ordered by decreasing size (ties: smaller first member first).
    sample_indices:
        Indices of the points that formed the clustered sample.
    rock_result:
        The :class:`RockResult` of the agglomeration on the sample (for a
        multi-shard run, the merged clustering over the pooled shard
        samples; for an online run, the bootstrap clustering).
    labeling_result:
        The :class:`LabelingResult` of the labelling pass, or ``None`` when
        every point was part of the clustered sample.  Its labels are
        expressed in the *final* label space (the same one ``labels``
        uses), and row ``i`` describes the point at full-data-set index
        ``labeled_indices[i]``.  Its ``neighbor_counts`` is empty (shape
        ``(0, n_clusters)``) in every mode: retaining a dense per-point
        count matrix would break the bounded-memory contract of the
        out-of-core modes.  :func:`repro.core.labeling.label_points`
        returns the dense counts of a one-shot labelling.
    labeled_indices:
        Full-data-set index of each ``labeling_result`` row, or ``None``
        when no labelling pass ran: the non-sampled remainder in stream
        order, then the sample points the pre-filter or the pruning set
        aside, in increasing order.
    n_outliers:
        Number of points with label ``-1``.
    timings:
        Wall-clock seconds per phase.  A fresh run records ``"sampling"``,
        ``"neighbors"``, ``"clustering"``, ``"labeling"`` and ``"total"``;
        a multi-shard run adds ``"shard_clustering"`` and ``"merge"``; an
        online run resumed from a checkpoint records only ``"labeling"``
        (WAL replay plus ingest) and ``"total"``.  ``"neighbors"`` only
        covers the outlier pre-filter (the neighbour graph built when
        ``min_neighbors > 0``); the neighbour computation the agglomeration
        itself performs is part of ``"clustering"``.
    parameters:
        The key parameters the pipeline ran with (for reporting).
    """

    labels: np.ndarray
    clusters: list[tuple]
    sample_indices: list[int]
    rock_result: RockResult
    labeling_result: LabelingResult | None
    n_outliers: int
    labeled_indices: list[int] | None = None
    timings: dict[str, float] = field(default_factory=dict)
    parameters: dict[str, object] = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        """Number of clusters in the final labelling."""
        return len(self.clusters)

    def cluster_sizes(self) -> list[int]:
        """Cluster sizes in label order (decreasing)."""
        return [len(members) for members in self.clusters]

    def summaries(self) -> list[ClusterSummary]:
        """Return a :class:`ClusterSummary` per cluster."""
        return [
            ClusterSummary(cluster_id=i, size=len(members), member_indices=tuple(members))
            for i, members in enumerate(self.clusters)
        ]


def _pending_batches(batches, sample_set: set, n_points: int, mismatch):
    """Yield ``(transactions, positions)`` of the non-sample stream points.

    Walks the normalised source batch by batch, skipping the stream
    positions in ``sample_set``.  The source must hold exactly
    ``n_points`` transactions: each batch is held back until the next one
    has been read, so the error ``mismatch(seen)`` builds (``seen``
    describes the source's length) is raised before any batch that shows
    a longer or shorter source is yielded.
    """
    held = None
    position = 0
    for batch in batches():
        if position + len(batch) > n_points:
            raise mismatch("more than %d" % n_points)
        if held is not None:
            yield held
        pending_batch: list[frozenset] = []
        pending_positions: list[int] = []
        for transaction in batch:
            if position not in sample_set:
                pending_batch.append(frozenset(transaction))
                pending_positions.append(position)
            position += 1
        held = (pending_batch, pending_positions) if pending_batch else None
    if position != n_points:
        raise mismatch(str(position))
    if held is not None:
        yield held


def _rebatch(transactions, batch_size: int):
    """Group an iterator of transactions into lists of ``batch_size``."""
    batch: list[frozenset] = []
    for transaction in transactions:
        batch.append(frozenset(transaction))
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def _transaction_batches(
    source,
    batch_size: int,
    delimiter: str | None = None,
    label_prefix: str | None = None,
):
    """Normalise a source to ``(batch_factory, length_or_None)``.

    ``batch_factory`` is a zero-argument callable returning a fresh iterator
    of transaction batches on every call (the driver needs at least two
    passes: one to sample, one to label).  Supported sources: a transaction
    file path (read through :func:`repro.data.io.iter_transactions`, with
    ``delimiter``/``label_prefix`` applied on every pass), a zero-argument
    callable returning a fresh transaction iterator, or any in-memory shape
    :func:`repro.core.rock.as_transactions` accepts.  The reader options
    only make sense for a path source; passing them with any other source
    is rejected rather than silently ignored.
    """
    if batch_size < 1:
        raise ConfigurationError("batch_size must be positive, got %r" % batch_size)
    if isinstance(source, (str, os.PathLike)):
        return (
            lambda: iter_transactions(
                source, batch_size, delimiter=delimiter, label_prefix=label_prefix
            )
        ), None
    if delimiter is not None or label_prefix is not None:
        raise ConfigurationError(
            "delimiter/label_prefix only apply to file-path sources, got %r"
            % type(source).__name__
        )
    if callable(source):
        return (lambda: _rebatch(source(), batch_size)), None
    transactions = as_transactions(source)

    def factory():
        for start in range(0, len(transactions), batch_size):
            yield transactions[start:start + batch_size]

    return factory, len(transactions)


class _Clustering(NamedTuple):
    """What a cluster phase hands the label phase.

    ``clusters`` index ``sample`` (the sample points that were clustered),
    ``positions[i]`` is the stream position of ``sample[i]``, and
    ``set_aside`` lists the stream positions of the sample points the
    pre-filter isolated or the pruning dissolved.  ``item_index`` covers
    the sample (or the pooled shard samples) and ``parameters`` carries the
    phase's own reporting keys.  ``live_adjacency`` is the fit's neighbour
    adjacency over the clustered points (every member of ``clusters``, in
    sample order) when an online session will bootstrap from it, so the
    session does not build it again; otherwise ``None``.
    """

    sample: list
    positions: list[int]
    clusters: list
    set_aside: list[int]
    rock_result: RockResult
    item_index: dict
    parameters: dict
    live_adjacency: Any = None


@dataclass(frozen=True)
class _ShardOptions:
    """The sharded cluster phase's options, validated by ``run_sharded``."""

    n_shards: int
    strategy: str
    workers: int | None
    executor: str
    retries: int
    fan_in: int | None
    representatives: int


@dataclass(frozen=True)
class _OnlineOptions:
    """The online label phase's options, validated by ``run_online``."""

    refresh_threshold: float | None
    snapshot_dir: Any
    snapshot_every: int | None
    resume: bool


@dataclass
class _LabelState:
    """Label bookkeeping of one run, shared by both label phases.

    The full-stream label array (seeded with the clustered sample points'
    labels), per-batch label chunks, the label-space offsets of online
    refreshes and the progress counters saying which pending payloads were
    already placed.  :meth:`pending` is the one walk over the payloads
    every label phase places.  ``to_extra`` packs every field but
    ``restored`` into an online snapshot's caller-state slot, under the
    field's name, and ``from_extra`` rebuilds the state from it, so a
    resumed run continues exactly where the checkpoint left off.
    """

    KIND_REMAINDER = "remainder"
    KIND_SAMPLE = "sample"

    n_points: int
    labels: np.ndarray
    space_sizes: list[int]
    sample_indices: list[int]
    #: Stream positions of the set-aside sample points, and their items.
    sample_pending: list[int]
    sample_pending_transactions: list[frozenset]
    has_remainder: bool
    rock_result: RockResult
    batch_size: int
    sample_method: str
    label_chunks: list[np.ndarray] = field(default_factory=list)
    labeled_indices: list[int] = field(default_factory=list)
    # Every refresh opens a fresh labelling space; global label ids are the
    # per-space labels shifted by the previous spaces' sizes, so
    # assignments from different spaces never collide.
    offsets: list[int] = field(default_factory=lambda: [0])
    remainder_done: int = 0
    sample_pending_done: bool = False
    restored: bool = False

    @classmethod
    def seeded(
        cls, n_points: int, item_at, clustering: _Clustering, batch_size: int, sample_method: str
    ) -> "_LabelState":
        """The state of a fresh run after its cluster phase.

        ``item_at`` maps every sampled stream position to its item set.
        The clustered sample points carry their kept cluster's label; the
        set-aside sample points are pending, in increasing stream order.
        """
        labels = np.full(n_points, -1, dtype=int)
        for label, members in enumerate(clustering.clusters):
            labels[[clustering.positions[i] for i in members]] = label
        sample_indices = sorted(item_at)
        set_aside = sorted(set(clustering.set_aside))
        return cls(
            n_points=n_points,
            labels=labels,
            space_sizes=[len(clustering.clusters)],
            sample_indices=sample_indices,
            sample_pending=set_aside,
            sample_pending_transactions=[item_at[p] for p in set_aside],
            has_remainder=n_points > len(sample_indices),
            rock_result=clustering.rock_result,
            batch_size=batch_size,
            sample_method=sample_method,
        )

    def _mismatch(self, seen: str) -> Exception:
        if self.restored:
            return SnapshotConfigMismatchError(
                "the resumed source holds %s points but the checkpoint covers "
                "%d; resume with the source the run started on"
                % (seen, self.n_points)
            )
        return DataValidationError(
            "the source held %d points when sampled but %s when labelled; it "
            "must not change between passes" % (self.n_points, seen)
        )

    def pending(self, batches):
        """Yield every ``(transactions, positions, kind)`` payload to place.

        The non-sample stream points batch by batch — skipping the batches
        a restored checkpoint already absorbed — then the set-aside sample
        points as one last batch.  Every label phase walks this one
        sequence, so the batch boundaries (and with them the bit-identical
        labels contracts) cannot drift apart between modes.  A restored
        run walks the source even without a remainder, so a source whose
        length differs from the checkpoint's is always rejected.
        """
        if self.has_remainder or self.restored:
            for index, (batch, positions) in enumerate(
                _pending_batches(
                    batches, set(self.sample_indices), self.n_points, self._mismatch
                )
            ):
                if index >= self.remainder_done:
                    yield batch, positions, self.KIND_REMAINDER
        if self.sample_pending and not self.sample_pending_done:
            yield (
                self.sample_pending_transactions,
                self.sample_pending,
                self.KIND_SAMPLE,
            )

    def place(self, positions, labels: np.ndarray, kind: str, label_space: int = 0) -> None:
        """Record one labelled payload and advance the progress counters."""
        chunk = labels.copy()
        chunk[chunk >= 0] += self.offsets[label_space]
        self.labels[positions] = chunk
        self.labeled_indices.extend(positions)
        self.label_chunks.append(chunk)
        if kind == self.KIND_REMAINDER:
            self.remainder_done += 1
        else:
            self.sample_pending_done = True

    def apply(self, session: IncrementalRock, payload: Any) -> None:
        """Splice one logged payload into the live session and place it."""
        batch, positions, kind = payload
        result = session.ingest(batch)
        self.place(positions, result.labels, kind, result.label_space)
        if result.refreshed:
            self.offsets.append(self.offsets[-1] + self.space_sizes[-1])
            self.space_sizes.append(session.n_labeler_clusters)

    def to_extra(self) -> dict:
        stored = {item.name: getattr(self, item.name) for item in fields(self)}
        del stored["restored"]
        return {"online": stored}

    @classmethod
    def from_extra(cls, extra: dict | None) -> "_LabelState":
        stored = (extra or {}).get("online")
        if stored is None:
            raise SnapshotCorruptionError(
                "checkpoint carries no online-pipeline state — it was not "
                "written by run_online(snapshot_dir=...); resume the bare "
                "session through PersistentSession.resume instead"
            )
        return cls(**stored, restored=True)


class RockPipeline:
    """Configurable sample/cluster/label ROCK pipeline.

    Parameters
    ----------
    n_clusters:
        Number of clusters requested from the agglomeration phase (at
        least 1).
    theta:
        Similarity threshold in ``[0, 1]``.
    sample_size:
        Number of points to sample for the clustering phase; ``None`` (the
        default) clusters the whole data set.
    measure:
        Set-similarity measure; defaults to Jaccard.
    min_neighbors:
        Points with fewer neighbours than this within the sample are set
        aside before agglomeration (outlier pre-filter).  ``0`` disables the
        filter.
    min_cluster_size:
        Clusters smaller than this after agglomeration are dissolved and
        their points handed to the labelling pass (late-outlier handling).
        ``1`` disables the pruning.
    labeling_fraction:
        Fraction of each cluster used when labelling leftover points, in
        ``(0, 1]``.
    exponent_function:
        ``f(theta)``; defaults to the paper's.
    assign_outliers:
        When ``True`` (the paper's behaviour and the default), points the
        labelling pass could not place (no neighbours in any cluster
        fraction) keep label ``-1``; when ``False`` they are force-assigned
        to the cluster with the highest raw neighbour count — with every
        count at zero that is the largest cluster — so no point is reported
        as an outlier by the labelling phase.
    include_self_links:
        Whether a point counts as its own neighbour when counting common
        neighbours (see :class:`RockClustering`).
    rng:
        Random generator or seed used for sampling and labelling fractions.
    strict:
        Propagated to :class:`RockClustering`.

    Every parameter but ``sample_size`` and ``rng`` is held as
    :attr:`config`, the :class:`~repro.core.config.RockConfig` every phase
    reads.  An out-of-range value raises
    :class:`~repro.errors.ConfigurationError` at construction, before any
    source is read.

    Notes
    -----
    Every phase calls the library with its defaults, so the path each
    takes (the neighbour backend, the link product, the merge engine, the
    labelling kernel) follows from what the code can observe: whether the
    measure has the vectorized-counts capability.  The frozen specs are
    selected at the library entry points only
    (:class:`RockClustering`'s ``engine``,
    :func:`repro.core.neighbors.compute_neighbors`'s ``strategy``).

    Every entry point builds the item-to-column index
    (:func:`repro.data.encoding.build_item_index`) over the sample only —
    or, in a multi-shard run, one index per shard sample for the per-shard
    clusterings plus one over the pooled samples for the summary merge —
    and shares it with the vectorised neighbour and labelling phases.
    Items of the non-sampled points outside it cannot intersect any
    retained sample point, so the labeler ignores them without changing
    any label.
    """

    def __init__(
        self,
        n_clusters: int,
        theta: float = 0.5,
        sample_size: int | None = None,
        measure: SetSimilarity | None = None,
        min_neighbors: int = 0,
        min_cluster_size: int = 1,
        labeling_fraction: float = 1.0,
        exponent_function: ExponentFunction | None = None,
        assign_outliers: bool = True,
        include_self_links: bool = True,
        rng: np.random.Generator | int | None = None,
        strict: bool = False,
    ) -> None:
        self.config = RockConfig(
            n_clusters=n_clusters, theta=theta, measure=measure,
            exponent_function=exponent_function, labeling_fraction=labeling_fraction,
            assign_outliers=assign_outliers, include_self_links=include_self_links,
            min_neighbors=min_neighbors, min_cluster_size=min_cluster_size, strict=strict,
        )
        if sample_size is not None and sample_size < 1:
            raise ConfigurationError("sample_size must be positive or None")
        self.sample_size = sample_size
        self.rng = np.random.default_rng(rng)
        self._online_session: IncrementalRock | None = None
        self._online_store: PersistentSession | None = None

    # ------------------------------------------------------------------ #
    def _drive(
        self,
        source: Any,
        batch_size: int,
        parameters: dict,
        sample_method: str = "exact",
        delimiter: str | None = None,
        label_prefix: str | None = None,
        shards: _ShardOptions | None = None,
        online: _OnlineOptions | None = None,
    ) -> RockPipelineResult:
        """The one phase driver behind every entry point.

        Normalises ``source`` into batches of ``batch_size``, draws the
        sample, runs the cluster phase (the whole sample as one shard, or
        the sharded phase when ``shards`` is given), seeds the label state,
        runs the label phase (streaming, or online when ``online`` is
        given) and finalizes.  A resumable online checkpoint replaces the
        first three steps by the restored session and label state.
        ``parameters`` holds the entry point's own reporting keys.
        """
        if sample_method not in STREAMING_SAMPLE_METHODS:
            raise ConfigurationError(
                "unknown sample_method %r; expected one of %s"
                % (sample_method, ", ".join(STREAMING_SAMPLE_METHODS))
            )
        total_start = time.perf_counter()
        timings: dict[str, float] = {}
        batches, known_length = _transaction_batches(
            source, batch_size, delimiter=delimiter, label_prefix=label_prefix
        )
        clustering: _Clustering | None = None
        store: PersistentSession | None = None
        if (
            online is not None
            and online.resume
            and PersistentSession.can_resume(online.snapshot_dir)
        ):
            store, state = self._resume_online(online, batch_size, sample_method)
        else:
            phase_start = time.perf_counter()
            n_points, units, merge_rng = self._draw_sample(
                batches, known_length, sample_method, shards
            )
            timings["sampling"] = time.perf_counter() - phase_start
            # The one position -> item set lookup the phases below share.
            item_at = {p: t for sample, positions in units for p, t in zip(positions, sample)}
            if shards is None:
                clustering = self._cluster_whole(units, item_at, timings, online is not None)
            else:
                clustering = self._cluster_sharded(units, item_at, merge_rng, shards, timings)
            parameters.update(clustering.parameters)
            state = _LabelState.seeded(
                n_points, item_at, clustering, batch_size, sample_method
            )

        phase_start = time.perf_counter()
        if online is not None:
            parameters.update(
                self._label_online(state, clustering, batches, online, store)
            )
        else:
            assert clustering is not None  # only an online run resumes
            self._label_streaming(state, clustering, batches)
        timings["labeling"] = time.perf_counter() - phase_start
        return self._assemble(state, timings, total_start, parameters)

    # ------------------------------------------------------------------ #
    def _draw_sample(self, batches, known_length: int | None, sample_method: str, shards):
        """Phase 1: count the source and draw the sample in one collecting pass.

        Returns ``(n_points, units, merge_rng)``: ``units`` holds one
        ``(sample, positions)`` pair per shard — a single pair without
        ``shards`` — with positions in increasing stream order.  Without
        shards the positions are drawn by :func:`draw_sample` over the
        counted stream (or, for ``sample_method="reservoir"``, by
        single-pass reservoir sampling).  With shards every shard draws its
        share of the budget from its own seed, and ``merge_rng`` (``None``
        otherwise) seeds the summary merge.  Raises
        :class:`DataValidationError` on an empty source.
        """
        if sample_method == "reservoir" and self.sample_size is not None:
            positions, sample, n_points = reservoir_sample(
                itertools.chain.from_iterable(batches()),
                self.sample_size,
                rng=self.rng,
            )
            if not n_points:
                raise DataValidationError("cannot cluster an empty streaming source")
            return n_points, [(sample, positions)], None
        plan = None
        if shards is not None and shards.strategy == HASH_SHARD_STRATEGY:
            plan = ShardPlan(shards.n_shards, shards.strategy)
            shard_sizes, n_points = count_shard_sizes(batches, plan)
        elif known_length is not None:
            n_points = known_length
        else:
            n_points = sum(len(batch) for batch in batches())
        if not n_points:
            raise DataValidationError("cannot cluster an empty streaming source")
        budget = self.sample_size if self.sample_size is not None else n_points

        if shards is None:
            positions = list(range(n_points))
            if budget < n_points:
                positions, _ = draw_sample(range(n_points), budget, rng=self.rng)
            wanted = set(positions)
            sample = [
                frozenset(transaction)
                for position, transaction in enumerate(
                    itertools.chain.from_iterable(batches())
                )
                if position in wanted
            ]
            return n_points, [(sample, positions)], None

        if plan is None:
            plan = ShardPlan(shards.n_shards, shards.strategy, n_points=n_points)
            shard_sizes = plan.positional_shard_sizes()
        sample_sizes = (
            allocate_sample_sizes(shard_sizes, budget)
            if budget < n_points
            else list(shard_sizes)
        )
        # One seed per shard plus one for the representative selection,
        # all drawn from the pipeline generator in a fixed order: the same
        # pipeline seed reproduces the same multi-shard run regardless of
        # worker count or completion order.
        seeds = self.rng.integers(0, 2**63 - 1, size=shards.n_shards + 1)
        units = build_shard_samples(
            batches,
            plan,
            shard_sizes,
            sample_sizes,
            [np.random.default_rng(int(seed)) for seed in seeds[:-1]],
        )
        return n_points, units, np.random.default_rng(int(seeds[-1]))

    # ------------------------------------------------------------------ #
    def _cluster_whole(self, units, item_at: dict, timings: dict, online: bool) -> _Clustering:
        """The single-sample cluster phase: the whole sample is one shard.

        For an ``online`` run it also keeps the fit's neighbour adjacency
        over the clustered points, which is the session's live adjacency.
        """
        ((sample, positions),) = units
        item_index = build_item_index(sample)
        shard, rock_result, graph = _cluster_sample(
            self.config, 0, sample, positions, item_index, timings
        )
        live_adjacency = None
        if online:
            live = sorted(member for members in shard.clusters for member in members)
            live_adjacency = graph.subgraph(live).adjacency
        return _Clustering(
            [item_at[p] for p in shard.clustered_positions],
            shard.clustered_positions,
            shard.clusters,
            shard.isolated_positions + shard.pruned_positions,
            rock_result,
            item_index,
            {},
            live_adjacency,
        )

    def _cluster_sharded(
        self, units, item_at: dict, merge_rng, shards: _ShardOptions, timings: dict
    ) -> _Clustering:
        """The sharded cluster phase: cluster every shard, merge the summaries.

        Every shard's sample runs phases 2-4 through :func:`cluster_shard`
        (on worker threads or processes, the same task either way), the
        per-shard kept clusters become weighted summaries, and
        :func:`merge_shard_summaries` merges them over the pooled shard
        samples (items looked up in ``item_at``) into the global clusters.
        A skipped shard's sampled points are set aside, so the label phase
        places them against the merged clusters.
        """
        phase_start = time.perf_counter()
        config = self.config
        shard_results = cluster_shards(
            units,
            functools.partial(cluster_shard, config),
            shards.workers,
            retries=shards.retries,
            strict=config.strict,
            executor=shards.executor,
        )
        timings["neighbors"] = sum(
            result.timings.get("neighbors", 0.0) for result in shard_results
        )
        timings["shard_clustering"] = time.perf_counter() - phase_start

        merge_start = time.perf_counter()
        pooled_positions: list[int] = []
        summaries: list[tuple] = []
        summary_groups: list[list[int]] = []
        for result in shard_results:
            offset = len(pooled_positions)
            first_summary = len(summaries)
            pooled_positions.extend(result.clustered_positions)
            summaries.extend(
                tuple(offset + member for member in cluster)
                for cluster in result.clusters
            )
            # One level-0 unit per surviving shard: the hierarchical merge
            # combines shard groups, then groups of groups.
            summary_groups.append(list(range(first_summary, len(summaries))))
        pooled_sample = [item_at[p] for p in pooled_positions]
        item_index = build_item_index(pooled_sample)
        merge = merge_shard_summaries(
            pooled_sample,
            summaries,
            config.n_clusters,
            config.theta,
            measure=config.measure,
            exponent_function=config.exponent_function,
            representatives_per_cluster=shards.representatives,
            rng=merge_rng,
            include_self_links=config.include_self_links,
            item_index=item_index,
            fan_in=shards.fan_in,
            summary_groups=summary_groups if shards.fan_in is not None else None,
        )
        if merge.stopped_early and config.strict:
            raise InsufficientLinksError(
                "summary merge: no cross-summary links remain with %d global "
                "clusters (requested %d); lower theta, reduce n_clusters or "
                "use fewer shards" % (len(merge.groups), config.n_clusters)
            )
        kept_clusters = [
            tuple(
                index
                for summary_id in group
                for index in summaries[summary_id]
            )
            for group in merge.groups
        ]
        timings["merge"] = time.perf_counter() - merge_start
        timings["clustering"] = time.perf_counter() - phase_start

        # The merged clustering over the pooled shard samples, in the
        # RockResult shape a single-sample cluster phase produces.
        pooled_clusters = [tuple(sorted(members)) for members in kept_clusters]
        pooled_clusters.sort(key=lambda cluster: (-len(cluster), cluster[0]))
        pooled_labels = np.full(len(pooled_sample), -1, dtype=int)
        for label, members in enumerate(pooled_clusters):
            pooled_labels[list(members)] = label
        rock_result = RockResult(
            labels=pooled_labels,
            clusters=pooled_clusters,
            merge_history=merge.merge_history,
            n_clusters=len(pooled_clusters),
            criterion=merge.criterion,
            theta=config.theta,
            stopped_early=merge.stopped_early,
            elapsed_seconds=timings["merge"],
        )
        return _Clustering(
            pooled_sample,
            pooled_positions,
            kept_clusters,
            [
                position
                for result in shard_results
                for position in result.isolated_positions + result.pruned_positions
            ]
            + [p for shard_id in shard_results.skipped_shards for p in units[shard_id][1]],
            rock_result,
            item_index,
            {
                "merge_levels": merge.levels,
                "skipped_shards": list(shard_results.skipped_shards),
            },
        )

    # ------------------------------------------------------------------ #
    def _label_streaming(self, state: _LabelState, clustering: _Clustering, batches) -> None:
        """The streaming label phase: one labeler places every pending payload.

        The :class:`StreamingLabeler` builds its retained-fraction
        incidence exactly once, and its streaming loop
        (:meth:`~repro.core.labeling.StreamingLabeler.label_stream`) keeps
        up to one batch per CPU-pool thread in flight while this thread
        reads the next; only the integer labels of each batch are kept, so
        memory stays bounded by the sample, the batches in flight and the
        one being read.
        """
        if not (state.has_remainder or state.sample_pending):
            return
        labeler = self.config.labeler(
            clustering.sample, clustering.clusters, self.rng, clustering.item_index
        )
        labeler.label_stream(
            state.pending(batches),
            lambda payload, result: state.place(payload[1], result.labels, payload[2]),
            batch_of=lambda payload: payload[0],
        )

    def _label_online(
        self,
        state: _LabelState,
        clustering: _Clustering | None,
        batches,
        online: _OnlineOptions,
        store: PersistentSession | None,
    ) -> dict:
        """The online label phase: a live session ingests every pending payload.

        A fresh run bootstraps the session from ``clustering`` (and, with
        ``snapshot_dir``, writes checkpoint 0); a resumed run gets the
        restored ``store`` and replays its WAL tail first.  Each payload
        is WAL-logged *before* the splice, and a checkpoint is written
        every ``snapshot_every`` applied payloads plus once at the end.
        Returns the phase's reporting keys.
        """
        if clustering is None:
            assert store is not None
            session = store.session
            store.replay_pending(lambda payload: state.apply(session, payload))
        else:
            # Shares the pipeline's generator: making the session draws nothing.
            session = IncrementalRock._from_config(self.config, online.refresh_threshold, self.rng)
            session.bootstrap(
                clustering.sample,
                clustering.clusters,
                item_index=clustering.item_index,
                _live_adjacency=clustering.live_adjacency,
            )
            if online.snapshot_dir is not None:
                store = PersistentSession.create(
                    online.snapshot_dir,
                    session,
                    snapshot_every=online.snapshot_every,
                    extra=state.to_extra(),
                )
        self._online_session = session
        self._online_store = store

        for payload in state.pending(batches):
            if store is not None:
                store.log(payload)
            state.apply(session, payload)
            if store is not None:
                store.batch_applied(state.to_extra)
        if store is not None:
            store.close(extra=state.to_extra())
        return {
            "n_refreshes": session.n_refreshes,
            "refresh_merge_counters": dict(session.last_refresh_counters),
        }

    def _resume_online(self, online: _OnlineOptions, batch_size: int, sample_method: str):
        """Restore the durable store and label state of an interrupted run.

        Recovery = restore the last durable checkpoint (session + label
        bookkeeping); the label phase then replays the WAL tail and pushes
        only the still-pending batches — no re-sampling, no re-clustering,
        no RNG divergence.
        """
        store = PersistentSession.resume(
            online.snapshot_dir,
            snapshot_every=online.snapshot_every,
            measure=self.config.measure,
            exponent_function=self.config.exponent_function,
            expected_config=self.online_expected_config(online.refresh_threshold),
            defer_replay=True,
        )
        state = _LabelState.from_extra(store.extra)
        if state.batch_size != int(batch_size) or state.sample_method != sample_method:
            raise SnapshotConfigMismatchError(
                "checkpoint in %s was written with batch_size=%d, "
                "sample_method=%r but the resume requested batch_size=%d, "
                "sample_method=%r — the stream split must match for the "
                "resumed labels to stay identical"
                % (
                    online.snapshot_dir,
                    state.batch_size,
                    state.sample_method,
                    int(batch_size),
                    sample_method,
                )
            )
        return store, state

    # ------------------------------------------------------------------ #
    def _assemble(
        self, state: _LabelState, timings: dict, total_start: float, parameters: dict
    ) -> RockPipelineResult:
        """The one finalizer: renumber clusters by decreasing size, build the result.

        Groups the placed points across every label space (an online
        refresh opens a new one, and may leave globally unused labels) and
        renumbers them by decreasing size, ties broken by first member —
        fully vectorised, since this walks the whole stream.  The
        labelling result is remapped through the same renumbering so its
        labels agree 1:1 with the final ``labels`` array.
        """
        labels = state.labels
        n_points = state.n_points
        placed_positions = np.nonzero(labels >= 0)[0]
        present, inverse = np.unique(labels[placed_positions], return_inverse=True)
        group_sizes = np.bincount(inverse)
        first_member = np.full(present.size, n_points, dtype=np.int64)
        np.minimum.at(first_member, inverse, placed_positions)
        order = sorted(
            range(present.size),
            key=lambda group: (-int(group_sizes[group]), int(first_member[group])),
        )
        # Lookup array over old (global-space) label ids -> final labels.
        new_label_of = np.full(int(present[-1]) + 1 if present.size else 1, -1)
        new_label_of[present[order]] = np.arange(present.size)
        final_labels = np.full(n_points, -1, dtype=int)
        final_labels[placed_positions] = new_label_of[labels[placed_positions]]

        if placed_positions.size:
            final_of_placed = new_label_of[labels[placed_positions]]
            by_final_label = placed_positions[
                np.argsort(final_of_placed, kind="stable")
            ]
            boundaries = np.cumsum(np.bincount(final_of_placed))[:-1]
            clusters = [
                tuple(members.tolist())
                for members in np.split(by_final_label, boundaries)
            ]
        else:  # pragma: no cover - kept clusters always hold sample members
            clusters = []

        labeling_result: LabelingResult | None = None
        labeled_indices: list[int] | None = None
        if state.label_chunks:
            labeling_labels = np.concatenate(state.label_chunks)
            remapped = labeling_labels.copy()
            placed = remapped >= 0
            remapped[placed] = new_label_of[labeling_labels[placed]]
            labeling_result = LabelingResult(
                labels=remapped,
                neighbor_counts=np.zeros((0, len(clusters)), dtype=float),
                n_outliers=int(np.sum(remapped == -1)),
            )
            labeled_indices = list(state.labeled_indices)

        timings["total"] = time.perf_counter() - total_start
        return RockPipelineResult(
            labels=final_labels,
            clusters=clusters,
            sample_indices=list(state.sample_indices),
            rock_result=state.rock_result,
            labeling_result=labeling_result,
            labeled_indices=labeled_indices,
            n_outliers=int(np.sum(final_labels == -1)),
            timings=timings,
            parameters={
                "n_clusters": self.config.n_clusters,
                "theta": self.config.theta,
                "sample_size": self.sample_size,
                "min_neighbors": self.config.min_neighbors,
                "min_cluster_size": self.config.min_cluster_size,
                "labeling_fraction": self.config.labeling_fraction,
                "assign_outliers": self.config.assign_outliers,
                "merge_counters": dict(state.rock_result.merge_counters),
                **parameters,
            },
        )

    # ------------------------------------------------------------------ #
    def run(self, data: Any) -> RockPipelineResult:
        """Execute the pipeline on an in-memory data set.

        The phase driver over ``data`` as a single batch: the labels are
        bit-identical to :meth:`run_streaming` on the same data and seed.

        Parameters
        ----------
        data:
            Transactions, a dataset object or a binary matrix — any shape
            :func:`repro.core.rock.as_transactions` accepts.  A path string
            is not read as a file here; use :meth:`run_streaming` or
            :func:`repro.data.io.read_transactions` for that.

        Returns
        -------
        RockPipelineResult
            Labels over the full input (``-1`` marks outliers), cluster
            membership, the intermediate artefacts and per-phase timings.

        Raises
        ------
        DataValidationError
            When ``data`` is empty or of an unsupported shape.
        InsufficientLinksError
            In ``strict`` mode, when the requested number of clusters
            cannot be reached.
        """
        transactions = as_transactions(data)
        return self._drive(transactions, len(transactions), {})

    # ------------------------------------------------------------------ #
    def run_streaming(
        self,
        source: Any,
        batch_size: int = 1024,
        sample_method: str = "exact",
        delimiter: str | None = None,
        label_prefix: str | None = None,
    ) -> RockPipelineResult:
        """Execute the pipeline out-of-core over a re-iterable ``source``.

        The streaming counterpart of :meth:`run` for data sets that never
        fit in memory at once.  Peak memory is bounded by the sample, the
        item index of the sample, one batch of ``batch_size`` transactions
        (two while the labelling pass reads ahead) and the labelling
        kernel's row-block buffer.

        Parameters
        ----------
        source:
            A transaction file path (one transaction per line, see
            :func:`repro.data.io.iter_transactions`), a zero-argument
            callable returning a fresh transaction iterator per call, or any
            in-memory shape :meth:`run` accepts.  The source is iterated two
            to three times (sampling passes plus the labelling pass), so
            one-shot iterators are not supported — wrap them in a callable
            that reopens the underlying stream.
        batch_size:
            Number of transactions held in memory per labelling batch; the
            batch's memory grows linearly with it.  The labelling kernel
            walks every batch in row blocks of its own, so from about 1024
            up a larger batch no longer labels faster (smaller ones pay a
            fixed per-batch cost): pick the size by how much of the source
            to hold at once.  Labels never depend on it.
        sample_method:
            ``"exact"`` (default) draws the sample exactly as :meth:`run`
            does (one counting pass, then :func:`draw_sample`), so the same
            data and seed produce bit-identical labels to :meth:`run`.
            ``"reservoir"`` uses single-pass reservoir sampling
            (:func:`repro.core.sampling.reservoir_sample`) instead, saving
            the counting pass at the cost of a differently drawn (still
            uniform) sample.
        delimiter, label_prefix:
            Parse options for a file-path ``source``, forwarded to
            :func:`repro.data.io.iter_transactions` on every pass —
            ``label_prefix`` tokens would otherwise be clustered as
            ordinary items.  Rejected for non-path sources.

        Returns
        -------
        RockPipelineResult
            The shared result shape, with ``parameters["streaming"]`` set.

        Raises
        ------
        DataValidationError
            When the source is empty, or changes length between passes.
        """
        return self._drive(
            source,
            batch_size,
            {
                "streaming": True,
                "batch_size": int(batch_size),
                "sample_method": sample_method,
            },
            sample_method=sample_method,
            delimiter=delimiter,
            label_prefix=label_prefix,
        )

    # ------------------------------------------------------------------ #
    @property
    def online_session(self) -> IncrementalRock | None:
        """The live :class:`IncrementalRock` session of the last
        :meth:`run_online` call, or ``None`` before one ran."""
        return self._online_session

    @property
    def online_store(self) -> PersistentSession | None:
        """The durable store of the last ``run_online(snapshot_dir=...)``
        call, or ``None`` when the run was not persisted.  Post-run
        :meth:`ingest` calls are *not* logged through it automatically;
        drive the store's own ``ingest`` for durable post-run batches."""
        return self._online_store

    def ingest(self, batch: Any) -> IngestResult:
        """Feed one more batch into the live online session.

        Requires a prior :meth:`run_online` on this pipeline.  The batch is
        labelled through the session's current
        :class:`~repro.core.labeling.StreamingLabeler` and spliced into the
        live clustering (triggering a refresh when drift exceeds the
        session's threshold).  The returned labels are in the session's
        *current* labelling space — the bootstrap clusters until the first
        refresh, the refreshed clusters afterwards (see
        :class:`repro.core.incremental.IngestResult`); the final
        :class:`RockPipelineResult` numbering is a size-ordered view of
        those spaces.
        """
        if self._online_session is None:
            raise ConfigurationError(
                "no live online session; call run_online(source) before "
                "ingest(batch)"
            )
        return self._online_session.ingest(batch)

    # ------------------------------------------------------------------ #
    def run_online(
        self,
        source: Any,
        batch_size: int = 1024,
        refresh_threshold: float | None = None,
        sample_method: str = "exact",
        delimiter: str | None = None,
        label_prefix: str | None = None,
        snapshot_dir: str | os.PathLike | None = None,
        snapshot_every: int | None = None,
        resume: bool = False,
    ) -> RockPipelineResult:
        """Execute the pipeline in online-ingest mode over ``source``.

        The online counterpart of :meth:`run_streaming`: the sample is
        drawn and clustered exactly as there, but the clustering then
        *bootstraps* an :class:`repro.core.incremental.IncrementalRock`
        session and the disk-resident remainder is **ingested** batch by
        batch — each batch is labelled through the shared
        :class:`~repro.core.labeling.StreamingLabeler` *and* spliced into
        the live link matrices and clusters, so the clustering keeps
        absorbing the stream.  After the run returns, :meth:`ingest`
        keeps accepting new batches against the same session
        (:attr:`online_session`).

        Parameters are those of :meth:`run_streaming` plus
        ``refresh_threshold``: when the fraction of points inserted since
        the last full clustering exceeds it, the session re-clusters every
        live point from the maintained link matrix and subsequent batches
        are labelled against the refreshed clusters.  ``None`` (the
        default) never refreshes.

        Determinism: without a refresh trigger the labels are
        **bit-identical** to :meth:`run_streaming` on the same data and
        seed, for any ``batch_size`` (the labeler is constructed at the
        same point of the generator sequence and ingest consumes no
        randomness).  With refreshes, the run is seed-reproducible for a
        given batch split; labels assigned after a refresh live in the
        refreshed clustering's space and the final numbering is a
        size-ordered view over all assignments
        (``parameters["n_refreshes"]`` reports how many happened).

        Durability: with ``snapshot_dir`` the run becomes crash-safe — every
        ingested batch is appended to a write-ahead log *before* it mutates
        the session and a checksummed checkpoint of the full session (plus
        the pipeline's label bookkeeping) is written atomically every
        ``snapshot_every`` batches and at the end of the run.  With
        ``resume=True`` and a durable checkpoint present, the sampling and
        clustering phases are skipped entirely: the session is restored from
        the checkpoint, the WAL tail is replayed, and only the not-yet-
        ingested batches of ``source`` are processed — the final result is
        bit-identical to the uninterrupted run (``source``, ``batch_size``
        and the session parameters must match; mismatches raise
        :class:`~repro.errors.SnapshotConfigMismatchError`.  A source whose
        length differs from the checkpoint's is rejected before any batch
        that shows the difference is logged, so the directory still
        resumes on the original source).  ``resume=True`` with no
        checkpoint on disk simply runs fresh, so a crash-recovery loop can
        pass it unconditionally.

        Returns
        -------
        RockPipelineResult
            The shared result shape with ``parameters["online"]`` set.
            ``rock_result`` describes the bootstrap clustering of the
            sample.
        """
        refresh_threshold = validate_refresh_threshold(refresh_threshold)
        if snapshot_dir is None and snapshot_every is not None:
            raise ConfigurationError(
                "snapshot_every requires snapshot_dir (there is nowhere to "
                "write the checkpoints)"
            )
        if snapshot_dir is None and resume:
            raise ConfigurationError(
                "resume=True requires snapshot_dir (there is nothing to "
                "resume from)"
            )
        return self._drive(
            source,
            batch_size,
            {
                "online": True,
                "batch_size": int(batch_size),
                "sample_method": sample_method,
                "refresh_threshold": refresh_threshold,
            },
            sample_method=sample_method,
            delimiter=delimiter,
            label_prefix=label_prefix,
            online=_OnlineOptions(refresh_threshold, snapshot_dir, snapshot_every, resume),
        )

    def online_expected_config(self, refresh_threshold: float | None = None) -> dict:
        """The session config a checkpoint must match to be resumed here.

        Public because the serving front end (``repro serve --resume``)
        guards its own :meth:`~repro.serve.server.ReproServer.resume` with
        the same config the pipeline would enforce — resuming a served
        session under different parameters would silently break the
        served ≡ ``run_online`` contract.
        """
        return self.config.session_dict(validate_refresh_threshold(refresh_threshold))

    # ------------------------------------------------------------------ #
    def run_sharded(
        self,
        source: Any,
        n_shards: int,
        batch_size: int = 1024,
        shard_workers: int | None = None,
        shard_strategy: str = DEFAULT_SHARD_STRATEGY,
        shard_executor: str | None = None,
        shard_retries: int = 1,
        merge_fan_in: int | None = None,
        representatives_per_cluster: int = 16,
        delimiter: str | None = None,
        label_prefix: str | None = None,
    ) -> RockPipelineResult:
        """Execute the pipeline with a sharded clustering phase.

        The scale-out counterpart of :meth:`run_streaming` for data whose
        *sample* no longer fits one agglomeration: the source is
        partitioned into ``n_shards`` shards (:class:`ShardPlan`), every
        shard draws and clusters its own slice of the sample budget
        (optionally in parallel), the per-shard cluster summaries are
        merged into the final global clustering by the weighted
        summary-merge agglomeration
        (:func:`repro.core.sharding.merge_shard_summaries`), and the full
        source is labelled batch by batch through one
        :class:`repro.core.labeling.StreamingLabeler` exactly as in
        :meth:`run_streaming`.

        Peak memory is bounded by the pooled per-shard samples (together
        at most ``sample_size`` points — the same bound as streaming), the
        largest single-shard clustering state, and two batches.

        Parameters
        ----------
        source:
            Any source :meth:`run_streaming` accepts (a transaction file
            path, a zero-argument iterator factory, or an in-memory
            collection); it is iterated several times (counting, sampling
            and labelling passes).
        n_shards:
            Number of clustering shards.  With ``1`` the whole sample is
            the one shard and its clustering is final: the run takes the
            phases of :meth:`run_streaming`, so the labels are
            bit-identical to it on the same data and seed.
        batch_size:
            Transactions per labelling batch (see :meth:`run_streaming`).
        shard_workers:
            Maximum number of shards clustered concurrently; ``None`` (the
            default) or ``1`` clusters them one at a time, on either
            executor.  Shard clustering consumes no shared random state,
            so the worker count never changes the result.
        shard_strategy:
            Partitioning strategy — ``"round-robin"`` (default),
            ``"contiguous"`` or ``"hash"``; see :class:`ShardPlan`.
        shard_executor:
            ``"thread"`` or ``"process"``: the pool that runs the
            per-shard task :func:`cluster_shard`.  ``None`` (the default)
            is resolved once per call: ``"process"`` where its workers
            fork (Linux) and ``shard_workers`` is above 1, else
            ``"thread"``; ``parameters["shard_executor"]`` reports it, or
            ``None`` for one shard, which runs no pool.
            The process executor escapes the GIL.  Forked workers start in
            tens of milliseconds and inherit the task and the samples, and
            a shard's result holds stream positions only, so any measure,
            exponent function or item type works there.  Where its workers
            spawn (macOS, Windows), it pays about a second of pool
            start-up, the task and samples are pickled to them (no lambdas
            or local classes), and a script using it needs an
            ``if __name__ == "__main__":`` guard.  Both run the same task
            on the same items, so the labels are bit-identical on the same
            data and seed.
        shard_retries:
            How many times a failed shard worker is re-attempted before
            the shard is skipped (degraded run) or, in ``strict`` mode,
            the run fails.  A shard that fails and then succeeds on a
            retry yields labels bit-identical to a fault-free run: the
            shard's sample (and every random draw) happened before the
            worker started.
        merge_fan_in:
            When set (at least 2), the summary merge is hierarchical:
            per-shard summary groups are merged ``merge_fan_in`` units at
            a time, then groups of groups, until one final merge produces
            the global clusters (see :func:`merge_shard_summaries`).
            ``None`` keeps the flat merge.
        representatives_per_cluster:
            Upper bound on the member transactions each per-shard cluster
            contributes to the summary-merge link estimate.
        delimiter, label_prefix:
            Parse options for a file-path ``source`` (see
            :meth:`run_streaming`).

        Returns
        -------
        RockPipelineResult
            The shared result shape, with ``parameters["sharded"]`` set
            (the same keys for any ``n_shards``; one shard reports
            ``merge_levels`` 0) and, for multi-shard runs, ``timings``
            extended by ``"shard_clustering"`` and ``"merge"``.
            ``rock_result`` describes the merged clustering over the pooled
            shard samples; its ``criterion`` is evaluated on the summary
            representatives, not the full pooled link matrix.

        Raises
        ------
        ConfigurationError
            For a non-positive ``n_shards``/``shard_workers``, an unknown
            ``shard_strategy``/``shard_executor``, invalid merge options or
            invalid streaming options — all before the source is read,
            whatever the shard count.  Also, without a retry, when the
            process executor cannot start its workers or, where they
            spawn, pickle the task or the samples.
        DataValidationError
            When the source is empty.
        InsufficientLinksError
            In ``strict`` mode, when a shard or the summary merge cannot
            reach its requested cluster count.
        """
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ConfigurationError(
                "n_shards must be at least 1, got %r" % n_shards
            )
        if shard_strategy not in SHARD_STRATEGIES:
            raise ConfigurationError(
                "unknown shard strategy %r; expected one of %s"
                % (shard_strategy, ", ".join(SHARD_STRATEGIES))
            )
        # Resolved once, here, so a bad value fails before the source is
        # read, whatever the shard count.
        shard_executor = resolve_shard_executor(shard_executor, shard_workers)
        if shard_retries < 0:
            raise ConfigurationError(
                "shard_retries must be non-negative, got %r" % shard_retries
            )
        representatives = validate_merge_options(representatives_per_cluster, merge_fan_in)
        shards = None
        if n_shards > 1:
            shards = _ShardOptions(
                n_shards,
                shard_strategy,
                shard_workers,
                shard_executor,
                int(shard_retries),
                merge_fan_in,
                representatives,
            )
        return self._drive(
            source,
            batch_size,
            {
                "sharded": True,
                "n_shards": n_shards,
                "shard_strategy": shard_strategy,
                "shard_workers": shard_workers,
                # The pool that ran: one shard takes the streaming phases
                # and makes none.
                "shard_executor": shards.executor if shards else None,
                "shard_retries": int(shard_retries),
                "merge_fan_in": merge_fan_in,
                "merge_levels": 0,
                "batch_size": int(batch_size),
                "representatives_per_cluster": representatives,
                "skipped_shards": [],
            },
            delimiter=delimiter,
            label_prefix=label_prefix,
            shards=shards,
        )


def cluster_shard(
    config: RockConfig, shard_id: int, sample: list, positions: list[int]
) -> ShardClusterResult:
    """Phases 2-4 on one shard's sample: the task both shard executors run.

    A module-level function, so ``functools.partial(cluster_shard, config)``
    pickles for spawned process workers (forked ones inherit it); the
    thread executor calls the same partial on the same items, which is why
    the two executors' labels are bit-identical by construction.  Its
    result holds stream positions only, so it pickles whatever the items are.
    """
    return _cluster_sample(
        config, shard_id, sample, positions, build_item_index(sample), {}
    )[0]


def _cluster_sample(
    config: RockConfig, shard_id: int, sample: list[frozenset], positions: list[int],
    item_index: dict, timings: dict,
) -> tuple[ShardClusterResult, RockResult, NeighborGraph]:
    """Phases 2-4 on an in-memory sample: pre-filter, cluster, prune.

    Returns the shard's result (members index its clustered positions, every
    set-aside point is a stream position), the fit's :class:`RockResult`
    and the fit's neighbour graph over the clustered sample.
    """
    phase_start = time.perf_counter()
    participating = list(range(len(sample)))
    isolated: list[int] = []
    graph = None
    if config.min_neighbors > 0:
        graph = compute_neighbors(
            sample, theta=config.theta, measure=config.measure, item_index=item_index
        )
        kept, dropped = partition_isolated_points(
            graph, min_neighbors=config.min_neighbors
        )
        # When every sampled point is isolated, cluster them all.
        if kept:
            participating, isolated = kept, dropped
            graph = graph.subgraph(kept)
    clustered_sample = [sample[i] for i in participating]
    timings["neighbors"] = time.perf_counter() - phase_start

    phase_start = time.perf_counter()
    model = RockClustering(
        n_clusters=config.n_clusters,
        theta=config.theta,
        measure=config.measure,
        include_self_links=config.include_self_links,
        exponent_function=config.exponent_function,
        strict=config.strict,
    )
    if graph is None:
        model.fit(clustered_sample, item_index=item_index)
    else:
        # The survivors' graph is the induced subgraph of the sample's.
        model._fit_graph(graph)
    rock_result = model.result_
    timings["clustering"] = time.perf_counter() - phase_start

    kept_clusters, pruned_points = drop_small_clusters(
        rock_result.clusters, config.min_cluster_size
    )
    if not kept_clusters:
        kept_clusters, pruned_points = [tuple(range(len(clustered_sample)))], []
    clustered_positions = [positions[i] for i in participating]
    shard = ShardClusterResult(
        shard_id=shard_id,
        clustered_positions=clustered_positions,
        clusters=list(kept_clusters),
        isolated_positions=[positions[i] for i in isolated],
        pruned_positions=[clustered_positions[j] for j in pruned_points],
        timings=timings,
    )
    return shard, rock_result, model.neighbor_graph_


def rock_cluster(
    data: Any,
    n_clusters: int,
    theta: float = 0.5,
    **pipeline_kwargs: Any,
) -> RockPipelineResult:
    """Convenience function: run the ROCK pipeline with one call.

    Parameters
    ----------
    data:
        Transactions, a dataset object or a binary matrix (see
        :func:`repro.core.rock.as_transactions`).
    n_clusters:
        Number of clusters requested.
    theta:
        Similarity threshold.
    **pipeline_kwargs:
        Any other :class:`RockPipeline` constructor argument.

    Returns
    -------
    RockPipelineResult
    """
    pipeline = RockPipeline(n_clusters=n_clusters, theta=theta, **pipeline_kwargs)
    return pipeline.run(data)
