"""End-to-end ROCK pipeline: sample, cluster, label, handle outliers.

This module composes the pieces exactly as the paper's overview figure does:

1. draw a random sample (optional — small data sets are clustered whole);
2. optionally discard isolated points (outlier pre-filtering);
3. run the agglomerative ROCK algorithm on the (filtered) sample;
4. optionally prune tiny clusters (late-outlier handling);
5. label every point that was not clustered — the rest of the sample and
   the non-sampled remainder — against the sampled clusters.

The result exposes labels over the *full* input, cluster membership, the
intermediate artefacts and per-phase timings, which is what the scalability
benchmarks consume.

Four entry points share that structure.  :meth:`RockPipeline.run` takes
the whole data set in memory.  :meth:`RockPipeline.run_streaming` takes a
re-iterable source (a transaction file path, an in-memory collection or an
iterator factory) and keeps peak memory bounded by the sample plus one
batch: the sample is drawn from a first pass over the source, clustered in
memory, and the disk-resident remainder is labelled batch by batch through
one :class:`repro.core.labeling.StreamingLabeler` whose retained-fraction
incidence is built exactly once.  On the same data and seed both entry
points produce bit-identical labels.  :meth:`RockPipeline.run_sharded`
additionally shards the *clustering* phase itself
(:mod:`repro.core.sharding`): the source is partitioned into shards, every
shard clusters its own sample (optionally in parallel), the per-shard
cluster summaries are merged by a weighted summary agglomeration, and the
merged clustering labels the full source through the same streaming
labeler.  With one shard it takes the streaming path unchanged, so
``n_shards=1`` is bit-identical to :meth:`RockPipeline.run_streaming`.
:meth:`RockPipeline.run_online` is the online-ingest counterpart: the same
sampling and clustering phases bootstrap an
:class:`repro.core.incremental.IncrementalRock` session, the remainder is
*ingested* batch by batch (labelled through the shared
:class:`~repro.core.labeling.StreamingLabeler` while the live clustering
absorbs every batch), and :meth:`RockPipeline.ingest` keeps accepting new
batches after the run returns.  Without a refresh trigger the labels are
bit-identical to :meth:`RockPipeline.run_streaming` on the same data and
seed.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.engines import DEFAULT_ENGINE, validate_engine_name
from repro.core.goodness import ExponentFunction
from repro.core.incremental import (
    IncrementalRock,
    IngestResult,
    validate_refresh_threshold,
)
from repro.core.labeling import LabelingResult, StreamingLabeler, label_points
from repro.core.neighbors import compute_neighbors
from repro.core.outliers import drop_small_clusters, partition_isolated_points
from repro.core.rock import RockClustering, RockResult, as_transactions
from repro.core.sampling import draw_sample, reservoir_sample
from repro.core.shard_worker import ShardWorkerConfig
from repro.core.sharding import (
    DEFAULT_SHARD_EXECUTOR,
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
from repro.similarity.jaccard import JaccardSimilarity
from repro.types import ClusterSummary

#: Sampling strategies accepted by :meth:`RockPipeline.run_streaming`.
STREAMING_SAMPLE_METHODS = ("exact", "reservoir")


@dataclass
class RockPipelineResult:
    """Outcome of the full ROCK pipeline on a data set.

    Attributes
    ----------
    labels:
        One label per input point (over the *full* data set); ``-1`` marks
        outliers.
    clusters:
        For each label, the tuple of member indices into the full data set,
        ordered by decreasing size.
    sample_indices:
        Indices of the points that formed the clustered sample.
    rock_result:
        The :class:`RockResult` of the agglomeration on the sample.
    labeling_result:
        The :class:`LabelingResult` of the final labelling pass, or ``None``
        when every point was part of the clustered sample.  Its labels are
        expressed in the *final* label space (the same one ``labels`` uses),
        and row ``i`` describes the point at full-data-set index
        ``labeled_indices[i]``.  Streaming runs leave ``neighbor_counts``
        empty (shape ``(0, n_clusters)``): retaining a dense per-point count
        matrix would break the bounded-memory contract of
        :meth:`RockPipeline.run_streaming`.
    labeled_indices:
        Full-data-set index of each ``labeling_result`` row, or ``None``
        when no labelling pass ran.
    n_outliers:
        Number of points with label ``-1``.
    timings:
        Wall-clock seconds per phase (``"sampling"``, ``"neighbors"``,
        ``"clustering"``, ``"labeling"``, ``"total"``).  Note ``"neighbors"``
        only covers the outlier pre-filter phase (the neighbour graph built
        when ``min_neighbors > 0``); the neighbour computation the
        agglomeration itself performs is part of ``"clustering"``.
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


def _pending_sample_positions(
    sample_indices, sample_position_of, isolated, pruned_points
) -> list[int]:
    """Full-data-set positions of sampled points the labeler must place.

    The isolated points the pre-filter set aside plus the members of
    pruned clusters, deduplicated in increasing stream order — shared by
    every out-of-core entry point.
    """
    pending: list[int] = []
    pending.extend(sample_indices[i] for i in isolated)
    pending.extend(sample_position_of[j] for j in pruned_points)
    return sorted(set(pending))


def _pending_batches(batches, sample_set: set):
    """Yield ``(transactions, positions)`` of the non-sample stream points.

    Walks the normalised source batch by batch, skipping the stream
    positions in ``sample_set``; every out-of-core labelling/ingest path
    shares this iteration so the batch boundaries (and with them the
    bit-identical-labels contracts) can never drift apart.
    """
    position = 0
    for batch in batches():
        pending_batch: list[frozenset] = []
        pending_positions: list[int] = []
        for transaction in batch:
            if position not in sample_set:
                pending_batch.append(frozenset(transaction))
                pending_positions.append(position)
            position += 1
        if pending_batch:
            yield pending_batch, pending_positions


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
    """Normalise a streaming source to ``(batch_factory, length_or_None)``.

    ``batch_factory`` is a zero-argument callable returning a fresh iterator
    of transaction batches on every call (streaming needs at least two
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


class _OnlineIngestState:
    """Mutable label bookkeeping of one :meth:`RockPipeline.run_online`.

    Everything the final assembly needs that the ``IncrementalRock`` session
    does not itself hold: the full-stream label array, per-batch label
    chunks, the refresh label-space offsets and the progress counters saying
    which pending batches were already absorbed.  ``to_extra`` packs it into
    the snapshot's caller-state slot and ``from_extra`` rebuilds it, so a
    resumed run continues exactly where the checkpoint left off.
    """

    KIND_REMAINDER = "remainder"
    KIND_SAMPLE = "sample"

    def __init__(
        self,
        n_points: int,
        labels: np.ndarray,
        space_sizes,
        sample_indices,
        sample_pending,
        sample_pending_transactions,
        has_remainder: bool,
        rock_result,
        batch_size: int,
        sample_method: str,
    ):
        self.n_points = int(n_points)
        self.labels = labels
        self.label_chunks: list[np.ndarray] = []
        self.labeled_indices: list[int] = []
        # Every refresh opens a fresh labelling space; global label ids
        # are the per-space labels shifted by the previous spaces' sizes,
        # so assignments from different spaces never collide.
        self.offsets = [0]
        self.space_sizes = list(space_sizes)
        self.sample_indices = list(sample_indices)
        self.sample_pending = list(sample_pending)
        self.sample_pending_transactions = list(sample_pending_transactions)
        self.has_remainder = bool(has_remainder)
        self.rock_result = rock_result
        self.batch_size = int(batch_size)
        self.sample_method = sample_method
        self.remainder_done = 0
        self.sample_pending_done = False

    def apply(self, session: IncrementalRock, payload: Any) -> None:
        """Splice one logged payload: ingest, place labels, advance progress."""
        batch, positions, kind = payload
        result = session.ingest(batch)
        chunk = result.labels.copy()
        chunk[chunk >= 0] += self.offsets[result.label_space]
        self.labels[positions] = chunk
        self.labeled_indices.extend(positions)
        self.label_chunks.append(chunk)
        if result.refreshed:
            self.offsets.append(self.offsets[-1] + self.space_sizes[-1])
            self.space_sizes.append(session.n_labeler_clusters)
        if kind == self.KIND_REMAINDER:
            self.remainder_done += 1
        else:
            self.sample_pending_done = True

    def to_extra(self) -> dict:
        return {
            "online": {
                "n_points": self.n_points,
                "labels": self.labels.copy(),
                "label_chunks": [chunk.copy() for chunk in self.label_chunks],
                "labeled_indices": list(self.labeled_indices),
                "offsets": list(self.offsets),
                "space_sizes": list(self.space_sizes),
                "sample_indices": list(self.sample_indices),
                "sample_pending": list(self.sample_pending),
                "sample_pending_transactions": list(
                    self.sample_pending_transactions
                ),
                "has_remainder": self.has_remainder,
                "rock_result": self.rock_result,
                "batch_size": self.batch_size,
                "sample_method": self.sample_method,
                "remainder_done": self.remainder_done,
                "sample_pending_done": self.sample_pending_done,
            }
        }

    @classmethod
    def from_extra(cls, extra: dict | None) -> "_OnlineIngestState":
        stored = (extra or {}).get("online")
        if stored is None:
            raise SnapshotCorruptionError(
                "checkpoint carries no online-pipeline state — it was not "
                "written by run_online(snapshot_dir=...); resume the bare "
                "session through PersistentSession.resume instead"
            )
        state = cls(
            n_points=stored["n_points"],
            labels=stored["labels"],
            space_sizes=stored["space_sizes"],
            sample_indices=stored["sample_indices"],
            sample_pending=stored["sample_pending"],
            sample_pending_transactions=stored["sample_pending_transactions"],
            has_remainder=stored["has_remainder"],
            rock_result=stored["rock_result"],
            batch_size=stored["batch_size"],
            sample_method=stored["sample_method"],
        )
        state.label_chunks = list(stored["label_chunks"])
        state.labeled_indices = list(stored["labeled_indices"])
        state.offsets = list(stored["offsets"])
        state.remainder_done = int(stored["remainder_done"])
        state.sample_pending_done = bool(stored["sample_pending_done"])
        return state


class RockPipeline:
    """Configurable sample/cluster/label ROCK pipeline.

    Parameters
    ----------
    n_clusters:
        Number of clusters requested from the agglomeration phase.
    theta:
        Similarity threshold.
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
        Fraction of each cluster used when labelling leftover points.
    exponent_function:
        ``f(theta)``; defaults to the paper's.
    assign_outliers:
        When ``True`` (the paper's behaviour and the default), points the
        labelling pass could not place (no neighbours in any cluster
        fraction) keep label ``-1``; when ``False`` they are force-assigned
        to the cluster with the highest raw neighbour count — with every
        count at zero that is the largest cluster — so no point is reported
        as an outlier by the labelling phase.
    engine:
        Agglomeration engine: a name registered in
        :mod:`repro.core.engines` (``"arena"``, ``"reference"``) or
        ``"auto"`` (the default), propagated to
        :class:`RockClustering` and to online sessions.
    neighbor_strategy, neighbor_block_size:
        Neighbour-backend selection (a registered backend name or
        ``"auto"``) and the blocked backend's row-block height, propagated
        to every :func:`repro.core.neighbors.compute_neighbors` call the
        pipeline makes (pre-filter, clustering, summary merge).
    labeling_strategy:
        Neighbour-counting strategy of the labelling pass, passed to
        :func:`repro.core.labeling.label_points`.
    rng:
        Random generator or seed used for sampling and labelling fractions.
    strict:
        Propagated to :class:`RockClustering`.

    Notes
    -----
    :meth:`run` builds the item-to-column index of the full data set once
    per run (:func:`repro.data.encoding.build_item_index`) and shares it
    with the vectorised neighbour and labelling phases, so the item universe
    is only scanned once regardless of how many phases need an incidence
    matrix.  :meth:`run_streaming` builds the index over the sample only —
    remainder items outside it cannot intersect the sample and are handled
    by the labeler without changing any label.  :meth:`run_sharded` builds
    one index per shard sample for the per-shard clusterings plus one over
    the pooled samples for the summary merge and the labelling pass.
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
        engine: str = DEFAULT_ENGINE,
        neighbor_strategy: str = "auto",
        neighbor_block_size: int | None = None,
        link_strategy: str = "auto",
        labeling_strategy: str = "auto",
        include_self_links: bool = True,
        rng: np.random.Generator | int | None = None,
        strict: bool = False,
    ) -> None:
        if sample_size is not None and sample_size < 1:
            raise ConfigurationError("sample_size must be positive or None")
        if min_neighbors < 0:
            raise ConfigurationError("min_neighbors must be non-negative")
        if min_cluster_size < 1:
            raise ConfigurationError("min_cluster_size must be at least 1")
        self.n_clusters = int(n_clusters)
        self.theta = float(theta)
        self.sample_size = sample_size
        self.measure = measure
        self.min_neighbors = int(min_neighbors)
        self.min_cluster_size = int(min_cluster_size)
        self.labeling_fraction = float(labeling_fraction)
        self.exponent_function = exponent_function
        self.assign_outliers = bool(assign_outliers)
        self.engine = validate_engine_name(engine)
        self.neighbor_strategy = neighbor_strategy
        self.neighbor_block_size = neighbor_block_size
        self.link_strategy = link_strategy
        self.labeling_strategy = labeling_strategy
        self.include_self_links = bool(include_self_links)
        self.rng = np.random.default_rng(rng)
        self.strict = bool(strict)
        self._online_session: IncrementalRock | None = None
        self._online_store: PersistentSession | None = None

    # ------------------------------------------------------------------ #
    def _cluster_sample(self, sample: list[frozenset], item_index: dict, timings: dict):
        """Phases 2-4 on an in-memory sample: pre-filter, cluster, prune.

        Returns ``(clustered_sample, participating, isolated, rock_result,
        kept_clusters, pruned_points)``; ``participating``/``isolated`` are
        positions in ``sample``, cluster members and ``pruned_points`` are
        positions in ``clustered_sample``.
        """
        phase_start = time.perf_counter()
        if self.min_neighbors > 0:
            graph = compute_neighbors(
                sample,
                theta=self.theta,
                measure=self.measure,
                strategy=self.neighbor_strategy,
                item_index=item_index,
                block_size=self.neighbor_block_size,
            )
            participating, isolated = partition_isolated_points(
                graph, min_neighbors=self.min_neighbors
            )
            if not participating:
                # Every sampled point is isolated: fall back to clustering all.
                participating, isolated = list(range(len(sample))), []
        else:
            participating, isolated = list(range(len(sample))), []
        clustered_sample = [sample[i] for i in participating]
        timings["neighbors"] = time.perf_counter() - phase_start

        phase_start = time.perf_counter()
        model = RockClustering(
            n_clusters=self.n_clusters,
            theta=self.theta,
            measure=self.measure,
            engine=self.engine,
            neighbor_strategy=self.neighbor_strategy,
            neighbor_block_size=self.neighbor_block_size,
            link_strategy=self.link_strategy,
            include_self_links=self.include_self_links,
            exponent_function=self.exponent_function,
            strict=self.strict,
        )
        rock_result = model.fit(clustered_sample, item_index=item_index).result_
        timings["clustering"] = time.perf_counter() - phase_start

        kept_clusters, pruned_points = drop_small_clusters(
            rock_result.clusters, self.min_cluster_size
        )
        if not kept_clusters:
            kept_clusters = [tuple(range(len(clustered_sample)))]
            pruned_points = []
        return (
            clustered_sample,
            participating,
            isolated,
            rock_result,
            kept_clusters,
            pruned_points,
        )

    # ------------------------------------------------------------------ #
    def _finalize(
        self,
        n_points: int,
        labels: np.ndarray,
        n_base_clusters: int,
        sample_indices: list[int],
        rock_result: RockResult,
        labeling_result: LabelingResult | None,
        labeled_indices: list[int] | None,
        timings: dict,
        total_start: float,
        extra_parameters: dict | None = None,
    ) -> RockPipelineResult:
        """Re-number clusters by decreasing size and assemble the result.

        ``labels`` arrive in the pre-sort label space (indices into the kept
        clusters); the final space orders clusters by decreasing size.  The
        labelling result is remapped through the same permutation so its
        labels agree 1:1 with the final ``labels`` array.
        """
        final_clusters: list[list[int]] = [[] for _ in range(n_base_clusters)]
        for index, label in enumerate(labels):
            if label >= 0:
                final_clusters[label].append(index)
        # Every base cluster holds at least its own sample members, so none
        # of the lists is empty and the sort is a permutation.
        order = sorted(
            range(n_base_clusters),
            key=lambda label: (-len(final_clusters[label]), final_clusters[label][0]),
        )
        ordered = [tuple(final_clusters[label]) for label in order]
        permutation = np.empty(n_base_clusters, dtype=int)
        permutation[np.array(order, dtype=int)] = np.arange(n_base_clusters)

        final_labels = np.full(n_points, -1, dtype=int)
        for label, members in enumerate(ordered):
            final_labels[list(members)] = label

        if labeling_result is not None:
            remapped = labeling_result.labels.copy()
            placed = remapped >= 0
            remapped[placed] = permutation[remapped[placed]]
            labeling_result = LabelingResult(
                labels=remapped,
                neighbor_counts=labeling_result.neighbor_counts[:, order],
                n_outliers=labeling_result.n_outliers,
            )

        timings["total"] = time.perf_counter() - total_start
        parameters = {
            "n_clusters": self.n_clusters,
            "theta": self.theta,
            "sample_size": self.sample_size,
            "min_neighbors": self.min_neighbors,
            "min_cluster_size": self.min_cluster_size,
            "labeling_fraction": self.labeling_fraction,
            "assign_outliers": self.assign_outliers,
            "engine": self.engine,
            "merge_counters": dict(rock_result.merge_counters),
        }
        if extra_parameters:
            parameters.update(extra_parameters)
        return RockPipelineResult(
            labels=final_labels,
            clusters=list(ordered),
            sample_indices=list(sample_indices),
            rock_result=rock_result,
            labeling_result=labeling_result,
            labeled_indices=labeled_indices,
            n_outliers=int(np.sum(final_labels == -1)),
            timings=timings,
            parameters=parameters,
        )

    # ------------------------------------------------------------------ #
    def _label_out_of_core(
        self,
        batches,
        sample_set: set,
        retained_sample: list,
        kept_clusters: list,
        item_index: dict,
        transaction_of_sample_index: dict,
        sample_pending: list,
        labels: np.ndarray,
        has_remainder: bool,
    ) -> tuple[LabelingResult | None, list[int] | None]:
        """Shared phase-5 of the out-of-core entry points.

        Labels everything outside the clustered sample through one
        :class:`StreamingLabeler`: the disk-resident remainder batch by
        batch (stream positions in ``sample_set`` are skipped), then the
        sampled-but-unclustered points in ``sample_pending`` (isolated or
        pruned, looked up in ``transaction_of_sample_index``).  ``labels``
        is filled in place at the labelled positions.

        Only the integer labels are retained across batches: keeping every
        batch's dense neighbour-count matrix would grow
        ``O(n_points * n_clusters)`` and break the bounded-memory contract,
        so the returned :class:`LabelingResult` carries an empty counts
        matrix.

        Returns
        -------
        (labeling_result, labeled_indices)
            Both ``None`` when there was nothing to label.
        """
        if not (has_remainder or sample_pending):
            return None, None
        labeler = StreamingLabeler(
            retained_sample,
            kept_clusters,
            theta=self.theta,
            measure=self.measure,
            exponent_function=self.exponent_function,
            labeling_fraction=self.labeling_fraction,
            rng=self.rng,
            strategy=self.labeling_strategy,
            item_index=item_index,
            assign_outliers=self.assign_outliers,
        )
        label_chunks: list[np.ndarray] = []
        labeled_indices: list[int] = []
        if has_remainder:
            for pending_batch, pending_positions in _pending_batches(
                batches, sample_set
            ):
                result = labeler.label_batch(pending_batch)
                labels[pending_positions] = result.labels
                labeled_indices.extend(pending_positions)
                label_chunks.append(result.labels)
        if sample_pending:
            result = labeler.label_batch(
                [transaction_of_sample_index[i] for i in sample_pending]
            )
            labels[sample_pending] = result.labels
            labeled_indices.extend(sample_pending)
            label_chunks.append(result.labels)
        labeling_result = LabelingResult(
            labels=np.concatenate(label_chunks),
            neighbor_counts=np.zeros((0, len(kept_clusters)), dtype=float),
            n_outliers=labeler.n_outliers,
        )
        return labeling_result, labeled_indices

    # ------------------------------------------------------------------ #
    def _draw_streaming_sample(
        self, batches, known_length: int | None, sample_method: str, timings: dict
    ) -> tuple[int, list[int], list[frozenset]]:
        """Phase 1 of the out-of-core entry points: draw the sample.

        Counts the source (unless its length is known), draws the sample
        indices exactly as :meth:`run` does (or via single-pass reservoir
        sampling for ``sample_method="reservoir"``) and collects the
        sampled transactions in one pass.  Returns ``(n_points,
        sample_indices, sample)`` and records the ``"sampling"`` timing.
        Raises :class:`DataValidationError` on an empty source.
        """
        phase_start = time.perf_counter()
        if sample_method == "reservoir" and self.sample_size is not None:
            sample_indices, sample, n_points = reservoir_sample(
                itertools.chain.from_iterable(batches()),
                self.sample_size,
                rng=self.rng,
            )
        else:
            if known_length is not None:
                n_points = known_length
            else:
                n_points = sum(len(batch) for batch in batches())
            if n_points and (self.sample_size is None or self.sample_size >= n_points):
                sample_indices = list(range(n_points))
            elif n_points:
                sample_indices, _ = draw_sample(
                    range(n_points), self.sample_size, rng=self.rng
                )
            else:
                sample_indices = []
            wanted = set(sample_indices)
            sample = []
            position = 0
            for batch in batches():
                for transaction in batch:
                    if position in wanted:
                        sample.append(frozenset(transaction))
                    position += 1
        if not n_points:
            raise DataValidationError("cannot cluster an empty streaming source")
        timings["sampling"] = time.perf_counter() - phase_start
        return n_points, sample_indices, sample

    # ------------------------------------------------------------------ #
    def run(self, data: Any) -> RockPipelineResult:
        """Execute the pipeline on an in-memory data set.

        Parameters
        ----------
        data:
            Transactions, a dataset object or a binary matrix — any shape
            :func:`repro.core.rock.as_transactions` accepts.

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
        total_start = time.perf_counter()
        transactions = as_transactions(data)
        n_points = len(transactions)
        timings: dict[str, float] = {}
        # One item index for the whole run; every vectorised phase shares it.
        item_index = build_item_index(transactions)

        # ---- Phase 1: sampling -------------------------------------- #
        phase_start = time.perf_counter()
        if self.sample_size is None or self.sample_size >= n_points:
            sample_indices = list(range(n_points))
            remainder_indices: list[int] = []
        else:
            sample_indices, remainder_indices = draw_sample(
                transactions, self.sample_size, rng=self.rng
            )
        sample = [transactions[i] for i in sample_indices]
        timings["sampling"] = time.perf_counter() - phase_start

        # ---- Phases 2-4: pre-filter, agglomeration, pruning ---------- #
        (
            clustered_sample,
            participating,
            isolated,
            rock_result,
            kept_clusters,
            pruned_points,
        ) = self._cluster_sample(sample, item_index, timings)

        # ---- Phase 5: labelling -------------------------------------- #
        phase_start = time.perf_counter()
        # Points needing labels: the non-sampled remainder, the isolated
        # points set aside in phase 2 and the members of pruned clusters.
        # Clustered-sample indices refer to `clustered_sample`; map back to
        # positions in the full data set.
        sample_position_of = {j: sample_indices[i] for j, i in enumerate(participating)}
        cluster_members_full = [
            tuple(sorted(sample_position_of[j] for j in members))
            for members in kept_clusters
        ]

        pending_full_indices: list[int] = []
        pending_full_indices.extend(remainder_indices)
        pending_full_indices.extend(sample_indices[i] for i in isolated)
        pending_full_indices.extend(sample_position_of[j] for j in pruned_points)
        pending_full_indices = sorted(set(pending_full_indices))

        labeling_result: LabelingResult | None = None
        labels = np.full(n_points, -1, dtype=int)
        for label, members in enumerate(cluster_members_full):
            labels[list(members)] = label

        if pending_full_indices:
            labeling_result = label_points(
                [transactions[i] for i in pending_full_indices],
                clustered_sample,
                kept_clusters,
                theta=self.theta,
                measure=self.measure,
                exponent_function=self.exponent_function,
                labeling_fraction=self.labeling_fraction,
                rng=self.rng,
                strategy=self.labeling_strategy,
                item_index=item_index,
                assign_outliers=self.assign_outliers,
            )
            labels[pending_full_indices] = labeling_result.labels
        timings["labeling"] = time.perf_counter() - phase_start

        return self._finalize(
            n_points,
            labels,
            len(cluster_members_full),
            sample_indices,
            rock_result,
            labeling_result,
            pending_full_indices if labeling_result is not None else None,
            timings,
            total_start,
        )

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
        and the labelling kernel's row-block buffer.

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
            The same result shape :meth:`run` produces, with
            ``parameters["streaming"]`` set.  ``labeling_result`` keeps only
            the per-point labels; its ``neighbor_counts`` matrix is left
            empty so result memory stays O(n) integers rather than
            O(n * n_clusters) floats.
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

        # ---- Phase 1: sampling pass(es) over the source -------------- #
        n_points, sample_indices, sample = self._draw_streaming_sample(
            batches, known_length, sample_method, timings
        )
        sample_set = set(sample_indices)

        # ---- Phases 2-4 on the in-memory sample ---------------------- #
        # The item index covers the sample only: remainder items outside it
        # cannot intersect any retained point, so labels are unaffected.
        item_index = build_item_index(sample)
        (
            clustered_sample,
            participating,
            isolated,
            rock_result,
            kept_clusters,
            pruned_points,
        ) = self._cluster_sample(sample, item_index, timings)

        sample_position_of = {j: sample_indices[i] for j, i in enumerate(participating)}
        cluster_members_full = [
            tuple(sorted(sample_position_of[j] for j in members))
            for members in kept_clusters
        ]
        labels = np.full(n_points, -1, dtype=int)
        for label, members in enumerate(cluster_members_full):
            labels[list(members)] = label

        # ---- Phase 5: batched labelling pass ------------------------- #
        phase_start = time.perf_counter()
        transaction_of_sample_index = dict(zip(sample_indices, sample))
        sample_pending = _pending_sample_positions(
            sample_indices, sample_position_of, isolated, pruned_points
        )
        has_remainder = n_points > len(sample_indices)

        labeling_result, labeled_indices = self._label_out_of_core(
            batches,
            sample_set,
            clustered_sample,
            kept_clusters,
            item_index,
            transaction_of_sample_index,
            sample_pending,
            labels,
            has_remainder,
        )
        timings["labeling"] = time.perf_counter() - phase_start

        return self._finalize(
            n_points,
            labels,
            len(cluster_members_full),
            sample_indices,
            rock_result,
            labeling_result,
            labeled_indices,
            timings,
            total_start,
            extra_parameters={
                "streaming": True,
                "batch_size": int(batch_size),
                "sample_method": sample_method,
            },
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
        :class:`~repro.errors.SnapshotConfigMismatchError`).  ``resume=True``
        with no checkpoint on disk simply runs fresh, so a crash-recovery
        loop can pass it unconditionally.

        Returns
        -------
        RockPipelineResult
            The shared result shape with ``parameters["online"]`` set.
            ``rock_result`` describes the bootstrap clustering of the
            sample; ``labeling_result`` keeps only the per-point labels
            (empty ``neighbor_counts``), like :meth:`run_streaming`.
        """
        if sample_method not in STREAMING_SAMPLE_METHODS:
            raise ConfigurationError(
                "unknown sample_method %r; expected one of %s"
                % (sample_method, ", ".join(STREAMING_SAMPLE_METHODS))
            )
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
        if resume and PersistentSession.can_resume(snapshot_dir):
            return self._resume_online(
                source,
                batch_size,
                refresh_threshold,
                sample_method,
                delimiter,
                label_prefix,
                snapshot_dir,
                snapshot_every,
            )
        total_start = time.perf_counter()
        timings: dict[str, float] = {}
        batches, known_length = _transaction_batches(
            source, batch_size, delimiter=delimiter, label_prefix=label_prefix
        )

        # ---- Phase 1: sampling pass(es) over the source -------------- #
        n_points, sample_indices, sample = self._draw_streaming_sample(
            batches, known_length, sample_method, timings
        )
        sample_set = set(sample_indices)

        # ---- Phases 2-4 on the in-memory sample ---------------------- #
        item_index = build_item_index(sample)
        (
            clustered_sample,
            participating,
            isolated,
            rock_result,
            kept_clusters,
            pruned_points,
        ) = self._cluster_sample(sample, item_index, timings)

        sample_position_of = {j: sample_indices[i] for j, i in enumerate(participating)}
        cluster_members_full = [
            tuple(sorted(sample_position_of[j] for j in members))
            for members in kept_clusters
        ]
        labels = np.full(n_points, -1, dtype=int)
        for label, members in enumerate(cluster_members_full):
            labels[list(members)] = label

        # ---- Phase 5: bootstrap the live session, ingest the rest ---- #
        phase_start = time.perf_counter()
        session = IncrementalRock(
            n_clusters=self.n_clusters,
            theta=self.theta,
            measure=self.measure,
            exponent_function=self.exponent_function,
            labeling_fraction=self.labeling_fraction,
            labeling_strategy=self.labeling_strategy,
            assign_outliers=self.assign_outliers,
            neighbor_strategy=self.neighbor_strategy,
            neighbor_block_size=self.neighbor_block_size,
            link_strategy=self.link_strategy,
            include_self_links=self.include_self_links,
            refresh_threshold=refresh_threshold,
            engine=self.engine,
            rng=self.rng,
        )
        session.bootstrap(clustered_sample, kept_clusters, item_index=item_index)
        self._online_session = session

        transaction_of_sample_index = dict(zip(sample_indices, sample))
        sample_pending = _pending_sample_positions(
            sample_indices, sample_position_of, isolated, pruned_points
        )
        state = _OnlineIngestState(
            n_points=n_points,
            labels=labels,
            space_sizes=[len(kept_clusters)],
            sample_indices=sample_indices,
            sample_pending=sample_pending,
            sample_pending_transactions=[
                transaction_of_sample_index[i] for i in sample_pending
            ],
            has_remainder=n_points > len(sample_indices),
            rock_result=rock_result,
            batch_size=int(batch_size),
            sample_method=sample_method,
        )
        store = None
        if snapshot_dir is not None:
            store = PersistentSession.create(
                snapshot_dir,
                session,
                snapshot_every=snapshot_every,
                extra=state.to_extra(),
            )
        self._online_store = store

        self._online_ingest_loop(session, store, state, batches)
        timings["labeling"] = time.perf_counter() - phase_start

        return self._finalize_online(
            state, session, refresh_threshold, timings, total_start
        )

    # ------------------------------------------------------------------ #
    def _resume_online(
        self,
        source,
        batch_size: int,
        refresh_threshold: float | None,
        sample_method: str,
        delimiter: str | None,
        label_prefix: str | None,
        snapshot_dir,
        snapshot_every: int | None,
    ) -> RockPipelineResult:
        """Continue an interrupted :meth:`run_online` from its snapshots.

        Recovery = restore the last durable checkpoint (session + label
        bookkeeping), replay the WAL tail through the same bookkeeping, and
        push only the still-pending batches of ``source`` — no re-sampling,
        no re-clustering, no RNG divergence.
        """
        total_start = time.perf_counter()
        timings: dict[str, float] = {}
        batches, _known_length = _transaction_batches(
            source, batch_size, delimiter=delimiter, label_prefix=label_prefix
        )
        store = PersistentSession.resume(
            snapshot_dir,
            snapshot_every=snapshot_every,
            measure=self.measure,
            exponent_function=self.exponent_function,
            expected_config=self.online_expected_config(refresh_threshold),
            defer_replay=True,
        )
        session = store.session
        state = _OnlineIngestState.from_extra(store.extra)
        if state.batch_size != int(batch_size) or state.sample_method != sample_method:
            raise SnapshotConfigMismatchError(
                "checkpoint in %s was written with batch_size=%d, "
                "sample_method=%r but the resume requested batch_size=%d, "
                "sample_method=%r — the stream split must match for the "
                "resumed labels to stay identical"
                % (
                    snapshot_dir,
                    state.batch_size,
                    state.sample_method,
                    int(batch_size),
                    sample_method,
                )
            )
        phase_start = time.perf_counter()
        store.replay_pending(lambda payload: state.apply(session, payload))
        self._online_session = session
        self._online_store = store

        self._online_ingest_loop(session, store, state, batches)
        timings["labeling"] = time.perf_counter() - phase_start
        return self._finalize_online(
            state, session, refresh_threshold, timings, total_start
        )

    def online_expected_config(self, refresh_threshold: float | None = None) -> dict:
        """The session config a checkpoint must match to be resumed here.

        Public because the serving front end (``repro serve --resume``)
        guards its own :meth:`~repro.serve.server.ReproServer.resume` with
        the same config the pipeline would enforce — resuming a served
        session under different parameters would silently break the
        served ≡ ``run_online`` contract.
        """
        measure = self.measure if self.measure is not None else JaccardSimilarity()
        return {
            "n_clusters": self.n_clusters,
            "theta": self.theta,
            "measure": getattr(measure, "name", type(measure).__name__),
            "labeling_fraction": self.labeling_fraction,
            "labeling_strategy": self.labeling_strategy,
            "assign_outliers": self.assign_outliers,
            "neighbor_strategy": self.neighbor_strategy,
            "neighbor_block_size": self.neighbor_block_size,
            "link_strategy": self.link_strategy,
            "include_self_links": self.include_self_links,
            "refresh_threshold": refresh_threshold,
            "engine": self.engine,
        }

    def _online_ingest_loop(self, session, store, state, batches) -> None:
        """Drive every still-pending batch through the live session.

        Shared by the fresh and resumed paths: the progress counters in
        ``state`` say which pending batches a restored checkpoint already
        absorbed; each remaining payload is WAL-logged *before* the splice
        and a checkpoint is written every ``snapshot_every`` applied batches
        plus once at the end of the loop.
        """

        def ingest_payload(payload):
            if store is not None:
                store.log(payload)
            state.apply(session, payload)
            if store is not None:
                store.batch_applied(state.to_extra)

        if state.has_remainder:
            sample_set = set(state.sample_indices)
            skip = state.remainder_done
            for index, (pending_batch, pending_positions) in enumerate(
                _pending_batches(batches, sample_set)
            ):
                if index < skip:
                    continue
                ingest_payload(
                    (pending_batch, pending_positions, state.KIND_REMAINDER)
                )
        if state.sample_pending and not state.sample_pending_done:
            ingest_payload(
                (
                    state.sample_pending_transactions,
                    state.sample_pending,
                    state.KIND_SAMPLE,
                )
            )
        if store is not None:
            store.close(extra=state.to_extra())

    def _finalize_online(
        self,
        state: _OnlineIngestState,
        session: IncrementalRock,
        refresh_threshold: float | None,
        timings: dict,
        total_start: float,
    ) -> RockPipelineResult:
        """Assemble the result of an online run from its ingest state."""
        labels = state.labels
        n_points = state.n_points
        if state.label_chunks:
            labeling_labels = np.concatenate(state.label_chunks)
            labeled_indices = list(state.labeled_indices)
        else:
            labeling_labels, labeled_indices = None, None

        # ---- Final assembly across labelling spaces ------------------ #
        # The ordinary _finalize assumes one label space with no empty
        # clusters; refreshed runs can leave globally-unused labels (a
        # refreshed cluster no batch point landed in), so group and
        # renumber by decreasing size (ties: first member) here — fully
        # vectorised, since this walks the whole out-of-core stream.
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

        labeling_result = None
        if labeling_labels is not None:
            remapped = labeling_labels.copy()
            placed = remapped >= 0
            remapped[placed] = new_label_of[labeling_labels[placed]]
            labeling_result = LabelingResult(
                labels=remapped,
                neighbor_counts=np.zeros((0, len(clusters)), dtype=float),
                n_outliers=int(np.sum(remapped == -1)),
            )

        timings["total"] = time.perf_counter() - total_start
        parameters = {
            "n_clusters": self.n_clusters,
            "theta": self.theta,
            "sample_size": self.sample_size,
            "min_neighbors": self.min_neighbors,
            "min_cluster_size": self.min_cluster_size,
            "labeling_fraction": self.labeling_fraction,
            "assign_outliers": self.assign_outliers,
            "engine": self.engine,
            "merge_counters": dict(state.rock_result.merge_counters),
            "online": True,
            "batch_size": state.batch_size,
            "sample_method": state.sample_method,
            "refresh_threshold": refresh_threshold,
            "n_refreshes": session.n_refreshes,
            "refresh_merge_counters": dict(session.last_refresh_counters),
        }
        return RockPipelineResult(
            labels=final_labels,
            clusters=clusters,
            sample_indices=list(state.sample_indices),
            rock_result=state.rock_result,
            labeling_result=labeling_result,
            labeled_indices=labeled_indices,
            n_outliers=int(np.sum(final_labels == -1)),
            timings=timings,
            parameters=parameters,
        )

    # ------------------------------------------------------------------ #
    def run_sharded(
        self,
        source: Any,
        n_shards: int,
        batch_size: int = 1024,
        shard_workers: int | None = None,
        shard_strategy: str = DEFAULT_SHARD_STRATEGY,
        shard_executor: str = DEFAULT_SHARD_EXECUTOR,
        shard_retries: int = 1,
        merge_fan_in: int | None = None,
        representatives_per_cluster: int | str = 16,
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
        largest single-shard clustering state, and one batch.

        Parameters
        ----------
        source:
            Any source :meth:`run_streaming` accepts (a transaction file
            path, a zero-argument iterator factory, or an in-memory
            collection); it is iterated several times (counting, sampling
            and labelling passes).
        n_shards:
            Number of clustering shards.  ``1`` takes the streaming code
            path unchanged, so the labels are bit-identical to
            :meth:`run_streaming` on the same data and seed.
        batch_size:
            Transactions per labelling batch (see :meth:`run_streaming`).
        shard_workers:
            Maximum number of workers clustering shards concurrently;
            ``None`` or ``1`` clusters serially on the thread executor.
            Shard clustering consumes no shared random state, so the
            worker count never changes the result.
        shard_strategy:
            Partitioning strategy — ``"round-robin"`` (default),
            ``"contiguous"`` or ``"hash"``; see :class:`ShardPlan`.
        shard_executor:
            ``"thread"`` (default), ``"process"`` or ``"auto"`` — see
            :func:`repro.core.sharding.resolve_shard_executor`.  The
            process executor escapes the GIL by clustering shards in
            spawn-based worker processes that attach each shard's
            incidence from shared memory; its labels are bit-identical to
            the thread executor's on the same data and seed.
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
            contributes to the summary-merge link estimate, or
            ``"auto"`` for a per-summary adaptive budget
            (:func:`repro.core.sharding.adaptive_representative_bounds`).
        delimiter, label_prefix:
            Parse options for a file-path ``source`` (see
            :meth:`run_streaming`).

        Returns
        -------
        RockPipelineResult
            The shared result shape, with ``parameters["sharded"]`` set and
            ``timings`` extended by ``"shard_clustering"`` and ``"merge"``
            (multi-shard runs only).  ``rock_result`` describes the merged
            clustering over the pooled shard samples; its ``criterion`` is
            evaluated on the summary representatives, not the full pooled
            link matrix.

        Raises
        ------
        ConfigurationError
            For a non-positive ``n_shards``/``shard_workers``, an unknown
            ``shard_strategy``, or invalid streaming options.
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
        worker_config = ShardWorkerConfig.from_pipeline(self)
        # Resolved here (not just in cluster_shards) so an unknown name
        # fails fast on every path and the resolved choice is reportable.
        resolved_executor = resolve_shard_executor(
            shard_executor, shard_workers, worker_config
        )
        if shard_retries < 0:
            raise ConfigurationError(
                "shard_retries must be non-negative, got %r" % shard_retries
            )
        if n_shards == 1:
            # One shard degenerates to the streaming pipeline; reusing that
            # code path verbatim is what makes the 1-shard determinism
            # contract (bit-identical labels) hold by construction.
            result = self.run_streaming(
                source,
                batch_size=batch_size,
                delimiter=delimiter,
                label_prefix=label_prefix,
            )
            result.parameters.update(
                {
                    "sharded": True,
                    "n_shards": 1,
                    "shard_strategy": shard_strategy,
                    "shard_workers": shard_workers,
                    "shard_executor": resolved_executor,
                    "shard_retries": int(shard_retries),
                    "merge_fan_in": merge_fan_in,
                }
            )
            return result

        total_start = time.perf_counter()
        timings: dict[str, float] = {}
        batches, known_length = _transaction_batches(
            source, batch_size, delimiter=delimiter, label_prefix=label_prefix
        )

        # ---- Phase 1: plan shards and draw every shard's sample ------ #
        phase_start = time.perf_counter()
        if shard_strategy == HASH_SHARD_STRATEGY:
            plan = ShardPlan(n_shards, shard_strategy)
            shard_sizes, n_points = count_shard_sizes(batches, plan)
            if not n_points:
                raise DataValidationError(
                    "cannot cluster an empty streaming source"
                )
        else:
            if known_length is not None:
                n_points = known_length
            else:
                n_points = sum(len(batch) for batch in batches())
            if not n_points:
                raise DataValidationError(
                    "cannot cluster an empty streaming source"
                )
            plan = ShardPlan(n_shards, shard_strategy, n_points=n_points)
            shard_sizes = plan.positional_shard_sizes()

        if self.sample_size is None or self.sample_size >= n_points:
            sample_sizes = list(shard_sizes)
        else:
            sample_sizes = allocate_sample_sizes(shard_sizes, self.sample_size)

        # One seed per shard plus one for the representative selection,
        # all drawn from the pipeline generator in a fixed order: the same
        # pipeline seed reproduces the same multi-shard run regardless of
        # worker count or completion order.
        seeds = self.rng.integers(0, 2**63 - 1, size=n_shards + 1)
        shard_rngs = [np.random.default_rng(int(seed)) for seed in seeds[:-1]]
        merge_rng = np.random.default_rng(int(seeds[-1]))

        shard_samples = build_shard_samples(
            batches, plan, shard_sizes, sample_sizes, shard_rngs
        )
        sample_indices = sorted(
            position for _, positions in shard_samples for position in positions
        )
        sample_set = set(sample_indices)
        transaction_of_sample_index = {
            position: transaction
            for sample, positions in shard_samples
            for position, transaction in zip(positions, sample)
        }
        timings["sampling"] = time.perf_counter() - phase_start

        # ---- Phases 2-4 per shard, then the summary merge ------------ #
        phase_start = time.perf_counter()

        def cluster_one(shard_id, sample, positions) -> ShardClusterResult:
            shard_timings: dict[str, float] = {}
            (
                clustered_sample,
                participating,
                isolated,
                _shard_rock_result,
                kept_clusters,
                pruned_points,
            ) = self._cluster_sample(sample, build_item_index(sample), shard_timings)
            clustered_positions = [positions[i] for i in participating]
            return ShardClusterResult(
                shard_id=shard_id,
                clustered_sample=clustered_sample,
                clustered_positions=clustered_positions,
                clusters=list(kept_clusters),
                isolated_positions=[positions[i] for i in isolated],
                pruned_positions=[clustered_positions[j] for j in pruned_points],
                timings=shard_timings,
            )

        shard_results = cluster_shards(
            shard_samples,
            cluster_one,
            shard_workers,
            retries=shard_retries,
            strict=self.strict,
            executor=resolved_executor,
            worker_config=worker_config,
        )
        timings["neighbors"] = sum(
            result.timings.get("neighbors", 0.0) for result in shard_results
        )
        timings["shard_clustering"] = time.perf_counter() - phase_start

        merge_start = time.perf_counter()
        pooled_sample: list[frozenset] = []
        pooled_positions: list[int] = []
        summaries: list[tuple] = []
        summary_groups: list[list[int]] = []
        for result in shard_results:
            offset = len(pooled_sample)
            first_summary = len(summaries)
            pooled_sample.extend(result.clustered_sample)
            pooled_positions.extend(result.clustered_positions)
            summaries.extend(
                tuple(offset + member for member in cluster)
                for cluster in result.clusters
            )
            # One level-0 unit per surviving shard: the hierarchical merge
            # combines shard groups, then groups of groups.
            summary_groups.append(list(range(first_summary, len(summaries))))
        item_index = build_item_index(pooled_sample)
        merge = merge_shard_summaries(
            pooled_sample,
            summaries,
            self.n_clusters,
            self.theta,
            measure=self.measure,
            exponent_function=self.exponent_function,
            representatives_per_cluster=representatives_per_cluster,
            rng=merge_rng,
            neighbor_strategy=self.neighbor_strategy,
            neighbor_block_size=self.neighbor_block_size,
            link_strategy=self.link_strategy,
            include_self_links=self.include_self_links,
            item_index=item_index,
            fan_in=merge_fan_in,
            summary_groups=summary_groups if merge_fan_in is not None else None,
        )
        if merge.stopped_early and self.strict:
            raise InsufficientLinksError(
                "summary merge: no cross-summary links remain with %d global "
                "clusters (requested %d); lower theta, reduce n_clusters or "
                "use fewer shards" % (len(merge.groups), self.n_clusters)
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
        # RockResult shape the in-memory entry points produce.
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
            theta=self.theta,
            stopped_early=merge.stopped_early,
            elapsed_seconds=timings["merge"],
        )

        # ---- Phase 5: batched labelling pass ------------------------- #
        phase_start = time.perf_counter()
        cluster_members_full = [
            tuple(sorted(pooled_positions[i] for i in members))
            for members in kept_clusters
        ]
        labels = np.full(n_points, -1, dtype=int)
        for label, members in enumerate(cluster_members_full):
            labels[list(members)] = label

        sample_pending: list[int] = []
        for result in shard_results:
            sample_pending.extend(result.isolated_positions)
            sample_pending.extend(result.pruned_positions)
        sample_pending = sorted(set(sample_pending))
        has_remainder = n_points > len(sample_indices)

        labeling_result, labeled_indices = self._label_out_of_core(
            batches,
            sample_set,
            pooled_sample,
            kept_clusters,
            item_index,
            transaction_of_sample_index,
            sample_pending,
            labels,
            has_remainder,
        )
        timings["labeling"] = time.perf_counter() - phase_start

        return self._finalize(
            n_points,
            labels,
            len(cluster_members_full),
            sample_indices,
            rock_result,
            labeling_result,
            labeled_indices,
            timings,
            total_start,
            extra_parameters={
                "sharded": True,
                "n_shards": n_shards,
                "shard_strategy": shard_strategy,
                "shard_workers": shard_workers,
                "shard_executor": resolved_executor,
                "shard_retries": int(shard_retries),
                "merge_fan_in": merge_fan_in,
                "merge_levels": merge.levels,
                "batch_size": int(batch_size),
                "representatives_per_cluster": (
                    representatives_per_cluster
                    if isinstance(representatives_per_cluster, str)
                    else int(representatives_per_cluster)
                ),
                "skipped_shards": list(shard_results.skipped_shards),
            },
        )


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
