"""Spawn-safe process worker for the sharded clustering phase.

:func:`cluster_shards` with ``executor="process"`` cannot ship the
pipeline's ``cluster_one`` closure across a process boundary, so the
process path runs this module instead: a picklable
:class:`ShardWorkerConfig` carries the clustering parameters, the shard
sample crosses as a :class:`repro.data.encoding.SharedIncidenceRef`
(workers attach the published incidence read-only and decode it back to
integer-coded transactions), and the worker rebuilds a
:class:`~repro.core.pipeline.RockPipeline` to run the *same*
``_cluster_sample`` phases the thread path runs.

Clustering the integer-coded rows with the identity item index is
bit-identical to clustering the original item sets: the parent encoded
the shard sample through :func:`repro.data.encoding.build_item_index`
(repr-sorted columns), every similarity measure depends only on set
sizes, and every agglomeration tie-break is row-index based — so the
executor choice never changes a label (enforced by the equivalence
tests).

Everything here must stay importable from a fresh ``spawn`` interpreter:
no closures, no module-level pipeline imports (broken cycles aside, a
worker should not pay for the full pipeline import before it knows it
has work).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.goodness import ExponentFunction
from repro.data.encoding import SharedIncidenceRef, attach_shared_transactions
from repro.persistence.failpoints import InjectedFaultError
from repro.similarity.base import SetSimilarity


@dataclass(frozen=True)
class ShardWorkerConfig:
    """Picklable clustering configuration shipped once per process task.

    Mirrors the :class:`~repro.core.pipeline.RockPipeline` fields that
    the per-shard phases (pre-filter, cluster, prune) consume; labelling
    and sampling fields stay in the parent.  Every field must be
    picklable — a custom ``measure`` or ``exponent_function`` that is not
    (e.g. a lambda) requires the thread executor.
    """

    n_clusters: int
    theta: float
    measure: SetSimilarity | None
    min_neighbors: int
    min_cluster_size: int
    exponent_function: ExponentFunction | None
    engine: str
    neighbor_strategy: str
    neighbor_block_size: int | None
    link_strategy: str
    include_self_links: bool
    strict: bool

    @classmethod
    def from_pipeline(cls, pipeline) -> ShardWorkerConfig:
        """Capture the shard-relevant fields of a pipeline instance."""
        return cls(
            n_clusters=pipeline.n_clusters,
            theta=pipeline.theta,
            measure=pipeline.measure,
            min_neighbors=pipeline.min_neighbors,
            min_cluster_size=pipeline.min_cluster_size,
            exponent_function=pipeline.exponent_function,
            engine=pipeline.engine,
            neighbor_strategy=pipeline.neighbor_strategy,
            neighbor_block_size=pipeline.neighbor_block_size,
            link_strategy=pipeline.link_strategy,
            include_self_links=pipeline.include_self_links,
            strict=pipeline.strict,
        )

    def build_pipeline(self):
        """Rebuild a pipeline running the exact per-shard phases.

        Imported lazily: ``repro.core.pipeline`` imports the sharding
        layer, which names this module, so a module-level import would
        cycle — and a spawn child should not import the pipeline stack
        until it actually has a task.
        """
        from repro.core.pipeline import RockPipeline

        return RockPipeline(
            n_clusters=self.n_clusters,
            theta=self.theta,
            measure=self.measure,
            min_neighbors=self.min_neighbors,
            min_cluster_size=self.min_cluster_size,
            exponent_function=self.exponent_function,
            engine=self.engine,
            neighbor_strategy=self.neighbor_strategy,
            neighbor_block_size=self.neighbor_block_size,
            link_strategy=self.link_strategy,
            include_self_links=self.include_self_links,
            strict=self.strict,
        )


@dataclass(frozen=True)
class ShardTask:
    """One shard's process-executor work item.

    ``inject`` names a failpoint the parent consumed for this attempt;
    the worker re-raises it *inside* the child so fault-injection tests
    exercise the real cross-process error channel while the ``*N``
    budget semantics stay independent of the worker/process count.
    """

    shard_id: int
    ref: SharedIncidenceRef
    inject: str | None = None


@dataclass
class CompactShardResult:
    """Index-level outcome of one shard, cheap to pickle back.

    All indices refer to the shard sample the parent already holds
    (``participating``/``isolated`` into the sample, cluster members and
    ``pruned_points`` into the participating subsample), so the parent
    reconstitutes the full :class:`~repro.core.sharding.ShardClusterResult`
    without any transaction contents crossing the pipe.
    """

    shard_id: int
    participating: list[int]
    isolated: list[int]
    clusters: list[tuple]
    pruned_points: list[int]
    timings: dict[str, float] = field(default_factory=dict)


def bootstrap_probe() -> None:
    """No-op task that returns once a spawned worker has bootstrapped.

    The process executor runs it on its first pool before any shard task,
    so a pool that breaks under it is told apart from a worker that crashed
    on a shard.
    """


def cluster_shard_task(
    config: ShardWorkerConfig, task: ShardTask
) -> CompactShardResult:
    """Run the per-shard clustering phases in the current process.

    The module-level entry point submitted to the process pool: attach
    the published incidence, decode the integer-coded sample, run the
    pipeline's ``_cluster_sample`` and return the compact index-level
    result.
    """
    if task.inject is not None:
        raise InjectedFaultError(task.inject)
    sample = attach_shared_transactions(task.ref)
    identity_index = {code: code for code in range(task.ref.n_items)}
    timings: dict[str, float] = {}
    (
        _clustered_sample,
        participating,
        isolated,
        _rock_result,
        kept_clusters,
        pruned_points,
    ) = config.build_pipeline()._cluster_sample(sample, identity_index, timings)
    return CompactShardResult(
        shard_id=task.shard_id,
        participating=[int(i) for i in participating],
        isolated=[int(i) for i in isolated],
        clusters=[tuple(int(m) for m in members) for members in kept_clusters],
        pruned_points=[int(j) for j in pruned_points],
        timings=timings,
    )
