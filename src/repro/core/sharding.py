"""Sharded clustering: partition, cluster per shard, merge cluster summaries.

The streaming pipeline (PR 2) made *labelling* out-of-core, but the
clustering phase itself was still bounded by one in-memory sample.  This
module removes that bound in the sampled-agglomeration spirit of the source
paper: the transaction source is partitioned into shards, every shard draws
and clusters its own sample (optionally in parallel),
and the per-shard clusterings are reconciled by a **summary-merge
agglomeration** — a weighted greedy merge over per-shard cluster summaries
whose link counts are recomputed on a representative subset of each
cluster's members.  The merged clustering then labels the full source
through the existing :class:`repro.core.labeling.StreamingLabeler`.

Three pieces compose the subsystem:

* :class:`ShardPlan` — a deterministic assignment of stream positions (or
  transaction contents) to shards: ``"round-robin"`` (position modulo
  ``n_shards``), ``"contiguous"`` (equal-width position blocks) or
  ``"hash"`` (a stable content hash, so identical baskets always land in
  the same shard regardless of position).
* :func:`cluster_shards` — runs one picklable per-shard task over every
  shard sample on a :class:`~concurrent.futures.ThreadPoolExecutor` or
  (``executor="process"``) a spawn-based
  :class:`~concurrent.futures.ProcessPoolExecutor`, with retries.  Both
  pools run the same task on the same items through the same wave loop;
  the shard sample travels inside the pickled task.  Results are returned
  in shard order whatever the completion order, and shard clustering is
  deterministic (no random state is consumed inside workers), so neither
  the worker count nor the executor choice ever changes the outcome.
* :func:`merge_shard_summaries` — the summary-merge agglomeration.  Each
  per-shard cluster becomes one meta-point whose size is the *full* shard
  cluster size and whose link mass towards other meta-points is estimated
  from up to ``representatives_per_cluster`` member transactions: the
  representative link matrix is computed with the ordinary
  neighbour/link machinery, each representative carries weight
  ``cluster_size / n_representatives``, and the estimated cross-summary
  link count is the weight-scaled sum over representative pairs.  The
  summaries then enter the arena engine as weighted starting clusters:
  it repeatedly merges the pair with the highest paper goodness
  ``g(C_i, C_j)`` (true summary sizes in the normaliser) until the
  requested number of global clusters remains or no positively-linked
  pair is left.  With ``fan_in`` set, the merge is
  *hierarchical* in the map-reduce aggregation shape: units of at most
  ``fan_in`` shard groups are flat-merged first, the merged groups become
  the units of the next level, and so on until one final flat merge
  produces the global clusters — so no single agglomeration ever sees
  more than ``fan_in`` units' worth of summaries at once.

The pipeline entry point is
:meth:`repro.core.pipeline.RockPipeline.run_sharded`, which wires sharding
into sampling, labelling, the CLI (``--shards`` / ``--shard-workers``) and
the result shape shared with :meth:`~repro.core.pipeline.RockPipeline.run`.

Determinism
-----------
* With ``n_shards=1`` the whole sample is the one shard and the pipeline's
  phase driver runs exactly the phases of
  :meth:`~repro.core.pipeline.RockPipeline.run_streaming`, so the labels
  are bit-identical to it on the same data and seed (enforced by the test
  suite).
* Multi-shard runs are seed-reproducible: per-shard sample draws and the
  representative selection derive from the pipeline generator in a fixed
  order, shard workers never touch random state (thread, process or
  serial — the executor choice is invisible to the labels), and every tie
  in the summary merge breaks by meta-point id.  A hierarchical merge
  consumes the same generator in deterministic level order, and a
  ``fan_in`` at or above the number of units degenerates to the flat
  merge bit-identically.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np
from scipy import sparse

from repro.core.engine_arena import arena_agglomerate
from repro.core.goodness import (
    ExponentFunction,
    criterion_function,
    default_expected_links_exponent,
)
from repro.core.links import links_from_neighbors
from repro.core.neighbors import compute_neighbors
from repro.errors import ConfigurationError, DataValidationError, ShardExecutionError
from repro.persistence import failpoints
from repro.similarity.base import SetSimilarity
from repro.types import MergeStep

#: Partitioning strategies accepted by :class:`ShardPlan`.
SHARD_STRATEGIES = ("round-robin", "contiguous", "hash")

#: Strategy used when none is requested; the CLI and
#: :meth:`repro.core.pipeline.RockPipeline.run_sharded` default to this
#: constant rather than repeating the literal.
DEFAULT_SHARD_STRATEGY = SHARD_STRATEGIES[0]

#: The content-hash strategy; exported so layers above can detect it
#: (hash partitioning needs a counting pass over the stream) without
#: spelling the registry name as a drifting literal (REG001).
HASH_SHARD_STRATEGY = SHARD_STRATEGIES[2]

#: Shard executors accepted by :func:`cluster_shards` (a REG001 name
#: registry — layers above import these constants instead of spelling
#: the names).  They differ only in the pool class: ``"thread"`` shares
#: the interpreter (cheap to start, GIL-bound); ``"process"`` starts
#: spawn-based interpreters (about 0.6 s from pool start to a worker's
#: first answer on 2 CPUs; escapes the GIL).
SHARD_EXECUTORS = ("thread", "process")

#: Executor used when none is requested.
DEFAULT_SHARD_EXECUTOR = SHARD_EXECUTORS[0]

#: The process executor; exported for the same REG001 reason as
#: :data:`HASH_SHARD_STRATEGY`.
PROCESS_SHARD_EXECUTOR = SHARD_EXECUTORS[1]


def resolve_shard_executor(executor: str) -> str:
    """Validate a shard executor name; returns it unchanged.

    Raises
    ------
    ConfigurationError
        For a name outside :data:`SHARD_EXECUTORS`.
    """
    if executor not in SHARD_EXECUTORS:
        raise ConfigurationError(
            "unknown shard executor %r; expected one of %s"
            % (executor, ", ".join(SHARD_EXECUTORS))
        )
    return executor


def validate_shard_workers(shard_workers: int | None) -> int:
    """The pool size both executors use: ``None`` means 1 (serial).

    Raises
    ------
    ConfigurationError
        For a worker count below 1.
    """
    if shard_workers is None:
        return 1
    if int(shard_workers) < 1:
        raise ConfigurationError(
            "shard_workers must be positive or None, got %r" % shard_workers
        )
    return int(shard_workers)


def stable_shard_hash(transaction) -> int:
    """Deterministic content hash of a transaction (process-independent).

    Python's built-in ``hash`` is salted per process for strings, so it
    cannot define a reproducible shard assignment.  This helper hashes the
    sorted ``repr`` of the items through BLAKE2b instead: the same item set
    maps to the same 64-bit integer in every process and on every run.

    Parameters
    ----------
    transaction:
        Any iterable of hashable items.

    Returns
    -------
    int
        An unsigned 64-bit hash of the item set.
    """
    canonical = "\x1f".join(sorted(repr(item) for item in transaction))
    digest = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic assignment of a transaction stream to shards.

    Parameters
    ----------
    n_shards:
        Number of shards; must be positive.
    strategy:
        ``"round-robin"`` (default) assigns stream position ``p`` to shard
        ``p % n_shards``; ``"contiguous"`` splits positions into
        ``n_shards`` equal-width blocks (requires ``n_points``); ``"hash"``
        assigns by :func:`stable_shard_hash` of the transaction contents,
        so duplicate baskets always share a shard.
    n_points:
        Total stream length; required by the ``"contiguous"`` strategy
        (block boundaries depend on it) and ignored otherwise.

    Raises
    ------
    ConfigurationError
        For a non-positive ``n_shards``, an unknown ``strategy``, or a
        contiguous plan without ``n_points``.
    """

    n_shards: int
    strategy: str = "round-robin"
    n_points: int | None = None

    def __post_init__(self) -> None:
        if int(self.n_shards) < 1:
            raise ConfigurationError(
                "n_shards must be at least 1, got %r" % self.n_shards
            )
        if self.strategy not in SHARD_STRATEGIES:
            raise ConfigurationError(
                "unknown shard strategy %r; expected one of %s"
                % (self.strategy, ", ".join(SHARD_STRATEGIES))
            )
        if self.strategy == "contiguous" and (
            self.n_points is None or self.n_points < 1
        ):
            raise ConfigurationError(
                "the contiguous strategy requires a positive n_points "
                "(block boundaries depend on the stream length)"
            )

    def shard_of(self, position: int, transaction=None) -> int:
        """Shard id of the transaction at stream ``position``.

        ``transaction`` is only consulted by the ``"hash"`` strategy; the
        positional strategies ignore it, so counting passes that do not
        hold transaction contents may pass ``None``.
        """
        if self.strategy == "round-robin":
            return position % self.n_shards
        if self.strategy == "contiguous":
            if position >= self.n_points:
                raise ConfigurationError(
                    "position %d outside the planned stream of %d points"
                    % (position, self.n_points)
                )
            return (position * self.n_shards) // self.n_points
        return stable_shard_hash(transaction) % self.n_shards

    def positional_shard_sizes(self) -> list[int] | None:
        """Shard sizes computable from ``n_points`` alone, else ``None``.

        Round-robin and contiguous assignments depend only on position, so
        their shard sizes follow arithmetically from the stream length; the
        hash strategy needs a counting pass over the contents and returns
        ``None`` here.
        """
        if self.n_points is None or self.strategy == "hash":
            return None
        if self.strategy == "round-robin":
            base, extra = divmod(self.n_points, self.n_shards)
            return [base + (1 if shard < extra else 0) for shard in range(self.n_shards)]
        sizes = [0] * self.n_shards
        assignments = np.floor_divide(
            np.arange(self.n_points, dtype=np.int64) * self.n_shards, self.n_points
        )
        for shard, count in zip(*np.unique(assignments, return_counts=True)):
            sizes[int(shard)] = int(count)
        return sizes


def allocate_sample_sizes(shard_sizes: Sequence[int], sample_size: int) -> list[int]:
    """Split a global sample budget across shards, proportionally to size.

    Largest-remainder apportionment: every non-empty shard receives at
    least one sample point, no shard receives more points than it holds,
    and the total equals ``min(sample_size, sum(shard_sizes))`` — except
    when the budget is smaller than the number of non-empty shards, where
    the one-point floor wins and the total is the non-empty shard count
    instead (every shard must hold something to cluster; a
    ``RuntimeWarning`` reports the overrun so a caller who meant the
    budget literally can lower ``n_shards`` instead).  Ties in the
    fractional remainders break by shard id, so the allocation is
    deterministic.

    Parameters
    ----------
    shard_sizes:
        Number of transactions per shard (zeros allowed).
    sample_size:
        Total number of points to sample across all shards.

    Returns
    -------
    list[int]
        Per-shard sample sizes, aligned with ``shard_sizes``.
    """
    if sample_size < 1:
        raise ConfigurationError(
            "sample_size must be positive, got %r" % sample_size
        )
    total = sum(shard_sizes)
    budget = min(sample_size, total)
    quotas = [
        (budget * size / total) if total else 0.0 for size in shard_sizes
    ]
    allocation = [
        min(size, max(1, int(quota))) if size else 0
        for size, quota in zip(shard_sizes, quotas)
    ]
    # Largest-remainder top-up (or trim) towards the exact budget.
    def _grow_order() -> list[int]:
        return sorted(
            range(len(allocation)),
            key=lambda s: (-(quotas[s] - allocation[s]), s),
        )

    while sum(allocation) < budget:
        for shard in _grow_order():
            if allocation[shard] < shard_sizes[shard]:
                allocation[shard] += 1
                break
        else:  # pragma: no cover - budget <= total guarantees capacity
            break
    while sum(allocation) > budget:
        for shard in sorted(
            range(len(allocation)),
            key=lambda s: (-(allocation[s] - quotas[s]), s),
        ):
            if allocation[shard] > 1:
                allocation[shard] -= 1
                break
        else:
            break
    allocated = sum(allocation)
    if allocated > budget:
        # The one-point floor bound: more non-empty shards than budget.
        warnings.warn(
            "sample budget %d is below the %d non-empty shards; allocating "
            "%d points (one per non-empty shard) instead — every shard "
            "must contribute at least one sample point to cluster"
            % (budget, sum(1 for size in shard_sizes if size), allocated),
            RuntimeWarning,
            stacklevel=2,
        )
    return allocation


@dataclass
class ShardClusterResult:
    """Outcome of clustering one shard's sample.

    Attributes
    ----------
    shard_id:
        Index of the shard within the plan.
    clustered_sample:
        Item sets of the shard sample points that participated in the
        agglomeration (isolated points filtered out).
    clustered_positions:
        Global stream position of each ``clustered_sample`` entry.
    clusters:
        Kept clusters after per-shard pruning, as tuples of indices into
        ``clustered_sample``.
    isolated_positions:
        Global positions of sampled points set aside by the per-shard
        outlier pre-filter (they are handed to the labelling pass).
    pruned_positions:
        Global positions of sampled points whose per-shard cluster was
        dissolved by ``min_cluster_size`` pruning.
    timings:
        Per-phase wall-clock seconds of the shard (``"neighbors"``,
        ``"clustering"``).
    """

    shard_id: int
    clustered_sample: list[frozenset]
    clustered_positions: list[int]
    clusters: list[tuple]
    isolated_positions: list[int] = field(default_factory=list)
    pruned_positions: list[int] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        """Number of kept clusters in this shard."""
        return len(self.clusters)

    def cluster_sizes(self) -> list[int]:
        """Sizes of the kept clusters, in cluster order."""
        return [len(members) for members in self.clusters]


class ShardRunResults(list):
    """Per-shard clustering results plus fault-tolerance metadata.

    A plain ``list`` of the surviving :class:`ShardClusterResult` objects
    (in shard order), so existing consumers keep working unchanged, with
    two extra attributes describing what :func:`cluster_shards` had to drop:

    * ``skipped_shards`` — ids of shards whose worker failed every attempt
      (empty in a fault-free run);
    * ``errors`` — ``{shard_id: exception}`` of the terminal failures.
    """

    def __init__(self, results=(), skipped_shards=None, errors=None):
        super().__init__(results)
        self.skipped_shards: list[int] = list(skipped_shards or [])
        self.errors: dict[int, Exception] = dict(errors or {})


def cluster_shards(
    shard_samples: Sequence[tuple[list[frozenset], list[int]]],
    cluster_one: Callable[[int, list[frozenset], list[int]], ShardClusterResult],
    shard_workers: int | None = None,
    retries: int = 1,
    strict: bool = False,
    executor: str = DEFAULT_SHARD_EXECUTOR,
) -> ShardRunResults:
    """Cluster every shard sample on a thread or process pool, with retries.

    One loop serves both executors, which differ only in the pool class.
    Each wave runs on a fresh pool of ``min(shard_workers, pending)``
    workers: it first runs :func:`bootstrap_probe` with ``cluster_one`` as
    its argument, then submits one attempt per pending shard in shard
    order, keeping at most ``shard_workers`` attempts in flight.  Shards
    whose attempt failed are retried by the next wave.

    A crashed process worker breaks its pool: every attempt in flight
    fails with it, and the pool refuses further submits.  The crash is
    charged to a shard only when its attempt ran alone in the pool; the
    other attempts it failed, and the refused submits, re-run uncharged.
    Every wave after a break keeps one attempt in flight, so the next
    crash names its shard and the healthy shards still complete.  A
    thread pool never breaks, so its waves keep ``shard_workers``
    attempts in flight.

    Parameters
    ----------
    shard_samples:
        Per shard, the pair ``(sample_transactions, global_positions)``.
        Shards with empty samples are skipped (they contribute no
        summaries).
    cluster_one:
        The task ``(shard_id, sample, positions) -> ShardClusterResult``
        performing the per-shard pre-filter/cluster/prune phases.  It must
        be deterministic and must not consume shared random state: the
        attempts run in unspecified order, and the same two properties are
        what make a *retry* of a failed shard reproduce the exact result a
        fault-free run would have produced (the shard's sample was drawn
        before the worker ran).  The process executor pickles it, with the
        shard sample, for every attempt, so there it must be picklable
        (e.g. a :func:`functools.partial` of a module-level function).
    shard_workers:
        Maximum number of attempts in flight; ``None`` means 1 (serial) on
        either executor.
    retries:
        How many times a failed shard is re-attempted (same inputs, hence
        same result).  ``0`` disables retrying.
    strict:
        When ``True``, a shard that fails every attempt raises
        :class:`~repro.errors.ShardExecutionError`; otherwise the run
        degrades gracefully — a warning is emitted, the shard is recorded
        in ``skipped_shards`` and the surviving shards carry the run.  All
        shards failing raises regardless (there is nothing left to merge).
    executor:
        One of :data:`SHARD_EXECUTORS`.

    Returns
    -------
    ShardRunResults
        The surviving results in shard order regardless of completion
        order, plus ``skipped_shards`` / ``errors`` metadata.

    Raises
    ------
    ConfigurationError
        Besides invalid arguments: when a shard attempt raises one (e.g. an
        out-of-range value in the task's configuration), when the process
        executor's workers die while starting (typically a script without
        an ``if __name__ == "__main__":`` guard), or when ``cluster_one``
        cannot be pickled for the process executor.  Each is raised at
        once, whatever ``strict`` is, with no warning and no further
        attempt started, since a retry cannot succeed.

    Notes
    -----
    The failpoints ``shard.worker`` (any shard) and ``shard.worker.<id>``
    (one specific shard) inject a failure into a shard attempt; armed with
    ``times=1`` they make exactly one attempt fail, which is how the
    recovery suite asserts that a retried run is identical to a fault-free
    one.  Their budgets are consumed in the parent as each attempt is
    submitted (shard order, so ``*N`` semantics depend neither on the pool
    nor on its size), and the fault is raised inside the worker, so under
    the process executor it crosses the real cross-process error channel.
    """
    workers = validate_shard_workers(shard_workers)
    if retries < 0:
        raise ConfigurationError("retries must be non-negative, got %r" % retries)
    pool_class: Callable[..., Executor] = ThreadPoolExecutor
    if resolve_shard_executor(executor) == PROCESS_SHARD_EXECUTOR:
        pool_class = functools.partial(
            ProcessPoolExecutor, mp_context=get_context("spawn")
        )
    tasks = [
        (shard_id, sample, positions)
        for shard_id, (sample, positions) in enumerate(shard_samples)
        if sample
    ]
    completed: dict[int, ShardClusterResult] = {}
    failures: dict[int, list[Exception]] = {task[0]: [] for task in tasks}
    pending = tasks
    while pending:
        pool_workers = min(workers, len(pending))
        with pool_class(max_workers=pool_workers) as pool:
            _check_workers_bootstrap(pool, cluster_one, pool_workers)
            if _run_wave(pool, cluster_one, pending, workers, completed, failures):
                workers = 1
        pending = [
            task
            for task in pending
            if task[0] not in completed and len(failures[task[0]]) <= retries
        ]

    results = ShardRunResults()
    for shard_id, _, _ in tasks:
        if shard_id in completed:
            results.append(completed[shard_id])
        else:
            results.skipped_shards.append(shard_id)
            results.errors[shard_id] = failures[shard_id][-1]
    if results.skipped_shards:
        detail = "; ".join(
            "shard %d: %s" % (shard_id, results.errors[shard_id])
            for shard_id in results.skipped_shards
        )
        if strict:
            raise ShardExecutionError(
                "%d of %d shard worker(s) failed after %d attempt(s) each "
                "(%s); rerun without strict=True to degrade to the "
                "surviving shards" % (
                    len(results.skipped_shards), len(tasks), retries + 1, detail
                )
            )
        if not results:
            raise ShardExecutionError(
                "every shard worker failed after %d attempt(s) each (%s); "
                "there are no surviving shards to merge" % (retries + 1, detail)
            )
        warnings.warn(
            "%d of %d shard worker(s) failed after %d attempt(s) each and "
            "were skipped (%s); clustering continues on the surviving shards"
            % (len(results.skipped_shards), len(tasks), retries + 1, detail),
            RuntimeWarning,
            stacklevel=2,
        )
    return results


def bootstrap_probe(task) -> None:
    """No-op that returns once a worker has started and received ``task``.

    Every wave of :func:`cluster_shards` runs it first.  On a process pool
    ``task`` crosses the same pickle channel as every shard attempt, so a
    pool whose workers cannot start and a task that cannot be pickled both
    fail here, before any shard attempt ran.
    """


def _attempt(task, inject: str | None, shard_id: int, sample, positions):
    """One shard attempt inside a worker.

    ``inject`` names the failpoint the parent consumed for this attempt;
    it is raised here so the fault takes the worker's error channel.
    """
    if inject is not None:
        raise failpoints.InjectedFaultError(inject)
    return task(shard_id, sample, positions)


def _run_wave(
    pool: Executor, task, pending: list[tuple], workers: int, completed: dict, failures: dict
) -> bool:
    """One attempt per pending shard, at most ``workers`` in flight, in shard order.

    Records each result in ``completed`` and appends each charged failure
    to ``failures[shard_id]``.  Once the pool breaks, nothing more is
    submitted; the break is charged only to an attempt that ran alone, so
    the shards of the other attempts it failed re-run uncharged.  Returns
    whether the pool broke.  A :class:`~repro.errors.ConfigurationError`
    propagates at once.
    """
    queue = iter(pending)
    in_flight: dict = {}
    broken = False
    while True:
        while not broken and len(in_flight) < workers:
            next_task = next(queue, None)
            if next_task is None:
                break
            shard_id, sample, positions = next_task
            inject = None
            for name in ("shard.worker", "shard.worker.%d" % shard_id):
                if failpoints.consume(name):
                    inject = name
                    break
            try:
                future = pool.submit(_attempt, task, inject, shard_id, sample, positions)
            except BrokenProcessPool:
                # A crash the wait below has not seen yet broke the pool.
                broken = True
            else:
                in_flight[future] = shard_id
        if not in_flight:
            return broken
        alone = len(in_flight) == 1 and not broken
        done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
        for future in done:
            shard_id = in_flight.pop(future)
            try:
                completed[shard_id] = future.result()
            except ConfigurationError:
                # A configuration error is no transient fault: every retry
                # would fail alike, so it propagates on the first attempt.
                raise
            except BrokenProcessPool as error:
                broken = True
                if alone:
                    failures[shard_id].append(error)
            # Deliberate fault-isolation boundary: a worker failure — an
            # InjectedFaultError from the shard.worker failpoints or any
            # other exception the task raised — is captured for the
            # retry/degrade/strict logic of cluster_shards instead of
            # propagating, which is exactly what the fault-tolerance suite
            # exercises.
            # repro-lint: disable=ERR001 reason=shard worker isolation; error is retried then surfaced via skipped_shards or ShardExecutionError
            except Exception as error:  # noqa: BLE001 - isolate worker faults
                failures[shard_id].append(error)


def _check_workers_bootstrap(pool: Executor, task, workers: int) -> None:
    """Fail fast, without retrying, when ``task`` cannot reach a worker.

    A probe that fails never ran a shard attempt, so this is no transient
    crash.  A process pool that breaks under it has workers that die while
    starting; the usual cause is a script that reaches the process
    executor without a ``__main__`` guard, whose spawned interpreters
    re-run it while bootstrapping.  A probe that cannot be pickled carries
    a task no worker process can ever receive, e.g. a pipeline with a
    lambda as its measure or exponent function.

    One probe per worker, all in flight at once, so the pool has started
    all of its ``workers`` before any shard attempt runs.  A process pool
    starts workers as tasks are submitted, and on CPython 3.11 a worker
    started while a crashing attempt breaks the pool can miss the pool's
    terminate step: the pool's shutdown then waits for it forever.
    """
    try:
        probes = [pool.submit(bootstrap_probe, task) for _ in range(workers)]
        for probe in probes:
            probe.result()
    except BrokenProcessPool as error:
        raise ConfigurationError(
            "shard worker processes died while starting, before any shard "
            "task ran.  The %r shard executor spawns fresh interpreters that "
            "re-import the main module, so a script using it must guard its "
            "entry point with 'if __name__ == \"__main__\":' (or use the %r "
            "executor)" % (PROCESS_SHARD_EXECUTOR, DEFAULT_SHARD_EXECUTOR)
        ) from error
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        raise ConfigurationError(
            "the shard task cannot be pickled for the %r shard executor (%s); "
            "define the measure and exponent function at module level (a "
            "lambda or a local function does not pickle), or use the %r "
            "executor" % (PROCESS_SHARD_EXECUTOR, error, DEFAULT_SHARD_EXECUTOR)
        ) from error


@dataclass
class SummaryMergeResult:
    """Outcome of the summary-merge agglomeration.

    Attributes
    ----------
    groups:
        One tuple of meta-point ids (indices into the input summaries) per
        final global cluster, ordered by decreasing total size.
    merge_history:
        The summary merges performed, in execution order; ``left``/``right``
        are meta-point ids (merged summaries get fresh ids past the seed
        range, exactly like the point-level engines).  Hierarchical runs
        record the *final* level's merges (intermediate levels renumber
        their inputs).
    stopped_early:
        ``True`` when no positively-linked summary pair remained before
        reaching the requested number of global clusters.  Hierarchical
        runs report the final level only: an intermediate group running
        out of cross links simply forwards more summaries upward, which
        is not a failure to reach the requested global count.
    representative_indices:
        Per merged summary of the final level, the indices (into the
        pooled sample the caller provided) of the representatives that
        carried its link mass; for a flat (1-level) merge this is per
        input summary.
    criterion:
        The paper's criterion function evaluated on the final level's
        representative link matrix under the final grouping — a comparable
        quality signal, not the exact full-data criterion.
    levels:
        Number of flat agglomeration levels executed: ``1`` for the flat
        merge, more when ``fan_in`` forced a hierarchy.
    """

    groups: list[tuple]
    merge_history: list[MergeStep]
    stopped_early: bool
    representative_indices: list[list[int]]
    criterion: float
    levels: int = 1


def validate_merge_options(representatives_per_cluster: int, fan_in: int | None) -> int:
    """Check the summary-merge options; return the budget as an ``int``.

    Shared by :func:`merge_shard_summaries` and
    :meth:`repro.core.pipeline.RockPipeline.run_sharded`, which checks at
    entry so a bad value fails before any shard is clustered, whatever the
    shard count.

    Raises
    ------
    ConfigurationError
        For a string or non-positive ``representatives_per_cluster``, or a
        ``fan_in`` below 2.
    """
    if fan_in is not None and int(fan_in) < 2:
        raise ConfigurationError(
            "fan_in must be at least 2 (or None for a flat merge), got %r"
            % fan_in
        )
    if isinstance(representatives_per_cluster, str) or representatives_per_cluster < 1:
        raise ConfigurationError(
            "representatives_per_cluster must be a positive int, got %r"
            % (representatives_per_cluster,)
        )
    return int(representatives_per_cluster)


def merge_shard_summaries(
    pooled_sample: Sequence[frozenset],
    summaries: Sequence[Sequence[int]],
    n_clusters: int,
    theta: float,
    measure: SetSimilarity | None = None,
    exponent_function: ExponentFunction | None = None,
    representatives_per_cluster: int = 16,
    rng: np.random.Generator | int | None = None,
    include_self_links: bool = True,
    item_index: dict | None = None,
    fan_in: int | None = None,
    summary_groups: Sequence[Sequence[int]] | None = None,
) -> SummaryMergeResult:
    """Re-cluster per-shard cluster summaries into global clusters.

    Each summary (a per-shard cluster, given as member indices into
    ``pooled_sample``) becomes one weighted meta-point.  Link counts
    between meta-points are estimated from representative members: up to
    ``representatives_per_cluster`` members are drawn per summary, the
    ordinary neighbour/link machinery scores the pooled representatives,
    and each representative pair's link count is scaled by
    ``(size_a / |R_a|) * (size_b / |R_b|)`` so the estimate extrapolates to
    the full clusters.  The arena engine then merges the summaries as
    weighted starting clusters — the pair with the highest paper goodness
    (true summary sizes in the normaliser) first — until ``n_clusters``
    groups remain or no positively-linked pair is left; ties break by
    summary id as in every engine run, keeping the merge deterministic.

    With ``fan_in`` set, the merge is hierarchical: the level-0 units
    (``summary_groups`` — typically one unit per shard — or one unit per
    summary) are partitioned into groups of at most ``fan_in`` units, each
    group's summaries are flat-merged exactly as above, every merged group
    becomes one unit of the next level, and the last remaining groups are
    flat-merged into the global clusters.  When the unit count is already
    at or below ``fan_in`` (or ``fan_in`` is ``None``) the single flat
    merge runs bit-identically to the flat code path — same representative
    draws from the same generator — and multi-level runs consume the
    generator in deterministic level order, so they are seed-reproducible.

    Parameters
    ----------
    pooled_sample:
        The concatenated clustered samples of every shard.
    summaries:
        Per-shard clusters, as sequences of indices into ``pooled_sample``.
    n_clusters:
        Number of global clusters requested.
    theta:
        Similarity threshold (shared with the per-shard clustering).
    measure:
        Set-similarity measure; defaults to Jaccard.
    exponent_function:
        ``f(theta)``; defaults to the paper's.
    representatives_per_cluster:
        Upper bound on the members sampled per summary to estimate link
        counts; summaries at or below the bound contribute every member.
    rng:
        Random generator or seed for representative selection.
    include_self_links:
        Forwarded to :func:`repro.core.links.links_from_neighbors`.
    item_index:
        Optional pre-built item-to-column index covering ``pooled_sample``.
    fan_in:
        Maximum number of units one agglomeration level may combine
        (at least 2), or ``None`` for the flat merge.
    summary_groups:
        Level-0 units as a partition of the summary ids (every id exactly
        once; empty groups are dropped) — typically the summaries of one
        shard per group.  Defaults to one unit per summary.  Only
        consulted by hierarchical runs.

    Returns
    -------
    SummaryMergeResult
        ``groups`` always contains *input* summary ids, whatever the
        hierarchy did internally.

    Raises
    ------
    DataValidationError
        When ``summaries`` is empty or a summary has no members.
    ConfigurationError
        For a string or non-positive ``representatives_per_cluster``, a
        non-positive ``n_clusters``, a ``fan_in`` below 2, or
        ``summary_groups`` not partitioning the summary ids.
    """
    if not summaries:
        raise DataValidationError("summary merge requires at least one summary")
    if any(not len(members) for members in summaries):
        raise DataValidationError("summaries must be non-empty member lists")
    representatives_per_cluster = validate_merge_options(
        representatives_per_cluster, fan_in
    )
    if n_clusters < 1:
        raise ConfigurationError(
            "n_clusters must be positive, got %r" % n_clusters
        )
    if exponent_function is None:
        exponent_function = default_expected_links_exponent
    generator = np.random.default_rng(rng)

    if summary_groups is None:
        units: list[list[int]] = [[i] for i in range(len(summaries))]
    else:
        units = [list(group) for group in summary_groups if len(group)]
        flattened = sorted(i for group in units for i in group)
        if flattened != list(range(len(summaries))):
            raise ConfigurationError(
                "summary_groups must partition the summary ids 0..%d "
                "(every id exactly once)" % (len(summaries) - 1)
            )

    def flat_merge(level_summaries: Sequence[Sequence[int]]) -> SummaryMergeResult:
        return _flat_summary_merge(
            pooled_sample,
            level_summaries,
            n_clusters,
            theta,
            measure,
            exponent_function,
            representatives_per_cluster,
            generator,
            include_self_links,
            item_index,
        )

    if fan_in is None or len(units) <= int(fan_in):
        # The 1-level case: one flat merge over the summaries in input
        # order, consuming the generator exactly as the flat code path
        # always has (bit-identity pinned by the test suite).
        return flat_merge(list(summaries))
    return _hierarchical_summary_merge(summaries, units, int(fan_in), flat_merge)


def _hierarchical_summary_merge(
    summaries: Sequence[Sequence[int]],
    units: list[list[int]],
    fan_in: int,
    flat_merge: Callable[[Sequence[Sequence[int]]], SummaryMergeResult],
) -> SummaryMergeResult:
    """Map-reduce reduction over summary units, ``fan_in`` units at a time.

    Each level partitions the current units into runs of ``fan_in``,
    flat-merges every run's summaries towards the global cluster count
    (stop-early keeps under-linked groups from over-merging — the extra
    summaries simply flow upward), and the merged run becomes one unit of
    the next level.  ``origin`` tracks which *input* summary ids each
    working summary absorbed, so the final grouping is expressed in input
    ids whatever the hierarchy renumbered internally.
    """
    level_summaries: list[tuple] = [tuple(members) for members in summaries]
    origin: list[tuple] = [(i,) for i in range(len(summaries))]
    intermediate_levels = 0
    while len(units) > fan_in:
        intermediate_levels += 1
        next_summaries: list[tuple] = []
        next_origin: list[tuple] = []
        next_units: list[list[int]] = []
        for start in range(0, len(units), fan_in):
            run = units[start:start + fan_in]
            if len(run) == 1:
                # A leftover lone unit passes through unmerged (merging a
                # unit against itself would burn generator draws and risk
                # over-merging one shard's clusters in isolation).
                passthrough = []
                for summary_id in run[0]:
                    passthrough.append(len(next_summaries))
                    next_summaries.append(level_summaries[summary_id])
                    next_origin.append(origin[summary_id])
                next_units.append(passthrough)
                continue
            member_ids = [summary_id for unit in run for summary_id in unit]
            run_summaries = [level_summaries[i] for i in member_ids]
            partial = flat_merge(run_summaries)
            merged_unit = []
            for group in partial.groups:
                merged_unit.append(len(next_summaries))
                next_summaries.append(
                    tuple(
                        sorted(
                            member
                            for position in group
                            for member in run_summaries[position]
                        )
                    )
                )
                next_origin.append(
                    tuple(
                        sorted(
                            input_id
                            for position in group
                            for input_id in origin[member_ids[position]]
                        )
                    )
                )
            next_units.append(merged_unit)
        level_summaries, origin, units = next_summaries, next_origin, next_units

    final_ids = [summary_id for unit in units for summary_id in unit]
    final = flat_merge([level_summaries[i] for i in final_ids])
    groups = [
        tuple(
            sorted(
                input_id
                for position in group
                for input_id in origin[final_ids[position]]
            )
        )
        for group in final.groups
    ]
    # Re-sort in input-id space: total sizes are unchanged by the mapping
    # (origins are disjoint), but the first-id tie-break must be applied
    # to input ids for the ordering to be well-defined for callers.
    groups.sort(
        key=lambda group: (
            -sum(len(summaries[input_id]) for input_id in group),
            group[0],
        )
    )
    return SummaryMergeResult(
        groups=groups,
        merge_history=final.merge_history,
        stopped_early=final.stopped_early,
        representative_indices=final.representative_indices,
        criterion=final.criterion,
        levels=intermediate_levels + 1,
    )


def _flat_summary_merge(
    pooled_sample: Sequence[frozenset],
    summaries: Sequence[Sequence[int]],
    n_clusters: int,
    theta: float,
    measure: SetSimilarity | None,
    exponent_function: ExponentFunction,
    representatives_per_cluster: int,
    generator: np.random.Generator,
    include_self_links: bool,
    item_index: dict | None,
) -> SummaryMergeResult:
    """One flat summary agglomeration (the pre-hierarchy merge, verbatim)."""
    n_summaries = len(summaries)
    sizes = np.array([len(members) for members in summaries], dtype=np.int64)

    # Representative selection: every summary keeps its members when small,
    # otherwise a uniform subset; the draw order is summary order, so one
    # generator gives reproducible selections.
    representative_indices: list[list[int]] = []
    for members in summaries:
        members = list(members)
        if len(members) <= representatives_per_cluster:
            representative_indices.append(members)
        else:
            chosen = generator.choice(
                len(members), size=representatives_per_cluster, replace=False
            )
            representative_indices.append([members[i] for i in sorted(chosen)])

    flat_representatives = [
        index for chosen in representative_indices for index in chosen
    ]
    representatives = [pooled_sample[i] for i in flat_representatives]
    owner = np.repeat(
        np.arange(n_summaries),
        [len(chosen) for chosen in representative_indices],
    )
    weights = (sizes / np.array(
        [len(chosen) for chosen in representative_indices], dtype=np.float64
    ))[owner]

    # Link counts recomputed on the representative incidence.
    graph = compute_neighbors(
        representatives, theta=theta, measure=measure, item_index=item_index
    )
    links = links_from_neighbors(graph, include_self=include_self_links)

    # Weighted summary-by-summary cross-link estimate: W L W folded through
    # the owner incidence.  The engine ignores the diagonal (within-summary
    # mass) — only cross-summary goodness drives the merge.
    n_reps = len(representatives)
    weight_diagonal = sparse.diags(weights)
    membership = sparse.csr_matrix(
        (np.ones(n_reps), (owner, np.arange(n_reps))),
        shape=(n_summaries, n_reps),
    )
    cross = membership @ (weight_diagonal @ links @ weight_diagonal) @ membership.T

    # The summaries are weighted starting clusters of the one merge loop:
    # true summary sizes in the normaliser, float64 link mass.
    merge_history, members, stopped_early, _ = arena_agglomerate(
        cross, n_summaries, n_clusters, theta, exponent_function, sizes
    )
    groups = [tuple(sorted(group)) for group in members.values()]
    groups.sort(key=lambda group: (-int(sizes[list(group)].sum()), group[0]))

    group_of_summary = np.empty(n_summaries, dtype=np.int64)
    for group_id, group in enumerate(groups):
        group_of_summary[list(group)] = group_id
    rep_group = group_of_summary[owner]
    representative_groups = [
        tuple(np.nonzero(rep_group == group_id)[0].tolist())
        for group_id in range(len(groups))
    ]
    criterion = criterion_function(
        links, representative_groups, theta, exponent_function
    )
    return SummaryMergeResult(
        groups=groups,
        merge_history=merge_history,
        stopped_early=stopped_early,
        representative_indices=representative_indices,
        criterion=criterion,
    )


def build_shard_samples(
    batches_factory,
    plan: ShardPlan,
    shard_sizes: Sequence[int],
    sample_sizes: Sequence[int],
    rngs: Sequence[np.random.Generator],
) -> list[tuple[list[frozenset], list[int]]]:
    """Draw every shard's sample in a single pass over the source.

    For each shard ``s``, ``sample_sizes[s]`` shard-local positions are
    drawn without replacement (:func:`repro.core.sampling.draw_sample`
    semantics via the shard's own generator), and one pass over the
    batches collects the corresponding transactions together with their
    *global* stream positions.

    Parameters
    ----------
    batches_factory:
        Zero-argument callable yielding a fresh iterator of transaction
        batches (the normalised streaming source).
    plan:
        The shard plan assigning stream positions to shards.
    shard_sizes:
        Number of transactions per shard (a prior counting pass).
    sample_sizes:
        Number of points to sample per shard (see
        :func:`allocate_sample_sizes`).
    rngs:
        One random generator per shard; each shard consumes only its own.

    Returns
    -------
    list[(sample, positions)]
        Per shard, the sampled item sets and their global positions, both
        in increasing stream order.
    """
    wanted: list[set[int]] = []
    for shard, (size, target) in enumerate(zip(shard_sizes, sample_sizes)):
        if target <= 0 or size <= 0:
            wanted.append(set())
        elif target >= size:
            wanted.append(set(range(size)))
        else:
            chosen = np.sort(
                rngs[shard].choice(size, size=target, replace=False)
            )
            wanted.append(set(int(i) for i in chosen))

    samples: list[tuple[list[frozenset], list[int]]] = [
        ([], []) for _ in range(plan.n_shards)
    ]
    local_positions = [0] * plan.n_shards
    position = 0
    for batch in batches_factory():
        for transaction in batch:
            shard = plan.shard_of(position, transaction)
            if local_positions[shard] in wanted[shard]:
                samples[shard][0].append(frozenset(transaction))
                samples[shard][1].append(position)
            local_positions[shard] += 1
            position += 1
    return samples


def count_shard_sizes(batches_factory, plan: ShardPlan) -> tuple[list[int], int]:
    """Count the stream length and per-shard sizes in one pass.

    Positional strategies with a known stream length short-circuit to
    arithmetic (:meth:`ShardPlan.positional_shard_sizes`); the hash
    strategy always walks the source because the assignment depends on
    transaction contents.

    Returns
    -------
    (shard_sizes, n_points)
    """
    if plan.strategy != "hash" and plan.n_points is not None:
        sizes = plan.positional_shard_sizes()
        if sizes is not None:
            return sizes, plan.n_points
    sizes = [0] * plan.n_shards
    position = 0
    for batch in batches_factory():
        for transaction in batch:
            sizes[plan.shard_of(position, transaction)] += 1
            position += 1
    return sizes, position
