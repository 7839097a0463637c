"""Tests for repro.core.sharding and RockPipeline.run_sharded.

The sharded pipeline carries two determinism contracts (see
docs/ARCHITECTURE.md): ``n_shards=1`` is bit-identical to the streaming
pipeline on the same data and seed, and multi-shard runs are reproducible
from the pipeline seed regardless of worker count.  The quality tests run
on the tight-cluster benchmark workload where the one-shot pipeline itself
recovers the latent groups, so an agreement floor is meaningful.
"""

import dataclasses
import functools
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro.core.cpu_pool as cpu_pool_module
import repro.core.links as links_module
from repro.bench.engine_bench import WORKLOAD
from repro.core import sharding
from repro.core import pipeline as pipeline_module
from repro.core.links import links_from_neighbors
from repro.core.neighbors import compute_neighbors
from repro.core.pipeline import RockPipeline, cluster_shard
from repro.core.sharding import (
    PROCESS_SHARD_EXECUTOR,
    SHARD_EXECUTORS,
    SHARD_STRATEGIES,
    THREAD_SHARD_EXECUTOR,
    ShardPlan,
    allocate_sample_sizes,
    cluster_shards,
    merge_shard_summaries,
    resolve_shard_executor,
    stable_shard_hash,
)
from repro.data.io import write_transactions
from repro.datasets.market_basket import generate_market_baskets
from repro.errors import ConfigurationError, DataValidationError, ShardExecutionError
from repro.evaluation.metrics import adjusted_rand_index
from repro.persistence import failpoints
from repro.similarity.jaccard import JaccardSimilarity
from toy_measures import OverlapRule, overlap_is_zero

#: Whether this platform offers the fork start method; the tests that
#: force it skip where it does not.
CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def tight_baskets():
    """A tight-cluster basket workload the pipeline solves reliably."""
    return generate_market_baskets(n_transactions=800, rng=0, **WORKLOAD)


def _pipeline(rng=7, **overrides):
    kwargs = dict(
        n_clusters=8, theta=0.5, sample_size=300, min_cluster_size=2, rng=rng
    )
    kwargs.update(overrides)
    return RockPipeline(**kwargs)


def _local_class_items(transactions):
    """The baskets, with every item an instance of a class pickle cannot find."""

    @dataclasses.dataclass(frozen=True)
    class LocalItem:
        name: object

    return [frozenset(map(LocalItem, basket)) for basket in transactions]


class TestShardPlan:
    def test_round_robin_assignment(self):
        plan = ShardPlan(3)
        assert [plan.shard_of(p) for p in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_contiguous_blocks_partition_positions(self):
        plan = ShardPlan(3, "contiguous", n_points=10)
        shards = [plan.shard_of(p) for p in range(10)]
        assert shards == sorted(shards)
        assert set(shards) == {0, 1, 2}

    def test_contiguous_requires_n_points(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(3, "contiguous")

    def test_hash_is_content_based_and_stable(self):
        plan = ShardPlan(4, "hash")
        basket = frozenset({"milk", "bread"})
        first = plan.shard_of(0, basket)
        assert first == plan.shard_of(99, frozenset({"bread", "milk"}))
        assert 0 <= first < 4
        assert stable_shard_hash(basket) == stable_shard_hash({"bread", "milk"})

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(0)
        with pytest.raises(ConfigurationError):
            ShardPlan(2, "psychic")

    def test_positional_shard_sizes_match_assignment(self):
        for strategy in ("round-robin", "contiguous"):
            plan = ShardPlan(3, strategy, n_points=11)
            sizes = plan.positional_shard_sizes()
            counted = [0, 0, 0]
            for position in range(11):
                counted[plan.shard_of(position)] += 1
            assert sizes == counted

    def test_hash_strategy_has_no_positional_sizes(self):
        assert ShardPlan(3, "hash", n_points=11).positional_shard_sizes() is None


class TestAllocateSampleSizes:
    def test_proportional_and_exact_total(self):
        allocation = allocate_sample_sizes([100, 100, 200], 100)
        assert sum(allocation) == 100
        assert allocation[2] > allocation[0]

    def test_every_nonempty_shard_represented(self):
        allocation = allocate_sample_sizes([1000, 3, 0], 10)
        assert allocation[1] >= 1
        assert allocation[2] == 0
        assert sum(allocation) == 10

    def test_caps_at_shard_sizes(self):
        allocation = allocate_sample_sizes([2, 2], 100)
        assert allocation == [2, 2]

    def test_one_point_floor_wins_over_tiny_budget(self):
        # Documented exception: a budget smaller than the number of
        # non-empty shards yields one point per shard, not the budget —
        # and the overshoot is reported, not silent.
        with pytest.warns(RuntimeWarning, match="sample budget 2 is below"):
            assert allocate_sample_sizes([5, 5, 5], 2) == [1, 1, 1]

    def test_budget_equal_to_shard_count_does_not_warn(self):
        # Boundary: one point per non-empty shard exactly fits the budget.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert allocate_sample_sizes([5, 5, 5], 3) == [1, 1, 1]

    def test_empty_shards_do_not_count_toward_the_floor(self):
        # Two non-empty shards, budget two: exactly satisfiable, no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert allocate_sample_sizes([5, 0, 5], 2) == [1, 0, 1]

    def test_overshoot_warning_reports_allocation(self):
        with pytest.warns(RuntimeWarning, match="allocating 4 points"):
            allocation = allocate_sample_sizes([9, 9, 9, 9], 3)
        assert allocation == [1, 1, 1, 1]

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            allocate_sample_sizes([5, 5], 0)


class TestClusterShards:
    def test_results_in_shard_order_and_empty_shards_skipped(self):
        samples = [([frozenset({1})], [0]), ([], []), ([frozenset({2})], [1])]
        seen = []

        def cluster_one(shard_id, sample, positions):
            seen.append(shard_id)
            return shard_id

        results = cluster_shards(
            samples, cluster_one, shard_workers=None, executor=THREAD_SHARD_EXECUTOR
        )
        assert results == [0, 2]
        assert seen == [0, 2]

    def test_parallel_results_keep_shard_order(self):
        samples = [([frozenset({i})], [i]) for i in range(6)]
        results = cluster_shards(
            samples, lambda shard_id, sample, positions: shard_id, shard_workers=4
        )
        assert results == list(range(6))

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            cluster_shards([], lambda *a: None, shard_workers=0)

    @pytest.mark.parametrize("executor", SHARD_EXECUTORS)
    @pytest.mark.parametrize(
        "shard_workers, pool_size", [(None, 1), (2, 2), (64, 3)]
    )
    def test_one_pool_size_rule_for_both_executors(
        self, monkeypatch, executor, shard_workers, pool_size
    ):
        # None means serial on either pool, and no pool outgrows the shard
        # count.  A thread-backed stub stands in for both pool classes, so
        # no process starts.
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers, mp_context=None, **initializer):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **initializer)

        monkeypatch.setattr(sharding, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(sharding, "ProcessPoolExecutor", RecordingPool)
        samples = [([frozenset({i})], [i]) for i in range(3)]
        results = cluster_shards(
            samples,
            lambda shard_id, sample, positions: shard_id,
            shard_workers=shard_workers,
            executor=executor,
        )
        assert list(results) == [0, 1, 2]
        assert sizes == [pool_size]


class TestShardFaultTolerance:
    """cluster_shards retries failed workers and degrades gracefully."""

    SAMPLES = [([frozenset({i})], [i]) for i in range(3)]

    @pytest.fixture(autouse=True)
    def _clean_failpoints(self):
        failpoints.reset()
        yield
        failpoints.reset()

    @staticmethod
    def _cluster_one(shard_id, sample, positions):
        return shard_id * 10

    def test_single_failure_recovered_by_retry(self):
        with failpoints.failpoint("shard.worker", times=1):
            results = cluster_shards(self.SAMPLES, self._cluster_one)
        assert list(results) == [0, 10, 20]
        assert results.skipped_shards == []
        assert results.errors == {}

    def test_retry_exhaustion_degrades_with_warning(self):
        # Shard 0 fails both its attempts: the run completes on the
        # survivors, warns, and records the skip for the caller.
        with failpoints.failpoint("shard.worker.0", times=2):
            with pytest.warns(RuntimeWarning, match="shard 0"):
                results = cluster_shards(self.SAMPLES, self._cluster_one)
        assert list(results) == [10, 20]
        assert results.skipped_shards == [0]
        assert isinstance(results.errors[0], failpoints.InjectedFaultError)

    def test_strict_raises_instead_of_degrading(self):
        with failpoints.failpoint("shard.worker.1", times=2):
            with pytest.raises(ShardExecutionError, match="shard"):
                cluster_shards(self.SAMPLES, self._cluster_one, strict=True)

    def test_all_shards_failing_raises_even_without_strict(self):
        with failpoints.failpoint("shard.worker"):
            with pytest.raises(ShardExecutionError):
                cluster_shards(self.SAMPLES, self._cluster_one)

    def test_retries_zero_means_single_attempt(self):
        with failpoints.failpoint("shard.worker.2", times=1):
            with pytest.warns(RuntimeWarning):
                results = cluster_shards(
                    self.SAMPLES, self._cluster_one, retries=0
                )
        assert results.skipped_shards == [2]

    def test_parallel_workers_also_retry(self):
        with failpoints.failpoint("shard.worker", times=1):
            results = cluster_shards(
                self.SAMPLES, self._cluster_one, shard_workers=3
            )
        assert list(results) == [0, 10, 20]
        assert results.skipped_shards == []

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            cluster_shards(self.SAMPLES, self._cluster_one, retries=-1)

    @pytest.mark.parametrize("shard_workers", [None, 3])
    def test_configuration_error_is_not_retried(self, shard_workers):
        # A configuration error would fail every retry alike: it propagates
        # on the first attempt, with no degraded run and no warning.
        calls = []

        def cluster_one(shard_id, sample, positions):
            calls.append(shard_id)
            raise ConfigurationError("bogus strategy")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigurationError, match="bogus strategy"):
                cluster_shards(
                    self.SAMPLES,
                    cluster_one,
                    shard_workers=shard_workers,
                    executor=THREAD_SHARD_EXECUTOR,
                )
        assert len(calls) == len(set(calls))
        if shard_workers is None:
            assert calls == [0]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestMergeShardSummaries:
    def test_merges_matching_clusters_across_shards(self):
        # Two shards saw the same two latent groups; the merge must pair
        # them up rather than keep four global clusters.
        group_a = [frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({1, 3, 4})]
        group_b = [frozenset({7, 8, 9}), frozenset({7, 8, 10}), frozenset({7, 9, 10})]
        pooled = group_a + group_b + group_a + group_b
        summaries = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
        merged = merge_shard_summaries(
            pooled, summaries, n_clusters=2, theta=0.4, rng=0
        )
        assert sorted(merged.groups) == [(0, 2), (1, 3)]
        assert len(merged.merge_history) == 2
        assert not merged.stopped_early

    def test_fewer_summaries_than_clusters_is_a_no_op(self):
        pooled = [frozenset({1, 2}), frozenset({1, 3})]
        merged = merge_shard_summaries(
            pooled, [(0,), (1,)], n_clusters=4, theta=0.4, rng=0
        )
        assert sorted(merged.groups) == [(0,), (1,)]
        assert merged.merge_history == []

    def test_representatives_bounded(self):
        pooled = [frozenset({1, 2, i}) for i in range(20)]
        merged = merge_shard_summaries(
            pooled,
            [tuple(range(20))],
            n_clusters=1,
            theta=0.1,
            representatives_per_cluster=5,
            rng=0,
        )
        assert len(merged.representative_indices[0]) == 5

    def test_invalid_inputs_rejected(self):
        pooled = [frozenset({1})]
        with pytest.raises(DataValidationError):
            merge_shard_summaries(pooled, [], n_clusters=1, theta=0.4)
        with pytest.raises(DataValidationError):
            merge_shard_summaries(pooled, [()], n_clusters=1, theta=0.4)
        for budget in (0, "auto"):
            # A string budget is a typed configuration error, never a
            # TypeError from comparing it with 1.
            with pytest.raises(ConfigurationError, match="representatives"):
                merge_shard_summaries(
                    pooled, [(0,)], n_clusters=1, theta=0.4,
                    representatives_per_cluster=budget,
                )


class TestRunShardedDeterminism:
    def test_one_shard_bit_identical_to_streaming(self, tight_baskets, tmp_path):
        path = tmp_path / "baskets.txt"
        write_transactions(tight_baskets, path)
        streamed = _pipeline().run_streaming(path, batch_size=128)
        sharded = _pipeline().run_sharded(path, n_shards=1, batch_size=128)
        assert np.array_equal(streamed.labels, sharded.labels)
        assert streamed.clusters == sharded.clusters
        assert sharded.parameters["sharded"] is True
        assert sharded.parameters["n_shards"] == 1

    def test_one_shard_bit_identical_in_memory(self, tight_baskets):
        transactions = tight_baskets.transactions
        streamed = _pipeline().run_streaming(transactions, batch_size=64)
        sharded = _pipeline().run_sharded(transactions, n_shards=1, batch_size=64)
        assert np.array_equal(streamed.labels, sharded.labels)

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_multi_shard_seed_reproducible(self, tight_baskets, strategy):
        transactions = tight_baskets.transactions
        first = _pipeline().run_sharded(
            transactions, n_shards=3, shard_strategy=strategy
        )
        second = _pipeline().run_sharded(
            transactions, n_shards=3, shard_strategy=strategy
        )
        assert np.array_equal(first.labels, second.labels)
        assert first.clusters == second.clusters

    def test_worker_count_never_changes_labels(self, tight_baskets):
        transactions = tight_baskets.transactions
        serial = _pipeline().run_sharded(transactions, n_shards=4)
        threaded = _pipeline().run_sharded(
            transactions, n_shards=4, shard_workers=4
        )
        assert np.array_equal(serial.labels, threaded.labels)

    def test_different_seeds_differ(self, tight_baskets):
        transactions = tight_baskets.transactions
        first = _pipeline(rng=7).run_sharded(transactions, n_shards=3)
        second = _pipeline(rng=8).run_sharded(transactions, n_shards=3)
        # Different sample draws virtually never give identical clusterings
        # on 800 points; equality here would mean the seed is ignored.
        assert not np.array_equal(first.labels, second.labels)

    def test_injected_worker_failure_recovered_identically(self, tight_baskets):
        # One worker fault absorbed by the retry: the sharded run must be
        # bit-identical to the no-fault run (per-shard sampling consumed
        # the RNG before the workers ran, so the retry sees the same
        # sample) and must not record any skipped shard.
        transactions = tight_baskets.transactions
        failpoints.reset()
        clean = _pipeline().run_sharded(transactions, n_shards=3)
        try:
            with failpoints.failpoint("shard.worker", times=1):
                faulted = _pipeline().run_sharded(transactions, n_shards=3)
        finally:
            failpoints.reset()
        assert np.array_equal(clean.labels, faulted.labels)
        assert clean.clusters == faulted.clusters
        assert faulted.parameters["skipped_shards"] == []

    def test_exhausted_worker_degrades_and_records_skip(self, tight_baskets):
        transactions = tight_baskets.transactions
        failpoints.reset()
        try:
            with failpoints.failpoint("shard.worker.1", times=2):
                with pytest.warns(RuntimeWarning, match="shard 1"):
                    result = _pipeline().run_sharded(transactions, n_shards=3)
        finally:
            failpoints.reset()
        assert result.parameters["skipped_shards"] == [1]
        assert len(result.labels) == 800

    @pytest.mark.parametrize("sample_size", [None, 300])
    def test_skipped_shard_points_are_labelled(self, tight_baskets, sample_size):
        # The points a skipped shard sampled are set aside like the points
        # the pre-filter isolated, so the label phase places them against
        # the merged clusters instead of leaving them all at -1.
        failpoints.reset()
        try:
            with failpoints.failpoint("shard.worker.1", times=2):
                with pytest.warns(RuntimeWarning, match="shard 1"):
                    result = _pipeline(sample_size=sample_size).run_sharded(
                        tight_baskets.transactions, n_shards=3
                    )
        finally:
            failpoints.reset()
        assert result.parameters["skipped_shards"] == [1]
        skipped = [p for p in result.sample_indices if p % 3 == 1]  # round-robin
        assert skipped
        assert set(skipped) <= set(result.labeled_indices or ())

    def test_strict_pipeline_raises_on_exhausted_worker(self, tight_baskets):
        transactions = tight_baskets.transactions
        failpoints.reset()
        try:
            with failpoints.failpoint("shard.worker.1", times=2):
                with pytest.raises(ShardExecutionError):
                    _pipeline(strict=True).run_sharded(
                        tight_baskets.transactions, n_shards=3
                    )
        finally:
            failpoints.reset()


class TestRunShardedQuality:
    def test_summary_merge_tracks_one_shot_run(self, tight_baskets):
        transactions = tight_baskets.transactions
        one_shot = _pipeline().run(transactions)
        sharded = _pipeline().run_sharded(transactions, n_shards=3)
        assert adjusted_rand_index(sharded.labels, one_shot.labels) >= 0.6
        assert adjusted_rand_index(sharded.labels, tight_baskets.labels) >= 0.6

    def test_every_point_gets_a_label_slot(self, tight_baskets):
        sharded = _pipeline().run_sharded(tight_baskets.transactions, n_shards=3)
        assert len(sharded.labels) == len(tight_baskets.transactions)
        # Labels and cluster membership agree, as in every other entry point.
        for label, members in enumerate(sharded.clusters):
            assert all(sharded.labels[index] == label for index in members)

    def test_timings_and_parameters_recorded(self, tight_baskets):
        sharded = _pipeline().run_sharded(
            tight_baskets.transactions, n_shards=3, shard_workers=2
        )
        for phase in (
            "sampling", "neighbors", "shard_clustering", "merge",
            "clustering", "labeling", "total",
        ):
            assert phase in sharded.timings
        assert sharded.parameters["n_shards"] == 3
        assert sharded.parameters["shard_workers"] == 2
        assert sharded.parameters["shard_strategy"] == "round-robin"

    def test_labeling_result_matches_final_label_space(self, tight_baskets):
        sharded = _pipeline().run_sharded(tight_baskets.transactions, n_shards=3)
        assert sharded.labeling_result is not None
        assert np.array_equal(
            sharded.labels[sharded.labeled_indices],
            sharded.labeling_result.labels,
        )


class TestResolveShardExecutor:
    def test_concrete_names_pass_through(self):
        for executor in SHARD_EXECUTORS:
            for shard_workers in (None, 1, 2):
                assert resolve_shard_executor(executor, shard_workers) == executor

    @pytest.mark.parametrize("executor", ["psychic", "auto"])
    def test_unknown_executor_rejected(self, executor):
        with pytest.raises(ConfigurationError, match="unknown shard executor"):
            resolve_shard_executor(executor)


def _crash_first_attempt(marker, shard_id, sample, positions):
    """Shard task whose first attempt at shard 0 kills its worker process."""
    if shard_id == 0 and not os.path.exists(marker):
        Path(marker).touch()
        os._exit(1)
    return shard_id * 10


def _times_ten(shard_id, sample, positions):
    """Module-level shard task, so spawned workers can unpickle it too."""
    return shard_id * 10


def _crash_shard_zero(shard_id, sample, positions):
    """Shard task whose every attempt at shard 0 kills its worker process."""
    if shard_id == 0:
        os._exit(1)
    return shard_id * 10


def _unpicklable_result(shard_id, sample, positions):
    """Shard task whose result cannot be pickled back to the parent."""
    return lambda: shard_id


def _unpicklable_error(shard_id, sample, positions):
    """Shard task raising an exception that cannot be pickled."""
    raise ValueError("bad shard", lambda: shard_id)


class _TwoPartError(Exception):
    """Pickles, but cannot be rebuilt from its ``args`` on the other side."""

    def __init__(self, code, detail):
        super().__init__("code %s: %s" % (code, detail))


def _unrebuildable_error(shard_id, sample, positions):
    raise _TwoPartError(shard_id, "bad shard")


def _unpicklable_configuration_error(shard_id, sample, positions):
    raise ConfigurationError("bad shard config", lambda: shard_id)


class TestProcessExecutor:
    """The process executor is invisible: labels match the thread path."""

    @pytest.fixture(autouse=True)
    def _clean_failpoints(self):
        failpoints.reset()
        yield
        failpoints.reset()

    @pytest.fixture(scope="class")
    def thread_run(self, tight_baskets):
        return _pipeline().run_sharded(
            tight_baskets.transactions,
            n_shards=3,
            shard_workers=2,
            shard_executor=THREAD_SHARD_EXECUTOR,
        )

    def test_out_of_range_config_fails_before_any_worker(self):
        # The shipped config is validated where it is made, in the parent.
        with pytest.raises(ConfigurationError, match="min_cluster_size"):
            dataclasses.replace(_pipeline().config, min_cluster_size=0)

    def test_configuration_error_in_worker_is_not_retried(self, tight_baskets):
        # The measure pickles but is not monotone in the overlap, so the
        # overlap kernel rejects it inside the shard's neighbour phase; the
        # parent re-raises that error after one wave instead of retrying it
        # as a worker crash.
        config = _pipeline(measure=OverlapRule("disjoint-only", overlap_is_zero)).config
        transactions = tight_baskets.transactions
        samples = [
            (transactions[:40], list(range(40))),
            (transactions[40:80], list(range(40, 80))),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigurationError, match="non-decreasing"):
                cluster_shards(
                    samples,
                    functools.partial(cluster_shard, config),
                    shard_workers=2,
                    executor=PROCESS_SHARD_EXECUTOR,
                )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_process_matches_thread_bit_identically(
        self, tight_baskets, thread_run
    ):
        processed = _pipeline().run_sharded(
            tight_baskets.transactions,
            n_shards=3,
            shard_workers=2,
            shard_executor=PROCESS_SHARD_EXECUTOR,
        )
        assert np.array_equal(thread_run.labels, processed.labels)
        assert thread_run.clusters == processed.clusters
        assert processed.parameters["shard_executor"] == PROCESS_SHARD_EXECUTOR

    def test_process_worker_count_never_changes_labels(
        self, tight_baskets, thread_run
    ):
        processed = _pipeline().run_sharded(
            tight_baskets.transactions,
            n_shards=3,
            shard_workers=3,
            shard_executor=PROCESS_SHARD_EXECUTOR,
        )
        assert np.array_equal(thread_run.labels, processed.labels)

    def test_injected_crash_recovered_identically(self, tight_baskets, thread_run):
        # One injected worker crash absorbed by the retry wave: labels must
        # stay bit-identical and no shard may be recorded as skipped.
        with failpoints.failpoint("shard.worker", times=1):
            faulted = _pipeline().run_sharded(
                tight_baskets.transactions,
                n_shards=3,
                shard_workers=2,
                shard_executor=PROCESS_SHARD_EXECUTOR,
            )
        assert np.array_equal(thread_run.labels, faulted.labels)
        assert faulted.parameters["skipped_shards"] == []

    def test_exhausted_worker_degrades_with_warning(self, tight_baskets):
        # The degraded-run warning must cross the process boundary: the
        # child raises, the parent warns and records the skip.
        with failpoints.failpoint("shard.worker.1", times=2):
            with pytest.warns(RuntimeWarning, match="shard 1"):
                result = _pipeline().run_sharded(
                    tight_baskets.transactions,
                    n_shards=3,
                    shard_workers=2,
                    shard_executor=PROCESS_SHARD_EXECUTOR,
                )
        assert result.parameters["skipped_shards"] == [1]
        assert len(result.labels) == 800

    @pytest.mark.parametrize("shard_workers", [1, 2])
    def test_crashed_worker_process_recovered_by_retry(self, tmp_path, shard_workers):
        # A worker that dies breaks its pool: the in-flight attempts fail
        # with it and every later submit of the wave is refused.  Each of
        # those shards is retried on a fresh pool, so the run completes
        # without a skipped shard.
        samples = [([frozenset({i})], [i]) for i in range(4)]
        results = cluster_shards(
            samples,
            functools.partial(_crash_first_attempt, str(tmp_path / "crashed")),
            shard_workers=shard_workers,
            executor=PROCESS_SHARD_EXECUTOR,
        )
        assert list(results) == [0, 10, 20, 30]
        assert results.skipped_shards == []

    @pytest.mark.parametrize("retries", [0, 1])
    @pytest.mark.parametrize("shard_workers", [1, 2])
    def test_crashing_shard_degrades_to_the_healthy_shards(self, shard_workers, retries):
        # A crash is charged to a shard only when its attempt ran alone in
        # the pool.  The attempts the break failed beside it, and the
        # submits the broken pool refused, re-run uncharged, so the healthy
        # shards complete and only the crashing one is skipped.
        samples = [([frozenset({i})], [i]) for i in range(4)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = cluster_shards(
                samples,
                _crash_shard_zero,
                shard_workers=shard_workers,
                retries=retries,
                executor=PROCESS_SHARD_EXECUTOR,
            )
        assert list(results) == [10, 20, 30]
        assert results.skipped_shards == [0]
        degraded = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(degraded) == 1
        assert "shard 0:" in str(degraded[0].message)
        assert "1 of 4 shard worker(s) failed after %d attempt(s)" % (retries + 1) in str(
            degraded[0].message
        )

    def test_every_worker_starts_before_the_first_attempt(self, monkeypatch):
        # A process pool starts one worker per submitted task until it has
        # them all.  On CPython 3.11 a worker started while a crashing
        # attempt breaks the pool can miss the pool's terminate step, and
        # the pool's shutdown then waits for it forever (an intermittent
        # hang of the crash tests here).  So each wave first sends one probe
        # per worker, all in flight together, before any shard attempt.
        calls = []
        original = ProcessPoolExecutor.submit

        def recording(pool, fn, *args, **kwargs):
            calls.append((id(pool), fn.__name__))
            return original(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
        samples = [([frozenset({i})], [i]) for i in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = cluster_shards(
                samples,
                _crash_shard_zero,
                shard_workers=2,
                retries=0,
                executor=PROCESS_SHARD_EXECUTOR,
            )
        assert results.skipped_shards == [0]
        first_pool = calls[0][0]
        names = [name for pool, name in calls if pool == first_pool]
        assert names[:3] == ["bootstrap_probe", "bootstrap_probe", "_attempt"]

    def test_strict_run_names_only_the_crashing_shard(self):
        samples = [([frozenset({i})], [i]) for i in range(4)]
        with pytest.raises(ShardExecutionError, match="1 of 4 shard") as excinfo:
            cluster_shards(
                samples,
                _crash_shard_zero,
                shard_workers=2,
                retries=0,
                strict=True,
                executor=PROCESS_SHARD_EXECUTOR,
            )
        assert "shard 0:" in str(excinfo.value)
        assert "shard 1" not in str(excinfo.value)

    @pytest.mark.parametrize("unpicklable", ["exponent", "items"])
    def test_unpicklable_task_fails_once_with_configuration_error(
        self, tight_baskets, monkeypatch, process_pools, unpicklable
    ):
        # A lambda exponent function, or items of a local class, cannot
        # reach a spawned worker.  That is a configuration error, raised by
        # the bootstrap probe of the first pool: no shard attempt, no retry
        # wave, no degraded-run warning, and a message naming the task or
        # its samples and the thread executor.
        monkeypatch.setattr(sharding, "_start_method", lambda: "spawn")
        transactions = tight_baskets.transactions
        if unpicklable == "items":
            pipeline = _pipeline()
            transactions = _local_class_items(transactions)
        else:
            pipeline = _pipeline(exponent_function=lambda t: (1 - t) / (1 + t))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(
                ConfigurationError,
                match="task or its samples cannot be pickled.*'thread' executor",
            ):
                pipeline.run_sharded(
                    transactions,
                    n_shards=2,
                    shard_workers=2,
                    shard_executor=PROCESS_SHARD_EXECUTOR,
                )
        assert process_pools == [2]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_unpicklable_result_fails_once_with_configuration_error(
        self, process_pools
    ):
        # A result that cannot be pickled back would fail every retry alike:
        # the worker raises a configuration error naming the shard, and the
        # first pool's wave propagates it instead of retrying it as a crash.
        samples = [([frozenset({i})], [i]) for i in range(3)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(
                ConfigurationError, match=r"result of shard \d cannot be pickled"
            ):
                cluster_shards(
                    samples,
                    _unpicklable_result,
                    shard_workers=2,
                    executor=PROCESS_SHARD_EXECUTOR,
                )
        assert process_pools == [2]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "task, kind",
        [(_unpicklable_error, "ValueError"), (_unrebuildable_error, "_TwoPartError")],
    )
    def test_task_error_that_cannot_be_pickled_keeps_its_message(
        self, process_pools, task, kind
    ):
        # The worker sends a stand-in naming the error's type and message,
        # and the error is retried like any other task error.
        samples = [([frozenset({i})], [i]) for i in range(2)]
        with pytest.raises(ShardExecutionError, match="bad shard") as caught:
            cluster_shards(
                samples, task, shard_workers=2, executor=PROCESS_SHARD_EXECUTOR,
                retries=1, strict=True,
            )
        message = str(caught.value)
        assert "after 2 attempt(s)" in message
        assert "shard 0: %s: " % kind in message and "shard 1: %s: " % kind in message
        assert process_pools == [2, 2]

    def test_configuration_error_that_cannot_be_pickled_is_not_retried(
        self, process_pools
    ):
        samples = [([frozenset({i})], [i]) for i in range(2)]
        with pytest.raises(ConfigurationError, match="bad shard config"):
            cluster_shards(
                samples,
                _unpicklable_configuration_error,
                shard_workers=2,
                executor=PROCESS_SHARD_EXECUTOR,
            )
        assert process_pools == [2]

    def test_unpicklable_task_rejected_by_the_probe(self, monkeypatch):
        # The same check one layer down: the pool's initializer hands the
        # task to every spawned worker as the bootstrap probe starts it, so
        # a lambda task never reaches a shard attempt there.
        monkeypatch.setattr(sharding, "_start_method", lambda: "spawn")
        samples = [([frozenset({1, 2})], [0]), ([frozenset({3})], [1])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigurationError, match="cannot be pickled"):
                cluster_shards(
                    samples,
                    lambda shard_id, sample, positions: shard_id,
                    executor=PROCESS_SHARD_EXECUTOR,
                )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_thread_executor_runs_the_unpicklable_task(self, tight_baskets):
        # The remedy the pickling error names: the thread pool never
        # pickles the task, so the lambda exponent function runs there.
        pipeline = _pipeline(exponent_function=lambda t: (1 - t) / (1 + t))
        result = pipeline.run_sharded(
            tight_baskets.transactions,
            n_shards=2,
            shard_workers=2,
            shard_executor=THREAD_SHARD_EXECUTOR,
        )
        assert result.parameters["skipped_shards"] == []
        assert len(result.labels) == 800

    def test_guardless_script_fails_once_with_configuration_error(self, tmp_path):
        # Without a __main__ guard every spawned worker re-runs the script
        # while bootstrapping and dies before any shard task runs.  That is
        # a configuration error: one attempt (one child bootstrap, despite
        # the retry budget and strict=False) and a message naming the fix.
        # Forked workers never re-run the script, so the script forces
        # spawn, as on platforms without a safe fork.
        marker = tmp_path / "bootstraps.txt"
        script = tmp_path / "guardless.py"
        script.write_text(
            textwrap.dedent(
                """\
                import sys

                from repro.core import sharding
                from repro.core.pipeline import RockPipeline
                from repro.datasets.market_basket import generate_market_baskets
                from repro.errors import ConfigurationError

                sharding._start_method = lambda: "spawn"
                with open(%r, "a") as handle:
                    handle.write(__name__ + "\\n")
                baskets = generate_market_baskets(n_transactions=120, rng=0)
                try:
                    RockPipeline(
                        n_clusters=2, theta=0.5, sample_size=60, rng=0
                    ).run_sharded(
                        baskets.transactions,
                        n_shards=2,
                        shard_workers=1,
                        shard_executor="process",
                        shard_retries=2,
                    )
                except ConfigurationError as error:
                    print("ConfigurationError:", error)
                    sys.exit(3)
                """
                % str(marker)
            ),
            encoding="utf-8",
        )
        source_root = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(source_root)},
            timeout=120,
        )
        assert result.returncode == 3, result.stdout + result.stderr
        assert 'if __name__ == "__main__":' in result.stdout
        assert "terminated abruptly" not in result.stdout
        assert marker.read_text().split() == ["__main__", "__mp_main__"]


    @pytest.mark.skipif(not CAN_FORK, reason="needs the fork start method")
    def test_forked_spawned_and_thread_pools_agree(
        self, tight_baskets, thread_run, monkeypatch
    ):
        for method in ("fork", "spawn"):
            monkeypatch.setattr(sharding, "_start_method", lambda method=method: method)
            processed = _pipeline().run_sharded(
                tight_baskets.transactions,
                n_shards=3,
                shard_workers=2,
                shard_executor=PROCESS_SHARD_EXECUTOR,
            )
            assert np.array_equal(thread_run.labels, processed.labels), method
            assert thread_run.clusters == processed.clusters, method

    def test_lambda_exponent_and_local_measure_run_on_the_default_path(
        self, tight_baskets
    ):
        # Forked workers inherit the task and the samples, and a result
        # holds stream positions only, so a measure class, an exponent
        # function and items no pickle can find by name still run there.
        class LocalJaccard(JaccardSimilarity):
            pass

        baskets = _local_class_items(tight_baskets.transactions)

        def run(**executor):
            return _pipeline(
                measure=LocalJaccard(), exponent_function=lambda t: (1 - t) / (1 + t)
            ).run_sharded(baskets, n_shards=3, shard_workers=2, **executor)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            default = run()
        threaded = run(shard_executor=THREAD_SHARD_EXECUTOR)
        forks = sharding._start_method() == "fork"
        assert default.parameters["shard_executor"] == (
            PROCESS_SHARD_EXECUTOR if forks else THREAD_SHARD_EXECUTOR
        )
        assert default.parameters["skipped_shards"] == []
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert np.array_equal(default.labels, threaded.labels)

    @pytest.mark.skipif(not CAN_FORK, reason="needs the fork start method")
    @pytest.mark.parametrize(
        "shard_workers, executor",
        [
            (None, THREAD_SHARD_EXECUTOR),
            (1, THREAD_SHARD_EXECUTOR),
            (2, PROCESS_SHARD_EXECUTOR),
        ],
    )
    def test_omitted_executor_forks_only_for_parallel_shards(
        self, tight_baskets, monkeypatch, process_pools, shard_workers, executor
    ):
        # One worker runs nothing in parallel, so the default makes no
        # process pool for it; more than one forks, and the parameters
        # report the pool that ran.
        monkeypatch.setattr(sharding, "_start_method", lambda: "fork")
        result = _pipeline().run_sharded(
            tight_baskets.transactions, n_shards=3, shard_workers=shard_workers
        )
        assert result.parameters["shard_executor"] == executor
        assert process_pools == ([2] if executor == PROCESS_SHARD_EXECUTOR else [])

    @pytest.mark.parametrize(
        "executor", [None, THREAD_SHARD_EXECUTOR, PROCESS_SHARD_EXECUTOR]
    )
    def test_one_shard_reports_no_executor(
        self, tight_baskets, monkeypatch, process_pools, executor
    ):
        # One shard takes the streaming phases and makes no pool, whatever
        # executor was named (a bad name is still rejected up front).
        monkeypatch.setattr(sharding, "_start_method", lambda: "fork")
        result = _pipeline().run_sharded(
            tight_baskets.transactions,
            n_shards=1,
            shard_workers=2,
            shard_executor=executor,
        )
        assert result.parameters["shard_executor"] is None
        assert process_pools == []

    def test_attempts_ship_only_the_shard_id(self, monkeypatch):
        # The task and the samples reach the workers through the pool's
        # initializer; an attempt carries the fired failpoint and its id.
        calls = []
        original = ProcessPoolExecutor.submit

        def recording(pool, fn, *args, **kwargs):
            calls.append((fn.__name__, args))
            return original(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
        samples = [([frozenset({i})], [i]) for i in range(3)]
        with failpoints.failpoint("shard.worker.1", times=1):
            results = cluster_shards(
                samples, _times_ten, shard_workers=2, executor=PROCESS_SHARD_EXECUTOR
            )
        assert list(results) == [0, 10, 20]
        attempts = [args for name, args in calls if name == "_attempt"]
        assert attempts == [(None, 0), ("shard.worker.1", 1), (None, 2), (None, 1)]

    @pytest.mark.skipif(not CAN_FORK, reason="needs the fork start method")
    def test_no_cpu_pool_thread_is_alive_at_the_fork(
        self, tight_baskets, thread_run, monkeypatch
    ):
        # A pooled link product leaves the shared CPU pool's threads
        # running.  The forked run joins them before it forks, labels as
        # the thread pool does, and the CPU pool works again afterwards.
        import multiprocessing.popen_fork as popen_fork

        monkeypatch.setattr(cpu_pool_module, "_pool", None)
        monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(links_module, "_POOL_MIN_MULTIPLY_ADDS", 0)
        graph = compute_neighbors(tight_baskets.transactions[:200], theta=0.5)
        expected = links_from_neighbors(graph)
        assert cpu_pool_module._pool is not None
        alive_at_fork = []
        launch = popen_fork.Popen._launch

        def recording(popen, process_obj):
            alive_at_fork.extend(thread.name for thread in threading.enumerate())
            return launch(popen, process_obj)

        monkeypatch.setattr(popen_fork.Popen, "_launch", recording)
        monkeypatch.setattr(sharding, "_start_method", lambda: "fork")
        forked = _pipeline().run_sharded(
            tight_baskets.transactions,
            n_shards=3,
            shard_workers=2,
            shard_executor=PROCESS_SHARD_EXECUTOR,
        )
        assert np.array_equal(thread_run.labels, forked.labels)
        assert alive_at_fork
        assert not [name for name in alive_at_fork if name.startswith("repro-cpu")]
        again = links_from_neighbors(graph)
        assert cpu_pool_module._pool is not None
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(again, name), getattr(expected, name))
        cpu_pool_module.shutdown_cpu_pool()


class TestStartMethod:
    """Process workers fork on Linux and spawn elsewhere, and the default
    executor follows: ``process`` where the workers fork and more than one
    attempt can run at once, else ``thread``."""

    @pytest.mark.parametrize(
        "platform, method, default",
        [
            ("linux", "fork", PROCESS_SHARD_EXECUTOR),
            ("darwin", "spawn", THREAD_SHARD_EXECUTOR),
            ("win32", "spawn", THREAD_SHARD_EXECUTOR),
        ],
    )
    def test_platform_picks_the_start_method_and_default(
        self, monkeypatch, platform, method, default
    ):
        monkeypatch.setattr(sys, "platform", platform)
        assert sharding._start_method() == method
        assert resolve_shard_executor(None, 2) == default
        assert resolve_shard_executor(None, 1) == THREAD_SHARD_EXECUTOR

    def test_default_is_thread_when_workers_cannot_fork(self, monkeypatch):
        monkeypatch.setattr(sharding, "_start_method", lambda: "spawn")
        assert resolve_shard_executor(None, 2) == THREAD_SHARD_EXECUTOR


class TestShardRetries:
    """run_sharded exposes the retry budget (regression: it used to be
    hard-wired, so a shard failing more than one attempt could never
    succeed even though cluster_shards supported deeper budgets)."""

    @pytest.fixture(autouse=True)
    def _clean_failpoints(self):
        failpoints.reset()
        yield
        failpoints.reset()

    def test_shard_surviving_two_failures_is_bit_identical(self, tight_baskets):
        transactions = tight_baskets.transactions
        clean = _pipeline().run_sharded(transactions, n_shards=3)
        with failpoints.failpoint("shard.worker.1", times=2):
            retried = _pipeline().run_sharded(
                transactions, n_shards=3, shard_retries=2
            )
        assert np.array_equal(clean.labels, retried.labels)
        assert clean.clusters == retried.clusters
        assert retried.parameters["skipped_shards"] == []
        assert retried.parameters["shard_retries"] == 2

    def test_default_budget_still_degrades_on_double_failure(self, tight_baskets):
        with failpoints.failpoint("shard.worker.1", times=2):
            with pytest.warns(RuntimeWarning, match="shard 1"):
                result = _pipeline().run_sharded(
                    tight_baskets.transactions, n_shards=3
                )
        assert result.parameters["skipped_shards"] == [1]

    def test_retries_zero_gives_single_attempt(self, tight_baskets):
        with failpoints.failpoint("shard.worker.2", times=1):
            with pytest.warns(RuntimeWarning, match="shard 2"):
                result = _pipeline().run_sharded(
                    tight_baskets.transactions, n_shards=3, shard_retries=0
                )
        assert result.parameters["skipped_shards"] == [2]

    def test_negative_retries_rejected(self, tight_baskets):
        with pytest.raises(ConfigurationError, match="shard_retries"):
            _pipeline().run_sharded(
                tight_baskets.transactions, n_shards=2, shard_retries=-1
            )

    def test_process_path_honours_deeper_budget(self, tight_baskets):
        transactions = tight_baskets.transactions
        clean = _pipeline().run_sharded(transactions, n_shards=3)
        with failpoints.failpoint("shard.worker.1", times=2):
            retried = _pipeline().run_sharded(
                transactions,
                n_shards=3,
                shard_workers=2,
                shard_executor=PROCESS_SHARD_EXECUTOR,
                shard_retries=2,
            )
        assert np.array_equal(clean.labels, retried.labels)
        assert retried.parameters["skipped_shards"] == []


def _two_group_pool():
    group_a = [frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({1, 3, 4})]
    group_b = [frozenset({7, 8, 9}), frozenset({7, 8, 10}), frozenset({7, 9, 10})]
    pooled = (group_a + group_b) * 4
    summaries = [tuple(range(start, start + 3)) for start in range(0, 24, 3)]
    return pooled, summaries


class TestHierarchicalMerge:
    """fan_in merging: one level is bit-identical to the flat merge,
    deeper hierarchies are seed-reproducible."""

    def test_single_level_bit_identical_to_flat(self):
        pooled, summaries = _two_group_pool()
        flat = merge_shard_summaries(
            pooled, summaries, n_clusters=2, theta=0.4, rng=0
        )
        fanned = merge_shard_summaries(
            pooled, summaries, n_clusters=2, theta=0.4, rng=0,
            fan_in=len(summaries),
        )
        assert fanned.groups == flat.groups
        assert fanned.merge_history == flat.merge_history
        assert fanned.stopped_early == flat.stopped_early
        assert flat.levels == 1
        assert fanned.levels == 1

    def test_hierarchy_recovers_the_latent_groups(self):
        pooled, summaries = _two_group_pool()
        flat = merge_shard_summaries(
            pooled, summaries, n_clusters=2, theta=0.4, rng=0
        )
        for fan_in in (2, 4):
            merged = merge_shard_summaries(
                pooled, summaries, n_clusters=2, theta=0.4, rng=0, fan_in=fan_in
            )
            assert merged.levels > 1
            assert sorted(merged.groups) == sorted(flat.groups)

    def test_hierarchy_is_seed_reproducible(self):
        pooled, summaries = _two_group_pool()
        first = merge_shard_summaries(
            pooled, summaries, n_clusters=2, theta=0.4, rng=3, fan_in=2
        )
        second = merge_shard_summaries(
            pooled, summaries, n_clusters=2, theta=0.4, rng=3, fan_in=2
        )
        assert first.groups == second.groups
        assert first.levels == second.levels

    def test_level_count_follows_fan_in(self):
        pooled, summaries = _two_group_pool()
        merged = merge_shard_summaries(
            pooled, summaries, n_clusters=2, theta=0.4, rng=0, fan_in=2
        )
        # Eight summaries at fan-in two: 8 -> 4 -> 2 units, then the final
        # flat merge over the survivors.
        assert merged.levels == 3

    def test_group_ids_refer_to_original_summaries(self):
        pooled, summaries = _two_group_pool()
        merged = merge_shard_summaries(
            pooled, summaries, n_clusters=2, theta=0.4, rng=0, fan_in=2
        )
        flattened = sorted(i for group in merged.groups for i in group)
        assert flattened == list(range(len(summaries)))

    def test_invalid_fan_in_rejected(self):
        pooled, summaries = _two_group_pool()
        with pytest.raises(ConfigurationError, match="fan_in"):
            merge_shard_summaries(
                pooled, summaries, n_clusters=2, theta=0.4, rng=0, fan_in=1
            )

    def test_summary_groups_must_partition(self):
        pooled, summaries = _two_group_pool()
        with pytest.raises(ConfigurationError, match="summary_groups"):
            merge_shard_summaries(
                pooled, summaries, n_clusters=2, theta=0.4, rng=0,
                fan_in=2, summary_groups=[[0, 1], [1, 2]],
            )
        with pytest.raises(ConfigurationError, match="summary_groups"):
            merge_shard_summaries(
                pooled, summaries, n_clusters=2, theta=0.4, rng=0,
                fan_in=2, summary_groups=[[0, 1]],
            )

    def test_run_sharded_fan_in_at_least_shards_is_flat(self, tight_baskets):
        transactions = tight_baskets.transactions
        flat = _pipeline().run_sharded(transactions, n_shards=4)
        fanned = _pipeline().run_sharded(
            transactions, n_shards=4, merge_fan_in=4
        )
        assert np.array_equal(flat.labels, fanned.labels)
        assert flat.clusters == fanned.clusters
        assert fanned.parameters["merge_fan_in"] == 4
        assert fanned.parameters["merge_levels"] == 1

    def test_run_sharded_hierarchy_reproducible_and_sound(self, tight_baskets):
        transactions = tight_baskets.transactions
        first = _pipeline().run_sharded(
            transactions, n_shards=4, merge_fan_in=2
        )
        second = _pipeline().run_sharded(
            transactions, n_shards=4, merge_fan_in=2
        )
        assert np.array_equal(first.labels, second.labels)
        assert first.parameters["merge_levels"] >= 1
        flat = _pipeline().run_sharded(transactions, n_shards=4)
        assert adjusted_rand_index(first.labels, flat.labels) >= 0.6


class TestRunShardedValidation:
    def test_invalid_shard_count_rejected(self, tight_baskets):
        with pytest.raises(ConfigurationError):
            _pipeline().run_sharded(tight_baskets.transactions, n_shards=0)

    def test_unknown_strategy_rejected(self, tight_baskets):
        with pytest.raises(ConfigurationError):
            _pipeline().run_sharded(
                tight_baskets.transactions, n_shards=2, shard_strategy="psychic"
            )

    def test_empty_source_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(DataValidationError):
            _pipeline().run_sharded(path, n_shards=2)

    def test_invalid_worker_count_rejected(self, tight_baskets):
        with pytest.raises(ConfigurationError):
            _pipeline().run_sharded(
                tight_baskets.transactions, n_shards=2, shard_workers=0
            )

    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize(
        "options",
        [
            {"merge_fan_in": 1},
            {"representatives_per_cluster": 0},
            {"representatives_per_cluster": "bogus"},
            {"representatives_per_cluster": "auto"},
            {"shard_workers": 0},
            {"shard_workers": -3},
        ],
        ids=lambda options: "%s=%s" % next(iter(options.items())),
    )
    def test_merge_options_checked_before_any_shard_clusters(
        self, tight_baskets, monkeypatch, n_shards, options
    ):
        clustered = []
        monkeypatch.setattr(
            pipeline_module, "_cluster_sample", lambda *args: clustered.append(args)
        )
        with pytest.raises(ConfigurationError):
            _pipeline().run_sharded(
                tight_baskets.transactions, n_shards=n_shards, **options
            )
        assert clustered == []

    # "auto" is no executor: no measured crossover backs a choice between
    # the two pools, so it gets the typed unknown-executor error too.
    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("executor", ["psychic", "auto"])
    def test_unknown_executor_rejected(self, tight_baskets, executor, n_shards):
        with pytest.raises(ConfigurationError, match="unknown shard executor"):
            _pipeline().run_sharded(
                tight_baskets.transactions, n_shards=n_shards, shard_executor=executor
            )
