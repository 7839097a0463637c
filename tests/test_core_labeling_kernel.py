"""Tests for the dense integer form of the labelling count kernel
(repro.core.labeling) and its row blocks on the shared CPU pool.

The integer form must equal the sparse form and the brute-force spec on
counts, labels and outliers, whatever operand dtype the retained sets
force, and its pooled blocks must equal the inline ones.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.core.cpu_pool as cpu_pool_module
import repro.core.labeling as labeling_module
from repro.core.labeling import StreamingLabeler, label_points
from repro.errors import ConfigurationError
from toy_measures import NON_MONOTONE_RULES, OverlapRule


def _random_case(seed, n_sample=60, n_batch=40, n_items=14):
    """Random baskets over a small universe with empty sets on both sides;
    the batch also holds items the sample never saw."""
    rng = np.random.default_rng(seed)

    def make(high):
        size = int(rng.integers(0, 6))
        return frozenset(rng.choice(high, size=size, replace=False).tolist())

    sample = [make(n_items) for _ in range(n_sample - 1)] + [frozenset()]
    batch = [make(n_items + 6) for _ in range(n_batch)] + [
        frozenset(),
        frozenset({1000, 1001}),
        frozenset({0, 1, 2, 1002}),
    ]
    clusters = [list(range(i, n_sample, 3)) for i in range(3)]
    return sample, clusters, batch


def _forms(sample, clusters, batch, **kwargs):
    """Counts, labels and outliers of the integer form, the sparse form and
    the brute-force spec on one batch."""
    results = []
    for dense in (True, False):
        labeler = StreamingLabeler(
            sample, clusters, strategy="sparse-matmul", rng=0, **kwargs
        )
        labeler._dense_form = dense
        results.append(labeler.label_batch(batch))
    results.append(
        label_points(batch, sample, clusters, strategy="bruteforce", rng=0, **kwargs)
    )
    return results


def _assert_same(results):
    first = results[0]
    for other in results[1:]:
        assert np.array_equal(first.neighbor_counts, other.neighbor_counts)
        assert np.array_equal(first.labels, other.labels)
        assert first.n_outliers == other.n_outliers


class TestIntegerForm:
    @pytest.mark.parametrize("theta", [0.0, 0.1 + 0.2, 1 / 3, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fraction", [0.3, 1.0])
    def test_integer_sparse_and_bruteforce_agree(self, theta, seed, fraction):
        sample, clusters, batch = _random_case(seed)
        _assert_same(
            _forms(sample, clusters, batch, theta=theta, labeling_fraction=fraction)
        )

    @pytest.mark.parametrize(
        "rows_per_cluster, largest, dtype",
        [
            (4, 5, np.int8),
            # -(127 + 1) is int8's least value: still int8.
            (4, 127, np.int8),
            (4, 128, np.int16),
            # 127 retained rows fit int8, 128 do not.
            (43, 5, np.int16),
            (4, 32767, np.int16),
            (4, 32768, np.int32),
        ],
    )
    def test_operand_dtype_follows_rows_and_largest_set(
        self, rows_per_cluster, largest, dtype
    ):
        rng = np.random.default_rng(largest)
        big = frozenset(range(largest))
        sample = [big] + [
            frozenset(rng.choice(40, size=int(rng.integers(1, 6)), replace=False).tolist())
            for _ in range(3 * rows_per_cluster - 1)
        ]
        clusters = [list(range(i, len(sample), 3)) for i in range(3)]
        batch = sample[:12] + [
            frozenset(range(largest // 2)),
            frozenset(range(largest - 2)) | {-1, -2, -3},
            frozenset({0, 1, 2}),
            frozenset(),
        ]
        labeler = StreamingLabeler(sample, clusters, theta=0.5, rng=0)
        assert labeler._dense_form
        assert labeler._operand.dtype == dtype
        # Integer dtypes never reach BLAS.
        assert np.issubdtype(labeler._operand.dtype, np.signedinteger)
        _assert_same(_forms(sample, clusters, batch, theta=0.5))
        for theta in (0.0, 1.0):
            _assert_same(_forms(sample, clusters, batch, theta=theta))

    def test_cluster_with_more_rows_than_int8_holds(self):
        # 200 retained copies of one basket in cluster 0: a point equal to
        # it counts 200 neighbours there, beyond int8.
        basket = frozenset({1, 2, 3})
        sample = [basket] * 200 + [frozenset({7, 8}), frozenset({8, 9})]
        clusters = [list(range(200)), [200, 201]]
        batch = [basket, frozenset({1, 2, 3, 4}), frozenset({8}), frozenset({50})]
        labeler = StreamingLabeler(sample, clusters, theta=0.5)
        assert labeler._operand.dtype == np.int16
        counts = labeler.label_batch(batch).neighbor_counts
        assert counts[0].tolist() == [200.0, 0.0]
        _assert_same(_forms(sample, clusters, batch, theta=0.5))

    def test_new_set_size_in_a_later_batch_keeps_earlier_rows(self, monkeypatch):
        # Room for one threshold row ahead, so later sizes force the operand
        # to grow more than once.
        monkeypatch.setattr(labeling_module, "_SIZE_ROWS_AHEAD", 1)
        sample, clusters, _ = _random_case(3)
        labeler = StreamingLabeler(sample, clusters, theta=0.4, rng=0)
        n_items = labeler._retained_incidence.shape[1]
        batches = [
            [frozenset({0, 1}), frozenset({2, 3, 4})],
            [frozenset(range(9)), frozenset({0, 5})],
            [frozenset(range(k)) for k in range(12)],
        ]
        seen = {}
        for batch in batches:
            result = labeler.label_batch(batch)
            brute = label_points(batch, sample, clusters, theta=0.4, strategy="bruteforce", rng=0)
            assert np.array_equal(result.neighbor_counts, brute.neighbor_counts)
            for size, row in seen.items():
                assert labeler._size_row[size] == row[0]
                assert np.array_equal(labeler._operand[row[0]], row[1])
            seen = {
                size: (row, labeler._operand[row].copy())
                for size, row in labeler._size_row.items()
            }
            # Rows are handed out in order after the item rows.
            assert sorted(labeler._size_row.values()) == list(
                range(n_items, n_items + len(labeler._size_row))
            )
        assert len(labeler._size_row) == 12
        assert len(labeler._operand) > n_items + 1

    @pytest.mark.parametrize("name, rule", NON_MONOTONE_RULES)
    def test_non_monotone_measure_rejected_and_adds_no_row(self, name, rule):
        sample, clusters, batch = _random_case(4)
        labeler = StreamingLabeler(
            sample, clusters, theta=0.5, measure=OverlapRule(name, rule),
            strategy="sparse-matmul",
        )
        assert labeler._dense_form
        with pytest.raises(ConfigurationError, match=name):
            labeler.label_batch(batch)
        assert labeler._size_row == {}

    def test_from_state_rebuilds_an_identical_labeller(self):
        sample, clusters, batch = _random_case(6, n_sample=90)
        original = StreamingLabeler(sample, clusters, theta=0.4, labeling_fraction=0.5, rng=3)
        first = original.label_batch(batch[:20])
        restored = StreamingLabeler.from_state(original.state(), theta=0.4)
        assert restored.state() == original.state()
        assert restored._dense_form == original._dense_form
        n_items = original._retained_incidence.shape[1]
        assert restored._operand.dtype == original._operand.dtype
        assert np.array_equal(restored._operand[:n_items], original._operand[:n_items])
        assert np.array_equal(restored._cluster_starts, original._cluster_starts)
        assert np.array_equal(
            restored.label_batch(batch[:20]).neighbor_counts, first.neighbor_counts
        )
        later = [original.label_batch(batch[20:]), restored.label_batch(batch[20:])]
        _assert_same(later)


class _RecordingPool(ThreadPoolExecutor):
    """A thread pool that counts the tasks submitted to it."""

    def __init__(self, workers):
        super().__init__(max_workers=workers)
        self.tasks = 0

    def submit(self, *args, **kwargs):
        self.tasks += 1
        return super().submit(*args, **kwargs)


class TestPooledKernel:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("points_per_block", [1, 3, 16])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
    def test_pooled_equals_inline(self, monkeypatch, workers, points_per_block, theta):
        sample, clusters, batch = _random_case(7, n_batch=70)
        labeler = StreamingLabeler(sample, clusters, theta=theta, rng=0)
        assert labeler._dense_form
        n_rows = labeler._retained_incidence.shape[0]
        monkeypatch.setattr(labeling_module, "BLOCK_CELLS", points_per_block * n_rows)
        monkeypatch.setattr(labeling_module, "cpu_pool", lambda: None)
        inline = labeler.label_batch(batch)
        pool = _RecordingPool(workers)
        try:
            monkeypatch.setattr(labeling_module, "cpu_pool", lambda: (pool, workers))
            pooled = labeler.label_batch(batch)
        finally:
            pool.shutdown()
        if theta > 0:
            # Blocks of points_per_block // workers points (one at least).
            step = max(1, points_per_block // workers)
            assert pool.tasks == -(-len(batch) // step)
        _assert_same([pooled, inline])
        brute = label_points(batch, sample, clusters, theta=theta, strategy="bruteforce", rng=0)
        assert np.array_equal(pooled.neighbor_counts, brute.neighbor_counts)

    def test_batch_of_one_block_runs_inline(self, monkeypatch):
        sample, clusters, batch = _random_case(8)
        labeler = StreamingLabeler(sample, clusters, theta=0.3, rng=0)
        n_rows = labeler._retained_incidence.shape[0]
        monkeypatch.setattr(labeling_module, "BLOCK_CELLS", len(batch) * n_rows)
        pool = _RecordingPool(2)
        try:
            monkeypatch.setattr(labeling_module, "cpu_pool", lambda: (pool, 2))
            one_block = labeler.label_batch(batch)
            assert pool.tasks == 0
            # One point more spans two serial blocks: pooled blocks of half
            # a serial block each.
            labeler.label_batch(batch + batch[:1])
            assert pool.tasks == -(-(len(batch) + 1) // (len(batch) // 2))
        finally:
            pool.shutdown()
        brute = label_points(batch, sample, clusters, theta=0.3, strategy="bruteforce", rng=0)
        assert np.array_equal(one_block.neighbor_counts, brute.neighbor_counts)

    def test_label_batch_off_the_main_thread_runs_inline(self, monkeypatch):
        sample, clusters, batch = _random_case(9, n_batch=70)
        labeler = StreamingLabeler(sample, clusters, theta=0.3, rng=0)
        n_rows = labeler._retained_incidence.shape[0]
        monkeypatch.setattr(labeling_module, "BLOCK_CELLS", 4 * n_rows)
        monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 2)
        chosen = []
        real = cpu_pool_module.cpu_pool

        def recording():
            chosen.append((threading.current_thread(), real()))
            return chosen[-1][1]

        monkeypatch.setattr(labeling_module, "cpu_pool", recording)
        with ThreadPoolExecutor(max_workers=1) as executor:
            counts = executor.submit(labeler.label_batch, batch).result().neighbor_counts
        assert len(chosen) == 1
        thread, pool = chosen[0]
        assert thread is not threading.main_thread() and pool is None
        brute = label_points(batch, sample, clusters, theta=0.3, strategy="bruteforce", rng=0)
        assert np.array_equal(counts, brute.neighbor_counts)

    def test_concurrent_batches_add_each_size_once(self):
        # Batches on several threads at once (the pool is refused off the
        # main thread, so each runs inline) share one operand.
        sample, clusters, _ = _random_case(10)
        labeler = StreamingLabeler(sample, clusters, theta=0.3, rng=0)
        batches = [[frozenset(range(k, k + size)) for size in range(10)] for k in range(8)]
        with ThreadPoolExecutor(max_workers=4) as executor:
            results = list(executor.map(labeler.label_batch, batches))
        n_items = labeler._retained_incidence.shape[1]
        assert sorted(labeler._size_row) == list(range(10))
        assert sorted(labeler._size_row.values()) == list(range(n_items, n_items + 10))
        for batch, result in zip(batches, results):
            brute = label_points(batch, sample, clusters, theta=0.3, strategy="bruteforce", rng=0)
            assert np.array_equal(result.neighbor_counts, brute.neighbor_counts)
