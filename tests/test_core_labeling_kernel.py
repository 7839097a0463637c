"""Tests for the dense integer form of the labelling count kernel
(repro.core.labeling), its row blocks on the shared CPU pool and the
streaming label loop.

The integer form must equal the sparse form and the brute-force spec on
counts, labels and outliers, whatever operand and count dtypes the
retained sets force, its pooled blocks must equal the inline ones, and
the streaming loop's batches in flight must equal a one-at-a-time walk.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.core.cpu_pool as cpu_pool_module
import repro.core.labeling as labeling_module
import repro.core.pipeline as pipeline_module
from repro.core.labeling import StreamingLabeler, label_points
from repro.core.pipeline import RockPipeline
from repro.datasets.market_basket import generate_instacart_baskets
from repro.errors import ConfigurationError, DataValidationError
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
            # 129 retained rows: the cells still fit int8, since the
            # cluster sums take their own count dtype.
            (43, 5, np.int8),
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
        # No cluster retains more than 127 rows.
        assert labeler._count_dtype == np.int8
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
        assert labeler._operand.dtype == np.int8
        assert labeler._count_dtype == np.int16
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


def _label_threads():
    """Worker threads of the streaming label loop still alive."""
    return [t for t in threading.enumerate() if t.name.startswith("repro-label")]


class TestStreamingLoop:
    """``StreamingLabeler.label_stream``, the one streaming label loop:
    where the CPU pool may run, at most one batch per pool thread in
    flight on its own threads, each counting inline, results placed in
    batch order; a lone payload stays on the calling thread with the
    pooled row blocks; where the pool may not run, one batch at a time on
    the calling thread."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        """The real CPU pool rules on two usable CPUs, whatever the host
        has, so batches go in flight on any host; the pool made here is
        joined afterwards."""
        monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cpu_pool_module, "_pool", None)
        yield
        made = cpu_pool_module._pool
        if made is not None:
            made[0].shutdown()

    @staticmethod
    def _baskets():
        return generate_instacart_baskets(n_transactions=4600, rng=0).transactions

    @staticmethod
    def _run(monkeypatch, block_cells, run):
        """``run()`` with ``BLOCK_CELLS = block_cells``, recording every
        placed payload, the labeller and the threads ``label_batch`` ran on.
        One-point row blocks send every batch of two points or more in
        flight; huge ones keep every batch on the calling thread, one at a
        time."""
        placed, labelers, threads = [], [], set()
        place, stream = pipeline_module._LabelState.place, StreamingLabeler.label_stream
        label_batch = StreamingLabeler.label_batch

        def placing(state, positions, labels, kind, label_space=0):
            placed.append((list(positions), labels.copy(), kind))
            return place(state, positions, labels, kind, label_space)

        def streaming(labeler, *args, **kwargs):
            labelers.append(labeler)
            return stream(labeler, *args, **kwargs)

        def labelling(labeler, batch):
            threads.add(threading.current_thread().name)
            return label_batch(labeler, batch)

        with monkeypatch.context() as patch:
            patch.setattr(labeling_module, "BLOCK_CELLS", block_cells)
            patch.setattr(pipeline_module._LabelState, "place", placing)
            patch.setattr(StreamingLabeler, "label_stream", streaming)
            patch.setattr(StreamingLabeler, "label_batch", labelling)
            outcome = run()
        return outcome, placed, labelers, threads

    @pytest.mark.parametrize("batch_size", [1, 7, 4096, None], ids=["1", "7", "4096", "n"])
    def test_in_flight_equals_one_at_a_time(self, monkeypatch, batch_size):
        baskets = self._baskets()
        size = batch_size or len(baskets)

        def run():
            pipeline = RockPipeline(n_clusters=8, theta=0.3, sample_size=200, rng=0)
            return pipeline.run_streaming(baskets, batch_size=size)

        flight, placed, labelers, threads = self._run(monkeypatch, 1, run)
        serial, serial_placed, serial_labelers, serial_threads = self._run(
            monkeypatch, 1 << 40, run
        )
        assert serial_threads == {threading.main_thread().name}
        # Batches of more than one row block go in flight; one-point
        # batches and the lone batch of size n stay on the calling thread.
        in_flight = {t for t in threads if t.startswith("repro-label")}
        assert bool(in_flight) is (size in (7, 4096))
        assert len(placed) == len(serial_placed) > 0
        for (positions, labels, kind), (want_positions, want_labels, want_kind) in zip(
            placed, serial_placed
        ):
            assert positions == want_positions and kind == want_kind
            assert np.array_equal(labels, want_labels)
        assert flight.labeled_indices == serial.labeled_indices
        assert np.array_equal(flight.labels, serial.labels)
        totals = [
            (labeler.n_batches, labeler.n_points, labeler.n_outliers)
            for labeler in (labelers[0], serial_labelers[0])
        ]
        assert totals[0] == totals[1]
        assert totals[0][:2] == (len(placed), len(flight.labeled_indices))
        assert not _label_threads()

    @pytest.mark.parametrize("held", [4500, 4700], ids=["shorter", "longer"])
    def test_source_changing_length_raises_and_places_nothing_after(self, monkeypatch, held):
        baskets = generate_instacart_baskets(n_transactions=4700, rng=0).transactions
        passes = []

        def source():
            passes.append(1)
            return iter(baskets[: 4600 if len(passes) == 1 else held])

        mismatch = pipeline_module._LabelState._mismatch
        outcomes = []
        for cells in (1, 1 << 40):
            events = []

            def mismatching(state, seen, events=events):
                events.append("error")
                return mismatch(state, seen)

            def run():
                passes.clear()
                pipeline = RockPipeline(n_clusters=8, theta=0.3, sample_size=200, rng=0)
                with pytest.raises(DataValidationError) as error:
                    pipeline.run_streaming(source, batch_size=7)
                return str(error.value)

            monkeypatch.setattr(pipeline_module._LabelState, "_mismatch", mismatching)
            message, placed, _, threads = self._run(monkeypatch, cells, run)
            assert events == ["error"]
            outcomes.append((message, placed, threads))
        (message, placed, threads), (serial_message, serial_placed, _) = outcomes
        assert message == serial_message
        assert any(t.startswith("repro-label") for t in threads)
        # Payloads in flight when the source ran out are dropped: what was
        # placed is a prefix of the one-at-a-time walk, and nothing follows
        # the error.
        assert len(placed) <= len(serial_placed)
        for (positions, labels, _), (want_positions, want_labels, _) in zip(placed, serial_placed):
            assert positions == want_positions and np.array_equal(labels, want_labels)
        assert not _label_threads()

    def test_error_in_a_batch_joins_the_workers(self, monkeypatch):
        sample, clusters, batch = _random_case(11, n_batch=60)
        labeler = StreamingLabeler(
            sample, clusters, theta=0.5, measure=OverlapRule(*NON_MONOTONE_RULES[0]),
            strategy="sparse-matmul",
        )
        monkeypatch.setattr(labeling_module, "BLOCK_CELLS", 1)
        placed = []
        with pytest.raises(ConfigurationError):
            labeler.label_stream([batch, batch, batch], lambda b, r: placed.append(r))
        assert placed == [] and not _label_threads()

    @pytest.mark.parametrize("where", ["one-cpu", "worker-thread"])
    def test_without_the_pool_batches_run_one_at_a_time(self, monkeypatch, where):
        sample, clusters, batch = _random_case(13, n_batch=60)
        labeler = StreamingLabeler(sample, clusters, theta=0.3, rng=0)
        want = [labeler._label(batch[low:low + 6]) for low in range(0, 60, 6)]
        monkeypatch.setattr(labeling_module, "BLOCK_CELLS", 1)
        threads = []
        label_batch = StreamingLabeler.label_batch

        def labelling(labeler, batch):
            threads.append(threading.current_thread())
            return label_batch(labeler, batch)

        monkeypatch.setattr(StreamingLabeler, "label_batch", labelling)
        results = []

        def stream():
            labeler.label_stream(
                [batch[low:low + 6] for low in range(0, 60, 6)],
                lambda b, r: results.append(r),
            )
            return threading.current_thread()

        if where == "one-cpu":
            monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 1)
            caller = stream()
        else:
            with ThreadPoolExecutor(max_workers=1) as executor:
                caller = executor.submit(stream).result()
        assert threads == [caller] * len(want)
        assert cpu_pool_module._pool is None
        _assert_same([labeler.merge(results), labeler.merge(want)])
        assert labeler.n_batches == len(want)

    def test_at_most_one_batch_per_pool_thread_in_flight(self, monkeypatch):
        monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 3)
        sample, clusters, batch = _random_case(14, n_batch=60)
        labeler = StreamingLabeler(sample, clusters, theta=0.3, rng=0)
        batches = [batch[low:low + 5] for low in range(0, 60, 5)]
        want = [labeler._label(b) for b in batches]
        monkeypatch.setattr(labeling_module, "BLOCK_CELLS", 1)
        # The first three batches meet at a barrier, so three run at once;
        # a fourth at once would exceed the count seen.
        meet = threading.Barrier(3, timeout=30)
        lock = threading.Lock()
        running, most, calls, names = [0], [0], [0], set()
        label_batch = StreamingLabeler.label_batch

        def labelling(labeler, batch):
            with lock:
                calls[0] += 1
                first = calls[0] <= 3
                running[0] += 1
                most[0] = max(most[0], running[0])
                names.add(threading.current_thread().name)
            if first:
                meet.wait()
            try:
                return label_batch(labeler, batch)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(StreamingLabeler, "label_batch", labelling)
        results = []
        labeler.label_stream(batches, lambda b, r: results.append(r))
        assert most[0] == 3
        assert len(names) == 3 and all(name.startswith("repro-label") for name in names)
        _assert_same([labeler.merge(results), labeler.merge(want)])
        assert not _label_threads()

    @pytest.mark.parametrize("tail", [0, 1], ids=["lone", "with-a-one-block-tail"])
    def test_lone_payload_runs_pooled_on_the_calling_thread(self, monkeypatch, tail):
        sample, clusters, batch = _random_case(12, n_batch=70)
        labeler = StreamingLabeler(sample, clusters, theta=0.3, rng=0)
        n_rows = labeler._retained_incidence.shape[0]
        monkeypatch.setattr(labeling_module, "BLOCK_CELLS", 4 * n_rows)
        threads = []
        label_batch = StreamingLabeler.label_batch

        def labelling(labeler, batch):
            threads.append(threading.current_thread())
            return label_batch(labeler, batch)

        monkeypatch.setattr(StreamingLabeler, "label_batch", labelling)
        pool = _RecordingPool(2)
        try:
            monkeypatch.setattr(labeling_module, "cpu_pool", lambda: (pool, 2))
            results = []
            labeler.label_stream([batch] + [batch[:4]] * tail, lambda b, r: results.append(r))
        finally:
            pool.shutdown()
        assert threads == [threading.main_thread()] * (1 + tail)
        # The lone batch's blocks of two points ran on the pool; the tail
        # of one row block ran inline.
        assert pool.tasks == -(-len(batch) // 2)
        brute = label_points(batch, sample, clusters, theta=0.3, strategy="bruteforce", rng=0)
        assert np.array_equal(results[0].neighbor_counts, brute.neighbor_counts)
        assert labeler.n_batches == 1 + tail


class TestInt8Boundaries:
    """Counts stay exact where the operand cells and the count dtype widen."""

    @pytest.mark.parametrize("largest, dtype", [(126, np.int8), (127, np.int8), (128, np.int16)])
    def test_largest_retained_set(self, largest, dtype):
        big = frozenset(range(largest))
        sample = [big, frozenset(range(largest - 1)), frozenset(range(largest // 2))] + [
            frozenset({i, i + 1}) for i in range(9)
        ]
        clusters = [list(range(0, 12, 2)), list(range(1, 12, 2))]
        batch = [
            big,
            big | {-1},
            frozenset(range(1, largest + 1)),
            frozenset(range(largest // 2 + 1)),
            frozenset({0, 1}),
            frozenset(),
        ]
        for theta in (0.5, 0.99, 1.0):
            labeler = StreamingLabeler(sample, clusters, theta=theta, rng=0)
            assert labeler._dense_form and labeler._operand.dtype == dtype
            _assert_same(_forms(sample, clusters, batch, theta=theta))

    @pytest.mark.parametrize(
        "rows, dtype",
        [(127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)],
    )
    def test_cluster_row_counts(self, rows, dtype):
        # ``rows`` retained copies of one basket in cluster 0: a point equal
        # to it counts every one of them.
        basket = frozenset({1, 2, 3})
        sample = [basket] * rows + [frozenset({7, 8}), frozenset({8, 9})]
        clusters = [list(range(rows)), [rows, rows + 1]]
        batch = [basket, frozenset({1, 2, 3, 4}), frozenset({8}), frozenset({50})]
        counts = []
        for dense in (True, False):
            labeler = StreamingLabeler(sample, clusters, theta=0.5)
            assert labeler._count_dtype == dtype and labeler._operand.dtype == np.int8
            labeler._dense_form = dense
            counts.append(labeler.label_batch(batch).neighbor_counts)
        assert counts[0][0].tolist() == [float(rows), 0.0]
        assert counts[0][1].tolist() == [float(rows), 0.0]
        assert np.array_equal(counts[0], counts[1])


def test_running_totals_exact_under_concurrent_batches():
    """Batches labelled on more threads than cores, with the interpreter
    switching threads every few microseconds, lose no running total."""
    import sys

    sample, clusters, batch = _random_case(13, n_batch=30)
    labeler = StreamingLabeler(sample, clusters, theta=0.3, rng=0)
    # Mostly empty and one-point batches: the totals' update is most of
    # each call.
    batches = [batch[: i % 3 // 2] for i in range(3000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as executor:
            results = list(executor.map(labeler.label_batch, batches, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert labeler.n_batches == len(batches)
    assert labeler.n_points == sum(len(b) for b in batches)
    assert labeler.n_outliers == sum(r.n_outliers for r in results)
