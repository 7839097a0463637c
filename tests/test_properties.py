"""Property-based tests (hypothesis) for core data structures and invariants."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goodness import default_expected_links_exponent, goodness, theta_power
from repro.core.heaps import AddressableMaxHeap
from repro.core.incremental import IncrementalRock
from repro.core.labeling import StreamingLabeler
from repro.core.links import links_from_neighbors
from repro.core.neighbors import compute_neighbors
from repro.core.rock import RockClustering
from repro.evaluation.metrics import (
    adjusted_rand_index,
    clustering_error,
    purity,
)
from repro.similarity.jaccard import (
    DiceSimilarity,
    JaccardSimilarity,
    OverlapCoefficientSimilarity,
    SetCosineSimilarity,
    jaccard,
)
from toy_measures import ShiftedOverlap

# ----------------------------------------------------------------------- #
# Strategies
# ----------------------------------------------------------------------- #
item_sets = st.frozensets(st.integers(min_value=0, max_value=12), max_size=8)
transaction_lists = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=10), min_size=0, max_size=6),
    min_size=1,
    max_size=18,
)
thetas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
#: Every measure the exact overlap kernel thresholds: the four built-in
#: ones and a toy one that scores above 0 at zero overlap.
KERNEL_MEASURES = (
    JaccardSimilarity(),
    DiceSimilarity(),
    OverlapCoefficientSimilarity(),
    SetCosineSimilarity(),
    ShiftedOverlap(),
)


# ----------------------------------------------------------------------- #
# Similarity properties
# ----------------------------------------------------------------------- #
class TestSimilarityProperties:
    @given(left=item_sets, right=item_sets)
    def test_jaccard_bounded_and_symmetric(self, left, right):
        value = jaccard(left, right)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(right, left)

    @given(items=item_sets)
    def test_jaccard_identity(self, items):
        assert jaccard(items, items) == 1.0

    @given(left=item_sets, right=item_sets)
    def test_jaccard_one_iff_equal(self, left, right):
        if jaccard(left, right) == 1.0:
            assert left == right

    @given(left=item_sets, right=item_sets)
    def test_dice_at_least_jaccard(self, left, right):
        assert DiceSimilarity()(left, right) >= jaccard(left, right) - 1e-12

    @given(left=item_sets, right=item_sets, third=item_sets)
    def test_jaccard_distance_triangle_inequality(self, left, right, third):
        # 1 - Jaccard is a metric; check the triangle inequality.
        d = lambda a, b: 1.0 - jaccard(a, b)
        assert d(left, third) <= d(left, right) + d(right, third) + 1e-9


# ----------------------------------------------------------------------- #
# Goodness properties
# ----------------------------------------------------------------------- #
class TestGoodnessProperties:
    @given(theta=thetas)
    def test_exponent_in_unit_interval(self, theta):
        value = default_expected_links_exponent(theta)
        assert 0.0 <= value <= 1.0

    @given(theta=thetas, size=st.integers(min_value=1, max_value=1000))
    def test_theta_power_at_least_linear(self, theta, size):
        # The exponent 1 + 2 f(theta) is always >= 1.
        assert theta_power(size, theta) >= size - 1e-9

    @given(
        theta=st.floats(min_value=0.0, max_value=0.99),
        links=st.integers(min_value=1, max_value=10_000),
        size_left=st.integers(min_value=1, max_value=500),
        size_right=st.integers(min_value=1, max_value=500),
    )
    def test_goodness_positive_and_monotone_in_links(self, theta, links, size_left, size_right):
        value = goodness(links, size_left, size_right, theta)
        more = goodness(links + 1, size_left, size_right, theta)
        assert value > 0
        assert more > value


# ----------------------------------------------------------------------- #
# Heap properties
# ----------------------------------------------------------------------- #
class TestHeapProperties:
    @given(priorities=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                         min_value=-1e6, max_value=1e6),
                               min_size=1, max_size=60))
    def test_pops_are_sorted(self, priorities):
        heap = AddressableMaxHeap()
        for index, priority in enumerate(priorities):
            heap.push(index, priority)
        drained = []
        while heap:
            drained.append(heap.pop()[1])
        assert drained == sorted(priorities, reverse=True)

    @given(
        priorities=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                      min_value=-100, max_value=100),
                            min_size=2, max_size=40),
        updates=st.lists(st.tuples(st.integers(min_value=0, max_value=39),
                                   st.floats(allow_nan=False, allow_infinity=False,
                                             min_value=-100, max_value=100)),
                         max_size=30),
    )
    def test_pops_sorted_after_updates(self, priorities, updates):
        heap = AddressableMaxHeap()
        current = {}
        for index, priority in enumerate(priorities):
            heap.push(index, priority)
            current[index] = priority
        for key, priority in updates:
            if key in current:
                heap.update(key, priority)
                current[key] = priority
        drained = [heap.pop()[1] for _ in range(len(current))]
        assert drained == sorted(current.values(), reverse=True)

    @given(keys=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=50))
    def test_membership_tracks_push_and_discard(self, keys):
        heap = AddressableMaxHeap()
        present = set()
        for key in keys:
            if key in present:
                heap.discard(key)
                present.discard(key)
            else:
                heap.push(key, float(key))
                present.add(key)
        assert set(heap) == present
        assert len(heap) == len(present)


# ----------------------------------------------------------------------- #
# Neighbour / link / clustering invariants
# ----------------------------------------------------------------------- #
class TestClusteringProperties:
    @settings(deadline=None, max_examples=40)
    @given(
        transactions=transaction_lists,
        theta=thetas,
        block_size=st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
        measure=st.sampled_from(KERNEL_MEASURES),
    )
    def test_neighbor_strategies_agree(self, transactions, theta, block_size, measure):
        brute = compute_neighbors(
            transactions, theta, measure=measure, strategy="bruteforce"
        )
        fast = compute_neighbors(
            transactions, theta, measure=measure, strategy="blocked",
            block_size=block_size,
        )
        assert (brute.adjacency != fast.adjacency).nnz == 0

    @settings(deadline=None, max_examples=40)
    @given(transactions=transaction_lists, theta=st.floats(min_value=0.05, max_value=0.95))
    def test_link_strategies_agree(self, transactions, theta):
        graph = compute_neighbors(transactions, theta)
        by_lists = links_from_neighbors(graph, strategy="neighbor-lists")
        by_matmul = links_from_neighbors(graph, strategy="sparse-matmul")
        assert (by_lists != by_matmul).nnz == 0

    @settings(deadline=None, max_examples=30)
    @given(
        transactions=transaction_lists,
        theta=st.floats(min_value=0.1, max_value=0.9),
        n_clusters=st.integers(min_value=1, max_value=5),
    )
    def test_rock_partitions_all_points(self, transactions, theta, n_clusters):
        model = RockClustering(n_clusters=n_clusters, theta=theta).fit(transactions)
        labels = model.labels_
        assert len(labels) == len(transactions)
        assert np.all(labels >= 0)
        # Clusters partition the indices exactly.
        members = sorted(index for cluster in model.clusters_ for index in cluster)
        assert members == list(range(len(transactions)))
        # Never fewer clusters than requested unless there are fewer points.
        assert model.n_clusters_ >= min(n_clusters, len(transactions))


# ----------------------------------------------------------------------- #
# Incremental-ingest invariants
# ----------------------------------------------------------------------- #
@st.composite
def ingest_schedules(draw):
    """A bootstrap set plus a stream of new points cut into random batches.

    Returns ``(bootstrap, stream, batches)`` where ``batches`` is a
    partition of ``stream`` into contiguous non-empty batches — the
    "batched-ingest schedule" whose split must never change any label.
    """
    bootstrap = draw(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=10), max_size=6),
            min_size=3,
            max_size=10,
        )
    )
    stream = draw(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=14), max_size=6),
            min_size=1,
            max_size=10,
        )
    )
    cuts = draw(
        st.sets(st.integers(min_value=1, max_value=max(1, len(stream) - 1)))
    )
    boundaries = [0, *sorted(c for c in cuts if c < len(stream)), len(stream)]
    batches = [
        stream[start:stop]
        for start, stop in zip(boundaries, boundaries[1:])
        if stop > start
    ]
    return bootstrap, stream, batches


def _bootstrap_session(bootstrap, theta, n_clusters=2, rng=0, **kwargs):
    clusters = RockClustering(n_clusters=n_clusters, theta=theta).fit(bootstrap).clusters_
    session = IncrementalRock(n_clusters=n_clusters, theta=theta, rng=rng, **kwargs)
    session.bootstrap(bootstrap, clusters)
    return session, clusters


class TestIncrementalProperties:
    @settings(deadline=None, max_examples=30)
    @given(
        schedule=ingest_schedules(),
        theta=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_batched_ingest_equals_batch_labeling(self, schedule, theta):
        # Incremental ≡ batch: the labels of a stream are independent of
        # the ingest batch split and identical to labelling the whole
        # stream in one StreamingLabeler pass over the bootstrap clusters.
        bootstrap, stream, batches = schedule
        session, clusters = _bootstrap_session(bootstrap, theta)
        labeler = StreamingLabeler(
            bootstrap, clusters, theta=theta, rng=np.random.default_rng(0)
        )
        expected = labeler.label_batch(stream).labels
        incremental = np.concatenate(
            [session.ingest(batch).labels for batch in batches]
        )
        np.testing.assert_array_equal(incremental, expected)

    @staticmethod
    def _assert_matches_from_scratch(session, theta, include_self_links):
        # The maintained adjacency, the derived link matrix and the cluster
        # links equal a from-scratch recomputation over the live points,
        # and the clusters partition them.
        graph = compute_neighbors(
            session.live_points, theta=theta, strategy="bruteforce"
        )
        assert (session.adjacency_ != graph.adjacency).nnz == 0
        fresh = links_from_neighbors(graph, include_self=include_self_links)
        assert (session.links_ != fresh).nnz == 0
        members = sorted(
            index
            for cluster in session.live_clusters()
            for index in cluster
        )
        assert members == list(range(session.n_points))
        n_slots = session.n_live_clusters
        membership = np.zeros((n_slots, session.n_points), dtype=np.int64)
        membership[session._cluster_of, np.arange(session.n_points)] = 1
        assert membership.sum(axis=1).all()
        expected = membership @ fresh.toarray() @ membership.T
        np.fill_diagonal(expected, 0)
        np.testing.assert_array_equal(session._cluster_links.toarray(), expected)

    @settings(deadline=None, max_examples=30)
    @given(
        schedule=ingest_schedules(),
        theta=st.floats(min_value=0.05, max_value=0.95),
        include_self_links=st.booleans(),
    )
    def test_link_matrix_and_cluster_links_after_every_ingest(
        self, schedule, theta, include_self_links
    ):
        # After every ingest the adjacency and the cluster links spliced at
        # cluster granularity equal a from-scratch recomputation, under
        # either self-link convention (they fold through different N).
        bootstrap, _stream, batches = schedule
        session, _clusters = _bootstrap_session(
            bootstrap, theta, include_self_links=include_self_links
        )
        self._assert_matches_from_scratch(session, theta, include_self_links)
        for batch in batches:
            session.ingest(batch)
            self._assert_matches_from_scratch(session, theta, include_self_links)

    @settings(deadline=None, max_examples=40)
    @given(
        schedule=ingest_schedules(),
        theta=st.floats(min_value=0.05, max_value=0.95),
        include_self_links=st.booleans(),
        data=st.data(),
    )
    def test_state_after_eviction_equals_from_scratch(
        self, schedule, theta, include_self_links, data
    ):
        # Evicting the oldest points at any point of a schedule leaves no
        # trace of them: no survivor pair keeps an evicted point as a
        # common neighbour, before or after further ingests.
        bootstrap, _stream, batches = schedule
        session, _clusters = _bootstrap_session(
            bootstrap, theta, include_self_links=include_self_links
        )
        evict_at = data.draw(
            st.integers(min_value=0, max_value=len(batches)), label="evict_at"
        )
        for batch in batches[:evict_at]:
            session.ingest(batch)
        n_evict = data.draw(
            st.integers(min_value=1, max_value=session.n_points - 1)
            if session.n_points > 1
            else st.just(0),
            label="n_evict",
        )
        survivors = session.live_points[n_evict:]
        assert session.evict_oldest(n_evict) == n_evict
        assert session.live_points == survivors
        self._assert_matches_from_scratch(session, theta, include_self_links)
        for batch in batches[evict_at:]:
            session.ingest(batch)
            self._assert_matches_from_scratch(session, theta, include_self_links)

    @settings(deadline=None, max_examples=20)
    @given(
        schedule=ingest_schedules(),
        theta=st.floats(min_value=0.1, max_value=0.9),
        refresh_threshold=st.floats(min_value=0.1, max_value=2.0),
    )
    def test_refreshing_sessions_are_seed_reproducible(
        self, schedule, theta, refresh_threshold
    ):
        # With a refresh threshold, the same schedule and seed must give
        # the same labels, label spaces and refresh points on every run.
        bootstrap, _stream, batches = schedule
        outcomes = []
        for _ in range(2):
            session, _clusters = _bootstrap_session(
                bootstrap, theta, refresh_threshold=refresh_threshold
            )
            results = [session.ingest(batch) for batch in batches]
            outcomes.append(
                (
                    [result.labels.tolist() for result in results],
                    [result.label_space for result in results],
                    [result.refreshed for result in results],
                    session.n_refreshes,
                )
            )
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------- #
# Persistence: restore ≡ uninterrupted
# ----------------------------------------------------------------------- #
class TestPersistenceProperties:
    """Snapshot/restore interleaved anywhere in an ingest schedule — with or
    without an injected crash — must reproduce the uninterrupted run bit for
    bit (labels, matrices and RNG stream alike)."""

    FAULTS = (None, "snapshot.before-rename", "wal.torn-append")

    @staticmethod
    def _states_identical(left, right):
        assert (left.adjacency_ != right.adjacency_).nnz == 0
        assert (left.links_ != right.links_).nnz == 0
        np.testing.assert_array_equal(left._cluster_of, right._cluster_of)
        assert (left._cluster_links != right._cluster_links).nnz == 0
        assert left.rng.bit_generator.state == right.rng.bit_generator.state

    @settings(deadline=None, max_examples=15)
    @given(
        schedule=ingest_schedules(),
        theta=st.floats(min_value=0.1, max_value=0.9),
        data=st.data(),
    )
    def test_restore_equals_uninterrupted(self, schedule, theta, data):
        from repro.persistence import failpoints
        from repro.persistence.session import PersistentSession

        bootstrap, _stream, batches = schedule
        reference, _ = _bootstrap_session(bootstrap, theta)
        expected = [reference.ingest(batch).labels.tolist() for batch in batches]

        cut = data.draw(
            st.integers(min_value=0, max_value=len(batches)), label="cut"
        )
        fault = data.draw(st.sampled_from(self.FAULTS), label="fault")
        failpoints.reset()
        try:
            with tempfile.TemporaryDirectory() as tmp:
                session, _ = _bootstrap_session(bootstrap, theta)
                store = PersistentSession.create(tmp, session)
                observed = [
                    store.ingest(batch).labels.tolist()
                    for batch in batches[:cut]
                ]
                if fault is None:
                    store.snapshot()
                elif fault == "snapshot.before-rename":
                    with failpoints.failpoint(fault, times=1):
                        with pytest.raises(failpoints.InjectedFaultError):
                            store.snapshot()
                elif cut < len(batches):  # torn WAL append mid-ingest
                    with failpoints.failpoint(fault, times=1):
                        with pytest.raises(failpoints.InjectedFaultError):
                            store.ingest(batches[cut])
                del store  # simulated kill: no close()

                resumed = PersistentSession.resume(tmp)
                observed.extend(
                    resumed.ingest(batch).labels.tolist()
                    for batch in batches[cut:]
                )
        finally:
            failpoints.reset()
        assert observed == expected
        self._states_identical(resumed.session, reference)


# ----------------------------------------------------------------------- #
# Serving properties
# ----------------------------------------------------------------------- #
class TestServeProperties:
    """Randomised label/ingest/snapshot interleavings against an in-process
    server must reproduce the no-server ``run_online`` bit-contract: every
    served ingest ack carries exactly the labels direct ``session.ingest``
    calls over the same schedule produce, however many label reads and
    snapshots are woven between them, and a crash/restore in the middle
    changes nothing."""

    @settings(deadline=None, max_examples=15)
    @given(
        schedule=ingest_schedules(),
        theta=st.floats(min_value=0.1, max_value=0.9),
        data=st.data(),
    )
    def test_served_schedule_equals_direct_ingest(self, schedule, theta, data):
        import asyncio

        from repro.serve.client import ServeClient
        from repro.serve.server import ReproServer

        bootstrap, stream, batches = schedule
        reference, _ = _bootstrap_session(bootstrap, theta)
        expected = [
            [int(label) for label in reference.ingest(batch).labels]
            for batch in batches
        ]
        # label_only depends only on the retained labeler, never on what
        # was ingested, so one twin answers for every interleaving point.
        twin, _ = _bootstrap_session(bootstrap, theta)
        expected_labels = [int(label) for label in twin.label_only(stream)]

        # One interleaving token per slot: which read/admin traffic (if
        # any) precedes each ingest batch and the shutdown.
        interleave = data.draw(
            st.lists(
                st.sampled_from(("none", "label", "snapshot", "label+snapshot")),
                min_size=len(batches) + 1,
                max_size=len(batches) + 1,
            ),
            label="interleave",
        )
        restart_at = data.draw(
            st.integers(min_value=0, max_value=len(batches)), label="restart_at"
        )

        async def drive(client, slots):
            observed = []
            for slot, batch in slots:
                token = interleave[slot]
                if "label" in token:
                    point = stream[slot % len(stream)]
                    assert await client.label(point) == expected_labels[
                        slot % len(stream)
                    ]
                if "snapshot" in token:
                    await client.snapshot()
                if batch is not None:
                    observed.append((await client.ingest(batch))["labels"])
            return observed

        async def scenario(tmp):
            session, _ = _bootstrap_session(bootstrap, theta)
            slots = list(enumerate(batches)) + [(len(batches), None)]

            server = ReproServer.create(session, tmp)
            await server.start()
            async with await ServeClient.connect(*server.address) as client:
                observed = await drive(client, slots[:restart_at])
            # Stop without the shutdown verb, then restore from disk: the
            # second server must continue exactly where the first left off.
            await server.stop()

            resumed = ReproServer.resume(tmp)
            await resumed.start()
            async with await ServeClient.connect(*resumed.address) as client:
                observed += await drive(client, slots[restart_at:])
                await client.shutdown()
            await resumed.serve_forever()
            return observed

        with tempfile.TemporaryDirectory() as tmp:
            observed = asyncio.run(scenario(tmp))
        assert observed == expected


# ----------------------------------------------------------------------- #
# Metric properties
# ----------------------------------------------------------------------- #
class TestMetricProperties:
    label_lists = st.integers(min_value=2, max_value=40).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n),
            st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
        )
    )

    @given(pair=label_lists)
    def test_purity_bounds_and_error_complement(self, pair):
        predicted, truth = pair
        value = purity(predicted, truth)
        assert 0.0 < value <= 1.0
        assert clustering_error(predicted, truth) == 1.0 - value

    @given(pair=label_lists)
    def test_ari_bounded_above_by_one(self, pair):
        predicted, truth = pair
        assert adjusted_rand_index(predicted, truth) <= 1.0 + 1e-9

    @given(truth=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=40))
    def test_perfect_prediction_has_zero_error(self, truth):
        assert clustering_error(truth, truth) == 0.0
        assert adjusted_rand_index(truth, truth) >= 1.0 - 1e-9
