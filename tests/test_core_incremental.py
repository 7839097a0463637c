"""Tests for the incremental/online ingest subsystem (repro.core.incremental)."""

import numpy as np
import pytest

from repro.core.incremental import (
    IncrementalRock,
    IngestResult,
    validate_refresh_threshold,
)
from repro.core.labeling import StreamingLabeler
from repro.core.links import cross_cluster_links, links_from_neighbors
from repro.core.neighbors import compute_neighbors
from repro.core.pipeline import RockPipeline
from repro.core.rock import RockClustering
from repro.datasets.market_basket import generate_market_baskets
from repro.errors import ConfigurationError, DataValidationError
from repro.similarity.base import SetSimilarity
from repro.similarity.jaccard import (
    DiceSimilarity,
    JaccardSimilarity,
    OverlapCoefficientSimilarity,
    SetCosineSimilarity,
)
from toy_measures import NON_MONOTONE_RULES, OverlapRule, ShiftedOverlap

#: The four built-in vectorizable measures plus a toy one that scores
#: above 0 at zero overlap (disjoint sets can be neighbours).
INGEST_MEASURES = (
    JaccardSimilarity(),
    DiceSimilarity(),
    OverlapCoefficientSimilarity(),
    SetCosineSimilarity(),
    ShiftedOverlap(),
)


def bootstrapped_session(transactions, n_clusters=2, theta=0.3, rng=0, **kwargs):
    """Cluster ``transactions`` and bootstrap a session on the result."""
    model = RockClustering(n_clusters=n_clusters, theta=theta).fit(transactions)
    session = IncrementalRock(
        n_clusters=n_clusters, theta=theta, rng=rng, **kwargs
    )
    session.bootstrap(transactions, model.clusters_)
    return session


def assert_live_state_consistent(session):
    """Invariants of the maintained live state vs a from-scratch rebuild.

    The rebuild runs the ``bruteforce`` spec, not ``auto``: the splice and
    the ``blocked`` backend share one overlap kernel, so comparing them
    would check the kernel against itself.
    """
    points = session.live_points
    graph = compute_neighbors(
        points,
        theta=session.config.theta,
        measure=session.config.measure,
        strategy="bruteforce",
    )
    assert (session.adjacency_ != graph.adjacency).nnz == 0
    fresh_links = links_from_neighbors(
        graph, include_self=session.config.include_self_links
    )
    assert (session.links_ != fresh_links).nnz == 0

    # Clusters partition the live points.
    members = sorted(
        index for cluster in session.live_clusters() for index in cluster
    )
    assert members == list(range(len(points)))

    # Every cluster slot is occupied, and the cluster-level cross-link
    # matrix equals the fold of the point-level link matrix by slot.
    slots = [
        np.flatnonzero(session._cluster_of == slot)
        for slot in range(session.n_live_clusters)
    ]
    assert all(len(members) for members in slots)
    cluster_links = session._cluster_links.toarray()
    for a, left in enumerate(slots):
        assert cluster_links[a, a] == 0
        for b, right in enumerate(slots):
            if a != b:
                assert cluster_links[a, b] == cross_cluster_links(
                    session.links_, left, right
                )


def assert_session_states_equal(left, right):
    """Two :meth:`IncrementalRock.session_state` captures are equal."""
    left, right = dict(left), dict(right)
    left_arrays, right_arrays = left.pop("arrays"), right.pop("arrays")
    assert left == right
    for name in ("adjacency", "incidence"):
        assert (left_arrays[name] != right_arrays[name]).nnz == 0
    np.testing.assert_array_equal(left_arrays["sizes"], right_arrays["sizes"])


class TestValidation:
    def test_refresh_threshold_none_passthrough(self):
        assert validate_refresh_threshold(None) is None

    @pytest.mark.parametrize("value", [0.0, -0.5, float("nan")])
    def test_invalid_refresh_threshold_rejected(self, value):
        with pytest.raises(ConfigurationError):
            validate_refresh_threshold(value)

    def test_invalid_threshold_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            IncrementalRock(n_clusters=2, refresh_threshold=0.0)

    @pytest.mark.parametrize("fraction", [1.5, 0.0, -0.2])
    def test_labeling_fraction_outside_unit_interval_rejected_at_construction(
        self, fraction
    ):
        with pytest.raises(ConfigurationError, match="labeling fraction"):
            IncrementalRock(n_clusters=1, labeling_fraction=fraction)

    def test_ingest_before_bootstrap_rejected(self):
        session = IncrementalRock(n_clusters=2)
        with pytest.raises(ConfigurationError):
            session.ingest([frozenset({1})])

    def test_bootstrap_requires_clusters(self):
        with pytest.raises(DataValidationError):
            IncrementalRock(n_clusters=2).bootstrap([frozenset({1})], [])

    def test_bootstrap_rejects_out_of_range_member(self):
        with pytest.raises(DataValidationError):
            IncrementalRock(n_clusters=2).bootstrap([frozenset({1})], [(0, 5)])

    def test_bootstrap_rejects_overlapping_clusters(self):
        with pytest.raises(DataValidationError):
            IncrementalRock(n_clusters=2).bootstrap(
                [frozenset({1}), frozenset({2})], [(0, 1), (1,)]
            )


class TestIngestLabels:
    def test_labels_match_streaming_labeler(self, two_group_transactions):
        session = bootstrapped_session(two_group_transactions)
        batch = [frozenset({1, 2, 5}), frozenset({7, 8, 11}), frozenset({99})]
        labeler = StreamingLabeler(
            two_group_transactions,
            RockClustering(n_clusters=2, theta=0.3)
            .fit(two_group_transactions)
            .clusters_,
            theta=0.3,
            rng=np.random.default_rng(0),
        )
        expected = labeler.label_batch(batch)
        result = session.ingest(batch)
        assert isinstance(result, IngestResult)
        np.testing.assert_array_equal(result.labels, expected.labels)
        assert result.n_points == 3
        assert result.label_space == 0
        assert not result.refreshed

    def test_batch_split_never_changes_labels(self, two_group_transactions):
        batch = [
            frozenset({1, 2, 5}),
            frozenset({7, 8, 11}),
            frozenset({1, 3}),
            frozenset({7, 10}),
        ]
        one_shot = bootstrapped_session(two_group_transactions)
        split = bootstrapped_session(two_group_transactions)
        whole = one_shot.ingest(batch).labels
        parts = np.concatenate(
            [split.ingest(batch[:1]).labels, split.ingest(batch[1:]).labels]
        )
        np.testing.assert_array_equal(whole, parts)

    def test_label_only_leaves_the_session_state_untouched(self):
        # A checkpoint must not depend on how many reads were served.
        dataset = generate_market_baskets(n_transactions=200, rng=5, n_clusters=3)
        transactions = list(dataset.transactions)
        served = bootstrapped_session(transactions[:80], n_clusters=3)
        untouched = bootstrapped_session(transactions[:80], n_clusters=3)
        for session in (served, untouched):
            session.ingest(transactions[80:90])
        reads = [transactions[90 + 2 * i : 92 + 2 * i] for i in range(50)]
        labels = [served.label_only(batch) for batch in reads]

        assert_session_states_equal(served.session_state(), untouched.session_state())
        labeler_state = untouched.session_state()["labeler"]
        assert (labeler_state["n_batches"], labeler_state["n_points"]) == (1, 10)
        # The counting path labels the same.
        labeler = StreamingLabeler.from_state(labeler_state, theta=0.3)
        for batch, got in zip(reads, labels):
            np.testing.assert_array_equal(got, labeler.label_batch(batch).labels)
        assert labeler.n_batches == 51

    def test_empty_batch_is_a_no_op(self, two_group_transactions):
        session = bootstrapped_session(two_group_transactions)
        before = session.n_points
        result = session.ingest([])
        assert result.n_points == 0
        assert result.labels.size == 0
        assert session.n_points == before


class TestLiveStateInvariants:
    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("measure", INGEST_MEASURES, ids=lambda m: m.name)
    def test_invariants_hold_after_every_ingest(
        self, two_group_transactions, measure, theta
    ):
        # An empty basket in the live set and in a batch: its pairs never
        # appear in an overlap product, yet every measure here scores two
        # empty sets as identical.
        # f(1) = 0 zeroes the paper's goodness denominator, so the frontier
        # merges run under a constant exponent; the splice never reads it.
        live = two_group_transactions + [frozenset()]
        session = IncrementalRock(
            n_clusters=2, theta=theta, measure=measure, rng=0,
            exponent_function=lambda theta: 0.5,
        )
        session.bootstrap(live, [[0, 1, 2], [3, 4, 5, 6]])
        assert_live_state_consistent(session)
        batches = [
            [frozenset({1, 2, 5}), frozenset({7, 8, 11})],
            [frozenset({1, 2, 3}), frozenset({50, 51})],
            [frozenset(), frozenset({50, 52}), frozenset({1, 4})],
        ]
        for batch in batches:
            session.ingest(batch)
            assert_live_state_consistent(session)
        assert session.n_points == len(live) + 7
        assert session.n_ingested == 7

    @pytest.mark.parametrize("name, rule", NON_MONOTONE_RULES)
    def test_non_monotone_measure_rejected_by_ingest(self, name, rule):
        # Two empty live points leave nothing for the contract check to
        # see; a batch of two-item sets brings the size pair that breaks it.
        measure = OverlapRule(name, rule)
        live = [frozenset(), frozenset()]
        batch = [frozenset({1, 2}), frozenset({1, 3})]
        session = IncrementalRock(n_clusters=1, theta=0.5, measure=measure, rng=0)
        session.bootstrap(live, [[0, 1]])
        with pytest.raises(ConfigurationError, match=name):
            session.ingest(batch)

    def test_invariants_hold_for_non_vectorizable_measure(
        self, two_group_transactions
    ):
        class SimpleMatching(SetSimilarity):
            name = "pair-only"

            def __call__(self, left, right):
                if not left and not right:
                    return 1.0
                union = len(left | right)
                return len(left & right) / union if union else 1.0

        session = bootstrapped_session(
            two_group_transactions, measure=SimpleMatching()
        )
        session.ingest([frozenset({1, 2, 5}), frozenset({7, 8, 11})])
        assert_live_state_consistent(session)

    def test_invariants_hold_at_theta_zero(self, two_group_transactions):
        session = bootstrapped_session(two_group_transactions, theta=0.0)
        session.ingest([frozenset({99}), frozenset()])
        assert_live_state_consistent(session)

    def test_invariants_hold_for_dice_measure(self, two_group_transactions):
        session = bootstrapped_session(
            two_group_transactions, measure=DiceSimilarity(), theta=0.5
        )
        session.ingest([frozenset({1, 2, 5}), frozenset({7, 8, 11})])
        assert_live_state_consistent(session)

    def test_new_items_extend_the_live_index(self, two_group_transactions):
        session = bootstrapped_session(two_group_transactions)
        # Both points live entirely on items the bootstrap never saw; they
        # must still become neighbours of each other in the live graph.
        session.ingest([frozenset({100, 101, 102}), frozenset({100, 101, 103})])
        assert_live_state_consistent(session)
        n = session.n_points
        assert session.adjacency_[n - 2, n - 1]

    def test_singletons_without_links_stay_outliers(self, two_group_transactions):
        session = bootstrapped_session(two_group_transactions)
        before = len(session.live_clusters())
        session.ingest([frozenset({777})])
        clusters = session.live_clusters()
        assert len(clusters) == before + 1
        assert (session.n_points - 1,) in clusters

    def test_linked_points_merge_into_their_cluster(self, two_group_transactions):
        session = bootstrapped_session(two_group_transactions)
        session.ingest([frozenset({1, 2, 3})])
        clusters = session.live_clusters()
        new_point = session.n_points - 1
        # The new point joins the {0, 1, 2} group instead of dangling.
        joined = next(c for c in clusters if new_point in c)
        assert set(joined) >= {0, 1, 2}


class TestRefresh:
    def test_refresh_triggers_on_drift(self, two_group_transactions):
        session = bootstrapped_session(
            two_group_transactions, refresh_threshold=0.4
        )
        result = session.ingest([frozenset({1, 2, 5}), frozenset({7, 8, 11})])
        assert result.drift == pytest.approx(2 / 6)
        assert not result.refreshed
        result = session.ingest([frozenset({1, 3, 4})])
        assert result.drift == pytest.approx(3 / 6)
        assert result.refreshed
        assert session.n_refreshes == 1
        assert session.drift == 0.0
        assert_live_state_consistent(session)

    def test_labels_after_refresh_use_the_new_space(self, two_group_transactions):
        session = bootstrapped_session(
            two_group_transactions, refresh_threshold=0.1
        )
        first = session.ingest([frozenset({1, 2, 3})])
        assert first.refreshed and first.label_space == 0
        second = session.ingest([frozenset({1, 2, 3})])
        assert second.label_space == 1
        # The refreshed clustering absorbed the first inserted point, so
        # the labeler now scores against the refreshed clusters.
        assert second.labels[0] >= 0

    def test_manual_refresh_rebinds_the_labeler(self, two_group_transactions):
        session = bootstrapped_session(two_group_transactions)
        session.ingest([frozenset({1, 2, 5})])
        session.refresh()
        assert session.n_refreshes == 1
        assert session.n_labeler_clusters == len(session.live_clusters())
        assert_live_state_consistent(session)


class TestRunOnlinePipeline:
    @pytest.fixture(scope="class")
    def baskets(self):
        return generate_market_baskets(
            n_transactions=260, rng=2, n_clusters=3
        ).transactions

    @pytest.mark.parametrize(
        "theta, min_neighbors, min_cluster_size",
        [(0.35, 0, 1), (0.35, 1, 3), (0.0, 0, 1), (0.6, 2, 4)],
    )
    def test_bootstrap_takes_the_fit_graph_unchanged(
        self, baskets, monkeypatch, theta, min_neighbors, min_cluster_size
    ):
        """run_online builds the neighbour graph once: the session adopts
        the fit's graph over its live points, which equals a fresh
        computation in every array and dtype."""
        import repro.core.incremental as incremental_module

        graph_calls = []
        original_neighbors = incremental_module.compute_neighbors

        def counting_neighbors(*args, **kwargs):
            graph_calls.append(len(args[0]))
            return original_neighbors(*args, **kwargs)

        monkeypatch.setattr(incremental_module, "compute_neighbors", counting_neighbors)
        bootstrapped = []
        original_bootstrap = IncrementalRock.bootstrap

        def capturing_bootstrap(session, *args, **kwargs):
            before = len(graph_calls)
            result = original_bootstrap(session, *args, **kwargs)
            bootstrapped.append(
                (len(graph_calls) - before, session.live_points, session.adjacency_.copy())
            )
            return result

        monkeypatch.setattr(IncrementalRock, "bootstrap", capturing_bootstrap)
        pipeline = RockPipeline(
            n_clusters=3,
            theta=theta,
            sample_size=90,
            min_neighbors=min_neighbors,
            min_cluster_size=min_cluster_size,
            rng=5,
        )
        pipeline.run_online(baskets, batch_size=64)
        ((rebuilt, live_points, adjacency),) = bootstrapped
        assert rebuilt == 0
        fresh = original_neighbors(live_points, theta=theta).adjacency
        for name in ("data", "indices", "indptr"):
            assert getattr(adjacency, name).dtype == getattr(fresh, name).dtype
            np.testing.assert_array_equal(getattr(adjacency, name), getattr(fresh, name))

        session = IncrementalRock(n_clusters=3, theta=theta, rng=0)
        session.bootstrap(live_points, [list(range(len(live_points)))])
        assert bootstrapped[-1][0] == 1  # a direct call computes its own graph

    @pytest.mark.parametrize("batch_size", [17, 64, 1024])
    def test_run_online_matches_run_streaming(self, baskets, batch_size):
        streamed = RockPipeline(
            n_clusters=3, theta=0.35, sample_size=90, rng=11
        ).run_streaming(baskets, batch_size=batch_size)
        online = RockPipeline(
            n_clusters=3, theta=0.35, sample_size=90, rng=11
        ).run_online(baskets, batch_size=batch_size)
        np.testing.assert_array_equal(online.labels, streamed.labels)
        assert online.clusters == streamed.clusters
        assert online.n_outliers == streamed.n_outliers
        np.testing.assert_array_equal(
            online.labeling_result.labels, streamed.labeling_result.labels
        )
        assert online.labeled_indices == streamed.labeled_indices
        assert online.parameters["online"] is True
        assert online.parameters["n_refreshes"] == 0

    def test_run_online_matches_streaming_with_pruning_and_prefilter(self, baskets):
        kwargs = dict(
            n_clusters=3,
            theta=0.35,
            sample_size=90,
            min_neighbors=1,
            min_cluster_size=3,
            labeling_fraction=0.8,
            rng=5,
        )
        streamed = RockPipeline(**kwargs).run_streaming(baskets, batch_size=32)
        online = RockPipeline(**kwargs).run_online(baskets, batch_size=32)
        np.testing.assert_array_equal(online.labels, streamed.labels)

    def test_refreshing_run_is_seed_reproducible(self, baskets):
        results = [
            RockPipeline(
                n_clusters=3, theta=0.35, sample_size=90, rng=11
            ).run_online(baskets, batch_size=32, refresh_threshold=0.5)
            for _ in range(2)
        ]
        assert results[0].parameters["n_refreshes"] >= 1
        np.testing.assert_array_equal(results[0].labels, results[1].labels)
        # The final numbering is a size-ordered partition of all points.
        sizes = [len(c) for c in results[0].clusters]
        assert sizes == sorted(sizes, reverse=True)
        covered = sorted(i for c in results[0].clusters for i in c)
        expected = [
            i for i in range(len(baskets)) if results[0].labels[i] >= 0
        ]
        assert covered == expected

    def test_session_survives_the_run_for_further_ingest(self, baskets):
        pipeline = RockPipeline(n_clusters=3, theta=0.35, sample_size=90, rng=11)
        pipeline.run_online(baskets, batch_size=64)
        session = pipeline.online_session
        assert session is not None
        assert session.n_points >= 90
        more = pipeline.ingest(baskets[:5])
        assert more.n_points == 5
        assert_live_state_consistent(session)

    def test_ingest_without_session_rejected(self):
        with pytest.raises(ConfigurationError):
            RockPipeline(n_clusters=2).ingest([frozenset({1})])

    def test_online_session_none_before_run(self):
        assert RockPipeline(n_clusters=2).online_session is None

    def test_invalid_refresh_threshold_rejected_before_clustering(self, baskets):
        with pytest.raises(ConfigurationError):
            RockPipeline(n_clusters=3, sample_size=90).run_online(
                baskets, refresh_threshold=-0.5
            )

    def test_unknown_sample_method_rejected(self, baskets):
        with pytest.raises(ConfigurationError):
            RockPipeline(n_clusters=3, sample_size=90).run_online(
                baskets, sample_method="warp"
            )

    def test_empty_source_rejected(self):
        with pytest.raises(DataValidationError):
            RockPipeline(n_clusters=2, sample_size=4).run_online(
                lambda: iter([])
            )

    def test_reservoir_sampling_runs(self, baskets):
        result = RockPipeline(
            n_clusters=3, theta=0.35, sample_size=90, rng=11
        ).run_online(baskets, batch_size=64, sample_method="reservoir")
        assert len(result.labels) == len(baskets)
        assert result.parameters["sample_method"] == "reservoir"


def test_refresh_holds_no_more_than_a_fit_per_link_nonzero():
    """A refresh seeds the merge loop as a fit does: one link matrix, in the
    arena's count cells, dropped once seeded, so its traced peak per link
    nonzero stays at or below the fit's on the same points."""
    import tracemalloc

    from repro.datasets.market_basket import generate_instacart_baskets

    baskets = generate_instacart_baskets(n_transactions=1200, rng=0).transactions
    graph = compute_neighbors(baskets, 0.3)
    model = RockClustering(n_clusters=8, theta=0.3)

    def peak(call):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    fit = peak(lambda: model._fit_graph(graph))
    session = IncrementalRock(n_clusters=8, theta=0.3, rng=0)
    session.bootstrap(baskets, model.clusters_)
    refresh = peak(session.refresh)
    nnz = model.links_.nnz
    assert refresh <= fit, "refresh %.1f B per link nonzero, fit %.1f" % (
        refresh / nnz, fit / nnz
    )
    assert session.last_refresh_counters["merges"] == len(model.result_.merge_history)
