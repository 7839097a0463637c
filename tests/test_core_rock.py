"""Tests for repro.core.rock (the agglomerative algorithm)."""

import numpy as np
import pytest

from repro.core.rock import RockClustering, RockResult, as_transactions
from repro.errors import (
    ConfigurationError,
    DataValidationError,
    InsufficientLinksError,
    NotFittedError,
)
from repro.evaluation.metrics import clustering_error


class TestAsTransactions:
    def test_transaction_dataset_passthrough(self, small_transaction_dataset):
        assert as_transactions(small_transaction_dataset) == small_transaction_dataset.transactions

    def test_categorical_dataset_converted(self, small_categorical_dataset):
        transactions = as_transactions(small_categorical_dataset)
        assert len(transactions) == small_categorical_dataset.n_records
        assert (0, "y") in transactions[0]

    def test_binary_matrix_converted(self):
        transactions = as_transactions(np.array([[1, 0, 1], [0, 1, 0]]))
        assert transactions[0] == frozenset({0, 2})
        assert transactions[1] == frozenset({1})

    def test_plain_iterable_of_sets(self):
        transactions = as_transactions([{1, 2}, {3}])
        assert all(isinstance(t, frozenset) for t in transactions)

    def test_empty_iterable_rejected(self):
        with pytest.raises(DataValidationError):
            as_transactions([])

    @pytest.mark.parametrize(
        "data",
        ["/tmp/baskets.txt", b"1 2 3", [1, 2, 3]],
        ids=["path-string", "bytes", "flat-ints"],
    )
    def test_non_transaction_shapes_rejected(self, data):
        # None of these is a collection of transactions: a path string
        # would be clustered as its characters, one item each.
        from repro.core.pipeline import RockPipeline

        with pytest.raises(DataValidationError):
            as_transactions(data)
        with pytest.raises(DataValidationError):
            RockPipeline(n_clusters=2).run(data)
        with pytest.raises(DataValidationError):
            RockClustering(n_clusters=2).fit(data)

    def test_string_elements_stay_item_sets(self):
        assert as_transactions(["ab", "c"]) == [frozenset("ab"), frozenset("c")]


class TestRockClustering:
    def test_two_group_recovery(self, two_group_transactions, two_group_labels):
        model = RockClustering(n_clusters=2, theta=0.4).fit(two_group_transactions)
        assert model.n_clusters_ == 2
        assert clustering_error(model.labels_, two_group_labels) == 0.0
        assert sorted(model.result_.cluster_sizes()) == [3, 3]

    def test_fit_predict_matches_labels(self, two_group_transactions):
        model = RockClustering(n_clusters=2, theta=0.4)
        labels = model.fit_predict(two_group_transactions)
        assert np.array_equal(labels, model.labels_)

    def test_labels_cover_all_points(self, two_group_transactions):
        model = RockClustering(n_clusters=2, theta=0.4).fit(two_group_transactions)
        assert np.all(model.labels_ >= 0)
        assert len(model.labels_) == len(two_group_transactions)

    def test_clusters_ordered_by_decreasing_size(self):
        transactions = [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}, {8, 9}, {8, 9, 10}]
        model = RockClustering(n_clusters=2, theta=0.4).fit(transactions)
        sizes = model.result_.cluster_sizes()
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == 4

    def test_merge_history_recorded(self, two_group_transactions):
        model = RockClustering(n_clusters=2, theta=0.4).fit(two_group_transactions)
        history = model.result_.merge_history
        assert len(history) == 4  # 6 points -> 2 clusters
        assert all(step.goodness > 0 for step in history)
        assert [step.step for step in history] == list(range(4))

    def test_requested_k_larger_than_points(self, two_group_transactions):
        model = RockClustering(n_clusters=10, theta=0.4).fit(two_group_transactions)
        assert model.n_clusters_ == len(two_group_transactions)
        assert not model.result_.merge_history

    def test_stops_early_without_links(self):
        transactions = [{1, 2}, {3, 4}, {5, 6}]
        model = RockClustering(n_clusters=1, theta=0.9).fit(transactions)
        assert model.result_.stopped_early
        assert model.n_clusters_ == 3

    def test_strict_raises_when_out_of_links(self):
        transactions = [{1, 2}, {3, 4}, {5, 6}]
        with pytest.raises(InsufficientLinksError):
            RockClustering(n_clusters=1, theta=0.9, strict=True).fit(transactions)

    def test_strict_error_is_actionable_and_typed(self):
        # The error tells the user both what happened and what to change,
        # and sits under ReproError so the CLI maps it to exit code 3.
        from repro.errors import ReproError

        transactions = [{1, 2}, {3, 4}, {5, 6}]
        with pytest.raises(InsufficientLinksError, match="lower theta") as excinfo:
            RockClustering(n_clusters=1, theta=0.9, strict=True).fit(transactions)
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, RuntimeError)

    def test_non_strict_default_degrades_instead_of_raising(self):
        # Same link-starved input, default strict=False: the run completes
        # with a partial clustering and every point still gets a label.
        transactions = [{1, 2}, {3, 4}, {5, 6}]
        model = RockClustering(n_clusters=1, theta=0.9).fit(transactions)
        assert model.result_.stopped_early
        assert len(model.labels_) == 3

    def test_strict_is_quiet_when_links_suffice(self, two_group_transactions):
        model = RockClustering(n_clusters=2, theta=0.4, strict=True).fit(
            two_group_transactions
        )
        assert not model.result_.stopped_early

    def test_accepts_categorical_dataset(self, small_categorical_dataset):
        model = RockClustering(n_clusters=2, theta=0.5).fit(small_categorical_dataset)
        assert len(model.labels_) == small_categorical_dataset.n_records

    def test_accepts_transaction_dataset(self, small_transaction_dataset):
        model = RockClustering(n_clusters=2, theta=0.4).fit(small_transaction_dataset)
        assert model.n_clusters_ == 2

    def test_not_fitted_errors(self):
        model = RockClustering(n_clusters=2, theta=0.5)
        with pytest.raises(NotFittedError):
            model.labels_
        with pytest.raises(NotFittedError):
            model.clusters_
        with pytest.raises(NotFittedError):
            model.neighbor_graph_
        with pytest.raises(NotFittedError):
            model.links_

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RockClustering(n_clusters=0)
        with pytest.raises(ConfigurationError):
            RockClustering(n_clusters=2, theta=1.5)

    def test_exposes_neighbor_graph_and_links(self, two_group_transactions):
        model = RockClustering(n_clusters=2, theta=0.4).fit(two_group_transactions)
        assert model.neighbor_graph_.n_points == 6
        assert model.links_.shape == (6, 6)

    def test_criterion_positive_for_linked_clusters(self, two_group_transactions):
        model = RockClustering(n_clusters=2, theta=0.4).fit(two_group_transactions)
        assert model.result_.criterion > 0

    def test_result_summaries(self, two_group_transactions):
        model = RockClustering(n_clusters=2, theta=0.4).fit(two_group_transactions)
        summaries = model.result_.summaries()
        assert len(summaries) == 2
        assert {s.size for s in summaries} == {3}

    def test_include_self_links_false_still_clusters_triangles(self, two_group_transactions):
        model = RockClustering(
            n_clusters=2, theta=0.4, include_self_links=False
        ).fit(two_group_transactions)
        assert model.n_clusters_ == 2

    def test_self_links_allow_merging_isolated_pairs(self):
        # Two mutually similar points with no third common neighbour can only
        # merge under the paper's self-neighbour convention.
        transactions = [{1, 2, 3}, {1, 2, 4}, {7, 8, 9}, {7, 8, 10}]
        with_self = RockClustering(n_clusters=2, theta=0.4, include_self_links=True)
        without_self = RockClustering(n_clusters=2, theta=0.4, include_self_links=False)
        assert with_self.fit(transactions).n_clusters_ == 2
        assert without_self.fit(transactions).n_clusters_ == 4

    def test_deterministic_across_runs(self, two_group_transactions):
        first = RockClustering(n_clusters=2, theta=0.4).fit(two_group_transactions)
        second = RockClustering(n_clusters=2, theta=0.4).fit(two_group_transactions)
        assert np.array_equal(first.labels_, second.labels_)

    def test_single_cluster_request(self, two_group_transactions):
        # With theta=0 everything is linked, so a single cluster is reachable.
        model = RockClustering(n_clusters=1, theta=0.0).fit(two_group_transactions)
        assert model.n_clusters_ == 1
        assert model.result_.cluster_sizes() == [6]

    def test_bigger_dataset_quality(self, mushroom_small):
        dataset, groups = mushroom_small
        model = RockClustering(n_clusters=8, theta=0.8).fit(dataset)
        # Clusters should align closely with the latent groups.
        error = clustering_error(model.labels_, groups.tolist())
        assert error < 0.1

    def test_result_dataclass_fields(self, two_group_transactions):
        result = RockClustering(n_clusters=2, theta=0.4).fit(two_group_transactions).result_
        assert isinstance(result, RockResult)
        assert result.theta == 0.4
        assert result.n_clusters == 2
        assert result.elapsed_seconds >= 0


def _baskets(seed=0, n=200):
    from repro.datasets.market_basket import generate_market_baskets

    return generate_market_baskets(n_transactions=n, rng=seed, n_clusters=4).transactions


def _assert_identical(left, right):
    """Equal sparse matrices down to the index order and every dtype."""
    assert left.shape == right.shape
    for name in ("indptr", "indices", "data"):
        first, second = getattr(left, name), getattr(right, name)
        assert first.dtype == second.dtype, name
        np.testing.assert_array_equal(first, second, err_msg=name)


class TestFoldedCriterion:
    """The arena folds each cluster's link mass over its merges; the
    criterion summed from those masses is the one the matrix gives."""

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize(
        "exponent", [None, lambda theta: (1.0 - theta) / (1.0 + 2.0 * theta)]
    )
    def test_equals_the_criterion_function_bit_for_bit(self, include_self, exponent):
        from repro.core.goodness import criterion_function

        data = _baskets()
        early_stops = 0
        for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
            for n_clusters in (1, 4):
                model = RockClustering(
                    n_clusters=n_clusters,
                    theta=theta,
                    include_self_links=include_self,
                    exponent_function=exponent,
                ).fit(data)
                result = model.result_
                expected = criterion_function(
                    model.links_, result.clusters, theta, exponent
                )
                assert result.criterion.hex() == expected.hex(), (theta, n_clusters)
                early_stops += result.stopped_early
        assert early_stops >= 2

    def test_equals_the_reference_engine(self):
        data = _baskets(seed=5, n=120)
        for theta in (0.2, 0.5, 0.8):
            arena = RockClustering(n_clusters=3, theta=theta).fit(data).result_
            reference = RockClustering(
                n_clusters=3, theta=theta, engine="reference"
            ).fit(data).result_
            assert arena.criterion.hex() == reference.criterion.hex()
            assert arena.merge_history == reference.merge_history


class TestLinkMatrixLifetime:
    """A fit keeps no link matrix: ``links_`` is built when first read."""

    @pytest.mark.parametrize("include_self", [True, False])
    def test_links_are_built_on_first_access(self, monkeypatch, include_self):
        import repro.core.rock as rock_module
        from repro.core.links import links_from_neighbors

        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return links_from_neighbors(*args, **kwargs)

        monkeypatch.setattr(rock_module, "links_from_neighbors", recording)
        model = RockClustering(
            n_clusters=3, theta=0.3, include_self_links=include_self
        ).fit(_baskets())
        assert calls == []
        # What the fit clustered, even if the attribute changes afterwards.
        model.include_self_links = not include_self
        links = model.links_
        expected = links_from_neighbors(
            model.neighbor_graph_, include_self=include_self
        )
        _assert_identical(links, expected)
        assert expected.dtype == np.int64
        assert model.links_ is links
        assert len(calls) == 1

    @pytest.mark.parametrize("pooled", [False, True])
    def test_the_seeding_product_is_dead_when_the_merge_loop_starts(
        self, monkeypatch, pooled
    ):
        import weakref
        from concurrent.futures import ThreadPoolExecutor

        import repro.core.links as links_module
        import repro.core.rock as rock_module
        from repro.core.engine_arena import ArenaAgglomerationEngine

        refs = []
        alive_at_loop_start = []
        product = rock_module.canonical_links
        seed = ArenaAgglomerationEngine._init_arena_state

        def recording_product(*args, **kwargs):
            links = product(*args, **kwargs)
            refs.extend(
                weakref.ref(part)
                for part in (links, links.data, links.indices, links.indptr)
            )
            return links

        def recording_seed(engine):
            seed(engine)
            alive_at_loop_start.append([ref() is not None for ref in refs])

        monkeypatch.setattr(rock_module, "canonical_links", recording_product)
        monkeypatch.setattr(ArenaAgglomerationEngine, "_init_arena_state", recording_seed)
        with ThreadPoolExecutor(max_workers=2) as pool:
            if pooled:
                monkeypatch.setattr(links_module, "_link_pool", lambda adds: (pool, 2))
            model = RockClustering(n_clusters=3, theta=0.3).fit(_baskets())
        assert alive_at_loop_start == [[False] * 4]
        assert len(model.result_.merge_history) > 0
