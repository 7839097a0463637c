"""Tests for repro.core.pipeline (the sample/cluster/label pipeline)."""

import numpy as np
import pytest

from repro.core.neighbors import compute_neighbors
from repro.core.outliers import partition_isolated_points
from repro.core.pipeline import RockPipeline, RockPipelineResult, rock_cluster
from repro.core.rock import RockClustering
from repro.data.encoding import records_to_transactions
from repro.datasets.market_basket import generate_market_baskets
from repro.errors import ConfigurationError
from repro.evaluation.metrics import clustering_error
from repro.extensions.qrock import QRock
from toy_measures import NON_MONOTONE_RULES, OverlapRule


class TestRockPipelineBasics:
    def test_full_data_clustering(self, two_group_transactions, two_group_labels):
        result = rock_cluster(two_group_transactions, n_clusters=2, theta=0.4)
        assert isinstance(result, RockPipelineResult)
        assert result.n_clusters == 2
        assert result.n_outliers == 0
        assert clustering_error(result.labels, two_group_labels) == 0.0

    def test_labels_align_with_clusters(self, two_group_transactions):
        result = rock_cluster(two_group_transactions, n_clusters=2, theta=0.4)
        for label, members in enumerate(result.clusters):
            for index in members:
                assert result.labels[index] == label

    def test_cluster_sizes_ordered(self, two_group_transactions):
        result = rock_cluster(two_group_transactions, n_clusters=2, theta=0.4)
        sizes = result.cluster_sizes()
        assert sizes == sorted(sizes, reverse=True)

    def test_timings_recorded(self, two_group_transactions):
        result = rock_cluster(two_group_transactions, n_clusters=2, theta=0.4)
        for phase in ("sampling", "neighbors", "clustering", "labeling", "total"):
            assert phase in result.timings
            assert result.timings[phase] >= 0

    def test_parameters_recorded(self, two_group_transactions):
        result = rock_cluster(two_group_transactions, n_clusters=2, theta=0.4)
        assert result.parameters["n_clusters"] == 2
        assert result.parameters["theta"] == 0.4

    def test_summaries(self, two_group_transactions):
        result = rock_cluster(two_group_transactions, n_clusters=2, theta=0.4)
        assert [s.size for s in result.summaries()] == result.cluster_sizes()

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            RockPipeline(n_clusters=2, sample_size=0)
        with pytest.raises(ConfigurationError):
            RockPipeline(n_clusters=2, min_neighbors=-1)
        with pytest.raises(ConfigurationError):
            RockPipeline(n_clusters=2, min_cluster_size=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_clusters": 0},
            {"theta": 1.5},
            {"theta": -0.1},
            {"labeling_fraction": 0.0},
            {"labeling_fraction": 1.5},
        ],
        ids=lambda overrides: "%s=%s" % next(iter(overrides.items())),
    )
    def test_out_of_range_value_rejected_at_construction(self, overrides):
        # Rejected before any source is read, even when the phase that
        # reads it would never run.
        with pytest.raises(ConfigurationError):
            RockPipeline(**{"n_clusters": 2, **overrides})


class TestSamplingAndLabeling:
    def test_sampled_run_labels_every_point(self, mushroom_small):
        dataset, groups = mushroom_small
        transactions = records_to_transactions(dataset)
        result = rock_cluster(
            transactions, n_clusters=8, theta=0.8, sample_size=90, rng=0
        )
        assert len(result.labels) == dataset.n_records
        assert len(result.sample_indices) == 90
        # The overwhelming majority of points must be assigned (not outliers).
        assert result.n_outliers < 0.1 * dataset.n_records

    def test_sampled_run_recovers_groups(self, mushroom_small):
        dataset, groups = mushroom_small
        transactions = records_to_transactions(dataset)
        result = rock_cluster(
            transactions, n_clusters=8, theta=0.8, sample_size=100,
            min_cluster_size=2, rng=3,
        )
        error = clustering_error(result.labels, dataset.labels)
        assert error < 0.15

    def test_sample_larger_than_data_clusters_everything(self, two_group_transactions):
        result = rock_cluster(
            two_group_transactions, n_clusters=2, theta=0.4, sample_size=100
        )
        assert result.sample_indices == list(range(6))

    def test_reproducible_with_seed(self, mushroom_small):
        dataset, _ = mushroom_small
        transactions = records_to_transactions(dataset)
        first = rock_cluster(transactions, n_clusters=8, theta=0.8, sample_size=80, rng=7)
        second = rock_cluster(transactions, n_clusters=8, theta=0.8, sample_size=80, rng=7)
        assert np.array_equal(first.labels, second.labels)


class TestOutlierHandling:
    def test_isolated_points_become_outliers(self):
        transactions = [
            {1, 2, 3}, {1, 2, 4}, {1, 3, 4},
            {7, 8, 9}, {7, 8, 10}, {7, 9, 10},
            {100, 101},  # isolated noise point
        ]
        result = rock_cluster(
            transactions, n_clusters=2, theta=0.4, min_neighbors=1
        )
        assert result.labels[6] == -1
        assert result.n_outliers == 1
        assert result.n_clusters == 2

    def test_min_cluster_size_prunes_tiny_clusters(self):
        transactions = [
            {1, 2, 3}, {1, 2, 4}, {1, 3, 4},
            {7, 8, 9}, {7, 8, 10}, {7, 9, 10},
            {50, 51}, {50, 52},  # a tiny pair far from both groups
        ]
        result = rock_cluster(
            transactions, n_clusters=3, theta=0.4, min_cluster_size=3
        )
        assert result.n_clusters == 2
        assert result.labels[6] == -1
        assert result.labels[7] == -1

    def test_all_points_isolated_falls_back_gracefully(self):
        transactions = [{1}, {2}, {3}]
        result = rock_cluster(
            transactions, n_clusters=2, theta=0.9, min_neighbors=1
        )
        assert len(result.labels) == 3

    def test_without_min_neighbors_no_prefilter(self, two_group_transactions):
        result = rock_cluster(two_group_transactions, n_clusters=2, theta=0.4, min_neighbors=0)
        assert result.n_outliers == 0

    @pytest.mark.parametrize(
        "theta, min_neighbors", [(0.3, 1), (0.5, 2), (0.6, 1), (0.4, 3)]
    )
    def test_survivors_graph_is_the_induced_subgraph(self, theta, min_neighbors):
        sample = generate_market_baskets(n_transactions=400, rng=7, n_clusters=5).transactions
        graph = compute_neighbors(sample, theta=theta)
        kept, dropped = partition_isolated_points(graph, min_neighbors=min_neighbors)
        assert kept and dropped
        fresh = compute_neighbors([sample[i] for i in kept], theta=theta).adjacency
        sliced = graph.subgraph(kept).adjacency
        for name in ("data", "indices", "indptr"):
            assert getattr(sliced, name).dtype == getattr(fresh, name).dtype, name
            np.testing.assert_array_equal(getattr(sliced, name), getattr(fresh, name))

    @pytest.mark.parametrize("theta, min_neighbors", [(0.3, 1), (0.5, 2), (0.9, 1)])
    def test_prefiltered_fit_builds_the_graph_once(self, monkeypatch, theta, min_neighbors):
        # The fit clusters the survivors' slice of the pre-filter's graph,
        # with the result a fit on the survivors alone gives.
        import repro.core.pipeline as pipeline_module
        import repro.core.rock as rock_module

        calls = []
        for module in (pipeline_module, rock_module):
            def recording(*args, _module=module, **kwargs):
                calls.append(_module.__name__)
                return compute_neighbors(*args, **kwargs)

            monkeypatch.setattr(module, "compute_neighbors", recording)
        data = generate_market_baskets(n_transactions=300, rng=3, n_clusters=4).transactions
        result = RockPipeline(
            n_clusters=4, theta=theta, min_neighbors=min_neighbors, rng=0
        ).run(data)
        assert calls == ["repro.core.pipeline"]
        kept, _ = partition_isolated_points(
            compute_neighbors(data, theta=theta), min_neighbors=min_neighbors
        )
        survivors = [data[i] for i in kept] if kept else data
        expected = RockClustering(n_clusters=4, theta=theta).fit(survivors).result_
        assert result.rock_result.merge_history == expected.merge_history
        assert result.rock_result.clusters == expected.clusters
        assert result.rock_result.criterion == expected.criterion


class TestStreamingPipeline:
    @pytest.fixture
    def basket_file(self, tmp_path):
        from repro.data.io import write_transactions
        from repro.datasets.market_basket import generate_market_baskets

        baskets = generate_market_baskets(n_transactions=300, n_clusters=4, rng=2)
        path = tmp_path / "baskets.txt"
        write_transactions(baskets, path)
        return path

    def _pipeline(self, rng=7, **overrides):
        kwargs = dict(
            n_clusters=4, theta=0.4, sample_size=100,
            min_neighbors=1, min_cluster_size=2, rng=rng,
        )
        kwargs.update(overrides)
        return RockPipeline(**kwargs)

    def test_streaming_file_matches_in_memory_run(self, basket_file):
        from repro.data.io import read_transactions

        transactions = read_transactions(basket_file).transactions
        in_memory = self._pipeline().run(transactions)
        streamed = self._pipeline().run_streaming(basket_file, batch_size=64)
        assert np.array_equal(in_memory.labels, streamed.labels)
        assert in_memory.clusters == streamed.clusters
        assert in_memory.n_outliers == streamed.n_outliers

    @pytest.mark.parametrize("batch_size", [1, 17, 64, 1024])
    def test_batch_size_never_changes_labels(self, basket_file, batch_size):
        from repro.data.io import read_transactions

        transactions = read_transactions(basket_file).transactions
        in_memory = self._pipeline().run(transactions)
        streamed = self._pipeline().run_streaming(transactions, batch_size=batch_size)
        assert np.array_equal(in_memory.labels, streamed.labels)

    def test_callable_source(self, basket_file):
        from repro.data.io import read_transactions

        transactions = read_transactions(basket_file).transactions
        in_memory = self._pipeline().run(transactions)
        streamed = self._pipeline().run_streaming(
            lambda: iter(transactions), batch_size=50
        )
        assert np.array_equal(in_memory.labels, streamed.labels)

    def test_streaming_retained_incidence_built_once(self, basket_file, monkeypatch):
        # Inside the labelling phase, only per-batch encodings (which pass
        # ignore_unknown=True) may repeat; the retained-fraction incidence
        # must be built exactly once for the whole streaming run.
        import repro.core.labeling as labeling_module

        calls = {"retained": 0, "batch": 0}
        original = labeling_module.transactions_to_incidence

        def counting(*args, **kwargs):
            calls["batch" if kwargs.get("ignore_unknown") else "retained"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(labeling_module, "transactions_to_incidence", counting)
        result = self._pipeline().run_streaming(basket_file, batch_size=50)
        assert result.labeling_result is not None
        assert calls["retained"] == 1
        assert calls["batch"] >= 6  # 200 remainder points across 50-point batches

    def test_reservoir_mode_labels_everything(self, basket_file):
        result = self._pipeline().run_streaming(
            basket_file, batch_size=64, sample_method="reservoir"
        )
        assert len(result.labels) == 300
        assert len(result.sample_indices) == 100
        assert result.parameters["sample_method"] == "reservoir"
        # Reservoir draws a different (still uniform) sample, so only the
        # shape-level properties are pinned.
        assert result.n_clusters >= 1

    def test_streaming_records_parameters_and_timings(self, basket_file):
        result = self._pipeline().run_streaming(basket_file, batch_size=64)
        assert result.parameters["streaming"] is True
        assert result.parameters["batch_size"] == 64
        assert result.parameters["sample_method"] == "exact"
        for phase in ("sampling", "neighbors", "clustering", "labeling", "total"):
            assert phase in result.timings

    def test_streaming_without_sampling_clusters_everything(self, two_group_transactions):
        in_memory = RockPipeline(n_clusters=2, theta=0.4, rng=0).run(
            two_group_transactions
        )
        streamed = RockPipeline(n_clusters=2, theta=0.4, rng=0).run_streaming(
            two_group_transactions, batch_size=2
        )
        assert np.array_equal(in_memory.labels, streamed.labels)
        assert streamed.labeling_result is None
        assert streamed.labeled_indices is None

    def test_empty_source_rejected(self, tmp_path):
        from repro.errors import DataValidationError

        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(DataValidationError):
            self._pipeline().run_streaming(path)

    def test_invalid_streaming_configuration_rejected(self, basket_file):
        with pytest.raises(ConfigurationError):
            self._pipeline().run_streaming(basket_file, batch_size=0)
        with pytest.raises(ConfigurationError):
            self._pipeline().run_streaming(basket_file, sample_method="psychic")


class TestAssignOutliers:
    def _noise_setup(self):
        return [
            {1, 2, 3}, {1, 2, 4}, {1, 3, 4},
            {7, 8, 9}, {7, 8, 10}, {7, 9, 10}, {7, 8, 11},
            {100, 101},  # noise with no neighbour anywhere
        ]

    def test_flag_changes_outlier_placement(self):
        transactions = self._noise_setup()
        kept = rock_cluster(
            transactions, n_clusters=2, theta=0.4, min_neighbors=1,
            assign_outliers=True,
        )
        forced = rock_cluster(
            transactions, n_clusters=2, theta=0.4, min_neighbors=1,
            assign_outliers=False,
        )
        assert kept.labels[7] == -1
        assert kept.n_outliers == 1
        # The documented False behaviour: the no-neighbour point joins the
        # argmax raw-count cluster, which with all counts at zero is the
        # largest one (label 0 after the size sort).
        assert forced.labels[7] == 0
        assert forced.n_outliers == 0
        assert forced.parameters["assign_outliers"] is False

    def test_flag_recorded_and_threaded_through_streaming(self, tmp_path):
        from repro.data.io import write_transactions
        from repro.data.dataset import TransactionDataset

        transactions = self._noise_setup()
        path = tmp_path / "noise.txt"
        write_transactions(
            TransactionDataset([frozenset(map(str, t)) for t in transactions]), path
        )
        forced = RockPipeline(
            n_clusters=2, theta=0.4, min_neighbors=1, assign_outliers=False, rng=0
        ).run_streaming(path, batch_size=3)
        assert forced.n_outliers == 0


class TestLabelingResultLabelSpace:
    def test_labeling_result_matches_final_labels(self, mushroom_small):
        from repro.data.encoding import records_to_transactions

        dataset, _ = mushroom_small
        transactions = records_to_transactions(dataset)
        result = rock_cluster(
            transactions, n_clusters=8, theta=0.8, sample_size=90,
            min_cluster_size=2, rng=0,
        )
        assert result.labeling_result is not None
        assert result.labeled_indices is not None
        assert len(result.labeled_indices) == len(result.labeling_result.labels)
        # The remap must make the labelling pass agree 1:1 with the final
        # label space (this pinned a real bug: labels used to be indices
        # into the pre-sort kept_clusters).
        assert np.array_equal(
            result.labels[result.labeled_indices], result.labeling_result.labels
        )

    def test_streaming_labeling_result_matches_final_labels(self, mushroom_small):
        from repro.data.encoding import records_to_transactions

        dataset, _ = mushroom_small
        transactions = records_to_transactions(dataset)
        result = RockPipeline(
            n_clusters=8, theta=0.8, sample_size=90, min_cluster_size=2, rng=0
        ).run_streaming(transactions.transactions, batch_size=25)
        assert np.array_equal(
            result.labels[result.labeled_indices], result.labeling_result.labels
        )


class TestStreamingReaderOptions:
    def test_label_prefix_applied_to_path_source(self, tmp_path):
        from repro.data.io import read_transactions, write_transactions
        from repro.data.dataset import TransactionDataset
        from repro.datasets.market_basket import generate_market_baskets

        baskets = generate_market_baskets(n_transactions=150, n_clusters=3, rng=4)
        path = tmp_path / "labeled.txt"
        write_transactions(baskets, path, label_prefix="class=")
        transactions = read_transactions(path, label_prefix="class=").transactions
        kwargs = dict(n_clusters=3, theta=0.35, sample_size=60, rng=9)
        in_memory = RockPipeline(**kwargs).run(transactions)
        streamed = RockPipeline(**kwargs).run_streaming(
            path, batch_size=40, label_prefix="class="
        )
        # Without label_prefix threading, 'class=x' tokens would be
        # clustered as ordinary items and the labels would diverge.
        assert np.array_equal(in_memory.labels, streamed.labels)

    def test_reader_options_rejected_for_non_path_sources(self, two_group_transactions):
        pipeline = RockPipeline(n_clusters=2, theta=0.4, rng=0)
        with pytest.raises(ConfigurationError):
            pipeline.run_streaming(two_group_transactions, label_prefix="class=")
        with pytest.raises(ConfigurationError):
            pipeline.run_streaming(
                lambda: iter(two_group_transactions), delimiter=","
            )

    def test_streaming_labeling_result_counts_left_empty(self, two_group_transactions):
        # Streaming keeps only the labels: a dense per-point count matrix
        # would break the bounded-memory contract.
        result = RockPipeline(
            n_clusters=2, theta=0.4, sample_size=4, rng=1
        ).run_streaming(two_group_transactions, batch_size=2)
        assert result.labeling_result is not None
        assert result.labeling_result.neighbor_counts.shape[0] == 0
        assert len(result.labeling_result.labels) == len(result.labeled_indices)


#: Every composite the strategy options left, each run at its defaults.
COMPOSITE_RUNS = {
    "RockClustering.fit": lambda measure, data: RockClustering(
        n_clusters=2, theta=0.5, measure=measure
    ).fit(data),
    "QRock.fit": lambda measure, data: QRock(theta=0.5, measure=measure).fit(data),
    "RockPipeline.run": lambda measure, data: RockPipeline(
        n_clusters=2, theta=0.5, measure=measure, rng=0
    ).run(data),
    "RockPipeline.run_sharded": lambda measure, data: RockPipeline(
        n_clusters=2, theta=0.5, measure=measure, rng=0
    ).run_sharded(data, n_shards=2),
}


class TestMeasureContract:
    @pytest.mark.parametrize("run", COMPOSITE_RUNS.values(), ids=COMPOSITE_RUNS.keys())
    def test_non_monotone_measure_rejected_by_every_composite(self, run):
        # No composite offers the pair-by-pair spec, so each runs the exact
        # overlap kernel, which refuses a vectorizable measure that falls
        # as the overlap grows.  compute_neighbors(strategy="bruteforce")
        # still evaluates it.
        name, rule = NON_MONOTONE_RULES[1]
        data = [
            frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}),
            frozenset({7, 8}), frozenset({7, 9}), frozenset({8, 9}),
        ]
        with pytest.raises(ConfigurationError, match=name):
            run(OverlapRule(name, rule), data)
