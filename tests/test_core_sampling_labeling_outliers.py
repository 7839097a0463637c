"""Tests for repro.core.sampling, repro.core.labeling and repro.core.outliers."""

import math

import numpy as np
import pytest

from repro.core.labeling import (
    LabelingResult,
    StreamingLabeler,
    StreamingLabelingResult,
    label_points,
    label_points_streaming,
    select_labeling_fractions,
)
from repro.core.neighbors import compute_neighbors
from repro.core.outliers import (
    drop_small_clusters,
    isolated_point_mask,
    partition_isolated_points,
)
from repro.core.sampling import (
    chernoff_sample_size,
    draw_sample,
    reservoir_sample,
    split_dataset,
)
from repro.errors import ConfigurationError, DataValidationError
from toy_measures import NON_MONOTONE_RULES, OverlapRule, ShiftedOverlap


class TestChernoffSampleSize:
    def test_matches_closed_form(self):
        n, u, f, delta = 10_000, 500, 0.1, 0.01
        log_term = math.log(1 / delta)
        expected = (
            f * n
            + (n / u) * log_term
            + (n / u) * math.sqrt(log_term ** 2 + 2 * f * u * log_term)
        )
        assert chernoff_sample_size(n, u, f, delta) == math.ceil(expected)

    def test_capped_at_population_size(self):
        assert chernoff_sample_size(100, 5, fraction=0.9, delta=0.001) <= 100

    def test_smaller_clusters_need_bigger_samples(self):
        big = chernoff_sample_size(10_000, 2_000)
        small = chernoff_sample_size(10_000, 100)
        assert small > big

    def test_lower_delta_needs_bigger_samples(self):
        lax = chernoff_sample_size(10_000, 500, delta=0.1)
        strict = chernoff_sample_size(10_000, 500, delta=0.001)
        assert strict > lax

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            chernoff_sample_size(0, 1)
        with pytest.raises(ConfigurationError):
            chernoff_sample_size(10, 20)
        with pytest.raises(ConfigurationError):
            chernoff_sample_size(10, 5, fraction=0.0)
        with pytest.raises(ConfigurationError):
            chernoff_sample_size(10, 5, delta=1.5)


class TestDrawSample:
    def test_partition_of_indices(self):
        sample, remainder = draw_sample(list(range(50)), 20, rng=0)
        assert len(sample) == 20
        assert len(remainder) == 30
        assert sorted(sample + remainder) == list(range(50))

    def test_reproducible_with_seed(self):
        first, _ = draw_sample(list(range(100)), 10, rng=5)
        second, _ = draw_sample(list(range(100)), 10, rng=5)
        assert first == second

    def test_full_sample(self):
        sample, remainder = draw_sample(list(range(10)), 10, rng=0)
        assert sample == list(range(10))
        assert remainder == []

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            draw_sample(list(range(5)), 0)
        with pytest.raises(ConfigurationError):
            draw_sample(list(range(5)), 6)

    def test_split_dataset(self, small_transaction_dataset):
        sample_idx, rest_idx = draw_sample(small_transaction_dataset, 4, rng=1)
        sample, rest = split_dataset(small_transaction_dataset, sample_idx, rest_idx)
        assert sample.n_transactions == 4
        assert rest.n_transactions == 2

    def test_split_dataset_full_sample_gives_none_remainder(self, small_transaction_dataset):
        sample, rest = split_dataset(
            small_transaction_dataset, list(range(6)), []
        )
        assert rest is None
        assert sample.n_transactions == 6

    def test_split_dataset_rejects_plain_lists(self):
        with pytest.raises(ConfigurationError):
            split_dataset([{1}, {2}], [0], [1])


class TestLabeling:
    @pytest.fixture
    def sample_clusters(self, two_group_transactions):
        # The first two of each triple form the clustered "sample".
        sample = [
            two_group_transactions[0],
            two_group_transactions[1],
            two_group_transactions[3],
            two_group_transactions[4],
        ]
        clusters = [[0, 1], [2, 3]]
        return sample, clusters

    def test_unlabeled_points_join_their_group(self, two_group_transactions, sample_clusters):
        sample, clusters = sample_clusters
        unlabeled = [two_group_transactions[2], two_group_transactions[5]]
        result = label_points(unlabeled, sample, clusters, theta=0.4)
        assert isinstance(result, LabelingResult)
        assert result.labels.tolist() == [0, 1]
        assert result.n_outliers == 0

    def test_point_with_no_neighbors_is_outlier(self, sample_clusters):
        sample, clusters = sample_clusters
        result = label_points([frozenset({99, 100})], sample, clusters, theta=0.4)
        assert result.labels.tolist() == [-1]
        assert result.n_outliers == 1

    def test_neighbor_counts_shape(self, two_group_transactions, sample_clusters):
        sample, clusters = sample_clusters
        unlabeled = [two_group_transactions[2], two_group_transactions[5], frozenset({42})]
        result = label_points(unlabeled, sample, clusters, theta=0.4)
        assert result.neighbor_counts.shape == (3, 2)

    def test_empty_unlabeled_is_fine(self, sample_clusters):
        sample, clusters = sample_clusters
        result = label_points([], sample, clusters, theta=0.4)
        assert result.labels.size == 0
        assert result.n_outliers == 0

    def test_normalisation_prefers_smaller_cluster_on_equal_counts(self):
        # One neighbour in a tiny cluster outweighs one neighbour in a huge
        # cluster because of the (n + 1) ** f(theta) normaliser.
        sample = [frozenset({1, 2})] + [frozenset({5, 6})] + [frozenset({50, 60})] * 8
        clusters = [[0], list(range(1, 10))]
        point = frozenset({1, 2, 5, 6})
        result = label_points([point], sample, clusters, theta=0.4)
        assert result.neighbor_counts[0, 0] == 1
        assert result.neighbor_counts[0, 1] == 1
        assert result.labels[0] == 0

    def test_requires_clusters(self, sample_clusters):
        sample, _ = sample_clusters
        with pytest.raises(DataValidationError):
            label_points([frozenset({1})], sample, [], theta=0.5)

    def test_invalid_theta_rejected(self, sample_clusters):
        sample, clusters = sample_clusters
        with pytest.raises(ConfigurationError):
            label_points([], sample, clusters, theta=2.0)

    def test_labeling_fraction_selection(self):
        clusters = [list(range(10)), list(range(10, 14))]
        fractions = select_labeling_fractions(clusters, fraction=0.5, rng=0)
        assert len(fractions[0]) == 5
        assert len(fractions[1]) == 2
        assert set(fractions[0]) <= set(clusters[0])

    def test_labeling_fraction_keeps_at_least_one(self):
        fractions = select_labeling_fractions([[3]], fraction=0.01, rng=0)
        assert fractions == [[3]]

    def test_labeling_fraction_invalid(self):
        with pytest.raises(ConfigurationError):
            select_labeling_fractions([[1]], fraction=0.0)


class TestOutliers:
    def test_isolated_point_mask(self):
        graph = compute_neighbors([{1, 2}, {1, 2, 3}, {9}], theta=0.5)
        mask = isolated_point_mask(graph, min_neighbors=1)
        assert mask.tolist() == [False, False, True]

    def test_partition_isolated_points(self):
        graph = compute_neighbors([{1, 2}, {1, 2, 3}, {9}], theta=0.5)
        participating, isolated = partition_isolated_points(graph)
        assert participating == [0, 1]
        assert isolated == [2]

    def test_min_neighbors_zero_keeps_everything(self):
        graph = compute_neighbors([{1}, {2}, {3}], theta=0.5)
        participating, isolated = partition_isolated_points(graph, min_neighbors=0)
        assert participating == [0, 1, 2]
        assert isolated == []

    def test_negative_min_neighbors_rejected(self):
        graph = compute_neighbors([{1}, {2}], theta=0.5)
        with pytest.raises(ConfigurationError):
            isolated_point_mask(graph, min_neighbors=-1)

    def test_drop_small_clusters(self):
        clusters = [(0, 1, 2, 3), (4, 5), (6,)]
        kept, outliers = drop_small_clusters(clusters, min_size=2)
        assert kept == [(0, 1, 2, 3), (4, 5)]
        assert outliers == [6]

    def test_drop_small_clusters_min_one_keeps_all(self):
        clusters = [(0,), (1, 2)]
        kept, outliers = drop_small_clusters(clusters, min_size=1)
        assert kept == [(0,), (1, 2)]
        assert outliers == []

    def test_drop_small_clusters_invalid_min(self):
        with pytest.raises(ConfigurationError):
            drop_small_clusters([(0,)], min_size=0)


class TestLabelingStrategies:
    def _random_setup(self, seed):
        rng = np.random.default_rng(seed)
        universe = 20
        make = lambda: frozenset(
            rng.choice(universe, size=int(rng.integers(1, 7)), replace=False).tolist()
        )
        sample = [make() for _ in range(40)] + [frozenset()]
        unlabeled = [make() for _ in range(25)] + [frozenset(), frozenset({99})]
        clusters = [list(range(0, 14)), list(range(14, 28)), list(range(28, 41))]
        return unlabeled, sample, clusters

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_matches_bruteforce(self, theta, seed):
        unlabeled, sample, clusters = self._random_setup(seed)
        sparse_result = label_points(
            unlabeled, sample, clusters, theta=theta, strategy="sparse-matmul", rng=7
        )
        brute_result = label_points(
            unlabeled, sample, clusters, theta=theta, strategy="bruteforce", rng=7
        )
        assert np.array_equal(sparse_result.labels, brute_result.labels)
        assert np.array_equal(
            sparse_result.neighbor_counts, brute_result.neighbor_counts
        )
        assert sparse_result.n_outliers == brute_result.n_outliers

    def test_sparse_matches_bruteforce_with_fraction(self):
        unlabeled, sample, clusters = self._random_setup(4)
        kwargs = dict(theta=0.4, labeling_fraction=0.5)
        sparse_result = label_points(
            unlabeled, sample, clusters, strategy="sparse-matmul", rng=11, **kwargs
        )
        brute_result = label_points(
            unlabeled, sample, clusters, strategy="bruteforce", rng=11, **kwargs
        )
        assert np.array_equal(sparse_result.labels, brute_result.labels)
        assert np.array_equal(
            sparse_result.neighbor_counts, brute_result.neighbor_counts
        )

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.6, 1.0])
    def test_sparse_matches_bruteforce_beyond_jaccard(self, theta):
        # The sparse path keys on the vectorized-counts capability, so the
        # other set measures get the fast path too — counts included.
        from repro.similarity.jaccard import (
            DiceSimilarity,
            OverlapCoefficientSimilarity,
            SetCosineSimilarity,
        )

        unlabeled, sample, clusters = self._random_setup(5)
        for measure in (DiceSimilarity(), OverlapCoefficientSimilarity(),
                        SetCosineSimilarity()):
            sparse_result = label_points(
                unlabeled, sample, clusters, theta=theta, measure=measure,
                strategy="sparse-matmul", rng=9,
            )
            brute_result = label_points(
                unlabeled, sample, clusters, theta=theta, measure=measure,
                strategy="bruteforce", rng=9,
            )
            assert np.array_equal(sparse_result.labels, brute_result.labels), measure.name
            assert np.array_equal(
                sparse_result.neighbor_counts, brute_result.neighbor_counts
            ), measure.name

    def test_auto_uses_sparse_for_vectorizable_measures(self):
        from repro.similarity.jaccard import DiceSimilarity

        unlabeled, sample, clusters = self._random_setup(5)
        result = label_points(
            unlabeled, sample, clusters, theta=0.4, measure=DiceSimilarity(), rng=0
        )
        assert result.neighbor_counts.shape == (len(unlabeled), len(clusters))

    def test_sparse_with_non_vectorizable_rejected(self):
        from repro.similarity.overlap import SimpleMatchingSimilarity

        unlabeled, sample, clusters = self._random_setup(6)
        with pytest.raises(ConfigurationError):
            label_points(
                unlabeled, sample, clusters, theta=0.4,
                measure=SimpleMatchingSimilarity(n_attributes=20),
                strategy="sparse-matmul",
            )

    def test_unknown_strategy_rejected(self):
        unlabeled, sample, clusters = self._random_setup(7)
        with pytest.raises(ConfigurationError):
            label_points(unlabeled, sample, clusters, theta=0.4, strategy="quantum")

    # ----------------------------------------------------------------- #
    # The count kernel's two forms against the brute-force reference.
    # ----------------------------------------------------------------- #
    @staticmethod
    def _universe_setup(wide, seed):
        """A narrow universe (dense kernel form) or a wide rare-item one
        (sparse form), with an item index over the whole universe as
        ``run`` shares it.  Both sides hold an empty set, and the unlabeled
        points hold items outside the item index.  The wide sample has 480
        rows of up to 12 rare items each (fill ~0.003): over its occupied
        columns a sample of fewer than 256 rows never holds more than the
        dense form's 256 operand cells per nonzero."""
        from repro.data.encoding import build_item_index

        rng = np.random.default_rng(seed)
        hot = np.arange(8)
        tail = np.arange(100, 20100 if wide else 104)
        n_sample = 480 if wide else 150

        def make():
            items = rng.choice(hot, size=int(rng.integers(1, 5)), replace=False)
            extra = rng.choice(tail, size=int(rng.integers(0, 13 if wide else 3)), replace=False)
            return frozenset(items.tolist() + extra.tolist())

        sample = [make() for _ in range(n_sample - 1)] + [frozenset()]
        unlabeled = [make() for _ in range(40)] + [
            frozenset(),
            frozenset({99_999}),
            frozenset({1, 2, 99_998}),
        ]
        third = n_sample // 3
        clusters = [list(range(i * third, (i + 1) * third)) for i in range(3)]
        item_index = build_item_index([frozenset(hot.tolist() + tail.tolist())])
        return unlabeled, sample, clusters, item_index

    @staticmethod
    def _counts(labeler, batch, dense):
        """Counts of ``batch`` through the kernel form ``dense`` forces."""
        labeler._dense_form = dense
        return labeler._matmul_counts(batch)

    #: 0.1 + 0.2 is just above 3/10 in float64, so overlap 3 of union 10
    #: must not qualify; 1/3 sits exactly on a Jaccard/overlap value.
    KERNEL_THETAS = [0.1 + 0.2, 1 / 3, 0.7, 1.0]

    #: The rest of the theta grid the neighbour and ingest suites run
    #: (1.0 is in KERNEL_THETAS).
    THETA_GRID = [0.0, 0.25, 0.5, 0.75]

    @pytest.mark.parametrize("theta", KERNEL_THETAS + THETA_GRID)
    @pytest.mark.parametrize(
        "measure_name",
        ["jaccard", "dice", "overlap-coefficient", "set-cosine", "shifted-overlap"],
    )
    @pytest.mark.parametrize("wide", [False, True], ids=["dense-form", "sparse-form"])
    def test_kernel_forms_match_bruteforce(self, wide, measure_name, theta):
        from repro.similarity.registry import get_measure

        if measure_name == ShiftedOverlap.name:
            measure = ShiftedOverlap()
        else:
            measure = get_measure(measure_name)
        unlabeled, sample, clusters, item_index = self._universe_setup(wide, seed=3)
        labeler = StreamingLabeler(
            sample, clusters, theta=theta, measure=measure, strategy="sparse-matmul",
            item_index=item_index, rng=5,
        )
        assert labeler._dense_form is not wide
        kernel = labeler.label_batch(unlabeled)
        brute = label_points(
            unlabeled, sample, clusters, theta=theta, measure=measure,
            strategy="bruteforce", rng=5,
        )
        assert np.array_equal(kernel.neighbor_counts, brute.neighbor_counts)
        assert np.array_equal(kernel.labels, brute.labels)
        assert kernel.n_outliers == brute.n_outliers
        # The other form, forced through the private entry point, agrees.
        forced = self._counts(labeler, unlabeled, dense=wide)
        assert np.array_equal(forced, brute.neighbor_counts)

    @pytest.mark.parametrize("wide", [False, True], ids=["dense-form", "sparse-form"])
    def test_form_ignores_unused_index_columns(self, wide):
        # ``run`` shares the whole data set's index, streaming the sample's:
        # the kernel must see the same columns, fill and form under both.
        # 2000 items no sampled point holds would take the narrow universe
        # below the dense fill if their columns counted.
        from repro.data.encoding import build_item_index

        unlabeled, sample, clusters, universe_index = self._universe_setup(wide, seed=9)
        padded_index = build_item_index(
            [frozenset(universe_index) | frozenset(range(10_000, 12_000))]
        )
        labelers = [
            StreamingLabeler(sample, clusters, theta=0.3, item_index=index, rng=4)
            for index in (padded_index, build_item_index(sample))
        ]
        occupied = len(set().union(*sample))
        for labeler in labelers:
            assert labeler._retained_incidence.shape[1] == occupied
            assert labeler._fill == labelers[1]._fill
            assert labeler._dense_form is not wide
        assert np.array_equal(
            labelers[0].label_batch(unlabeled).neighbor_counts,
            labelers[1].label_batch(unlabeled).neighbor_counts,
        )

    @pytest.mark.parametrize("wide", [False, True], ids=["dense-form", "sparse-form"])
    def test_one_point_batches_match_one_shot(self, wide):
        unlabeled, sample, clusters, item_index = self._universe_setup(wide, seed=4)
        kwargs = dict(theta=0.3, item_index=item_index, rng=2)
        one_shot = label_points(unlabeled, sample, clusters, **kwargs)
        labeler = StreamingLabeler(sample, clusters, **kwargs)
        assert labeler._dense_form is not wide
        singles = [labeler.label_batch([point]) for point in unlabeled]
        assert np.array_equal(
            np.vstack([r.neighbor_counts for r in singles]), one_shot.neighbor_counts
        )
        assert np.array_equal(
            np.concatenate([r.labels for r in singles]), one_shot.labels
        )

    @pytest.mark.parametrize("dense", [True, False], ids=["dense-form", "sparse-form"])
    def test_more_clusters_than_items_match_bruteforce(self, dense):
        # One cluster per retained point, far more clusters than items.
        unlabeled, sample, _, _ = self._universe_setup(False, seed=8)
        singletons = [[i] for i in range(len(sample))]
        labeler = StreamingLabeler(sample, singletons, theta=0.3)
        assert labeler._retained_incidence.shape[1] < len(singletons)
        brute = label_points(unlabeled, sample, singletons, theta=0.3, strategy="bruteforce")
        assert np.array_equal(self._counts(labeler, unlabeled, dense), brute.neighbor_counts)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense-form", "sparse-form"])
    def test_one_shot_batch_spanning_row_blocks(self, dense, monkeypatch):
        import repro.core.labeling as labeling_module

        unlabeled, sample, clusters, _ = self._universe_setup(False, seed=6)
        labeler = StreamingLabeler(sample, clusters, theta=1 / 3, rng=1)
        n_rows, n_items = labeler._retained_incidence.shape
        assert n_rows >= n_items
        brute = label_points(
            unlabeled, sample, clusters, theta=1 / 3, strategy="bruteforce", rng=1
        )
        # Two points per row block: the batch spans len(unlabeled) / 2 blocks.
        monkeypatch.setattr(labeling_module, "BLOCK_CELLS", 2 * n_rows)
        assert len(unlabeled) >= 3 * 2
        blocked = self._counts(labeler, unlabeled, dense)
        assert np.array_equal(blocked, brute.neighbor_counts)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense-form", "sparse-form"])
    def test_float_boundary_pair(self, dense):
        # Jaccard({0..5}, {3..9}) = 3/10, which is below 0.1 + 0.2 in
        # float64 but reaches 0.3: the integer threshold must follow the
        # float test on both sides of the boundary.
        sample = [frozenset(range(0, 6)), frozenset({20, 21})]
        point = [frozenset(range(3, 10))]
        for theta, expected in ((0.1 + 0.2, 0.0), (0.3, 1.0)):
            labeler = StreamingLabeler(sample, [[0], [1]], theta=theta)
            counts = self._counts(labeler, point, dense)
            assert counts[0, 0] == expected
            brute = label_points(point, sample, [[0], [1]], theta=theta, strategy="bruteforce")
            assert brute.neighbor_counts[0, 0] == expected

    @pytest.mark.parametrize("name, rule", NON_MONOTONE_RULES)
    def test_non_monotone_measure_rejected(self, name, rule):
        unlabeled, sample, clusters, _ = self._universe_setup(False, seed=7)
        with pytest.raises(ConfigurationError, match=name):
            label_points(
                unlabeled, sample, clusters, theta=0.5,
                measure=OverlapRule(name, rule), strategy="sparse-matmul",
            )

    @pytest.mark.parametrize("dense", [True, False], ids=["dense-form", "sparse-form"])
    def test_point_holding_the_whole_index(self, dense):
        # The overlap reaches the index width: Jaccard({1, 2, 3, 4, 5},
        # {1, 2}) = 2/5 with items 3..5 outside the index, so no overlap
        # qualifies at theta 0.5 even though the overlap is every indexed item.
        sample = [frozenset({1, 2})]
        point = [frozenset({1, 2, 3, 4, 5})]
        labeler = StreamingLabeler(sample, [[0]], theta=0.5)
        assert labeler._retained_incidence.shape[1] == 2
        assert self._counts(labeler, point, dense).tolist() == [[0.0]]

    @pytest.mark.parametrize("theta", KERNEL_THETAS + [0.5])
    @pytest.mark.parametrize(
        "measure_name", ["jaccard", "dice", "overlap-coefficient", "set-cosine"]
    )
    def test_threshold_table_matches_linear_scan(self, measure_name, theta):
        from repro.core.neighbors.vectorized import overlap_thresholds
        from repro.similarity.registry import get_measure

        measure = get_measure(measure_name)
        sizes = np.arange(0, 13)
        table = overlap_thresholds(measure, theta, sizes, sizes)
        for a in sizes:
            for b in sizes:
                expected = next(
                    (
                        i for i in range(min(a, b) + 1)
                        if measure.similarity_from_counts(i, a, b) >= theta
                    ),
                    min(a, b) + 1,
                )
                assert table[a, b] == expected, (a, b)

    def test_shared_item_index_gives_same_result(self):
        from repro.data.encoding import build_item_index

        unlabeled, sample, clusters = self._random_setup(8)
        item_index = build_item_index(list(unlabeled) + list(sample))
        with_index = label_points(
            unlabeled, sample, clusters, theta=0.5,
            strategy="sparse-matmul", item_index=item_index, rng=3,
        )
        without_index = label_points(
            unlabeled, sample, clusters, theta=0.5, strategy="sparse-matmul", rng=3
        )
        assert np.array_equal(with_index.labels, without_index.labels)
        assert np.array_equal(
            with_index.neighbor_counts, without_index.neighbor_counts
        )


class TestReservoirSample:
    def test_partition_properties(self):
        indices, elements, n_total = reservoir_sample(iter(range(100, 150)), 12, rng=0)
        assert n_total == 50
        assert len(indices) == len(elements) == 12
        assert indices == sorted(indices)
        assert len(set(indices)) == 12
        assert all(elements[i] == 100 + indices[i] for i in range(12))

    def test_short_stream_returns_everything(self):
        indices, elements, n_total = reservoir_sample(iter("abc"), 10, rng=0)
        assert indices == [0, 1, 2]
        assert elements == ["a", "b", "c"]
        assert n_total == 3

    def test_reproducible_with_seed(self):
        first = reservoir_sample(iter(range(200)), 20, rng=5)
        second = reservoir_sample(iter(range(200)), 20, rng=5)
        assert first == second

    def test_roughly_uniform(self):
        # Every position should be sampled with probability k/n; check the
        # first and last decile are both represented over many draws.
        hits = np.zeros(100)
        for seed in range(200):
            indices, _, _ = reservoir_sample(iter(range(100)), 10, rng=seed)
            hits[indices] += 1
        assert hits.min() > 0
        assert hits[:10].sum() / hits.sum() == pytest.approx(0.1, abs=0.05)
        assert hits[90:].sum() / hits.sum() == pytest.approx(0.1, abs=0.05)

    def test_empty_stream(self):
        indices, elements, n_total = reservoir_sample(iter([]), 5, rng=0)
        assert indices == [] and elements == [] and n_total == 0

    def test_invalid_sample_size_rejected(self):
        with pytest.raises(ConfigurationError):
            reservoir_sample(iter(range(5)), 0)


class TestStreamingLabeler:
    def _setup(self, seed=0, n_unlabeled=30):
        rng = np.random.default_rng(seed)
        make = lambda: frozenset(
            rng.choice(18, size=int(rng.integers(1, 7)), replace=False).tolist()
        )
        sample = [make() for _ in range(30)]
        unlabeled = [make() for _ in range(n_unlabeled)]
        clusters = [list(range(0, 10)), list(range(10, 20)), list(range(20, 30))]
        return unlabeled, sample, clusters

    @pytest.mark.parametrize("batch_size", [1, 7, 30, 100])
    @pytest.mark.parametrize("theta", [0.0, 0.4, 1.0])
    def test_streaming_matches_one_shot(self, batch_size, theta):
        unlabeled, sample, clusters = self._setup()
        batches = [
            unlabeled[i:i + batch_size] for i in range(0, len(unlabeled), batch_size)
        ]
        streamed = label_points_streaming(
            batches, sample, clusters, theta=theta, rng=3
        )
        one_shot = label_points(unlabeled, sample, clusters, theta=theta, rng=3)
        assert isinstance(streamed, StreamingLabelingResult)
        assert streamed.n_batches == len(batches)
        assert streamed.n_points == len(unlabeled)
        assert np.array_equal(streamed.merged.labels, one_shot.labels)
        assert np.array_equal(
            streamed.merged.neighbor_counts, one_shot.neighbor_counts
        )
        assert streamed.merged.n_outliers == one_shot.n_outliers

    def test_per_batch_results_partition_the_merged(self):
        unlabeled, sample, clusters = self._setup()
        batches = [unlabeled[:12], unlabeled[12:20], unlabeled[20:]]
        streamed = label_points_streaming(batches, sample, clusters, theta=0.4, rng=1)
        assert [len(r.labels) for r in streamed.batch_results] == [12, 8, 10]
        assert np.array_equal(
            np.concatenate([r.labels for r in streamed.batch_results]),
            streamed.merged.labels,
        )

    def test_retained_incidence_built_exactly_once(self, monkeypatch):
        import repro.core.labeling as labeling_module

        unlabeled, sample, clusters = self._setup()
        calls = []
        original = labeling_module.transactions_to_incidence

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(labeling_module, "transactions_to_incidence", counting)
        batches = [unlabeled[i:i + 5] for i in range(0, len(unlabeled), 5)]
        label_points_streaming(
            batches, sample, clusters, theta=0.4, strategy="sparse-matmul", rng=0
        )
        # One incidence for the retained fractions, one per batch — never a
        # retained-side rebuild inside the loop.
        assert len(calls) == 1 + len(batches)

    def test_no_batches_yields_empty_merged(self):
        _, sample, clusters = self._setup()
        streamed = label_points_streaming([], sample, clusters, theta=0.4, rng=0)
        assert streamed.n_batches == 0
        assert streamed.merged.labels.size == 0
        assert streamed.merged.neighbor_counts.shape == (0, len(clusters))

    def test_batch_with_unknown_items_matches_bruteforce(self):
        # Streaming batches may hold items the sample never saw; the sparse
        # path must ignore them for intersections while still counting them
        # in the Jaccard union (true set size).
        sample = [frozenset({1, 2}), frozenset({1, 3}), frozenset({8, 9})]
        clusters = [[0, 1], [2]]
        batch = [frozenset({1, 2, 777}), frozenset({555, 666})]
        labeler = StreamingLabeler(sample, clusters, theta=0.4, strategy="sparse-matmul")
        sparse_result = labeler.label_batch(batch)
        brute_result = label_points(
            batch, sample, clusters, theta=0.4, strategy="bruteforce"
        )
        assert np.array_equal(
            sparse_result.neighbor_counts, brute_result.neighbor_counts
        )
        assert np.array_equal(sparse_result.labels, brute_result.labels)

    def test_assign_outliers_false_joins_largest_cluster(self):
        sample = [frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4}), frozenset({8, 9})]
        clusters = [[3], [0, 1, 2]]  # cluster 1 is the largest
        stray = frozenset({500, 501})
        kept = label_points([stray], sample, clusters, theta=0.5)
        forced = label_points(
            [stray], sample, clusters, theta=0.5, assign_outliers=False
        )
        assert kept.labels.tolist() == [-1]
        assert kept.n_outliers == 1
        assert forced.labels.tolist() == [1]
        assert forced.n_outliers == 0

    def test_assign_outliers_false_keeps_neighbor_based_labels(self):
        # Only no-neighbour points are affected by the flag.
        sample = [frozenset({1, 2}), frozenset({8, 9})]
        clusters = [[0], [1]]
        points = [frozenset({8, 9}), frozenset({700})]
        forced = label_points(
            points, sample, clusters, theta=0.5, assign_outliers=False
        )
        assert forced.labels.tolist()[0] == 1
        assert forced.labels.tolist()[1] in (0, 1)
        assert forced.n_outliers == 0


class TestLabelingParityProperties:
    """Property-style parity pins: sparse and brute force must agree on
    counts, labels and outliers across theta extremes, empty-set
    transactions and sub-unit labelling fractions."""

    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        make = lambda: frozenset(
            rng.choice(15, size=int(rng.integers(1, 6)), replace=False).tolist()
        )
        # Empty sets on both sides, plus a two-point cluster so tiny
        # fractions exercise the max(1, ...) retention guard.
        sample = [make() for _ in range(20)] + [frozenset(), frozenset()]
        unlabeled = [make() for _ in range(15)] + [frozenset(), frozenset({999})]
        clusters = [[0, 21], [1, 2, 3, 20], list(range(4, 20))]
        return unlabeled, sample, clusters

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("fraction", [0.01, 0.4, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_count_parity(self, theta, fraction, seed):
        unlabeled, sample, clusters = self._setup(seed)
        kwargs = dict(theta=theta, labeling_fraction=fraction, rng=99)
        sparse_result = label_points(
            unlabeled, sample, clusters, strategy="sparse-matmul", **kwargs
        )
        brute_result = label_points(
            unlabeled, sample, clusters, strategy="bruteforce", **kwargs
        )
        assert np.array_equal(
            sparse_result.neighbor_counts, brute_result.neighbor_counts
        )
        assert np.array_equal(sparse_result.labels, brute_result.labels)
        assert sparse_result.n_outliers == brute_result.n_outliers

    @pytest.mark.parametrize("dense", [True, False], ids=["dense-form", "sparse-form"])
    @pytest.mark.parametrize("theta", [0.1 + 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("fraction", [0.01, 0.4, 1.0])
    def test_count_parity_on_both_forms(self, dense, theta, fraction):
        unlabeled, sample, clusters = self._setup(seed=1)
        kwargs = dict(theta=theta, labeling_fraction=fraction, rng=99)
        labeler = StreamingLabeler(sample, clusters, strategy="sparse-matmul", **kwargs)
        labeler._dense_form = dense
        kernel = labeler.label_batch(unlabeled)
        brute = label_points(unlabeled, sample, clusters, strategy="bruteforce", **kwargs)
        assert np.array_equal(kernel.neighbor_counts, brute.neighbor_counts)
        assert np.array_equal(kernel.labels, brute.labels)
        assert kernel.n_outliers == brute.n_outliers

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_two_point_cluster_tiny_fraction(self, theta):
        # fraction * 2 rounds to zero; the guard must retain one point and
        # both strategies must count against the identical retained set.
        sample = [frozenset({1}), frozenset({1, 2})]
        clusters = [[0, 1]]
        fractions = select_labeling_fractions(clusters, fraction=0.01, rng=5)
        assert len(fractions[0]) == 1
        kwargs = dict(theta=theta, labeling_fraction=0.01, rng=5)
        sparse_result = label_points(
            [frozenset({1})], sample, clusters, strategy="sparse-matmul", **kwargs
        )
        brute_result = label_points(
            [frozenset({1})], sample, clusters, strategy="bruteforce", **kwargs
        )
        assert np.array_equal(
            sparse_result.neighbor_counts, brute_result.neighbor_counts
        )

    def test_empty_sets_against_empty_retained(self):
        # Jaccard(∅, ∅) = 1 must count as a neighbour for any theta in both
        # strategies, including the theta = 0 shortcut.
        sample = [frozenset(), frozenset({1, 2})]
        clusters = [[0], [1]]
        for theta in (0.0, 0.5, 1.0):
            for strategy in ("sparse-matmul", "bruteforce"):
                result = label_points(
                    [frozenset()], sample, clusters, theta=theta, strategy=strategy
                )
                assert result.neighbor_counts[0, 0] == 1.0
                assert result.neighbor_counts[0, 1] == (1.0 if theta == 0.0 else 0.0)
                assert result.labels[0] == 0
            labeler = StreamingLabeler(sample, clusters, theta=theta)
            for dense in (True, False):
                labeler._dense_form = dense
                counts = labeler._matmul_counts([frozenset()])
                assert counts.tolist() == [[1.0, 1.0 if theta == 0.0 else 0.0]]

    @pytest.mark.parametrize("dense", [True, False], ids=["dense-form", "sparse-form"])
    def test_only_empty_sets_retained_under_a_shared_index(self, dense):
        # No retained row holds an indexed item, so the kernel keeps the
        # shared index as it is instead of dropping every column.
        sample = [frozenset(), frozenset()]
        clusters = [[0], [1]]
        batch = [frozenset(), frozenset({1}), frozenset({7})]
        labeler = StreamingLabeler(sample, clusters, theta=0.5, item_index={1: 0, 2: 1})
        labeler._dense_form = dense
        brute = label_points(batch, sample, clusters, theta=0.5, strategy="bruteforce")
        assert np.array_equal(labeler._matmul_counts(batch), brute.neighbor_counts)
