"""Model-level tests of the arena agglomeration engine against the spec.

The contract of ``engine="arena"`` is *bit-identical* behaviour to
``engine="reference"``: the same merge history (including goodness values),
the same labels, the same criterion and the same early-stop flag.  The
tests below enforce that on randomized transaction sets across the theta
range and on synthetic versions of all four seed data sets (votes,
mushroom, mutual funds, market baskets).
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core.engine_arena import ArenaAgglomerationEngine, arena_agglomerate
from repro.core.links import links_from_neighbors
from repro.core.neighbors import compute_neighbors
from repro.core.rock import ENGINES, RockClustering
from repro.datasets.market_basket import example_transactions, generate_market_baskets
from repro.datasets.mushroom import generate_mushroom_like
from repro.datasets.mutual_funds import generate_mutual_funds
from repro.errors import ConfigurationError, InsufficientLinksError
from repro.timeseries.categorize import to_updown_transactions


def _random_transactions(rng: np.random.Generator, n: int, universe: int) -> list[frozenset]:
    return [
        frozenset(
            rng.choice(universe, size=int(rng.integers(1, 7)), replace=False).tolist()
        )
        for _ in range(n)
    ]


def assert_engines_identical(data, n_clusters: int, theta: float, **kwargs) -> None:
    arena = RockClustering(
        n_clusters=n_clusters, theta=theta, engine="arena", **kwargs
    ).fit(data).result_
    reference = RockClustering(
        n_clusters=n_clusters, theta=theta, engine="reference", **kwargs
    ).fit(data).result_
    assert arena.merge_history == reference.merge_history
    assert np.array_equal(arena.labels, reference.labels)
    assert arena.clusters == reference.clusters
    assert arena.criterion == reference.criterion
    assert arena.stopped_early == reference.stopped_early
    assert arena.n_clusters == reference.n_clusters


class TestEngineEquivalence:
    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_transactions_bit_identical(self, theta, seed):
        rng = np.random.default_rng(seed)
        transactions = _random_transactions(rng, n=90, universe=25)
        assert_engines_identical(transactions, n_clusters=5, theta=theta)

    def test_theta_zero_bit_identical(self):
        rng = np.random.default_rng(17)
        transactions = _random_transactions(rng, n=40, universe=10)
        assert_engines_identical(transactions, n_clusters=3, theta=0.0)

    def test_theta_one_bit_identical(self):
        # At theta = 1 only identical transactions are neighbours; distinct
        # sets therefore produce a linkless graph and an early stop.  (Both
        # engines share the seed's limitation that duplicate transactions
        # at theta = 1 make the goodness denominator vanish.)
        transactions = [frozenset({i, i + 1}) for i in range(12)]
        assert_engines_identical(transactions, n_clusters=3, theta=1.0)

    def test_votes_like_bit_identical(self, votes_small):
        assert_engines_identical(votes_small, n_clusters=2, theta=0.73)

    def test_mushroom_like_bit_identical(self):
        dataset = generate_mushroom_like(
            group_sizes_edible=(30, 20, 10),
            group_sizes_poisonous=(25, 15, 10),
            rng=5,
        )
        assert_engines_identical(dataset, n_clusters=6, theta=0.8)

    def test_mutual_funds_like_bit_identical(self):
        _, prices, _ = generate_mutual_funds(n_days=120, rng=3)
        transactions = to_updown_transactions(prices)
        assert_engines_identical(transactions, n_clusters=3, theta=0.6)

    def test_market_baskets_bit_identical(self):
        dataset = generate_market_baskets(n_transactions=150, rng=9)
        assert_engines_identical(dataset.transactions, n_clusters=4, theta=0.5)

    def test_basket_example_bit_identical(self):
        dataset = example_transactions()
        assert_engines_identical(dataset, n_clusters=2, theta=0.5)

    def test_custom_exponent_function_bit_identical(self):
        rng = np.random.default_rng(23)
        transactions = _random_transactions(rng, n=60, universe=15)
        assert_engines_identical(
            transactions,
            n_clusters=4,
            theta=0.5,
            exponent_function=lambda theta: 0.5 * (1.0 - theta),
        )

    def test_empty_transactions_bit_identical(self):
        transactions = [frozenset(), frozenset(), frozenset({1, 2}), frozenset({1, 2, 3})]
        assert_engines_identical(transactions, n_clusters=2, theta=0.5)


class TestArenaEngineBehaviour:
    def test_auto_is_the_default_engine(self):
        assert RockClustering(n_clusters=2).engine == "auto"

    def test_engines_constant(self):
        assert ENGINES == ("reference", "arena")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            RockClustering(n_clusters=2, engine="warp")

    def test_strict_raises_on_early_stop(self):
        transactions = [{1, 2}, {3, 4}, {5, 6}]
        with pytest.raises(InsufficientLinksError):
            RockClustering(
                n_clusters=1, theta=0.9, engine="arena", strict=True
            ).fit(transactions)

    def test_two_group_recovery(self, two_group_transactions, two_group_labels):
        model = RockClustering(n_clusters=2, theta=0.4, engine="arena")
        model.fit(two_group_transactions)
        assert model.n_clusters_ == 2
        first = model.labels_[:3]
        second = model.labels_[3:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]


class TestArenaAgglomerateFunction:
    @pytest.fixture
    def links(self, two_group_transactions):
        graph = compute_neighbors(two_group_transactions, theta=0.4)
        return links_from_neighbors(graph)

    def test_merges_down_to_requested_count(self, links):
        history, members, stopped_early, _ = arena_agglomerate(links, 6, 2, 0.4)
        assert len(members) == 2
        assert len(history) == 4
        assert not stopped_early
        assert sorted(sorted(points) for points in members.values()) == [
            [0, 1, 2],
            [3, 4, 5],
        ]

    def test_goodness_values_positive_and_recorded(self, links):
        history, _, _, _ = arena_agglomerate(links, 6, 2, 0.4)
        assert all(step.goodness > 0 for step in history)
        assert [step.step for step in history] == list(range(len(history)))

    def test_empty_links_stops_early(self):
        links = sparse.csr_matrix((4, 4), dtype=np.int64)
        history, members, stopped_early, _ = arena_agglomerate(links, 4, 1, 0.5)
        assert not history
        assert len(members) == 4
        assert stopped_early

    def test_unsorted_and_unsymmetric_input_accepted(self, links):
        # The engine canonicalises its input: shuffle the storage order and
        # keep only the upper triangle; results must not change.
        upper = sparse.triu(links, k=1).tocoo()
        order = np.random.default_rng(0).permutation(upper.nnz)
        scrambled = sparse.coo_matrix(
            (upper.data[order], (upper.row[order], upper.col[order])),
            shape=upper.shape,
        ).tocsr()
        baseline = arena_agglomerate(links, 6, 2, 0.4)
        assert arena_agglomerate(scrambled, 6, 2, 0.4)[0] == baseline[0]

    def test_engine_class_reusable_state(self, links):
        engine = ArenaAgglomerationEngine(links, 6, 2, 0.4)
        history, members, stopped_early, _ = engine.run()
        assert len(members) == 2
        assert not stopped_early
        assert len(history) == 4


class TestDegenerateGoodness:
    def test_theta_one_with_duplicates_raises_like_reference(self):
        # f(1.0) == 0 makes every goodness denominator vanish; both engines
        # must refuse identically (the reference raises from goodness()).
        transactions = [frozenset({1, 2}), frozenset({1, 2}), frozenset({3, 4})]
        for engine in ENGINES:
            with pytest.raises(ZeroDivisionError):
                RockClustering(n_clusters=1, theta=1.0, engine=engine).fit(
                    transactions
                )

    def test_negative_goodness_exponent_stops_early_identically(self):
        # A custom exponent function with 1 + 2 f(theta) < 1 makes every
        # denominator negative; the reference stops before the first merge
        # and the arena engine must match.
        transactions = [frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({1, 3, 4})]
        assert_engines_identical(
            transactions,
            n_clusters=1,
            theta=0.4,
            exponent_function=lambda theta: -0.5,
        )
