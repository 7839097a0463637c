"""Tests for repro.core.links."""

import argparse
import functools
import inspect
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import sparse

import repro.core.cpu_pool as cpu_pool_module
import repro.core.links as links_module
from repro.core.links import (
    LINK_STRATEGIES,
    canonical_links,
    compute_links,
    cross_cluster_links,
    intra_cluster_links,
    links_from_neighbors,
)
from repro.core.neighbors import NeighborGraph, compute_neighbors
from repro.core.pipeline import RockPipeline, cluster_shard
from repro.core.sharding import THREAD_SHARD_EXECUTOR, cluster_shards
from repro.datasets.market_basket import generate_market_baskets
from repro.errors import ConfigurationError


@pytest.fixture
def graph(two_group_transactions):
    return compute_neighbors(two_group_transactions, theta=0.4)


class TestLinkComputation:
    def test_links_within_triangle(self, graph):
        # Each group is a triangle: without self, points i and j share exactly
        # one other common neighbour; with self they gain two more.
        links_excl = links_from_neighbors(graph, include_self=False)
        links_incl = links_from_neighbors(graph, include_self=True)
        assert links_excl[0, 1] == 1
        assert links_incl[0, 1] == 3

    def test_no_links_across_groups(self, graph):
        links = links_from_neighbors(graph)
        assert links[0, 3] == 0
        assert links[2, 5] == 0

    def test_strategies_agree(self, rng):
        transactions = [
            frozenset(rng.choice(15, size=rng.integers(1, 6), replace=False).tolist())
            for _ in range(35)
        ]
        graph = compute_neighbors(transactions, theta=0.3)
        for include_self in (True, False):
            by_lists = links_from_neighbors(
                graph, strategy="neighbor-lists", include_self=include_self
            )
            by_matmul = links_from_neighbors(
                graph, strategy="sparse-matmul", include_self=include_self
            )
            assert (by_lists != by_matmul).nnz == 0

    def test_diagonal_always_zero(self, graph):
        for include_self in (True, False):
            links = links_from_neighbors(graph, include_self=include_self)
            assert np.all(links.diagonal() == 0)

    def test_symmetry(self, graph):
        links = links_from_neighbors(graph)
        assert (links != links.T).nnz == 0

    def test_compute_links_alias(self, graph):
        assert (compute_links(graph) != links_from_neighbors(graph)).nnz == 0

    def test_unknown_strategy_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            links_from_neighbors(graph, strategy="bogus")

    def test_strategies_constant(self):
        assert set(LINK_STRATEGIES) == {"auto", "neighbor-lists", "sparse-matmul"}

    def test_isolated_points_have_no_links(self):
        graph = compute_neighbors([{1, 2}, {1, 2, 3}, {9, 10}], theta=0.6)
        links = links_from_neighbors(graph)
        assert links[0, 2] == 0
        assert links[1, 2] == 0

    def test_empty_graph_gives_empty_links(self):
        graph = compute_neighbors([{1}, {2}, {3}], theta=0.5)
        links = links_from_neighbors(graph, include_self=False)
        assert links.nnz == 0


class TestClusterLinkHelpers:
    def test_cross_cluster_links(self, graph):
        links = links_from_neighbors(graph)
        assert cross_cluster_links(links, [0, 1, 2], [3, 4, 5]) == 0
        within = cross_cluster_links(links, [0], [1, 2])
        assert within == int(links[0, 1] + links[0, 2])

    def test_intra_cluster_links_counts_unordered_pairs(self, graph):
        links = links_from_neighbors(graph, include_self=False)
        # Triangle: three pairs, each with one common neighbour.
        assert intra_cluster_links(links, np.array([0, 1, 2])) == 3

    def test_intra_cluster_single_point_is_zero(self, graph):
        links = links_from_neighbors(graph)
        assert intra_cluster_links(links, np.array([0])) == 0


class TestCanonicalOrder:
    def test_links_have_sorted_indices(self, rng):
        # The agglomeration engines rely on canonical CSR order for their
        # deterministic tie-breaking.
        transactions = [
            frozenset(rng.choice(20, size=int(rng.integers(1, 7)), replace=False).tolist())
            for _ in range(60)
        ]
        graph = compute_neighbors(transactions, theta=0.3)
        for strategy in ("sparse-matmul", "neighbor-lists"):
            links = links_from_neighbors(graph, strategy=strategy)
            assert links.has_sorted_indices

    def test_strategies_agree_with_empty_transactions(self, rng):
        transactions = [
            frozenset(rng.choice(10, size=int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(25)
        ] + [frozenset(), frozenset()]
        for theta in (0.0, 0.4, 0.8):
            graph = compute_neighbors(transactions, theta=theta)
            by_lists = links_from_neighbors(graph, strategy="neighbor-lists")
            by_matmul = links_from_neighbors(graph, strategy="sparse-matmul")
            assert (by_lists != by_matmul).nnz == 0
            assert by_lists.dtype == by_matmul.dtype == np.int64


class TestChunkedPairFolding:
    def test_fold_limit_does_not_change_counts(self, rng, monkeypatch):
        # Force folding after every few pair occurrences; the counts must
        # match the unfolded computation exactly.
        import repro.core.links as links_module

        transactions = [
            frozenset(rng.choice(12, size=int(rng.integers(2, 6)), replace=False).tolist())
            for _ in range(40)
        ]
        graph = compute_neighbors(transactions, theta=0.2)
        unfolded = links_from_neighbors(graph, strategy="neighbor-lists")
        monkeypatch.setattr(links_module, "_PAIR_FOLD_LIMIT", 7)
        folded = links_from_neighbors(graph, strategy="neighbor-lists")
        assert (unfolded != folded).nnz == 0


def _random_graph(rng, n, density, isolated=0):
    """A symmetric boolean adjacency over ``n`` points with an empty
    diagonal; the last ``isolated`` points have no neighbour."""
    if n == 0:
        return NeighborGraph(sparse.csr_matrix((0, 0), dtype=bool), 0.5, "jaccard")
    upper = sparse.random(
        n, n, density=density, format="csr", random_state=int(rng.integers(2**31))
    )
    upper = sparse.triu(upper, k=1).tocsr()
    adjacency = (upper + upper.T).astype(bool).tolil()
    if isolated:
        adjacency[n - isolated:, :] = False
        adjacency[:, n - isolated:] = False
    adjacency = adjacency.tocsr()
    adjacency.eliminate_zeros()
    adjacency.sort_indices()
    return NeighborGraph(adjacency, 0.5, "jaccard")


def _assert_identical(left, right):
    """Equal link matrices down to the index order and every dtype."""
    assert left.shape == right.shape
    for name in ("indptr", "indices", "data"):
        first, second = getattr(left, name), getattr(right, name)
        assert first.dtype == second.dtype, name
        np.testing.assert_array_equal(first, second, err_msg=name)


def _pooled(graph, workers, include_self, product=links_from_neighbors):
    """``product`` (the public link product by default) forced onto a pool
    of ``workers`` threads."""
    pool = ThreadPoolExecutor(max_workers=workers)
    original = links_module._link_pool
    links_module._link_pool = lambda multiply_adds: (pool, workers)
    try:
        return product(graph, include_self=include_self)
    finally:
        links_module._link_pool = original
        pool.shutdown()


def _one_call(graph, include_self, product=links_from_neighbors):
    """``product`` forced onto the one-call path."""
    original = links_module._link_pool
    links_module._link_pool = lambda multiply_adds: None
    try:
        return product(graph, include_self=include_self)
    finally:
        links_module._link_pool = original


def _multiply_adds(graph, include_self):
    lengths = graph.neighbor_counts().astype(np.int64) + int(include_self)
    return int(lengths @ lengths)


class TestPooledProduct:
    """The row-block product on the link pool returns today's exact matrix."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("include_self", [True, False])
    def test_pool_equals_single_call_and_spec(self, rng, workers, include_self):
        cases = [
            _random_graph(rng, n, density, isolated)
            for n, density, isolated in [
                (0, 0.0, 0),
                (1, 0.0, 0),
                (2, 1.0, 0),
                (9, 0.0, 0),
                (40, 0.15, 5),
                (75, 0.05, 0),
                (120, 0.3, 12),
            ]
        ]
        for graph in cases:
            single = links_from_neighbors(graph, include_self=include_self)
            spec = links_from_neighbors(
                graph, strategy="neighbor-lists", include_self=include_self
            )
            pooled = _pooled(graph, workers, include_self)
            _assert_identical(pooled, single)
            assert (pooled != spec).nnz == 0
            assert pooled.has_sorted_indices
            assert np.all(pooled.diagonal() == 0)
            assert (pooled != pooled.T).nnz == 0

    @pytest.mark.parametrize("include_self", [True, False])
    def test_pool_on_real_graphs_at_theta_zero_and_above(self, include_self):
        baskets = generate_market_baskets(n_transactions=150, rng=3, n_clusters=4)
        transactions = baskets.transactions + [frozenset(), frozenset()]
        for theta in (0.0, 0.3, 0.7):
            graph = compute_neighbors(transactions, theta=theta)
            single = links_from_neighbors(graph, include_self=include_self)
            for workers in (1, 2, 4):
                _assert_identical(_pooled(graph, workers, include_self), single)

    def test_block_cap_splits_without_changing_the_matrix(self, rng, monkeypatch):
        graph = _random_graph(rng, 90, 0.2, isolated=3)
        whole = _pooled(graph, 2, True)
        monkeypatch.setattr(links_module, "_MAX_BLOCK_MULTIPLY_ADDS", 50)
        assert len(links_module._row_blocks(graph.adjacency.astype(np.int32), 2)) > 8
        _assert_identical(_pooled(graph, 2, True), whole)

    def test_row_blocks_cover_every_row_once(self, rng):
        graph = _random_graph(rng, 200, 0.1, isolated=10)
        bounds = links_module._row_blocks(graph.adjacency.astype(np.int32), 2)
        assert bounds[0][0] == 0 and bounds[-1][1] == 200
        assert all(low < high for low, high in bounds)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert links_module._row_blocks(sparse.csr_matrix((0, 0), dtype=np.int32), 2) == []


def _assert_same_links(narrow, public):
    """``narrow`` is ``public`` in indptr, indices and values, its counts in
    the arena's count dtype."""
    assert narrow.shape == public.shape
    for name in ("indptr", "indices"):
        first, second = getattr(narrow, name), getattr(public, name)
        assert first.dtype == second.dtype, name
        np.testing.assert_array_equal(first, second, err_msg=name)
    np.testing.assert_array_equal(narrow.data, public.data)
    mass = float(public.data.sum()) / 2
    assert narrow.dtype == links_module.count_dtype(public.dtype, mass)
    assert narrow.has_sorted_indices


class TestCanonicalLinks:
    """The product the arena seeds from is the public one, narrower."""

    @pytest.mark.parametrize("workers", [None, 1, 2, 4])
    @pytest.mark.parametrize("include_self", [True, False])
    def test_equals_the_public_product_on_both_paths(self, rng, workers, include_self):
        cases = [
            _random_graph(rng, n, density, isolated)
            for n, density, isolated in [
                (0, 0.0, 0),
                (1, 0.0, 0),
                (2, 1.0, 0),
                (9, 0.0, 0),
                (40, 0.15, 5),
                (120, 0.3, 12),
            ]
        ]
        baskets = generate_market_baskets(n_transactions=150, rng=3, n_clusters=4)
        transactions = baskets.transactions + [frozenset(), frozenset()]
        cases += [compute_neighbors(transactions, theta=theta) for theta in (0.0, 0.3)]
        for graph in cases:
            public = links_from_neighbors(graph, include_self=include_self)
            if workers is None:
                narrow = _one_call(graph, include_self, canonical_links)
            else:
                narrow = _pooled(graph, workers, include_self, canonical_links)
            _assert_same_links(narrow, public)
            assert narrow.dtype == np.int32

    @pytest.mark.parametrize("workers", [None, 2])
    def test_counts_widen_exactly_past_the_int32_mass_bound(
        self, rng, monkeypatch, workers
    ):
        # The rule at its boundary, on a small matrix: the bound moved to
        # the product's own upper-triangle link mass.
        graph = _random_graph(rng, 60, 0.2, isolated=4)
        public = links_from_neighbors(graph)
        mass = int(public.data.sum()) // 2
        for bound, dtype in [(mass, np.int32), (mass - 1, np.int64)]:
            monkeypatch.setattr(links_module, "_INT32_MAX", bound)
            if workers is None:
                narrow = _one_call(graph, True, canonical_links)
            else:
                narrow = _pooled(graph, workers, True, canonical_links)
            assert narrow.dtype == dtype
            _assert_same_links(narrow, public)


class TestPoolSelection:
    """The link product takes the CPU pool only above the multiply-add
    crossover, and only where the pool itself allows it (the main thread
    of a process with a second CPU that is not a multiprocessing child;
    those rules are tested with the pool, in ``test_core_cpu_pool.py``)."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        original = links_module._links_in_blocks

        def recording(adjacency, pool, workers, *rest):
            calls.append(threading.current_thread())
            return original(adjacency, pool, workers, *rest)

        monkeypatch.setattr(links_module, "_links_in_blocks", recording)
        return calls

    def test_crossover_picks_the_path_and_keeps_the_matrix(self, rng, monkeypatch, spy):
        if cpu_pool_module._usable_cpus() < 2:
            pytest.skip("the pool needs a second CPU")
        small = _random_graph(rng, 60, 0.05)
        large = _random_graph(rng, 60, 0.4)
        assert _multiply_adds(small, True) < _multiply_adds(large, True)
        expected = {
            id(graph): links_from_neighbors(graph) for graph in (small, large)
        }
        assert spy == []
        monkeypatch.setattr(
            links_module, "_POOL_MIN_MULTIPLY_ADDS", _multiply_adds(large, True)
        )
        _assert_identical(links_from_neighbors(small), expected[id(small)])
        assert spy == []
        _assert_identical(links_from_neighbors(large), expected[id(large)])
        assert spy == [threading.main_thread()]

    def test_no_pool_below_the_crossover_or_on_one_cpu(self, monkeypatch):
        crossover = links_module._POOL_MIN_MULTIPLY_ADDS
        monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 2)
        assert links_module._link_pool(crossover - 1) is None
        monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 1)
        assert links_module._link_pool(crossover) is None

    def test_thread_executor_shard_tasks_never_submit(self, monkeypatch, spy):
        if cpu_pool_module._usable_cpus() < 2:
            pytest.skip("the pool needs a second CPU")
        monkeypatch.setattr(links_module, "_POOL_MIN_MULTIPLY_ADDS", 0)
        link_threads = []
        original = links_module.canonical_links

        def recording(*args, **kwargs):
            link_threads.append(threading.current_thread())
            return original(*args, **kwargs)

        import repro.core.rock as rock_module

        monkeypatch.setattr(rock_module, "canonical_links", recording)
        baskets = generate_market_baskets(n_transactions=240, rng=0, n_clusters=3)
        RockPipeline(n_clusters=3, theta=0.4, rng=0).run_sharded(
            baskets.transactions,
            n_shards=3,
            shard_workers=2,
            shard_executor=THREAD_SHARD_EXECUTOR,
        )
        shard_threads = [t for t in link_threads if t is not threading.main_thread()]
        assert len(shard_threads) == 3
        # Only the summary merge, on the main thread, may use the pool.
        assert all(thread is threading.main_thread() for thread in spy)

    def test_process_executor_shard_tasks_never_submit(self):
        config = RockPipeline(n_clusters=2, theta=0.4, rng=0).config
        baskets = generate_market_baskets(n_transactions=120, rng=0, n_clusters=2)
        samples = [
            (baskets.transactions[start::2], list(range(start, 120, 2)))
            for start in (0, 1)
        ]
        results = cluster_shards(
            samples,
            functools.partial(_count_pool_use_in_shard, config),
            shard_workers=2,
            executor="process",
        )
        assert len(results) == 2
        for result in results:
            assert result.timings["link_calls"] == 1
            assert result.timings["link_pool_calls"] == 0


def _count_pool_use_in_shard(config, shard_id, sample, positions):
    """Shard task for a process worker: lowers the crossover to zero in
    its own process, runs the real task and reports how often the link
    product went to the pool."""
    import repro.core.links as child_links
    import repro.core.rock as child_rock

    counts = {"link_calls": 0, "link_pool_calls": 0}
    blocks, links = child_links._links_in_blocks, child_rock.canonical_links

    def counting_blocks(*args):
        counts["link_pool_calls"] += 1
        return blocks(*args)

    def counting_links(*args, **kwargs):
        counts["link_calls"] += 1
        return links(*args, **kwargs)

    child_links._POOL_MIN_MULTIPLY_ADDS = 0
    child_links._links_in_blocks = counting_blocks
    child_rock.canonical_links = counting_links
    result = cluster_shard(config, shard_id, sample, positions)
    result.timings.update(counts)
    return result


def test_no_new_option_or_environment_variable():
    """The path is chosen from what the code observes, never configured."""
    assert list(inspect.signature(links_from_neighbors).parameters) == [
        "graph", "strategy", "include_self",
    ]
    source = inspect.getsource(links_module)
    assert "environ" not in source and "getenv" not in source
    from repro.cli import build_parser

    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    flags = {
        option
        for command in commands.choices.values()
        for action in command._actions
        for option in action.option_strings
    }
    assert flags
    assert not any(word in flag for flag in flags for word in ("pool", "thread", "link"))
