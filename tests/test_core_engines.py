"""Tests for repro.core.engines (the agglomeration-engine registry) and
the arena engine's contracts.

``test_core_engine.py`` pins the arena engine against the reference spec
at model level; this file pins the registry itself (names, normalisation,
registration errors, ``auto`` selection), the arena engine against the
reference engine on raw link matrices — exact
:class:`~repro.types.MergeStep` histories including goodness floats and
tie-break order, surviving memberships, early-stop parity — its weighted
starting clusters against a dense greedy spec, and the merge-loop
counters surfaced through the model, the pipeline, the incremental
session and the serve ``status`` verb.  The spec comparisons run a second
time on a tight arena (private capacity constants shrunk), where every
merging run compacts, some compactions fire inside a row relocation and
the arena grows.  The arena cells' dtype rules (int32 partner ids and
counts wherever the input fits) are pinned at their boundaries and on
inputs past them.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.engine_arena import (
    ArenaAgglomerationEngine,
    _partner_dtype,
    arena_agglomerate,
)
from repro.core.engines import (
    ARENA_ENGINE,
    AUTO_ENGINE,
    DEFAULT_ENGINE,
    REFERENCE_ENGINE,
    available_engines,
    engine_choices,
    get_engine,
    normalize_engine_name,
    register_engine,
    resolve_engine_name,
    select_engine_name,
    validate_engine_name,
)
from repro.core.goodness import default_expected_links_exponent
from repro.core.incremental import IncrementalRock
from repro.core.links import count_dtype, links_from_neighbors
from repro.core.neighbors import compute_neighbors
from repro.core.pipeline import RockPipeline
from repro.core.rock import RockClustering
from repro.datasets.market_basket import generate_market_baskets
from repro.errors import ConfigurationError


def _random_transactions(rng, n, universe):
    return [
        frozenset(
            rng.choice(universe, size=int(rng.integers(1, 7)), replace=False).tolist()
        )
        for _ in range(n)
    ]


def _links_for(transactions, theta):
    return links_from_neighbors(compute_neighbors(transactions, theta=theta))


def _random_links(seed: int, n: int, density: float, max_count: int):
    """A random symmetric int64 link matrix with deliberately tied counts."""
    rng = np.random.default_rng(seed)
    dense = rng.integers(0, max_count + 1, size=(n, n))
    dense *= rng.random((n, n)) < density
    dense = np.triu(dense, k=1)
    dense = dense + dense.T
    return sparse.csr_matrix(dense.astype(np.int64))


def _partition(members):
    return sorted(sorted(points) for points in members.values())


#: Arena constants under which every merging run compacts: no free tail
#: beyond the seeded windows, growth once a compaction leaves the arena 90%
#: full, one cell of row headroom and eight-cell seeding/compaction steps.
TIGHT_ARENA = {
    "_ARENA_SLACK": 0.0,
    "_MAX_FILL": 0.9,
    "_MIN_ARENA_CELLS": 0,
    "_BLOCK_CELLS": 8,
    "_ROW_HEADROOM": 1,
}


@contextmanager
def tight_arena():
    with pytest.MonkeyPatch.context() as patch:
        for name, value in TIGHT_ARENA.items():
            patch.setattr(ArenaAgglomerationEngine, name, value)
        yield


def assert_arena_matches_reference(
    links, n, n_clusters, theta, exponent_function=None
):
    reference = get_engine(REFERENCE_ENGINE).agglomerate(
        links, n, n_clusters, theta, exponent_function
    )
    arena = arena_agglomerate(links, n, n_clusters, theta, exponent_function)
    # MergeStep history, goodness floats and tie-breaks included.
    assert arena[0] == reference.merge_history
    assert _partition(arena[1]) == _partition(reference.members)
    assert arena[2] == reference.stopped_early
    return arena


def greedy_spec(weights, sizes, n_clusters, theta):
    """Dense weighted greedy merge: ``(left, right, goodness, size)`` steps.

    The textbook loop over weighted starting clusters — score every
    linked pair, merge the best, sum the merged pair's rows — with merged
    clusters numbered past the starting ids like every engine, and each
    pair's normaliser taken with the larger id's size first.
    """
    exponent = 1.0 + 2.0 * default_expected_links_exponent(theta)
    size = {i: int(s) for i, s in enumerate(sizes)}
    cross = {
        (i, j): float(weights[i, j])
        for i in range(len(sizes))
        for j in range(i + 1, len(sizes))
        if weights[i, j] > 0
    }

    def pair_goodness(pair):
        older, newer = size[pair[0]], size[pair[1]]
        return cross[pair] / (
            float(newer + older) ** exponent
            - float(newer) ** exponent
            - float(older) ** exponent
        )

    steps = []
    while len(size) > n_clusters and cross:
        left, right = max(cross, key=pair_goodness)
        best = pair_goodness((left, right))
        if not best > 0.0:
            break
        merged = len(sizes) + len(steps)
        steps.append((left, right, best, size[left] + size[right]))
        size[merged] = size.pop(left) + size.pop(right)
        combined = {}
        for source in (left, right):
            for (a, b), weight in list(cross.items()):
                if source in (a, b):
                    del cross[(a, b)]
                    other = b if a == source else a
                    if other not in (left, right):
                        combined[other] = combined.get(other, 0.0) + weight
        for other, weight in combined.items():
            cross[(other, merged)] = weight
    return steps


def _assert_weighted_matches_greedy_spec(seed):
    """Arena on random weighted clusters equals :func:`greedy_spec`;
    returns the arena's counters."""
    # Random float link mass and sizes make every goodness distinct, so the
    # merge order is fully determined by the spec.
    rng = np.random.default_rng(seed)
    k = 14
    weights = rng.random((k, k)) * (rng.random((k, k)) < 0.5) * 40.0
    weights = np.triu(weights, k=1)
    weights = weights + weights.T
    sizes = rng.integers(1, 30, size=k)
    history, members, stopped_early, counters = arena_agglomerate(
        sparse.csr_matrix(weights), k, 3, 0.5, sizes=sizes
    )
    spec = greedy_spec(weights, sizes, 3, 0.5)
    assert [
        (step.left, step.right, step.goodness, step.new_size) for step in history
    ] == spec
    assert stopped_early == (len(members) > 3)
    assert sorted(i for group in members.values() for i in group) == list(range(k))
    return counters


class _DummyEngine:
    def __init__(self, name):
        self.name = name

    def agglomerate(self, links, n_points, n_clusters, theta, exponent_function=None):
        raise NotImplementedError


class TestRegistry:
    def test_registration_order(self):
        assert available_engines() == [REFERENCE_ENGINE, ARENA_ENGINE]

    def test_engine_choices_lead_with_auto(self):
        assert engine_choices() == [AUTO_ENGINE, REFERENCE_ENGINE, ARENA_ENGINE]

    def test_default_engine_is_auto(self):
        assert DEFAULT_ENGINE == AUTO_ENGINE

    @pytest.mark.parametrize(
        ("raw", "expected"),
        [("  Arena ", "arena"), ("REFERENCE", "reference"), ("my_engine", "my-engine")],
    )
    def test_normalization(self, raw, expected):
        assert normalize_engine_name(raw) == expected

    def test_get_engine_normalizes(self):
        assert get_engine(" ARENA ").name == ARENA_ENGINE

    def test_registered_engines_report_their_names(self):
        for name in available_engines():
            assert get_engine(name).name == name

    def test_unknown_engine_message_lists_choices(self):
        with pytest.raises(ConfigurationError, match="auto, reference, arena"):
            get_engine("warp")

    def test_retired_flat_engine_rejected(self):
        # The flat engine was folded into arena (bit-identical); its name
        # is no longer accepted anywhere an engine name is.
        with pytest.raises(ConfigurationError, match="auto, reference, arena"):
            validate_engine_name("flat")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            register_engine(_DummyEngine("  "))

    def test_auto_name_reserved(self):
        with pytest.raises(ConfigurationError, match="reserved"):
            register_engine(_DummyEngine("auto"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine(_DummyEngine("arena"))

    def test_auto_resolves_to_arena(self):
        assert select_engine_name() == ARENA_ENGINE
        assert resolve_engine_name(AUTO_ENGINE) == ARENA_ENGINE
        assert resolve_engine_name(" Auto ") == ARENA_ENGINE
        # Validation keeps auto symbolic: only resolution makes it concrete.
        assert validate_engine_name(AUTO_ENGINE) == AUTO_ENGINE

    def test_validate_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            validate_engine_name("warp")


class TestArenaMatchesReference:
    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_theta_grid_bit_identical(self, theta, seed):
        rng = np.random.default_rng(seed)
        transactions = _random_transactions(rng, n=70, universe=20)
        links = _links_for(transactions, theta)
        assert_arena_matches_reference(links, len(transactions), 4, theta)

    def test_theta_one_linkless_early_stop(self):
        # At theta = 1 distinct transactions have no neighbours: both
        # engines must stop before the first merge, identically.
        transactions = [frozenset({i, i + 1}) for i in range(10)]
        links = _links_for(transactions, 1.0)
        arena = assert_arena_matches_reference(links, len(transactions), 3, 1.0)
        assert arena[2] is True and not arena[0]

    def test_theta_one_with_links_raises_like_reference(self):
        # A nonzero link at theta = 1 hits the vanishing goodness
        # denominator; the arena engine refuses like the reference (it
        # shares the seed's limitation on purpose), naming the cause.
        links = sparse.csr_matrix(np.array([[0, 2], [2, 0]], dtype=np.int64))
        with pytest.raises(ZeroDivisionError):
            get_engine(REFERENCE_ENGINE).agglomerate(links, 2, 1, 1.0)
        with pytest.raises(ZeroDivisionError, match="denominator is zero"):
            arena_agglomerate(links, 2, 1, 1.0)

    @pytest.mark.parametrize("f_theta", [-0.5, float("nan")])
    def test_custom_exponent_non_positive_goodness_stops_early_identically(
        self, f_theta
    ):
        # 1 + 2 f(theta) < 1 makes every denominator negative (a NaN
        # exponent makes every goodness NaN), so the best goodness is never
        # positive and both engines stop before the first merge.
        rng = np.random.default_rng(11)
        transactions = _random_transactions(rng, n=30, universe=12)
        links = _links_for(transactions, 0.4)
        arena = assert_arena_matches_reference(
            links, len(transactions), 1, 0.4, exponent_function=lambda theta: f_theta
        )
        assert arena[2] is True and not arena[0]

    def test_custom_exponent_bit_identical(self):
        rng = np.random.default_rng(23)
        transactions = _random_transactions(rng, n=50, universe=15)
        links = _links_for(transactions, 0.5)
        assert_arena_matches_reference(
            links,
            len(transactions),
            3,
            0.5,
            exponent_function=lambda theta: 0.5 * (1.0 - theta),
        )

    def test_tie_break_order_bit_identical(self):
        # A chain whose links all carry the same count produces long runs
        # of exactly equal goodness; the winner must be the same
        # (goodness, cluster-id) order the reference's heaps yield.
        n = 12
        dense = np.zeros((n, n), dtype=np.int64)
        for i in range(n - 1):
            dense[i, i + 1] = dense[i + 1, i] = 1
        links = sparse.csr_matrix(dense)
        arena = assert_arena_matches_reference(links, n, 2, 0.5)
        assert len(arena[0]) > 0

    def test_all_duplicate_transactions_bit_identical(self):
        transactions = [frozenset({1, 2, 3})] * 8
        links = _links_for(transactions, 0.5)
        assert_arena_matches_reference(links, len(transactions), 1, 0.5)


class TestArenaDegenerates:
    def test_empty_links_stops_early(self):
        links = sparse.csr_matrix((4, 4), dtype=np.int64)
        history, members, stopped_early, counters = arena_agglomerate(
            links, 4, 1, 0.5
        )
        assert not history
        assert len(members) == 4
        assert stopped_early
        assert counters["merges"] == 0
        assert_arena_matches_reference(links, 4, 1, 0.5)

    def test_n_clusters_at_or_above_n_merges_nothing(self):
        rng = np.random.default_rng(3)
        transactions = _random_transactions(rng, n=6, universe=8)
        links = _links_for(transactions, 0.3)
        for n_clusters in (6, 9):
            arena = assert_arena_matches_reference(links, 6, n_clusters, 0.3)
            assert arena[0] == [] and arena[2] is False

    def test_single_point(self):
        links = sparse.csr_matrix((1, 1), dtype=np.int64)
        assert_arena_matches_reference(links, 1, 1, 0.5)

    def test_unsorted_unsymmetric_input_canonicalised(self):
        rng = np.random.default_rng(7)
        transactions = _random_transactions(rng, n=40, universe=12)
        links = _links_for(transactions, 0.4)
        upper = sparse.triu(links, k=1).tocoo()
        order = np.random.default_rng(0).permutation(upper.nnz)
        scrambled = sparse.coo_matrix(
            (upper.data[order], (upper.row[order], upper.col[order])),
            shape=upper.shape,
        ).tocsr()
        baseline = arena_agglomerate(links, 40, 3, 0.4)
        assert arena_agglomerate(scrambled, 40, 3, 0.4)[0] == baseline[0]

    def test_engine_class_runs_standalone(self):
        rng = np.random.default_rng(5)
        transactions = _random_transactions(rng, n=30, universe=10)
        links = _links_for(transactions, 0.4)
        engine = ArenaAgglomerationEngine(links, 30, 3, 0.4)
        history, members, stopped_early, counters = engine.run()
        arena = assert_arena_matches_reference(links, 30, 3, 0.4)
        assert (history, members, stopped_early) == arena[:3]
        assert counters["merges"] == len(history)


class TestArenaReferenceProperty:
    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=2, max_value=28),
        density=st.floats(min_value=0.05, max_value=0.9),
        max_count=st.integers(min_value=1, max_value=4),
        theta=st.floats(min_value=0.05, max_value=0.95),
        k_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_arena_matches_reference_on_random_link_matrices(
        self, seed, n, density, max_count, theta, k_fraction
    ):
        links = _random_links(seed, n, density, max_count)
        n_clusters = max(1, int(round(k_fraction * n)))
        assert_arena_matches_reference(links, n, n_clusters, theta)

    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=2, max_value=28),
        density=st.floats(min_value=0.05, max_value=0.9),
        max_count=st.integers(min_value=1, max_value=4),
        theta=st.floats(min_value=0.05, max_value=0.95),
        k_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_arena_matches_reference_under_a_tight_arena(
        self, seed, n, density, max_count, theta, k_fraction
    ):
        links = _random_links(seed, n, density, max_count)
        n_clusters = max(1, int(round(k_fraction * n)))
        with tight_arena():
            history, _, _, counters = assert_arena_matches_reference(
                links, n, n_clusters, theta
            )
        # The seeded windows fill the tight arena, so the first merge
        # already compacts.
        assert counters["compactions"] > 0 or not history


class TestArenaCompaction:
    def test_compaction_inside_a_relocation_and_growth_match_reference(
        self, monkeypatch
    ):
        # Count compactions that fire while a full row is being relocated
        # mid-merge: every row moves under the merge in flight.
        depth = [0]
        inside_relocation = [0]
        relocate = ArenaAgglomerationEngine._relocate_row
        pack = ArenaAgglomerationEngine._pack_live_rows

        def counting_relocate(engine, row):
            depth[0] += 1
            try:
                return relocate(engine, row)
            finally:
                depth[0] -= 1

        def counting_pack(engine):
            inside_relocation[0] += depth[0] > 0
            return pack(engine)

        monkeypatch.setattr(
            ArenaAgglomerationEngine, "_relocate_row", counting_relocate
        )
        monkeypatch.setattr(ArenaAgglomerationEngine, "_pack_live_rows", counting_pack)
        links = _random_links(0, 16, 0.5, 3)
        with tight_arena():
            history, _, _, counters = assert_arena_matches_reference(
                links, 16, 1, 0.5
            )
        assert len(history) == 15
        assert inside_relocation[0] > 0
        assert counters["arena_grows"] > 0
        assert counters["compactions"] >= inside_relocation[0]

    def test_default_constants_leave_a_grown_arena_room(self):
        # A grown arena is sized at (1 + slack) x required; at or below 1
        # the next compaction finds it over _MAX_FILL and grows it again.
        engine = ArenaAgglomerationEngine
        assert (1 + engine._ARENA_SLACK) * engine._MAX_FILL > 1
        # The tight arena breaks the rule on purpose, so it grows often.
        assert (1 + TIGHT_ARENA["_ARENA_SLACK"]) * TIGHT_ARENA["_MAX_FILL"] <= 1

    def test_default_arena_is_bounded_by_the_seeded_links(self):
        # Live entries never increase under merging, so compaction keeps
        # reusing the arena sized at seeding instead of growing it.
        rng = np.random.default_rng(8)
        transactions = _random_transactions(rng, n=300, universe=40)
        links = _links_for(transactions, 0.3)
        history, _, _, counters = assert_arena_matches_reference(
            links, 300, 2, 0.3
        )
        assert len(history) > 250
        assert counters["compactions"] > 0
        assert counters["arena_grows"] == 0
        assert counters["arena_cells"] < 3 * links.nnz


def _arena_cells(links, n, n_clusters, theta):
    """Run the arena; return its result and the count and partner cells'
    dtypes."""
    engine = ArenaAgglomerationEngine(links, n, n_clusters, theta)
    result = engine.run()
    return result, engine._arena_count.dtype, engine._arena_partner.dtype


class TestArenaCellDtypes:
    def test_partner_ids_are_int32_while_twice_the_points_fit(self):
        assert _partner_dtype(0) == np.int32
        assert _partner_dtype(4000) == np.int32
        assert _partner_dtype(2**30 - 1) == np.int32  # 2n = 2**31 - 2
        assert _partner_dtype(2**30) == np.int64  # 2n = 2**31
        assert _partner_dtype(2**40) == np.int64

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16, np.uint32])
    def test_integer_counts_are_int32_while_the_link_mass_fits(self, dtype):
        assert count_dtype(np.dtype(dtype), 0.0) == np.int32
        assert count_dtype(np.dtype(dtype), 2**31 - 1) == np.int32
        assert count_dtype(np.dtype(dtype), 2**31) == np.int64
        assert count_dtype(np.dtype(dtype), 2.0**62) == np.int64

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
    def test_other_inputs_count_in_float64(self, dtype):
        assert count_dtype(np.dtype(dtype), 1.0) == np.float64
        assert count_dtype(np.dtype(dtype), 2.0**40) == np.float64

    def test_link_counts_run_on_int32_cells(self):
        rng = np.random.default_rng(2)
        transactions = _random_transactions(rng, n=80, universe=20)
        links = _links_for(transactions, 0.3)
        assert links.dtype == np.int64
        result, counts, partners = _arena_cells(links, 80, 3, 0.3)
        assert (counts, partners) == (np.int32, np.int32)
        assert result[0] == assert_arena_matches_reference(links, 80, 3, 0.3)[0]

    def test_link_mass_past_int32_runs_on_int64_counts(self):
        # Each count fits in int32, but points 0, 1 and 2 merge first and
        # the merged cluster's count to the rest, the sum of the two huge
        # counts to point 2, does not: int32 cells would wrap.
        links = _random_links(4, 12, 0.5, 3).toarray()
        huge = {(0, 1): 2**30 + 100, (0, 2): 2**30 + 50, (1, 2): 2**30 + 10}
        for (i, j), count in huge.items():
            links[i, j] = links[j, i] = count
        links = sparse.csr_matrix(links)
        assert links.data.max() <= np.iinfo(np.int32).max
        for n_clusters in (1, 4):
            result, counts, _ = _arena_cells(links, 12, n_clusters, 0.5)
            assert counts == np.int64
            arena = assert_arena_matches_reference(links, 12, n_clusters, 0.5)
            assert result[0] == arena[0]
        first, second = arena[0][:2]
        assert {first.left, first.right} == {0, 1}
        assert {second.left, second.right} == {2, 12}
        with tight_arena():
            assert_arena_matches_reference(links, 12, 1, 0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_integral_float_weights_match_their_int64_twin(self, seed):
        links = _random_links(seed, 24, 0.4, 5)
        weights = links.astype(np.float64)
        integer, integer_counts, _ = _arena_cells(links, 24, 2, 0.4)
        floating, float_counts, _ = _arena_cells(weights, 24, 2, 0.4)
        assert (integer_counts, float_counts) == (np.int32, np.float64)
        assert floating[0] == integer[0]
        assert _partition(floating[1]) == _partition(integer[1])
        assert floating[2] == integer[2]
        with tight_arena():
            assert arena_agglomerate(weights, 24, 2, 0.4)[0] == integer[0]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
    def test_the_callers_matrix_is_left_untouched(self, dtype):
        # Unsorted indices, a diagonal, an explicit zero and a negative
        # pair: every step of the canonical copy has something to change.
        dense = _random_links(6, 20, 0.5, 4).toarray().astype(dtype)
        dense[3, 3] = 4
        i, j = np.argwhere(np.triu(dense == 0, k=1))[0]
        dense[i, j] = dense[j, i] = -2
        links = sparse.csr_matrix(dense)
        links.data[0] = 0
        for row in range(20):
            lo, hi = links.indptr[row], links.indptr[row + 1]
            links.indices[lo:hi] = links.indices[lo:hi][::-1].copy()
            links.data[lo:hi] = links.data[lo:hi][::-1].copy()
        links.has_sorted_indices = False
        before = (links.data.copy(), links.indices.copy(), links.indptr.copy())
        arena_agglomerate(links, 20, 2, 0.5)
        assert links.dtype == dtype
        np.testing.assert_array_equal(links.data, before[0])
        np.testing.assert_array_equal(links.indices, before[1])
        np.testing.assert_array_equal(links.indptr, before[2])


class TestWeightedStartingClusters:
    def test_unit_sizes_equal_points(self):
        rng = np.random.default_rng(4)
        transactions = _random_transactions(rng, n=60, universe=15)
        links = _links_for(transactions, 0.4)
        points = arena_agglomerate(links, 60, 4, 0.4)
        weighted = arena_agglomerate(
            links, 60, 4, 0.4, sizes=np.ones(60, dtype=np.int64)
        )
        assert weighted == points

    @pytest.mark.parametrize("seed", range(6))
    def test_float_weights_match_dense_greedy_spec(self, seed):
        _assert_weighted_matches_greedy_spec(seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_float_weights_match_dense_greedy_spec_under_a_tight_arena(
        self, seed
    ):
        with tight_arena():
            counters = _assert_weighted_matches_greedy_spec(seed)
        assert counters["compactions"] > 0

    def test_sizes_enter_the_normaliser(self):
        # Two pairs with the same link mass: the pair of smaller clusters
        # has the larger goodness and merges first.
        weights = np.zeros((4, 4))
        weights[0, 1] = weights[1, 0] = 10.0
        weights[2, 3] = weights[3, 2] = 10.0
        history, _, _, _ = arena_agglomerate(
            sparse.csr_matrix(weights), 4, 3, 0.5, sizes=np.array([50, 40, 2, 3])
        )
        assert (history[0].left, history[0].right, history[0].new_size) == (
            2,
            3,
            5,
        )


class TestFullModelParity:
    def test_all_registry_engines_identical_end_to_end(self):
        dataset = generate_market_baskets(n_transactions=150, rng=9)
        results = {}
        for engine in engine_choices():
            model = RockClustering(n_clusters=4, theta=0.5, engine=engine)
            results[engine] = model.fit(dataset.transactions).result_
        baseline = results[REFERENCE_ENGINE]
        for engine, result in results.items():
            assert result.merge_history == baseline.merge_history, engine
            assert np.array_equal(result.labels, baseline.labels), engine
            assert result.clusters == baseline.clusters, engine
            assert result.stopped_early == baseline.stopped_early, engine


class TestCountersExposure:
    def test_merge_counters_flow_through_model_pipeline_session_and_serve(
        self, tmp_path
    ):
        # One end-to-end assertion chain: the arena engine's merge-loop
        # counters must surface at every observability layer.
        dataset = generate_market_baskets(n_transactions=120, rng=4)
        transactions = dataset.transactions

        # Model level (auto resolves to arena, so counters are on).
        model = RockClustering(n_clusters=4, theta=0.5).fit(transactions)
        counters = model.result_.merge_counters
        assert counters["merges"] == len(model.result_.merge_history)
        assert counters["frontier_max"] >= 0
        # Merge-loop memory: compactions run and the arena's capacity
        # high-water mark, in cells.
        assert counters["compactions"] >= 0
        assert counters["arena_cells"] >= 1024

        # An uninstrumented engine reports no counters rather than fakes.
        reference_model = RockClustering(
            n_clusters=4, theta=0.5, engine=REFERENCE_ENGINE
        ).fit(transactions)
        assert reference_model.result_.merge_counters == {}

        # Pipeline level: the run parameters carry the same counters.
        result = RockPipeline(n_clusters=4, theta=0.5).run(transactions)
        assert result.parameters["merge_counters"]["merges"] >= 1
        assert set(result.parameters["merge_counters"]) == set(counters)
        assert result.parameters["merge_counters"]["arena_cells"] >= 1024

        # Session level: a forced refresh records its own loop counters.
        session = IncrementalRock(n_clusters=4, theta=0.5, rng=0)
        session.bootstrap(transactions, model.clusters_)
        assert session.last_refresh_counters == {}
        session.refresh()
        assert session.last_refresh_counters["merges"] >= 0
        assert set(session.last_refresh_counters) == set(counters)

        # Serve level: the status verb republishes the session's counters.
        from repro.serve.server import ReproServer

        server = ReproServer.create(session, tmp_path / "snap")
        status = server._handle_status()
        assert (
            status["refresh_merge_counters"] == session.last_refresh_counters
        )
        assert {"compactions", "arena_cells"} <= set(
            status["refresh_merge_counters"]
        )
