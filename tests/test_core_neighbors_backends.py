"""Cross-backend equivalence suite for the neighbour-backend registry.

Every registered backend, and ``auto``, must produce an adjacency matrix
bit-identical to the ``bruteforce`` spec on the same inputs — over a
theta grid including the 0 and 1 extremes, with empty and duplicate
transactions, at block boundaries, for every built-in measure with the
vectorized-counts capability and for a toy measure that scores above 0 at
zero overlap.  The registry's error paths (unknown and retired backends,
duplicate registration, capability mismatches, measures breaking the
monotone-overlap contract, bad block sizes) are covered alongside.
"""

import numpy as np
import pytest

import repro.core.neighbors.blocked as blocked_module
from repro.core.neighbors import (
    DEFAULT_BLOCK_SIZE,
    NEIGHBOR_STRATEGIES,
    available_backends,
    compute_neighbors,
    get_backend,
    register_backend,
    select_backend_name,
)
from repro.errors import ConfigurationError
from repro.similarity.jaccard import (
    DiceSimilarity,
    JaccardSimilarity,
    OverlapCoefficientSimilarity,
    SetCosineSimilarity,
)
from repro.similarity.overlap import SimpleMatchingSimilarity
from toy_measures import NON_MONOTONE_RULES, OverlapRule, ShiftedOverlap

BACKENDS = ("bruteforce", "blocked")

#: Everything compared against the bruteforce spec: each further backend
#: and the ``auto`` resolution.
FAST_STRATEGIES = ("auto", *BACKENDS[1:])

#: Thresholds exercised by the grid: both extremes plus interior values
#: that sit exactly on representable similarity boundaries (0.5 is a
#: common exact Jaccard/Dice value, so >= comparisons are stressed).
THETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Every built-in measure with the vectorized-counts capability, plus a
#: toy measure that scores above 0 at zero overlap: its zero thresholds
#: connect disjoint sets, which no overlap product can see.
MEASURES = (
    JaccardSimilarity(),
    OverlapCoefficientSimilarity(),
    DiceSimilarity(),
    SetCosineSimilarity(),
    ShiftedOverlap(),
)


def random_transactions(rng, n, pool=24, max_size=8):
    return [
        frozenset(rng.choice(pool, size=int(rng.integers(1, max_size)), replace=False).tolist())
        for _ in range(n)
    ]


def assert_all_backends_agree(transactions, theta, measure, block_size=None):
    reference = compute_neighbors(
        transactions, theta, measure=measure, strategy="bruteforce"
    ).adjacency
    for strategy in FAST_STRATEGIES:
        fast = compute_neighbors(
            transactions, theta, measure=measure, strategy=strategy,
            block_size=block_size,
        ).adjacency
        assert (reference != fast).nnz == 0, (
            "backend %r disagrees with bruteforce at theta=%s under %s"
            % (strategy, theta, measure.name)
        )
        # Same canonical CSR shape, not just the same pattern.
        assert fast.shape == reference.shape
        assert fast.dtype == np.bool_


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_random_workload(self, theta, measure, rng):
        transactions = random_transactions(rng, 40)
        assert_all_backends_agree(transactions, theta, measure)

    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_with_empty_transactions(self, theta, measure, rng):
        # Empty sets never appear in an incidence product, yet every
        # measure scores two empty sets as identical (similarity 1).
        transactions = random_transactions(rng, 20) + [frozenset()] * 3
        assert_all_backends_agree(transactions, theta, measure)

    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_with_duplicate_transactions(self, theta, measure, rng):
        base = random_transactions(rng, 15)
        transactions = base + base[:5] + [frozenset({1, 2, 3})] * 4
        assert_all_backends_agree(transactions, theta, measure)

    @pytest.mark.parametrize("block_size", [1, 3, 7, 64, 1000])
    def test_blocked_block_size_never_changes_result(self, block_size, rng):
        transactions = random_transactions(rng, 35)
        reference = compute_neighbors(transactions, 0.4, strategy="bruteforce").adjacency
        blocked = compute_neighbors(
            transactions, 0.4, strategy="blocked", block_size=block_size
        ).adjacency
        assert (reference != blocked).nnz == 0

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_blocked_at_block_boundaries(self, offset, measure, rng):
        # n one short of, equal to and one past the block height: one
        # partial block, one exactly full block, or a trailing one-row
        # block.  Two empty sets and a copy of row 0 go last, so at
        # block_size + 1 the copy pairs with row 0 across blocks.
        block_size = 8
        transactions = random_transactions(rng, block_size + offset - 3)
        transactions += [frozenset(), frozenset(), transactions[0]]
        assert len(transactions) == block_size + offset
        for theta in (0.25, 0.5):
            assert_all_backends_agree(transactions, theta, measure, block_size=block_size)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocked_at_default_block_boundaries(self, offset, rng):
        transactions = random_transactions(rng, DEFAULT_BLOCK_SIZE + offset)
        reference = compute_neighbors(transactions, 0.5, strategy="bruteforce").adjacency
        for block_size in (None, DEFAULT_BLOCK_SIZE):
            blocked = compute_neighbors(
                transactions, 0.5, strategy="blocked", block_size=block_size
            ).adjacency
            assert (reference != blocked).nnz == 0

    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_blocked_single_row_blocks(self, theta, measure, rng):
        transactions = random_transactions(rng, 20) + [frozenset()] * 2
        assert_all_backends_agree(transactions, theta, measure, block_size=1)

    def test_two_point_and_single_point_inputs(self):
        for transactions in ([{1, 2, 3}, {2, 3, 4}], [{1, 2}]):
            assert_all_backends_agree(transactions, 0.5, JaccardSimilarity())

    def test_theta_one_exact_duplicates_only(self, rng):
        transactions = [frozenset({1, 2}), frozenset({1, 2}), frozenset({1, 2, 3})]
        for strategy in BACKENDS:
            graph = compute_neighbors(transactions, 1.0, strategy=strategy)
            assert graph.adjacency[0, 1]
            assert not graph.adjacency[0, 2]

    def test_shared_item_index_accepted_by_all_fast_backends(self, rng):
        from repro.data.encoding import build_item_index

        transactions = random_transactions(rng, 25)
        index = build_item_index(transactions)
        for strategy in BACKENDS[1:]:
            with_index = compute_neighbors(
                transactions, 0.4, strategy=strategy, item_index=index
            ).adjacency
            without = compute_neighbors(transactions, 0.4, strategy=strategy).adjacency
            assert (with_index != without).nnz == 0


class TestOverlapForms:
    """The blocked backend's two forms of the overlap test — the dense
    margin form (int8 cells while every set holds at most 127 items) and
    the sparse form — each forced, against the bruteforce spec."""

    THETAS = (0.0, 0.1 + 0.2, 1 / 3, 0.5, 1.0)

    @staticmethod
    def _forced(monkeypatch, dense, transactions, theta, measure, block_size=None):
        monkeypatch.setattr(blocked_module, "prefers_dense", lambda *args: dense)
        return compute_neighbors(
            transactions, theta, measure=measure, strategy="blocked", block_size=block_size
        ).adjacency

    @pytest.mark.parametrize("block_size", [1, 7, None], ids=["1", "7", "n"])
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_dense_sparse_and_bruteforce_agree(self, monkeypatch, measure, theta, block_size, rng):
        base = random_transactions(rng, 24)
        transactions = base + base[:4] + [frozenset()] * 3 + [frozenset({1, 2, 3})] * 2
        reference = compute_neighbors(
            transactions, theta, measure=measure, strategy="bruteforce"
        ).adjacency
        for dense in (True, False):
            forced = self._forced(
                monkeypatch, dense, transactions, theta, measure,
                block_size=block_size or len(transactions),
            )
            assert (reference != forced).nnz == 0, dense
            assert forced.has_canonical_format and forced.dtype == np.bool_

    @pytest.mark.parametrize("largest", [126, 127, 128])
    def test_exact_at_the_int8_boundary(self, monkeypatch, largest):
        # Sets of up to 127 items keep the operand in int8; a margin of
        # -(largest + 1) = -129 needs int16.
        big = frozenset(range(largest))
        transactions = [
            big,
            frozenset(range(largest - 1)),
            frozenset(range(1, largest + 1)) if largest < 128 else big,
            frozenset(range(largest // 2)),
            frozenset({0, 1}),
            frozenset(),
        ]
        for theta in (0.5, 0.99, 1.0):
            reference = compute_neighbors(transactions, theta, strategy="bruteforce").adjacency
            for dense in (True, False):
                forced = self._forced(monkeypatch, dense, transactions, theta, JaccardSimilarity())
                assert (reference != forced).nnz == 0, (theta, dense)

    def test_operand_cells_follow_the_largest_set(self):
        from repro.core.neighbors.vectorized import margin_operand
        from repro.data.encoding import transactions_to_incidence

        for largest, dtype in ((126, np.int8), (127, np.int8), (128, np.int16)):
            incidence, _ = transactions_to_incidence([frozenset(range(largest)), frozenset()])
            assert margin_operand(incidence, 1).dtype == dtype


class TestAutoSelection:
    def test_non_vectorizable_measure_goes_bruteforce(self):
        measure = SimpleMatchingSimilarity(n_attributes=4)
        assert select_backend_name(measure) == "bruteforce"

    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_vectorizable_measures_use_blocked(self, measure):
        # The measure alone decides: no size or sparsity input remains.
        assert select_backend_name(measure) == "blocked"

    @pytest.mark.parametrize("theta", (0.3, 0.5))
    def test_rare_item_workload_matches_bruteforce(self, theta):
        # The shape the retired inverted index was picked for: every item
        # occurs exactly twice, so almost no pair shares an item.
        transactions = [frozenset({i // 2, 10**6 + i}) for i in range(300)]
        assert_all_backends_agree(transactions, theta, JaccardSimilarity())


class TestRegistryErrorPaths:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            compute_neighbors([{1, 2}], 0.5, strategy="bogus")
        # The error enumerates what *is* available.
        assert "auto" in str(excinfo.value)
        assert "blocked" in str(excinfo.value)

    def test_get_backend_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_backend("definitely-not-registered")

    def test_underscore_alias_resolves(self):
        # Names are normalised (case, blanks, ``_`` == ``-``) wherever they
        # are resolved.
        assert get_backend(" Blocked ").name == "blocked"

    @pytest.mark.parametrize("strategy", ["inverted-index", "inverted_index"])
    def test_retired_inverted_index_is_unknown(self, strategy):
        # An explicit request for the retired backend gets the typed
        # unknown-strategy error, which lists what is registered instead.
        with pytest.raises(ConfigurationError) as excinfo:
            compute_neighbors([{1, 2}, {1, 2, 3}], 0.5, strategy=strategy)
        message = str(excinfo.value)
        assert "unknown neighbour strategy 'inverted-index'" in message
        assert "blocked" in message

    @pytest.mark.parametrize("strategy", FAST_STRATEGIES)
    @pytest.mark.parametrize("name, rule", NON_MONOTONE_RULES)
    def test_non_monotone_measure_rejected(self, name, rule, strategy, rng):
        # The overlap kernel cannot threshold a measure that falls as the
        # overlap grows; the spec evaluates it pair by pair.
        transactions = random_transactions(rng, 30)
        measure = OverlapRule(name, rule)
        with pytest.raises(ConfigurationError, match=name):
            compute_neighbors(transactions, 0.5, measure=measure, strategy=strategy)
        graph = compute_neighbors(
            transactions, 0.5, measure=measure, strategy="bruteforce"
        )
        assert graph.n_points == len(transactions)

    def test_duplicate_registration_rejected(self):
        class Dummy:
            name = "bruteforce"

            def supports(self, measure):
                return True

            def build_adjacency(self, *args, **kwargs):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ConfigurationError):
            register_backend(Dummy())

    def test_nameless_backend_rejected(self):
        class Nameless:
            name = ""

        with pytest.raises(ConfigurationError):
            register_backend(Nameless())

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_neighbors([{1, 2}, {2, 3}], 0.5, strategy="blocked", block_size=0)
        with pytest.raises(ConfigurationError):
            compute_neighbors([{1, 2}, {2, 3}], 0.5, block_size=-4)

    def test_strategies_constant_mirrors_registry(self):
        assert NEIGHBOR_STRATEGIES == ("auto", *available_backends())
        assert DEFAULT_BLOCK_SIZE > 0

    def test_late_registered_backend_is_listed_and_accepted(self):
        # The plugin path: a backend registered after import must be
        # listed by the live registry view and accepted by
        # compute_neighbors.
        from repro.core.neighbors import base as backend_registry
        from repro.core.neighbors import neighbor_strategies

        class ConstantBackend:
            name = "test-constant"

            def supports(self, measure):
                return True

            def build_adjacency(self, transactions, theta, measure,
                                item_index=None, block_size=None):
                from repro.core.neighbors import complete_adjacency

                return complete_adjacency(len(transactions))

        register_backend(ConstantBackend())
        try:
            assert "test-constant" in neighbor_strategies()
            graph = compute_neighbors([{1}, {2}], 0.9, strategy="test-constant")
            assert graph.n_edges() == 1
        finally:
            del backend_registry._REGISTRY["test-constant"]
