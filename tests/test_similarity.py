"""Tests for the repro.similarity subpackage."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataValidationError
from repro.similarity.base import (
    pairwise_similarity_matrix,
    supports_vectorized_counts,
    validate_similarity_value,
)
from repro.similarity.jaccard import (
    DiceSimilarity,
    JaccardSimilarity,
    OverlapCoefficientSimilarity,
    SetCosineSimilarity,
    jaccard,
)
from repro.similarity.overlap import (
    HammingRecordSimilarity,
    SimpleMatchingSimilarity,
    record_overlap_similarity,
)
from repro.similarity.registry import available_measures, get_measure, register_measure


class TestJaccard:
    def test_paper_style_example(self):
        assert jaccard(frozenset({1, 2, 3}), frozenset({2, 3, 4})) == pytest.approx(0.5)

    def test_identical_sets(self):
        assert jaccard(frozenset({1, 2}), frozenset({1, 2})) == 1.0

    def test_disjoint_sets(self):
        assert jaccard(frozenset({1}), frozenset({2})) == 0.0

    def test_both_empty_defined_as_one(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_one_empty(self):
        assert jaccard(frozenset(), frozenset({1})) == 0.0

    def test_symmetry(self):
        a, b = frozenset({1, 2, 3, 4}), frozenset({3, 4, 5})
        assert jaccard(a, b) == jaccard(b, a)

    def test_class_wrapper_matches_function(self):
        measure = JaccardSimilarity()
        a, b = frozenset({1, 2, 3}), frozenset({1, 5})
        assert measure(a, b) == pytest.approx(jaccard(a, b))
        assert measure.name == "jaccard"


class TestOtherSetMeasures:
    def test_dice(self):
        assert DiceSimilarity()(frozenset({1, 2}), frozenset({2, 3})) == pytest.approx(0.5)

    def test_dice_empty(self):
        assert DiceSimilarity()(frozenset(), frozenset()) == 1.0

    def test_overlap_coefficient(self):
        measure = OverlapCoefficientSimilarity()
        assert measure(frozenset({1, 2}), frozenset({1, 2, 3, 4})) == 1.0
        assert measure(frozenset({1}), frozenset({2})) == 0.0

    def test_cosine(self):
        measure = SetCosineSimilarity()
        value = measure(frozenset({1, 2}), frozenset({2, 3, 4, 5}))
        assert value == pytest.approx(1 / np.sqrt(8))

    def test_all_measures_bounded(self):
        sets = [frozenset(), frozenset({1}), frozenset({1, 2, 3}), frozenset({2, 4})]
        for measure in (JaccardSimilarity(), DiceSimilarity(), OverlapCoefficientSimilarity(), SetCosineSimilarity()):
            for a in sets:
                for b in sets:
                    assert 0.0 <= measure(a, b) <= 1.0


class TestVectorizedCounts:
    """similarity_from_counts must agree bit-for-bit with __call__."""

    VECTORIZED = (
        JaccardSimilarity(),
        DiceSimilarity(),
        OverlapCoefficientSimilarity(),
        SetCosineSimilarity(),
    )

    def test_capability_detection(self):
        for measure in self.VECTORIZED:
            assert supports_vectorized_counts(measure)
        assert not supports_vectorized_counts(SimpleMatchingSimilarity(n_attributes=4))

    def test_counts_match_scalar_calls_exactly(self):
        pool = list(range(12))
        sets = [frozenset(), frozenset(pool[:1]), frozenset(pool[:4]),
                frozenset(pool[2:9]), frozenset(pool)]
        pairs = [(a, b) for a in sets for b in sets]
        intersections = np.array([len(a & b) for a, b in pairs], dtype=np.int64)
        left = np.array([len(a) for a, _ in pairs], dtype=np.int64)
        right = np.array([len(b) for _, b in pairs], dtype=np.int64)
        for measure in self.VECTORIZED:
            vectorized = measure.similarity_from_counts(intersections, left, right)
            scalar = np.array([measure(a, b) for a, b in pairs])
            # Bit-identical, not approximately equal: the cross-backend
            # adjacency guarantee rests on this.
            assert np.array_equal(vectorized, scalar), measure.name

    def test_empty_pair_is_one(self):
        zero = np.zeros(1, dtype=np.int64)
        for measure in self.VECTORIZED:
            assert measure.similarity_from_counts(zero, zero, zero)[0] == 1.0

    def test_counts_are_non_decreasing_in_the_overlap(self):
        # The monotone-overlap contract the exact overlap kernel rests on,
        # checked exhaustively over small set sizes.
        for measure in self.VECTORIZED:
            for a in range(0, 13):
                for b in range(0, 13):
                    overlaps = np.arange(0, min(a, b) + 1)
                    values = measure.similarity_from_counts(overlaps, a, b)
                    assert np.all(np.diff(values) >= 0), (measure.name, a, b)


class TestRecordMeasures:
    def test_record_overlap_basic(self):
        assert record_overlap_similarity(("a", "b", "c"), ("a", "x", "c")) == pytest.approx(2 / 3)

    def test_record_overlap_ignores_missing(self):
        assert record_overlap_similarity(("a", None), ("a", "b")) == 1.0

    def test_record_overlap_missing_counts_when_not_ignored(self):
        assert record_overlap_similarity(("a", None), ("a", "b"), ignore_missing=False) == 0.5

    def test_record_overlap_all_missing(self):
        assert record_overlap_similarity((None,), ("a",)) == 0.0

    def test_record_overlap_arity_mismatch(self):
        with pytest.raises(DataValidationError):
            record_overlap_similarity(("a",), ("a", "b"))

    def test_simple_matching_on_item_sets(self):
        measure = SimpleMatchingSimilarity(n_attributes=4)
        left = frozenset({(0, "a"), (1, "b"), (2, "c"), (3, "d")})
        right = frozenset({(0, "a"), (1, "b"), (2, "x"), (3, "y")})
        assert measure(left, right) == pytest.approx(0.5)

    def test_simple_matching_requires_positive_arity(self):
        with pytest.raises(DataValidationError):
            SimpleMatchingSimilarity(0)

    def test_hamming_record_similarity(self):
        measure = HammingRecordSimilarity()
        assert measure(("a", "b"), ("a", "b")) == 1.0
        assert measure(("a", "b"), ("x", "y")) == 0.0


class TestBaseHelpers:
    def test_validate_clamps_tiny_drift(self):
        assert validate_similarity_value(1.0 + 1e-12) == 1.0
        assert validate_similarity_value(-1e-12) == 0.0

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(DataValidationError):
            validate_similarity_value(1.5)

    def test_pairwise_matrix_properties(self, two_group_transactions):
        matrix = pairwise_similarity_matrix(two_group_transactions, JaccardSimilarity())
        assert matrix.shape == (6, 6)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)
        assert matrix[0, 3] == 0.0  # different groups share no items


class TestRegistry:
    def test_known_measures_available(self):
        names = available_measures()
        for expected in ("jaccard", "dice", "overlap-coefficient", "set-cosine", "simple-matching"):
            assert expected in names

    def test_get_measure_is_case_insensitive(self):
        assert get_measure("JACCARD").name == "jaccard"

    def test_get_measure_with_kwargs(self):
        measure = get_measure("simple-matching", n_attributes=5)
        assert measure.n_attributes == 5

    def test_unknown_measure_raises(self):
        with pytest.raises(ConfigurationError):
            get_measure("euclidean")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_measure("jaccard", JaccardSimilarity)

    def test_register_new_measure(self):
        class Constant:
            name = "constant-test-measure"

            def __call__(self, left, right):
                return 1.0

        register_measure("constant-test-measure", Constant)
        assert get_measure("constant-test-measure")(frozenset(), frozenset({1})) == 1.0
