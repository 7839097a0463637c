"""Tests for repro.data.encoding."""

import numpy as np
import pytest

from repro.data.dataset import CategoricalDataset, TransactionDataset
from repro.data.encoding import (
    attribute_value_items,
    binarize,
    binary_matrix_to_transactions,
    one_hot_encode,
    records_to_transactions,
    transactions_to_binary_matrix,
)
from repro.errors import DataValidationError


class TestAttributeValueItems:
    def test_basic_conversion(self):
        items = attribute_value_items(["y", "n"])
        assert items == frozenset({(0, "y"), (1, "n")})

    def test_missing_values_skipped_by_default(self):
        items = attribute_value_items(["y", None, "n"])
        assert items == frozenset({(0, "y"), (2, "n")})

    def test_missing_values_included_when_requested(self):
        items = attribute_value_items(["y", None], include_missing=True)
        assert (1, None) in items

    def test_same_value_different_position_distinct(self):
        items = attribute_value_items(["y", "y"])
        assert len(items) == 2


class TestRecordsToTransactions:
    def test_carries_labels(self, small_categorical_dataset):
        transactions = records_to_transactions(small_categorical_dataset)
        assert isinstance(transactions, TransactionDataset)
        assert transactions.n_transactions == small_categorical_dataset.n_records
        assert transactions.labels == small_categorical_dataset.labels

    def test_missing_value_reduces_transaction_size(self, small_categorical_dataset):
        transactions = records_to_transactions(small_categorical_dataset)
        assert len(transactions.transaction(2)) == 2
        assert len(transactions.transaction(0)) == 3


class TestOneHotEncode:
    def test_shape_and_columns(self, small_categorical_dataset):
        matrix, columns = one_hot_encode(small_categorical_dataset)
        assert matrix.shape[0] == 5
        assert matrix.shape[1] == len(columns)
        # v1 has 2 values, v2 has 2 (missing skipped), v3 has 2.
        assert matrix.shape[1] == 6

    def test_each_row_sums_to_non_missing_attribute_count(self, small_categorical_dataset):
        matrix, _ = one_hot_encode(small_categorical_dataset)
        sums = matrix.sum(axis=1)
        assert sums[0] == 3
        assert sums[2] == 2  # one missing value

    def test_include_missing_adds_columns(self, small_categorical_dataset):
        with_missing, _ = one_hot_encode(small_categorical_dataset, include_missing=True)
        without, _ = one_hot_encode(small_categorical_dataset)
        assert with_missing.shape[1] == without.shape[1] + 1

    def test_values_are_binary(self, small_categorical_dataset):
        matrix, _ = one_hot_encode(small_categorical_dataset)
        assert set(np.unique(matrix)) <= {0.0, 1.0}


class TestBinarize:
    def test_yes_values_map_to_one(self, small_categorical_dataset):
        matrix = binarize(small_categorical_dataset)
        assert matrix.shape == (5, 3)
        assert matrix[0, 0] == 1.0
        assert matrix[0, 1] == 0.0

    def test_missing_maps_to_zero(self, small_categorical_dataset):
        matrix = binarize(small_categorical_dataset)
        assert matrix[2, 1] == 0.0

    def test_custom_positive_values(self):
        ds = CategoricalDataset([("t", "f"), ("f", "t")])
        matrix = binarize(ds, positive_values=("t",))
        assert matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]


class TestTransactionsBinaryRoundtrip:
    def test_matrix_shape(self, small_transaction_dataset):
        matrix, items = transactions_to_binary_matrix(small_transaction_dataset)
        assert matrix.shape == (6, 8)
        assert len(items) == 8

    def test_roundtrip_preserves_transactions(self, small_transaction_dataset):
        matrix, items = transactions_to_binary_matrix(small_transaction_dataset)
        rebuilt = binary_matrix_to_transactions(matrix, items)
        assert rebuilt.transactions == small_transaction_dataset.transactions

    def test_binary_matrix_default_items_are_column_indices(self):
        rebuilt = binary_matrix_to_transactions(np.array([[1, 0], [0, 1]]))
        assert rebuilt.transaction(0) == frozenset({0})
        assert rebuilt.transaction(1) == frozenset({1})

    def test_non_2d_matrix_rejected(self):
        with pytest.raises(DataValidationError):
            binary_matrix_to_transactions(np.array([1, 0, 1]))

    def test_wrong_item_count_rejected(self):
        with pytest.raises(DataValidationError):
            binary_matrix_to_transactions(np.eye(2), items=["only-one"])


class TestIncidenceBuilders:
    def test_build_item_index_deterministic(self):
        from repro.data.encoding import build_item_index

        transactions = [frozenset({"b", "a"}), frozenset({"c", "a"})]
        index = build_item_index(transactions)
        assert index == {"a": 0, "b": 1, "c": 2}
        assert build_item_index(list(reversed(transactions))) == index

    def test_incidence_matches_transactions(self):
        from repro.data.encoding import transactions_to_incidence

        transactions = [frozenset({1, 3}), frozenset({2}), frozenset()]
        incidence, index = transactions_to_incidence(transactions)
        assert incidence.shape == (3, 3)
        assert incidence.nnz == 3
        dense = incidence.toarray()
        for row, transaction in enumerate(transactions):
            assert {column for column in np.nonzero(dense[row])[0]} == {
                index[item] for item in transaction
            }

    def test_incidence_with_superset_index(self):
        from repro.data.encoding import build_item_index, transactions_to_incidence

        universe = [frozenset({1, 2, 3, 4, 5})]
        index = build_item_index(universe)
        incidence, used = transactions_to_incidence([frozenset({2, 4})], index)
        assert used is index
        assert incidence.shape == (1, 5)
        assert incidence.nnz == 2

    def test_incidence_row_sums_are_set_sizes(self):
        from repro.data.encoding import transactions_to_incidence

        transactions = [frozenset({1, 2}), frozenset({3}), frozenset()]
        incidence, _ = transactions_to_incidence(transactions)
        assert np.asarray(incidence.sum(axis=1)).ravel().tolist() == [2, 1, 0]

    def test_empty_transaction_list_shape(self):
        from repro.data.encoding import transactions_to_incidence

        incidence, index = transactions_to_incidence([frozenset()])
        assert incidence.shape == (1, 1)
        assert incidence.nnz == 0
        assert index == {}


class TestStreamingIncidence:
    def test_ignore_unknown_drops_foreign_items(self):
        from repro.data.encoding import build_item_index, transactions_to_incidence

        index = build_item_index([frozenset({"a", "b"})])
        incidence, _ = transactions_to_incidence(
            [frozenset({"a", "zzz"}), frozenset({"qqq"})], index, ignore_unknown=True
        )
        assert incidence.shape == (2, 2)
        assert incidence.toarray().tolist() == [[1, 0], [0, 0]]

    def test_unknown_items_raise_without_flag(self):
        from repro.data.encoding import build_item_index, transactions_to_incidence

        index = build_item_index([frozenset({"a"})])
        with pytest.raises(KeyError):
            transactions_to_incidence([frozenset({"zzz"})], index)
