"""Categorical data model: datasets, encodings, I/O and missing values.

This subpackage is the substrate that every algorithm in the library builds
on.  It provides two dataset abstractions:

* :class:`~repro.data.dataset.CategoricalDataset` — fixed-arity records of
  categorical attribute values (UCI-style tables such as Votes or Mushroom);
* :class:`~repro.data.dataset.TransactionDataset` — variable-size item sets
  (market-basket data).

plus encoders between the two shapes, simple file readers/writers and
missing-value policies.
"""

from repro.data.dataset import CategoricalDataset, TransactionDataset
from repro.data.encoding import (
    attribute_value_items,
    binarize,
    one_hot_encode,
    records_to_transactions,
    transactions_to_binary_matrix,
)
from repro.data.io import (
    read_categorical_csv,
    read_transactions,
    write_categorical_csv,
    write_transactions,
)
from repro.data.missing import (
    MissingValuePolicy,
    apply_missing_policy,
    count_missing,
)

__all__ = [
    "CategoricalDataset",
    "TransactionDataset",
    "attribute_value_items",
    "binarize",
    "one_hot_encode",
    "records_to_transactions",
    "transactions_to_binary_matrix",
    "read_categorical_csv",
    "read_transactions",
    "write_categorical_csv",
    "write_transactions",
    "MissingValuePolicy",
    "apply_missing_policy",
    "count_missing",
]
