"""Encodings between categorical records, transactions and binary matrices.

The ROCK paper treats a tabular categorical record as the transaction of its
``(attribute, value)`` pairs, so that the Jaccard coefficient applies
uniformly to both data shapes.  The traditional hierarchical comparator in
the paper instead operates on a one-hot (binary) encoding with Euclidean
distance, so both encodings are provided here.

:func:`build_item_index` and :func:`transactions_to_incidence` are the
shared sparse item-incidence builders used by the vectorised neighbour
(:mod:`repro.core.neighbors`) and labelling (:mod:`repro.core.labeling`)
paths; the pipeline builds the item index once per run and threads it
through both phases.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np
from scipy import sparse

from repro.data.dataset import CategoricalDataset, TransactionDataset
from repro.errors import DataValidationError
from repro.types import CategoricalValue

_INT32_MAX = np.iinfo(np.int32).max


def build_item_index(transactions: Sequence[frozenset]) -> dict:
    """Map every distinct item of ``transactions`` to a dense column index.

    Items are ordered by their ``repr`` so the index (and every matrix built
    from it) is deterministic regardless of set-iteration order.
    """
    items = sorted({item for transaction in transactions for item in transaction}, key=repr)
    return {item: j for j, item in enumerate(items)}


def transactions_to_incidence(
    transactions: Sequence[frozenset],
    item_index: dict | None = None,
    ignore_unknown: bool = False,
) -> tuple[sparse.csr_matrix, dict]:
    """Build the sparse binary item-incidence matrix of ``transactions``.

    Parameters
    ----------
    transactions:
        Item sets, one per row.
    item_index:
        Optional pre-built item-to-column mapping.  It must cover every item
        occurring in ``transactions`` (a superset is fine — extra columns
        stay empty); pass the index of the full data set to share one
        construction across pipeline phases.
    ignore_unknown:
        When ``True``, items missing from ``item_index`` are silently
        dropped from their row instead of raising.  This is what streaming
        consumers want: a batch drawn from a disk-resident remainder may
        hold items the in-memory sample never saw, and those items cannot
        intersect anything the index covers.  Note the row sums of the
        result then under-count the true set sizes.

    Returns
    -------
    incidence:
        ``(n_transactions, n_items)`` CSR matrix of 0/1 ``int32`` entries
        with sorted per-row indices.
    item_index:
        The mapping actually used (built here when not supplied).
    """
    if item_index is None:
        item_index = build_item_index(transactions)
    n_rows = len(transactions)
    indptr = np.fromiter(
        itertools.accumulate(map(len, transactions), initial=0),
        dtype=np.int64,
        count=n_rows + 1,
    )
    n_items = max(len(item_index), 1)
    # int32 indices wherever they fit: SciPy keeps them as they are, where
    # int64 ones would be scanned and narrowed to the same int32 arrays.
    index_dtype = np.int32 if max(int(indptr[-1]), n_items) <= _INT32_MAX else np.int64
    items = itertools.chain.from_iterable(transactions)
    if ignore_unknown:
        columns = np.fromiter(
            map(item_index.get, items, itertools.repeat(-1)),
            dtype=index_dtype,
            count=int(indptr[-1]),
        )
        known = columns >= 0
        if not known.all():
            # Known items up to each position, read at the row boundaries.
            kept = np.zeros(len(columns) + 1, dtype=np.int64)
            np.cumsum(known, out=kept[1:])
            indptr = kept[indptr]
            columns = columns[known]
    else:
        columns = np.fromiter(
            map(item_index.__getitem__, items), dtype=index_dtype, count=int(indptr[-1])
        )
    incidence = sparse.csr_matrix(
        (np.ones(len(columns), dtype=np.int32), columns, indptr.astype(index_dtype, copy=False)),
        shape=(n_rows, n_items),
    )
    incidence.sort_indices()
    return incidence, item_index


def attribute_value_items(
    record: Sequence[CategoricalValue],
    include_missing: bool = False,
) -> frozenset:
    """Convert one categorical record to a set of ``(position, value)`` items.

    Parameters
    ----------
    record:
        The record to convert.
    include_missing:
        When ``True``, missing values contribute ``(position, None)`` items;
        when ``False`` (the default, matching the ROCK paper's treatment of
        the Votes data) missing attributes simply do not generate items.

    Returns
    -------
    frozenset
        Items of the form ``(attribute_position, value)``.

    Examples
    --------
    >>> sorted(attribute_value_items(["y", None, "n"]))
    [(0, 'y'), (2, 'n')]
    """
    items = []
    for position, value in enumerate(record):
        if value is None and not include_missing:
            continue
        items.append((position, value))
    return frozenset(items)


def records_to_transactions(
    dataset: CategoricalDataset,
    include_missing: bool = False,
) -> TransactionDataset:
    """Convert a :class:`CategoricalDataset` to a :class:`TransactionDataset`.

    Every record becomes the transaction of its ``(attribute, value)`` items.
    Ground-truth labels are carried over unchanged.
    """
    transactions = [
        attribute_value_items(record, include_missing=include_missing)
        for record in dataset
    ]
    return TransactionDataset(
        transactions, labels=dataset.labels, name="%s[transactions]" % dataset.name
    )


def one_hot_encode(
    dataset: CategoricalDataset,
    include_missing: bool = False,
) -> tuple[np.ndarray, list]:
    """One-hot encode a categorical dataset.

    Every distinct ``(attribute, value)`` pair becomes one binary column.
    This is the encoding used by the traditional centroid-based hierarchical
    clustering baseline in the ROCK paper's evaluation.

    Parameters
    ----------
    dataset:
        The dataset to encode.
    include_missing:
        When ``True``, a missing value gets its own indicator column per
        attribute; when ``False`` a missing value leaves all of the
        attribute's columns at zero.

    Returns
    -------
    matrix:
        ``(n_records, n_columns)`` float array of zeros and ones.
    columns:
        List of ``(attribute_name, value)`` tuples describing each column.
    """
    column_index: dict = {}
    columns: list = []
    for j in range(dataset.n_attributes):
        domain = sorted(dataset.domain(j, include_missing=include_missing), key=repr)
        for value in domain:
            key = (j, value)
            column_index[key] = len(columns)
            columns.append((dataset.attribute_names[j], value))

    matrix = np.zeros((dataset.n_records, len(columns)), dtype=float)
    for i, record in enumerate(dataset):
        for j, value in enumerate(record):
            if value is None and not include_missing:
                continue
            key = (j, value)
            if key in column_index:
                matrix[i, column_index[key]] = 1.0
    return matrix, columns


def binarize(
    dataset: CategoricalDataset,
    positive_values: Sequence[CategoricalValue] = ("y", "yes", "1", 1, True),
) -> np.ndarray:
    """Encode a dataset of boolean-ish attributes as a 0/1 matrix.

    This mirrors the treatment of the Congressional Votes data in the ROCK
    paper, where each attribute is a yes/no vote.  Values in
    ``positive_values`` map to 1, missing values map to 0, and every other
    value maps to 0.

    Returns
    -------
    numpy.ndarray
        ``(n_records, n_attributes)`` float array of zeros and ones.
    """
    positive = set(positive_values)
    matrix = np.zeros((dataset.n_records, dataset.n_attributes), dtype=float)
    for i, record in enumerate(dataset):
        for j, value in enumerate(record):
            if value in positive:
                matrix[i, j] = 1.0
    return matrix


def transactions_to_binary_matrix(
    dataset: TransactionDataset,
) -> tuple[np.ndarray, list]:
    """Encode a transaction dataset as a binary item-incidence matrix.

    Returns
    -------
    matrix:
        ``(n_transactions, n_items)`` float array of zeros and ones.
    items:
        The item corresponding to each column, in column order.
    """
    items = sorted(dataset.items(), key=repr)
    index = {item: j for j, item in enumerate(items)}
    matrix = np.zeros((dataset.n_transactions, len(items)), dtype=float)
    for i, transaction in enumerate(dataset):
        for item in transaction:
            matrix[i, index[item]] = 1.0
    return matrix, items


def binary_matrix_to_transactions(
    matrix: np.ndarray,
    items: Sequence | None = None,
) -> TransactionDataset:
    """Inverse of :func:`transactions_to_binary_matrix`.

    Parameters
    ----------
    matrix:
        A two-dimensional 0/1 array.
    items:
        Optional item names per column; defaults to the column indices.
    """
    array = np.asarray(matrix)
    if array.ndim != 2:
        raise DataValidationError("expected a two-dimensional matrix")
    n_rows, n_cols = array.shape
    if items is None:
        items = list(range(n_cols))
    else:
        items = list(items)
        if len(items) != n_cols:
            raise DataValidationError(
                "expected %d item names, got %d" % (n_cols, len(items))
            )
    transactions = []
    for i in range(n_rows):
        transactions.append(frozenset(items[j] for j in np.nonzero(array[i])[0]))
    return TransactionDataset(transactions, name="from-binary-matrix")
