"""Labelling of disk-resident points (ROCK Section 4.4).

After clustering a random sample, the remaining points are assigned to
clusters in a single pass: a fraction ``L_i`` of points from each sampled
cluster ``i`` is retained, each unlabelled point ``p`` counts its neighbours
``N_i`` within each ``L_i`` (using the same threshold ``theta``), and ``p``
joins the cluster maximising the normalised count

    ``N_i / (|L_i| + 1) ** f(theta)``

The normalisation accounts for larger clusters naturally offering more
neighbours.  Points with no neighbours in any cluster are reported as
outliers (label ``-1``) unless ``assign_outliers=False`` requests that they
join the cluster with the highest raw neighbour count (with every count at
zero that is the largest cluster).

Two counting strategies implement the neighbour pass, selected by the
``strategy`` parameter:

* ``"sparse-matmul"`` — count intersections with one matrix product over
  the shared item incidence (see
  :func:`repro.data.encoding.transactions_to_incidence`), compare each
  count against an integer threshold table and sum the neighbours per
  cluster.  Requires a measure with the
  :class:`~repro.similarity.base.VectorizedSetSimilarity` capability
  (Jaccard, Dice, overlap coefficient, set cosine) — the same capability
  the fast neighbour backends key on.
* ``"bruteforce"`` — evaluate ``measure(point, sample)`` pair by pair; works
  with any measure and is the reference implementation.
* ``"auto"`` (default) — the sparse product for vectorizable measures,
  brute force otherwise.  Both strategies produce identical counts, labels
  and outlier sets (enforced by the test suite).

For data sets that do not fit in memory, :class:`StreamingLabeler` binds the
retained fractions (and, under the sparse strategy, their incidence matrix)
**once** and then labels arbitrarily many batches through
:meth:`StreamingLabeler.label_batch`; :func:`label_points_streaming` drives
it over an iterable of batches.  Batching never changes the labels: each
point's neighbour counts depend only on the retained fractions, so the
concatenation of the per-batch results is bit-identical to one
:func:`label_points` call on the concatenated input.

The count kernel behind ``"sparse-matmul"`` is exact.  For every pair of
set sizes ``(a, b)`` it looks up the smallest overlap ``t`` with
``similarity_from_counts(t, a, b) >= theta``, computed from the measure
itself; since the similarity never falls as the overlap grows (the
monotone-overlap contract of ``VectorizedSetSimilarity``), ``overlap >= t``
is the float test, decided bit for bit.  The kernel has two forms, chosen
once from the fill of the retained incidence (:data:`DENSE_MIN_FILL`):

* **dense** — the retained incidence as float32 rows grouped by set size;
  per row block of the batch, one BLAS product into a ``retained × block``
  buffer, one compare per size group and one ``membership @ buffer``
  product.  Every value is an integer below ``2**24``
  (:data:`FLOAT32_EXACT`), so float32 and any summation order are exact.
* **sparse** — for wide, rare-item universes: the sparse product's
  nonzeros are compared against the same table and the kept pairs
  scattered into their clusters.

Both forms walk a batch in row blocks of at most :data:`BLOCK_CELLS`
buffer cells, so one large batch costs no more memory than a stream of
small ones.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.goodness import ExponentFunction, default_expected_links_exponent
from repro.data.encoding import build_item_index, transactions_to_incidence
from repro.errors import ConfigurationError, DataValidationError
from repro.similarity.base import (
    SetSimilarity,
    VectorizedSetSimilarity,
    supports_vectorized_counts,
)
from repro.similarity.jaccard import JaccardSimilarity

#: Strategies accepted by :func:`label_points`.
LABELING_STRATEGIES = ("auto", "bruteforce", "sparse-matmul")

#: Fill of the retained incidence (``nnz / (rows * items)``) from which the
#: count kernel takes its dense form; sparser universes take the sparse form.
DENSE_MIN_FILL = 1.0 / 64

#: Most cells of one row block's product buffer (float32: 8 MiB).  Blocks
#: of 2**20 to 2**22 cells ran fastest on a 2-CPU host (the buffer stays in
#: cache); 2**24 cells ran ~25% slower.
BLOCK_CELLS = 1 << 21

#: float32 holds every integer below this exactly: the dense form is refused
#: whenever a count could reach it.
FLOAT32_EXACT = 1 << 24


@dataclass
class LabelingResult:
    """Outcome of the labelling pass.

    Attributes
    ----------
    labels:
        One label per unlabelled input point; ``-1`` marks outliers that had
        no neighbour in any cluster fraction.
    neighbor_counts:
        ``(n_points, n_clusters)`` matrix of raw neighbour counts ``N_i``.
    n_outliers:
        Number of points labelled ``-1``.
    """

    labels: np.ndarray
    neighbor_counts: np.ndarray
    n_outliers: int


@dataclass
class StreamingLabelingResult:
    """Outcome of a batched labelling pass (:func:`label_points_streaming`).

    Attributes
    ----------
    batch_results:
        One :class:`LabelingResult` per input batch, in batch order.
    merged:
        The concatenation of the per-batch results — bit-identical to the
        :class:`LabelingResult` of one :func:`label_points` call on the
        concatenated batches.
    n_batches:
        Number of batches labelled.
    n_points:
        Total number of points labelled across all batches.
    """

    batch_results: list[LabelingResult]
    merged: LabelingResult
    n_batches: int
    n_points: int


def select_labeling_fractions(
    clusters: Sequence[Sequence[int]],
    fraction: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> list[list[int]]:
    """Choose the subset ``L_i`` of each sampled cluster used for labelling.

    The paper labels against a random fraction of each cluster to reduce the
    per-point cost; ``fraction=1.0`` (the default) uses every sampled point.
    Every cluster retains at least one point (the ``max(1, ...)`` guard, so
    a tiny fraction of a tiny cluster can never round down to an empty
    ``L_i``).
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError("fraction must lie in (0, 1], got %r" % fraction)
    generator = np.random.default_rng(rng)
    fractions: list[list[int]] = []
    for members in clusters:
        members = list(members)
        if not members:
            raise DataValidationError("labelling requires non-empty clusters")
        keep = max(1, int(round(fraction * len(members))))
        if keep >= len(members):
            fractions.append(members)
        else:
            chosen = generator.choice(len(members), size=keep, replace=False)
            fractions.append([members[i] for i in sorted(chosen)])
    return fractions


def _neighbor_counts_bruteforce(
    unlabeled: list[frozenset],
    sample: list[frozenset],
    fractions: list[list[int]],
    theta: float,
    measure: SetSimilarity,
) -> np.ndarray:
    """Reference pair-by-pair neighbour counting."""
    counts = np.zeros((len(unlabeled), len(fractions)), dtype=float)
    for point_index, point in enumerate(unlabeled):
        for cluster_index, subset in enumerate(fractions):
            count = 0
            for sample_index in subset:
                if measure(point, sample[sample_index]) >= theta:
                    count += 1
            counts[point_index, cluster_index] = count
    return counts


def _overlap_thresholds(
    measure: VectorizedSetSimilarity,
    theta: float,
    batch_sizes: np.ndarray,
    retained_sizes: np.ndarray,
) -> np.ndarray:
    """Smallest qualifying overlap of every (batch size, retained size) pair.

    Entry ``[i, j]`` is the least ``t`` in ``0 .. min(a, b)`` with
    ``similarity_from_counts(t, a, b) >= theta``, for ``a = batch_sizes[i]``
    and ``b = retained_sizes[j]``, or ``min(a, b) + 1`` when no overlap
    qualifies.  Found by vectorised bisection: ``log2`` of the largest size
    in rounds, each one evaluation of the measure over the whole table.

    Each threshold is then spot-checked against the measure — just below
    and at ``t``, and at both ends of the overlap range — and a measure
    caught falling as the overlap grows raises :class:`ConfigurationError`.
    The check cannot see every dip in between; the monotone-overlap contract
    of :class:`~repro.similarity.base.VectorizedSetSimilarity` is what keeps
    the table exact.
    """
    size_left = np.asarray(batch_sizes, dtype=np.int64)[:, np.newaxis]
    size_right = np.asarray(retained_sizes, dtype=np.int64)[np.newaxis, :]
    top = np.minimum(size_left, size_right)

    def qualifies(overlap: np.ndarray) -> np.ndarray:
        similarity = measure.similarity_from_counts(overlap, size_left, size_right)
        return np.asarray(similarity) >= theta

    low = np.zeros_like(top)
    high = top + 1
    while True:
        active = low < high
        if not active.any():
            break
        middle = (low + high) // 2
        found = qualifies(np.minimum(middle, top))
        high = np.where(active & found, middle, high)
        low = np.where(active & ~found, middle + 1, low)

    at, at_top, below, at_zero = qualifies(
        np.stack([np.minimum(low, top), top, np.maximum(low - 1, 0), 0 * top])
    )
    upper_ok = (low > top) | (at & at_top)
    lower_ok = (low == 0) | ~(below | at_zero)
    bad = np.argwhere(~(upper_ok & lower_ok))
    if bad.size:
        i, j = bad[0]
        raise ConfigurationError(
            "measure %r is not non-decreasing in the overlap (set sizes %d and "
            "%d, theta=%r), so the sparse-matmul labelling kernel cannot "
            "threshold it exactly; use strategy='bruteforce'"
            % (
                getattr(measure, "name", measure),
                size_left[i, 0],
                size_right[0, j],
                theta,
            )
        )
    return low


def _dense_rows(incidence, low: int, high: int) -> np.ndarray:
    """Rows ``low:high`` of a 0/1 CSR incidence as a dense float32 block."""
    indptr = incidence.indptr
    block = np.zeros((high - low, incidence.shape[1]), dtype=np.float32)
    rows = np.repeat(np.arange(high - low), np.diff(indptr[low:high + 1]))
    block[rows, incidence.indices[indptr[low]:indptr[high]]] = 1.0
    return block


class StreamingLabeler:
    """Labels batches of points against a fixed sampled clustering.

    All per-clustering work happens once, in the constructor: the retained
    fractions ``L_i`` are drawn, the normalisers are computed and — under the
    sparse strategy — the retained-sample incidence matrix is built, grouped
    by set size, and the kernel form is chosen from its fill.  Each
    :meth:`label_batch` call then costs the count kernel (or a brute-force
    sweep) over the batch only, so a disk-resident data set can be labelled
    with peak memory bounded by the sample, one batch and one row block.

    Items of a batch that never occur in the sample are ignored by the
    sparse encoding (they cannot intersect any retained point) while still
    counting towards the point's true set size in the measure's size terms
    (e.g. the Jaccard union), so batches may contain items unseen when the
    labeler was built.

    Parameters are those of :func:`label_points` minus ``unlabeled``; see
    there for their meaning.
    """

    def __init__(
        self,
        sample: Sequence[frozenset],
        clusters: Sequence[Sequence[int]],
        theta: float,
        measure: SetSimilarity | None = None,
        exponent_function: ExponentFunction | None = None,
        labeling_fraction: float = 1.0,
        rng: np.random.Generator | int | None = None,
        strategy: str = "auto",
        item_index: dict | None = None,
        assign_outliers: bool = True,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ConfigurationError("theta must lie in [0, 1], got %r" % theta)
        if measure is None:
            measure = JaccardSimilarity()
        if exponent_function is None:
            exponent_function = default_expected_links_exponent
        if strategy not in LABELING_STRATEGIES:
            raise ConfigurationError(
                "unknown labeling strategy %r; expected one of %s"
                % (strategy, ", ".join(LABELING_STRATEGIES))
            )
        vectorizable = supports_vectorized_counts(measure)
        if strategy == "sparse-matmul" and not vectorizable:
            raise ConfigurationError(
                "the sparse-matmul strategy requires a measure with the "
                "vectorized-counts capability (similarity_from_counts); %r "
                "does not provide it — use strategy='bruteforce' or 'auto'"
                % getattr(measure, "name", measure)
            )
        if not clusters:
            raise DataValidationError("labelling requires at least one cluster")

        self.theta = float(theta)
        self.measure = measure
        self.assign_outliers = bool(assign_outliers)
        self.sample = [frozenset(t) for t in sample]
        self.fractions = select_labeling_fractions(
            clusters, fraction=labeling_fraction, rng=rng
        )
        self._exponent = exponent_function(self.theta)
        self.n_clusters = len(self.fractions)
        # Fallback target of ``assign_outliers=False``: with every raw count
        # at zero the argmax-count rule degenerates to the largest cluster
        # (first one on ties).
        self._fallback_label = max(
            range(self.n_clusters), key=lambda i: (len(clusters[i]), -i)
        )
        self._use_sparse = strategy == "sparse-matmul" or (
            strategy == "auto" and vectorizable
        )
        self._bind_derived(item_index)
        # Running totals across batches (the merged summary).
        self.n_batches = 0
        self.n_points = 0
        self.n_outliers = 0

    # ------------------------------------------------------------------ #
    def _bind_derived(self, item_index: dict | None) -> None:
        """Build the count kernel's structures from the retained fractions.

        Shared by the constructor and :meth:`from_state`: everything here is
        a pure function of ``sample``, ``fractions``, ``theta``, ``measure``
        and ``item_index`` — no RNG is consumed, which is what lets a
        restored labeler reproduce the original bit-for-bit.
        """
        self.n_clusters = len(self.fractions)
        self.normalisers = np.array(
            [(len(subset) + 1.0) ** self._exponent for subset in self.fractions],
            dtype=float,
        )
        self.subset_sizes = np.asarray(
            [len(subset) for subset in self.fractions], dtype=float
        )
        if self._use_sparse:
            if item_index is None:
                item_index = build_item_index(self.sample)
            self._item_index = item_index
            retained = [self.sample[i] for subset in self.fractions for i in subset]
            cluster_of_row = np.repeat(
                np.arange(self.n_clusters), [len(s) for s in self.fractions]
            )
            # Retained rows sorted by set size: every size group shares one
            # threshold per batch point.
            sizes = np.asarray([len(t) for t in retained], dtype=np.int64)
            order = np.argsort(sizes, kind="stable")
            self._cluster_of_row = cluster_of_row[order]
            # Built exactly once; every batch reuses it.
            incidence, _ = transactions_to_incidence(
                [retained[i] for i in order], item_index
            )
            # Items no retained row holds can never overlap one, so the kernel
            # indexes the occupied columns alone: neither the fill nor the
            # dense rows span the unused columns of a wider shared index
            # (``run`` passes the whole data set's).  With no column occupied
            # the index stays: the encoding keeps at least one column.
            occupied = np.bincount(incidence.indices, minlength=incidence.shape[1]) > 0
            if occupied.any() and not occupied.all():
                kept, column = occupied.tolist(), (np.cumsum(occupied) - 1).tolist()
                item_index = {item: column[j] for item, j in item_index.items() if kept[j]}
                incidence = incidence[:, occupied]
            self._kernel_index = item_index
            self._retained_incidence = incidence
            self._group_sizes, starts, group_rows = np.unique(
                sizes[order], return_index=True, return_counts=True
            )
            self._group_bounds = list(zip(starts.tolist(), (starts + group_rows).tolist()))
            self._group_of_row = np.repeat(np.arange(len(group_rows)), group_rows)
            self._group_cluster_sizes = np.bincount(
                self._group_of_row * self.n_clusters + self._cluster_of_row,
                minlength=len(group_rows) * self.n_clusters,
            ).reshape(len(group_rows), self.n_clusters)
            # Items × retained, so the sparse form's product is CSR @ CSR.
            self._retained_columns = self._retained_incidence.T.tocsr()
            n_rows, n_items = self._retained_incidence.shape
            self._fill = self._retained_incidence.nnz / max(n_rows * n_items, 1)
            # Dense counts are exact only below 2**24: an overlap is at most
            # ``n_items`` and a per-cluster count at most ``n_rows``.
            self._dense_form = (
                self._fill >= DENSE_MIN_FILL and max(n_rows, n_items) < FLOAT32_EXACT
            )
            self._dense_retained: tuple[np.ndarray, np.ndarray] | None = None
            if self._dense_form:
                self._dense_operands()

    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        """Everything needed to rebuild this labeler without consuming RNG.

        The retained fractions were drawn from the caller's generator in the
        constructor; persisting them (rather than redrawing on restore) is
        what keeps a restored session on the original random stream.  The
        measure and exponent function are *not* captured — they are code,
        not data — and must be re-supplied to :meth:`from_state`.
        """
        return {
            "sample": list(self.sample),
            "fractions": [list(subset) for subset in self.fractions],
            "fallback_label": int(self._fallback_label),
            "use_sparse": bool(self._use_sparse),
            "item_index": dict(self._item_index) if self._use_sparse else None,
            "n_batches": int(self.n_batches),
            "n_points": int(self.n_points),
            "n_outliers": int(self.n_outliers),
        }

    @classmethod
    def from_state(
        cls,
        state: dict,
        theta: float,
        measure: SetSimilarity | None = None,
        exponent_function: ExponentFunction | None = None,
        assign_outliers: bool = True,
    ) -> "StreamingLabeler":
        """Rebuild a labeler from :meth:`state` output.

        Derived structures (normalisers, retained incidence) are recomputed
        deterministically from the stored fractions; no random draw happens,
        so the caller's RNG stream is untouched.
        """
        if measure is None:
            measure = JaccardSimilarity()
        if exponent_function is None:
            exponent_function = default_expected_links_exponent
        if state["use_sparse"] and not supports_vectorized_counts(measure):
            raise ConfigurationError(
                "labeler state was captured under the sparse-matmul strategy "
                "but %r lacks the vectorized-counts capability"
                % getattr(measure, "name", measure)
            )
        labeler = cls.__new__(cls)
        labeler.theta = float(theta)
        labeler.measure = measure
        labeler.assign_outliers = bool(assign_outliers)
        labeler.sample = [frozenset(t) for t in state["sample"]]
        labeler.fractions = [list(subset) for subset in state["fractions"]]
        labeler._exponent = exponent_function(labeler.theta)
        labeler._fallback_label = int(state["fallback_label"])
        labeler._use_sparse = bool(state["use_sparse"])
        labeler._bind_derived(state["item_index"])
        labeler.n_batches = int(state["n_batches"])
        labeler.n_points = int(state["n_points"])
        labeler.n_outliers = int(state["n_outliers"])
        return labeler

    # ------------------------------------------------------------------ #
    def _matmul_counts(self, batch: list[frozenset]) -> np.ndarray:
        """Exact neighbour counts of one batch through the count kernel."""
        n_points = len(batch)
        counts = np.zeros((n_points, self.n_clusters), dtype=float)
        if not n_points:
            return counts
        if self.theta == 0.0:
            # Every pair qualifies (similarity is always >= 0).
            counts[:] = self.subset_sizes
            return counts
        incidence, _ = transactions_to_incidence(
            batch, self._kernel_index, ignore_unknown=True
        )
        # True set sizes (unknown items included): the incidence row sums
        # would under-count points holding items outside the shared index.
        sizes, size_of_point = np.unique(
            np.asarray([len(t) for t in batch], dtype=np.int64), return_inverse=True
        )
        table = _overlap_thresholds(self.measure, self.theta, sizes, self._group_sizes)
        if self._dense_form:
            self._dense_counts(incidence, table, size_of_point, counts)
        else:
            self._sparse_counts(incidence, table, size_of_point, counts)
        return counts

    def _dense_operands(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense form's float32 retained rows and cluster membership."""
        if self._dense_retained is None:
            n_rows = self._retained_incidence.shape[0]
            membership = np.zeros((self.n_clusters, n_rows), dtype=np.float32)
            membership[self._cluster_of_row, np.arange(n_rows)] = 1.0
            self._dense_retained = (
                _dense_rows(self._retained_incidence, 0, n_rows),
                membership,
            )
        return self._dense_retained

    def _dense_counts(self, incidence, table, size_of_point, counts) -> None:
        """Dense form: BLAS overlaps, one compare per size group, BLAS sums."""
        retained, membership = self._dense_operands()
        n_rows, n_items = retained.shape
        n_points = len(size_of_point)
        # One row per size group, capped at "never" = n_items + 1 so every
        # threshold is an exact float32 integer.
        by_group = np.minimum(table, n_items + 1).T.astype(np.float32)
        step = max(1, BLOCK_CELLS // max(n_rows, n_items))
        buffer = np.empty(n_rows * min(step, n_points), dtype=np.float32)
        for low in range(0, n_points, step):
            high = min(low + step, n_points)
            overlaps = buffer[: n_rows * (high - low)].reshape(n_rows, high - low)
            np.matmul(retained, _dense_rows(incidence, low, high).T, out=overlaps)
            thresholds = by_group[:, size_of_point[low:high]]
            for group, (start, stop) in enumerate(self._group_bounds):
                rows = overlaps[start:stop]
                np.greater_equal(rows, thresholds[group], out=rows)
            counts[low:high] = (membership @ overlaps).T

    def _sparse_counts(self, incidence, table, size_of_point, counts) -> None:
        """Sparse form: threshold the sparse product's nonzeros, scatter."""
        n_rows = self._retained_incidence.shape[0]
        n_groups = len(self._group_bounds)
        k = self.n_clusters
        flat_table = table.ravel()
        step = max(1, BLOCK_CELLS // max(n_rows, 1))
        for low in range(0, len(size_of_point), step):
            high = min(low + step, len(size_of_point))
            block = incidence if high - low == incidence.shape[0] else incidence[low:high]
            product = block @ self._retained_columns
            rows = np.repeat(np.arange(high - low), np.diff(product.indptr))
            columns = product.indices
            table_row = size_of_point[low:high] * n_groups
            need = flat_table[table_row[rows] + self._group_of_row[columns]]
            # Zero thresholds are left to the whole-group fix-up below.
            keep = (product.data >= need) & (need > 0)
            # A scatter over the kept pairs only: a bincount would zero a
            # block × k buffer, which dominates once k nears the sample size.
            np.add.at(
                counts.reshape(-1),
                (low + rows[keep]) * k + self._cluster_of_row[columns[keep]],
                1.0,
            )
        # The product stores no zero overlaps, so every pair whose threshold
        # is zero (with theta > 0 and the built-in measures, only pairs of
        # empty sets) is added here, whole groups at once.
        zero = table == 0
        points = np.nonzero(zero.any(axis=1)[size_of_point])[0]
        counts[points] += (zero @ self._group_cluster_sizes)[size_of_point[points]]

    # ------------------------------------------------------------------ #
    def label_batch(self, batch: Sequence[frozenset]) -> LabelingResult:
        """Label one batch of points; see :func:`label_points`."""
        batch = [frozenset(t) for t in batch]
        if self._use_sparse:
            counts = self._matmul_counts(batch)
        else:
            counts = _neighbor_counts_bruteforce(
                batch, self.sample, self.fractions, self.theta, self.measure
            )
        labels = np.full(len(batch), -1, dtype=int)
        if len(batch):
            scores = counts / self.normalisers[np.newaxis, :]
            best = np.argmax(scores, axis=1)
            has_neighbors = counts.max(axis=1) > 0
            labels[has_neighbors] = best[has_neighbors]
            if not self.assign_outliers:
                labels[~has_neighbors] = self._fallback_label
        result = LabelingResult(
            labels=labels,
            neighbor_counts=counts,
            n_outliers=int(np.sum(labels == -1)),
        )
        self.n_batches += 1
        self.n_points += len(batch)
        self.n_outliers += result.n_outliers
        return result

    # ------------------------------------------------------------------ #
    def merge(self, batch_results: Sequence[LabelingResult]) -> LabelingResult:
        """Concatenate per-batch results into one :class:`LabelingResult`."""
        if batch_results:
            labels = np.concatenate([r.labels for r in batch_results])
            counts = np.vstack([r.neighbor_counts for r in batch_results])
        else:
            labels = np.zeros(0, dtype=int)
            counts = np.zeros((0, self.n_clusters), dtype=float)
        return LabelingResult(
            labels=labels,
            neighbor_counts=counts,
            n_outliers=int(np.sum(labels == -1)),
        )


def label_points_streaming(
    batches: Iterable[Sequence[frozenset]],
    sample: Sequence[frozenset],
    clusters: Sequence[Sequence[int]],
    theta: float,
    measure: SetSimilarity | None = None,
    exponent_function: ExponentFunction | None = None,
    labeling_fraction: float = 1.0,
    rng: np.random.Generator | int | None = None,
    strategy: str = "auto",
    item_index: dict | None = None,
    assign_outliers: bool = True,
) -> StreamingLabelingResult:
    """Label an iterable of point batches against the sampled clusters.

    The chunked counterpart of :func:`label_points`: the retained fractions
    and (under the sparse strategy) their incidence matrix are built exactly
    once, then every batch is folded through the per-batch neighbour count.
    Each labelling step only touches the retained sample plus one batch,
    but the *result* keeps every batch's dense ``neighbor_counts`` matrix
    (plus the merged copy), so result memory grows
    ``O(n_points * n_clusters)``.  For a truly bounded-memory loop over an
    unbounded stream, drive a :class:`StreamingLabeler` directly and keep
    only the labels of each batch — that is what
    :meth:`repro.core.pipeline.RockPipeline.run_streaming` does.

    Parameters are those of :func:`label_points` with ``batches`` (an
    iterable of transaction batches) in place of ``unlabeled``.

    Returns
    -------
    StreamingLabelingResult
        Per-batch :class:`LabelingResult` objects plus the merged summary;
        ``merged`` is bit-identical to labelling the concatenated batches in
        one call.
    """
    labeler = StreamingLabeler(
        sample,
        clusters,
        theta=theta,
        measure=measure,
        exponent_function=exponent_function,
        labeling_fraction=labeling_fraction,
        rng=rng,
        strategy=strategy,
        item_index=item_index,
        assign_outliers=assign_outliers,
    )
    batch_results = [labeler.label_batch(batch) for batch in batches]
    return StreamingLabelingResult(
        batch_results=batch_results,
        merged=labeler.merge(batch_results),
        n_batches=labeler.n_batches,
        n_points=labeler.n_points,
    )


def label_points(
    unlabeled: Sequence[frozenset],
    sample: Sequence[frozenset],
    clusters: Sequence[Sequence[int]],
    theta: float,
    measure: SetSimilarity | None = None,
    exponent_function: ExponentFunction | None = None,
    labeling_fraction: float = 1.0,
    rng: np.random.Generator | int | None = None,
    strategy: str = "auto",
    item_index: dict | None = None,
    assign_outliers: bool = True,
) -> LabelingResult:
    """Assign each unlabelled point to the best sampled cluster.

    The one-shot entry point: a :class:`StreamingLabeler` bound to the
    clustering labels ``unlabeled`` as a single batch.

    Parameters
    ----------
    unlabeled:
        Item sets of the points that were *not* part of the clustered sample.
    sample:
        Item sets of the sampled points (indexable by the indices appearing
        in ``clusters``).
    clusters:
        Cluster membership over the sample, as sequences of sample indices.
    theta:
        Similarity threshold (the same value used for clustering).
    measure:
        Similarity measure; defaults to Jaccard.
    exponent_function:
        ``f(theta)``; defaults to the paper's.
    labeling_fraction:
        Fraction of each cluster retained for neighbour counting.
    rng:
        Random generator or seed for the fraction selection.
    strategy:
        Neighbour-counting strategy: ``"sparse-matmul"`` (measures with the
        vectorized-counts capability), ``"bruteforce"``, or ``"auto"`` (the
        sparse product for vectorizable measures, brute force otherwise).
    item_index:
        Optional pre-built item-to-column index covering every item of
        ``sample`` (see :func:`repro.data.encoding.build_item_index`); used
        by the sparse strategy to skip rebuilding the index.  Items of
        ``unlabeled`` outside the index are ignored for intersections but
        still count towards the Jaccard union.
    assign_outliers:
        When ``True`` (the paper's behaviour and the default), points with
        no neighbour in any cluster fraction keep label ``-1``; when
        ``False`` they join the cluster with the highest raw neighbour
        count, which with every count at zero is the largest cluster.

    Returns
    -------
    LabelingResult
    """
    labeler = StreamingLabeler(
        sample,
        clusters,
        theta=theta,
        measure=measure,
        exponent_function=exponent_function,
        labeling_fraction=labeling_fraction,
        rng=rng,
        strategy=strategy,
        item_index=item_index,
        assign_outliers=assign_outliers,
    )
    return labeler.label_batch(unlabeled)
