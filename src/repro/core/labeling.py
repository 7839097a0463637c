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
  the ``blocked`` neighbour backend keys on.
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

The count kernel behind ``"sparse-matmul"`` is exact: it decides every
pair through the shared overlap kernel of
:mod:`repro.core.neighbors.vectorized` — the same test the ``blocked``
neighbour backend and the online splice make — which compares each overlap
against an integer threshold table built from the measure itself.  The
kernel has two forms, chosen once from the fill of the retained incidence
(:data:`DENSE_MIN_FILL`):

* **dense** — integer arithmetic only, no BLAS.  One operand per labeller
  holds the retained incidence transposed (items × retained rows, columns
  grouped by cluster) stacked on one row ``-t`` per batch set size, added
  the first time that size appears.  Per row block of the batch: one SciPy
  product of the batch incidence plus a one-hot size column with the
  operand, which yields ``overlap - t`` of every pair; one in-place
  ``>= 0``; one ``np.add.reduceat`` over the cluster column ranges.  The
  dtype is the smallest signed integer that holds both the retained row
  count and ``-(largest retained set + 1)``, so every value, partial sum
  and count fits and the arithmetic is exact.
* **sparse** — for wide, rare-item universes: the overlap kernel's
  qualifying pairs of the sparse product, scattered into their clusters.

Both forms walk a batch in row blocks of at most :data:`BLOCK_CELLS`
product cells, so one large batch costs no more memory than a stream of
small ones.  A dense batch of more than one block runs its blocks on the
process's CPU pool (:mod:`repro.core.cpu_pool`), split so that the blocks
in flight hold one serial block's cells between them; a batch of one block
(a served read, a small ingest) runs inline.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.cpu_pool import cpu_pool
from repro.core.goodness import ExponentFunction, default_expected_links_exponent
from repro.core.neighbors.graph import validate_theta
from repro.core.neighbors.vectorized import overlap_thresholds, qualifying_pairs
from repro.data.encoding import build_item_index, transactions_to_incidence
from repro.errors import ConfigurationError, DataValidationError
from repro.similarity.base import SetSimilarity, supports_vectorized_counts
from repro.similarity.jaccard import JaccardSimilarity

#: Strategies accepted by :func:`label_points`.
LABELING_STRATEGIES = ("auto", "bruteforce", "sparse-matmul")

#: Fill of the retained incidence (``nnz / (rows * items)``) from which the
#: count kernel takes its dense form; sparser universes take the sparse form.
DENSE_MIN_FILL = 1.0 / 64

#: Most cells of one serial row block's product (``points × retained``);
#: a pooled batch splits them among the pool's threads.  On a 2-CPU host
#: (4096 Instacart baskets against 4000 retained rows, int16) blocks of
#: 2**18 to 2**22 cells timed within noise of each other, serial or pooled;
#: 2**20 keeps the blocks in flight at 2 MiB there.
BLOCK_CELLS = 1 << 20

#: Signed integer dtypes the dense form's operand may take, smallest first.
_OPERAND_DTYPES = (np.int8, np.int16, np.int32, np.int64)

#: Threshold rows the dense form's operand first makes room for.  When a
#: batch brings more new set sizes than there is room left, the operand is
#: copied once with room for as many threshold rows again as it then holds.
_SIZE_ROWS_AHEAD = 32


def validate_labeling_fraction(fraction: float) -> float:
    """``fraction`` as a float when it lies in ``(0, 1]``.

    The share of each sampled cluster the labeller retains; checked here
    and by :class:`~repro.core.config.RockConfig` at construction.
    """
    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(
            "labeling fraction must lie in (0, 1], got %r" % fraction
        )
    return fraction


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
    validate_labeling_fraction(fraction)
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


class StreamingLabeler:
    """Labels batches of points against a fixed sampled clustering.

    All per-clustering work happens once, in the constructor: the retained
    fractions ``L_i`` are drawn, the normalisers are computed and — under the
    sparse strategy — the retained-sample incidence matrix is built in
    cluster order, the kernel form is chosen from its fill and the dense
    form's operand is made.  Each :meth:`label_batch` call then costs the
    count kernel (or a brute-force sweep) over the batch only, plus one
    threshold row per set size the labeller has not seen yet, so a
    disk-resident data set can be labelled with peak memory bounded by the
    sample, one batch and one row block.

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
        theta = validate_theta(theta)
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
            # Retained rows in cluster order: the dense form sums each
            # cluster's column range, and every cluster keeps one row at least.
            retained = [self.sample[i] for subset in self.fractions for i in subset]
            rows_per_cluster = [len(subset) for subset in self.fractions]
            self._cluster_of_row = np.repeat(np.arange(self.n_clusters), rows_per_cluster)
            self._cluster_starts = np.cumsum([0] + rows_per_cluster[:-1])
            # Built exactly once; every batch reuses it.
            incidence, _ = transactions_to_incidence(retained, item_index)
            # Items no retained row holds can never overlap one, so the kernel
            # indexes the occupied columns alone: neither the fill nor the
            # dense operand spans the unused columns of a wider shared index
            # (the pipeline passes the whole sample's, which also covers the
            # rows outside the retained fractions).  With no column occupied
            # the index stays: the encoding keeps at least one column.
            occupied = np.bincount(incidence.indices, minlength=incidence.shape[1]) > 0
            if occupied.any() and not occupied.all():
                kept, column = occupied.tolist(), (np.cumsum(occupied) - 1).tolist()
                item_index = {item: column[j] for item, j in item_index.items() if kept[j]}
                incidence = incidence[:, occupied]
            self._kernel_index = item_index
            self._retained_incidence = incidence
            # Every retained row of one set size shares one threshold per
            # batch point.
            self._group_sizes, self._group_of_row = np.unique(
                np.asarray([len(t) for t in retained], dtype=np.int64),
                return_inverse=True,
            )
            # Items × retained, so the sparse form's product is CSR @ CSR.
            self._retained_columns = incidence.T.tocsr()
            n_rows, n_items = incidence.shape
            self._fill = incidence.nnz / max(n_rows * n_items, 1)
            self._dense_form = self._fill >= DENSE_MIN_FILL
            # The dense form's operand and the operand row of each batch set
            # size seen so far; the lock keeps concurrent batches from adding
            # the same row twice.
            self._operand = self._item_rows() if self._dense_form else None
            self._size_row: dict[int, int] = {}
            self._operand_lock = threading.Lock()

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
        if self._dense_form:
            self._dense_counts(incidence, sizes, size_of_point, counts)
        else:
            table = overlap_thresholds(self.measure, self.theta, sizes, self._group_sizes)
            self._sparse_counts(incidence, table, size_of_point, counts)
        return counts

    def _item_rows(self) -> np.ndarray:
        """The dense form's operand before any threshold row: the retained
        incidence transposed, in the smallest signed dtype that holds both
        the retained row count and ``-(largest retained set + 1)``, with
        :data:`_SIZE_ROWS_AHEAD` rows of room below it."""
        incidence = self._retained_incidence
        n_rows, n_items = incidence.shape
        largest = int(self._group_sizes.max(initial=0))
        dtype = next(
            d for d in _OPERAND_DTYPES
            if n_rows <= np.iinfo(d).max and -(largest + 1) >= np.iinfo(d).min
        )
        operand = np.zeros((n_items + _SIZE_ROWS_AHEAD, n_rows), dtype=dtype)
        rows = np.repeat(np.arange(n_rows), np.diff(incidence.indptr))
        operand[incidence.indices, rows] = 1
        return operand

    def _size_rows(self, sizes: list[int]) -> tuple[list[int], np.ndarray]:
        """The operand row of each batch set size in ``sizes`` and the
        operand down to its last row in use.

        A size seen for the first time gets its row ``-t(size, b)`` for
        every retained row ``b`` here, from :func:`overlap_thresholds`;
        earlier rows never move, and the operand is copied only when it
        runs out of room.  The view returned stays valid whatever a later
        batch adds.
        """
        with self._operand_lock:
            if self._operand is None:
                self._operand = self._item_rows()
            operand, row_of = self._operand, self._size_row
            used = self._retained_incidence.shape[1] + len(row_of)
            new = [size for size in sizes if size not in row_of]
            if new:
                table = overlap_thresholds(self.measure, self.theta, new, self._group_sizes)
                if used + len(new) > len(operand):
                    room = max(len(row_of) + len(new), _SIZE_ROWS_AHEAD)
                    grown = np.zeros((used + len(new) + room, operand.shape[1]), operand.dtype)
                    grown[:used] = operand[:used]
                    operand = self._operand = grown
                operand[used:used + len(new)] = -table[:, self._group_of_row]
                row_of.update(zip(new, range(used, used + len(new))))
                used += len(new)
            return [row_of[size] for size in sizes], operand[:used]

    def _dense_counts(self, incidence, sizes, size_of_point, counts) -> None:
        """Dense form: ``overlap - t`` from one integer product per row
        block, ``>= 0`` in place, one sum per cluster's column range."""
        rows_of_size, operand = self._size_rows(sizes.tolist())
        n_points = incidence.shape[0]
        n_rows = operand.shape[1]
        # The batch incidence with one more 1 per point, in the column of its
        # size's threshold row: its product with the operand is ``overlap - t``.
        indptr = incidence.indptr + np.arange(n_points + 1)
        indices = np.insert(
            incidence.indices,
            incidence.indptr[1:],
            np.asarray(rows_of_size, dtype=incidence.indices.dtype)[size_of_point],
        )
        data = np.ones(len(indices), dtype=operand.dtype)
        starts = self._cluster_starts

        def count(bounds: tuple[int, int]) -> None:
            low, high = bounds
            start, stop = indptr[low], indptr[high]
            rows = sparse.csr_matrix(
                (data[start:stop], indices[start:stop], indptr[low:high + 1] - start),
                shape=(high - low, len(operand)),
            )
            block = rows @ operand
            np.greater_equal(block, 0, out=block)
            counts[low:high] = np.add.reduceat(block, starts, axis=1, dtype=block.dtype)

        # The pool pays from two serial blocks up.  On 2 CPUs against 4000
        # retained rows (262-point blocks), pooled vs inline label_batch,
        # medians of 60 alternating pairs: 131 points 1.78 vs 1.51 ms (pool
        # faster in 7/60), 262 points 2.40 vs 2.62 ms (34/60), 524 points
        # 4.21 vs 4.58 ms (39/60), 4096 points 28.4 vs 33.4 ms (53/60).
        step = max(1, BLOCK_CELLS // n_rows)
        pool = cpu_pool() if n_points > step else None
        run = map
        if pool is not None:
            executor, workers = pool
            run, step = executor.map, max(1, step // workers)
        for _ in run(count, [(low, min(low + step, n_points)) for low in range(0, n_points, step)]):
            pass

    def _sparse_counts(self, incidence, table, size_of_point, counts) -> None:
        """Sparse form: the overlap kernel's qualifying pairs, scattered."""
        n_rows = self._retained_incidence.shape[0]
        k = self.n_clusters
        step = max(1, BLOCK_CELLS // max(n_rows, 1))
        for low in range(0, len(size_of_point), step):
            high = min(low + step, len(size_of_point))
            block = incidence if high - low == incidence.shape[0] else incidence[low:high]
            rows, columns = qualifying_pairs(
                block @ self._retained_columns,
                table,
                size_of_point[low:high],
                self._group_of_row,
            )
            # A scatter over the kept pairs only: a bincount would zero a
            # block × k buffer, which dominates once k nears the sample size.
            np.add.at(
                counts.reshape(-1),
                (low + rows) * k + self._cluster_of_row[columns],
                1.0,
            )

    # ------------------------------------------------------------------ #
    def label_batch(self, batch: Sequence[frozenset]) -> LabelingResult:
        """Label one batch of points and add it to the running totals
        (``n_batches``, ``n_points``, ``n_outliers``); see
        :func:`label_points`."""
        result = self._label(batch)
        self.n_batches += 1
        self.n_points += len(result.labels)
        self.n_outliers += result.n_outliers
        return result

    def _label(self, batch: Sequence[frozenset]) -> LabelingResult:
        """Label one batch without touching the running totals."""
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
        return LabelingResult(
            labels=labels,
            neighbor_counts=counts,
            n_outliers=int(np.sum(labels == -1)),
        )

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
