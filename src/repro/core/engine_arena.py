"""Arena-backed, batch-recompute agglomeration engine (``engine="arena"``).

The one greedy goodness merge loop of the package beside the frozen
reference spec (:meth:`repro.core.rock.RockClustering._agglomerate_reference`).
Point-level clustering, the online session's frontier re-agglomeration and
the sharded summary merge all run on it.

* **No heaps.**  Every cluster's current best merge is kept in a pair of
  flat arrays (``best_neg``/``best_partner``; dead clusters hold
  ``+inf``).  Selecting the next merge is one ``np.argmin`` over the live
  prefix, and ``argmin``'s first-minimum semantics reproduce the
  reference's global-heap ``(goodness, cluster-id)`` tie-break.  When a
  cluster's incumbent best dies, ``best_neg`` keeps the dead pair's value
  as an upper bound, and the true next best (a vectorised masked
  ``argmin`` over the row, first occurrence again) is only computed when
  that bound wins the selection scan — the array analogue of lazy heap
  deletion.  Staleness is not stored: a best is stale exactly when its
  recorded partner is dead, so the scan reads ``alive[best_partner]``.
* **Compacting arenas.**  Partner ids, pair counts and pair goodness live
  in three preallocated arrays: for link counts, 16 bytes per cell (a
  4-byte partner id, a 4-byte count and an 8-byte goodness; see "Cell
  dtypes").  Each cluster owns a
  ``(start, length, capacity)`` window with append headroom
  (``length + length // 4 + 4`` cells): seed windows hold the canonical
  sorted-CSR link rows, scored and placed a block of rows at a time;
  merged rows are carved at the arena tail, and a full row moves to a
  fresh tail window.  When the tail runs out the arena is compacted in
  place — dead rows and dead entries dropped, entry order kept, fresh
  headroom for every row — and grows only if it would still be more than
  3/4 full.  Live entries never increase under merging, so the arena
  sized at 1.5x the seeded windows holds the whole run: memory is bounded
  by the seeded link cells, not by the merge history.
* **Batched frontier maintenance.**  A merge unions the two consumed rows
  without sorting (a scratch accumulator, all zero between merges: every
  stored count is positive, so a right partner is shared exactly when the
  accumulator holds a count for it), recomputes the whole frontier's
  goodness in one counts-÷-pow-table-gather pass and then appends the
  merged cluster into every frontier row with one vectorised scatter.

**Weighted starting clusters.**  ``sizes`` makes the ``n_points`` starting
units clusters of the given sizes (the goodness normaliser uses the true
sizes) and the link matrix may carry float64 weights (the summary merge's
extrapolated link mass).  With ``sizes=None`` every unit is a point.

**Cell dtypes.**  One code path; the dtypes follow the input.  Partner ids
are int32 while ``2 * n_points``, past every cluster id, fits, int64
beyond (:func:`_partner_dtype`).  Counts take the smallest of int32 and
int64 that holds the input's upper-triangle link mass, which bounds every
merged count, and float weights stay float64
(:func:`repro.core.links.count_dtype`); the frontier-union accumulator
shares that dtype.  Goodness stays float64, ``-(count / denominator)``: an
integer count converts to float64 exactly, so the narrower cells change no
float, tie-break or early stop.  Partner slices are widened to ``np.intp``
once, where the loop reads them, so its fancy indexing never casts per use.

**Seeding.**  The rows are seeded from the upper triangle of the input,
symmetrised, positive and sorted, in the count cells' dtype.  Any other
input is copied into that form first; a point-level fit hands over
:func:`repro.core.links.canonical_links`, which is already in it
(``canonical=True``), and the engine, its only holder, drops it once the
rows are seeded, so no link matrix lives through the merge loop.

**Intra-cluster link mass.**  Each merge folds the merged cluster's
internal link mass: its two children's plus their cross count, exact for
integer counts.  :meth:`ArenaAgglomerationEngine.intra_link_mass` reads
it for a surviving cluster, which is how a point-level fit sums the
criterion function without reading the link matrix again.

**Determinism.**  With unit sizes the merge history is bit-identical to
``reference``: same ``MergeStep`` history, same tie-breaks, same early-stop
behaviour, and a ``ZeroDivisionError`` where the reference's ``goodness()``
raises one (a linked pair at ``1 + 2 f(theta) == 1``).  The cross-engine
equivalence suite and the engine benchmarks assert this on every run.

The engine also records merge-loop counters (selection scans, best
rescans, rescan cells, frontier sizes, appends, relocations, compactions,
arena grows and ``arena_cells``, the arena's capacity high-water mark in
cells) surfaced through :class:`repro.core.engines.AgglomerationRun`.
The merge history is the merge tree: :meth:`ArenaAgglomerationEngine.run`
collects the surviving members by walking it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.goodness import ExponentFunction, default_expected_links_exponent
from repro.core.links import count_dtype
from repro.types import MergeStep

_INT32_MAX = int(np.iinfo(np.int32).max)


def _partner_dtype(n_points: int) -> np.dtype:
    """Partner-id cells: int32 while ``2 * n_points`` (past every cluster
    id) fits in it, else int64."""
    return np.dtype(np.int32 if 2 * n_points <= _INT32_MAX else np.int64)


def arena_agglomerate(
    links: sparse.spmatrix,
    n_points: int,
    n_clusters: int,
    theta: float,
    exponent_function: ExponentFunction | None = None,
    sizes: np.ndarray | None = None,
) -> tuple[list[MergeStep], dict[int, list[int]], bool, dict[str, int]]:
    """Run the ROCK agglomeration on arena state.

    Parameters
    ----------
    links:
        Symmetric link matrix of the ``n_points`` starting units (the
        diagonal and non-positive entries are ignored, matching the
        reference engine).  Integer counts, or float64 weights.
    n_points:
        Number of starting units.
    n_clusters:
        Target number of clusters.
    theta:
        Similarity threshold (defines the goodness normaliser).
    exponent_function:
        ``f(theta)``; defaults to the paper's.
    sizes:
        Starting cluster sizes (positive integers), or ``None`` for points.

    Returns
    -------
    merge_history:
        The merges performed, in execution order.  Starting units keep ids
        ``0 .. n_points - 1``; the cluster made by merge ``s`` is
        ``n_points + s``.
    members:
        Mapping of surviving cluster id to its starting-unit ids.
    stopped_early:
        ``True`` when no positive-goodness merge remained before reaching
        ``n_clusters`` clusters.
    counters:
        Merge-loop counters.
    """
    engine = ArenaAgglomerationEngine(
        links, n_points, n_clusters, theta, exponent_function, sizes
    )
    return engine.run()


class ArenaAgglomerationEngine:
    """Arena-state machine for one agglomeration run.

    ``links`` and the other arguments are those of
    :func:`arena_agglomerate`.  ``canonical=True`` says ``links`` is
    already in the seeding form (:func:`repro.core.links.canonical_links`):
    the engine seeds from it without a copy and lets go of it once the
    rows are seeded.
    """

    #: Extra cells granted beyond ``length + length // 4`` whenever a row
    #: window is (re)allocated — seeded, merged, relocated or compacted — so
    #: repeated appends amortise to O(1) relocations.  At least 1: a
    #: compaction in the middle of a merge must leave every frontier row
    #: room for the append in flight.
    _ROW_HEADROOM = 4

    #: Free arena cells kept beyond the rows' windows, as a fraction of them,
    #: when the arena is sized (at seeding and on growth).
    _ARENA_SLACK = 0.5

    #: A compaction that leaves the arena fuller than this (counting the
    #: pending request) grows it.
    _MAX_FILL = 0.75

    #: Smallest arena allocated, in cells.
    _MIN_ARENA_CELLS = 1024

    #: Most cells one vectorised seeding or compaction step touches; whole
    #: rows per step, so a longer row is a step of its own.
    _BLOCK_CELLS = 1 << 16

    def __init__(
        self,
        links: sparse.spmatrix,
        n_points: int,
        n_clusters: int,
        theta: float,
        exponent_function: ExponentFunction | None = None,
        sizes: np.ndarray | None = None,
        *,
        canonical: bool = False,
    ) -> None:
        self.n_points = int(n_points)
        self.n_clusters = int(n_clusters)
        if sizes is None:
            self._sizes = np.ones(self.n_points, dtype=np.int64)
        else:
            self._sizes = np.asarray(sizes, dtype=np.int64)
        if exponent_function is None:
            exponent_function = default_expected_links_exponent
        exponent = 1.0 + 2.0 * exponent_function(float(theta))
        # Power table over every reachable cluster size.  Computed with
        # Python's ``**`` (not ``np.power``, whose libm dispatch may round
        # differently) so goodness values match theta_power() bit-for-bit.
        total = int(self._sizes.sum())
        self._pow = np.array(
            [float(size) ** exponent for size in range(total + 1)],
            dtype=np.float64,
        )
        self._links = links
        self._canonical = canonical

    # ------------------------------------------------------------------ #
    # State initialisation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _canonical_symmetric(links: sparse.spmatrix) -> sparse.csr_matrix:
        """Upper-triangle-symmetrised, positive, sorted copy of ``links`` in
        the count cells' dtype (:func:`repro.core.links.count_dtype`)."""
        matrix = sparse.csr_matrix(links)
        upper = sparse.triu(matrix, k=1).tocsr()
        if upper.nnz and (upper.data <= 0).any():
            upper = upper.copy()
            upper.data[upper.data <= 0] = 0
            upper.eliminate_zeros()
        # A float64 sum is exact up to 2**53, far past the int32 bound, and
        # cannot wrap.
        mass = float(upper.data.sum(dtype=np.float64))
        upper = upper.astype(count_dtype(upper.dtype, mass), copy=False)
        symmetric = (upper + upper.T).tocsr()
        symmetric.sort_indices()
        return symmetric

    def _headroomed(self, length):
        """Window size granted to a row of ``length`` entries (array-wise)."""
        return length + (length >> 2) + self._ROW_HEADROOM

    def _row_blocks(self, lengths: np.ndarray):
        """``(lo, hi)`` runs of consecutive rows holding at most
        ``_BLOCK_CELLS`` cells between them (a longer row runs alone)."""
        ends = np.cumsum(lengths)
        lo = 0
        while lo < lengths.size:
            base = int(ends[lo - 1]) if lo else 0
            hi = int(np.searchsorted(ends, base + self._BLOCK_CELLS, side="right"))
            hi = max(hi, lo + 1)
            yield lo, hi
            lo = hi

    def _init_arena_state(self) -> None:
        n = self.n_points
        # Merged ids range over [n, 2n - 1 - n_clusters], so index 2n - 1 is
        # never assigned; the trailing dead cell doubles as the target of
        # the ``-1`` best-partner sentinel under negative indexing.
        capacity = max(2 * n, 1)
        symmetric = self._links if self._canonical else self._canonical_symmetric(self._links)
        self._links = None

        self._alive = np.zeros(capacity, dtype=bool)
        self._alive[:n] = True
        self._size_np = np.zeros(capacity, dtype=np.int64)
        self._size_np[:n] = self._sizes
        self._intra = np.zeros(capacity, dtype=np.result_type(symmetric.dtype, np.int64))

        # Seed rows get the append headroom merged rows get, laid out in id
        # order; the arena keeps ``_ARENA_SLACK`` of free tail beyond them.
        row_sizes = np.diff(symmetric.indptr).astype(np.int64)
        seed_caps = self._headroomed(row_sizes)
        seed_starts = np.cumsum(seed_caps) - seed_caps
        seed_extent = int(seed_caps.sum())
        arena_capacity = max(
            seed_extent + int(seed_extent * self._ARENA_SLACK), self._MIN_ARENA_CELLS
        )
        self._arena_partner = np.empty(arena_capacity, dtype=_partner_dtype(n))
        self._arena_count = np.empty(arena_capacity, dtype=symmetric.dtype)
        self._arena_neg = np.empty(arena_capacity, dtype=np.float64)
        self._arena_tail = seed_extent

        self._row_start = np.zeros(capacity, dtype=np.int64)
        self._row_len = np.zeros(capacity, dtype=np.int64)
        self._row_cap = np.zeros(capacity, dtype=np.int64)
        self._row_start[:n] = seed_starts
        self._row_len[:n] = row_sizes
        self._row_cap[:n] = seed_caps

        # Per-cluster best merge.  0.0 / -1 is the "no live pair" state
        # (never selected: the loop stops at non-negative best); +inf
        # marks dead clusters out of every argmin.  A best whose partner
        # has died is a stale upper bound; it is recomputed only if it wins
        # a selection scan, the reference's lazy-deletion rework condition.
        self._best_neg = np.zeros(capacity, dtype=np.float64)
        self._best_partner = np.full(capacity, -1, dtype=np.int64)
        for lo, hi in self._row_blocks(row_sizes):
            self._seed_rows(symmetric, lo, hi, seed_starts[lo:hi])

        # Arena-management counters, reported by run() with its own.
        self._relocations = 0
        self._compactions = 0
        self._grows = 0
        self._arena_cells = arena_capacity

    def _seed_rows(
        self,
        symmetric: sparse.csr_matrix,
        lo: int,
        hi: int,
        starts: np.ndarray,
    ) -> None:
        """Score seed rows ``lo .. hi - 1``, place them at ``starts`` and set
        their best merge."""
        first, last = int(symmetric.indptr[lo]), int(symmetric.indptr[hi])
        if first == last:
            return
        row_sizes = np.diff(symmetric.indptr[lo : hi + 1]).astype(np.int64)
        columns = symmetric.indices[first:last]
        counts = symmetric.data[first:last]
        rows = np.repeat(np.arange(lo, hi), row_sizes)
        # Larger id's size first, as a merge scores its frontier (merged
        # cluster first), so both rows of a pair hold the same float.
        newer = self._sizes[np.maximum(rows, columns)]
        older = self._sizes[np.minimum(rows, columns)]
        pow_np = self._pow
        denominators = pow_np[newer + older] - pow_np[newer] - pow_np[older]
        if np.any(denominators == 0.0):
            # 1 + 2 f(theta) == 1 makes every denominator vanish; the
            # reference raises ZeroDivisionError from goodness() as soon as
            # a linked pair is scored, so mirror it with a clearer message.
            raise ZeroDivisionError(
                "goodness denominator is zero: 1 + 2 f(theta) == 1 "
                "(theta == 1 under the paper's exponent function); "
                "linked pairs cannot be scored"
            )
        seed_neg = -(counts / denominators)
        offsets = np.cumsum(row_sizes) - row_sizes
        targets = np.arange(last - first) + np.repeat(starts - offsets, row_sizes)
        self._arena_partner[targets] = columns
        self._arena_count[targets] = counts
        self._arena_neg[targets] = seed_neg

        # First-occurrence minimum per row: rows list partners in ascending
        # id order, the reference's local-heap insertion order.  A row whose
        # minimum is NaN keeps its first entry.
        nonempty = row_sizes > 0
        row_firsts = offsets[nonempty]
        row_min = np.minimum.reduceat(seed_neg, row_firsts)
        cells = seed_neg.size
        masked = np.where(
            seed_neg == np.repeat(row_min, row_sizes[nonempty]),
            np.arange(cells, dtype=np.int64),
            cells,
        )
        first_min = np.minimum.reduceat(masked, row_firsts)
        first_min = np.where(first_min == cells, row_firsts, first_min)
        best_rows = np.arange(lo, hi)[nonempty]
        self._best_neg[best_rows] = seed_neg[first_min]
        self._best_partner[best_rows] = columns[first_min]

    # ------------------------------------------------------------------ #
    # Arena management
    # ------------------------------------------------------------------ #
    def _reserve(self, need: int) -> None:
        """Make ``need`` cells fit past the tail.

        A full arena is compacted: the live rows' live entries move into
        fresh headroomed windows, entry order kept.  The arena grows only
        when those windows and the request would fill more than
        ``_MAX_FILL`` of it.  Every row moves, so callers re-read positions.
        """
        size = self._arena_partner.size
        if self._arena_tail + need <= size:
            return
        order = self._pack_live_rows()
        lengths = self._row_len[order]
        capacities = self._headroomed(lengths)
        required = int(capacities.sum()) + need
        if required > self._MAX_FILL * size:
            size = required + int(required * self._ARENA_SLACK)
            self._grows += 1
            self._arena_cells = max(self._arena_cells, size)
        self._spread_rows(order, lengths, capacities, size)
        self._compactions += 1

    def _pack_live_rows(self) -> np.ndarray:
        """Pack the live rows' live entries to the arena front, in place.

        Rows go in address order, ``_BLOCK_CELLS`` at a time, so every cell
        moves down onto cells already read.  Returns the live rows in that
        order.
        """
        alive = self._alive
        row_start = self._row_start
        row_len = self._row_len
        arenas = (self._arena_partner, self._arena_count, self._arena_neg)
        live = np.flatnonzero(alive)
        order = live[np.argsort(row_start[live], kind="stable")]
        lengths = row_len[order]
        write = 0
        for lo, hi in self._row_blocks(lengths):
            rows = order[lo:hi]
            block_lengths = lengths[lo:hi]
            offsets = np.cumsum(block_lengths) - block_lengths
            positions = np.arange(int(block_lengths.sum())) + np.repeat(
                row_start[rows] - offsets, block_lengths
            )
            keep = alive[arenas[0][positions]]
            kept = positions[keep]
            for arena in arenas:
                arena[write : write + kept.size] = arena[kept]
            kept_lengths = np.bincount(
                np.repeat(np.arange(hi - lo), block_lengths)[keep], minlength=hi - lo
            )
            row_start[rows] = write + np.cumsum(kept_lengths) - kept_lengths
            row_len[rows] = kept_lengths
            write += kept.size
        return order

    def _spread_rows(
        self,
        order: np.ndarray,
        lengths: np.ndarray,
        capacities: np.ndarray,
        size: int,
    ) -> None:
        """Move packed rows into back-to-back windows of ``capacities``.

        In place when ``size`` is the current arena size: rows go from the
        last one back, so every cell moves up onto cells already moved
        away.  Otherwise into fresh arenas of ``size`` cells.
        """
        row_start = self._row_start
        starts = np.cumsum(capacities) - capacities
        shifts = starts - row_start[order]
        names = ("_arena_partner", "_arena_count", "_arena_neg")
        sources = [getattr(self, name) for name in names]
        in_place = size == sources[0].size
        if in_place:
            targets = sources
        else:
            targets = [np.empty(size, dtype=source.dtype) for source in sources]
        for lo, hi in reversed(list(self._row_blocks(lengths))):
            if in_place and shifts[hi - 1] == 0:
                break  # shifts never decrease along the address order
            first = int(row_start[order[lo]])
            last = int(row_start[order[hi - 1]] + lengths[hi - 1])
            positions = np.arange(first, last) + np.repeat(
                shifts[lo:hi], lengths[lo:hi]
            )
            for source, target in zip(sources, targets):
                block = source[first:last]
                target[positions] = block.copy() if in_place else block
        for name, target in zip(names, targets):
            setattr(self, name, target)
        row_start[order] = starts
        self._row_cap[order] = capacities
        self._arena_tail = int(capacities.sum())

    def _relocate_row(self, row: int) -> None:
        """Move a full row to a fresh headroomed window at the arena tail."""
        capacity = self._headroomed(int(self._row_len[row]) + 1)
        self._reserve(capacity)
        length = int(self._row_len[row])
        if length < self._row_cap[row]:
            return  # the reserve compacted, and that gave the row room
        start = int(self._row_start[row])
        tail = self._arena_tail
        for arena in (self._arena_partner, self._arena_count, self._arena_neg):
            arena[tail : tail + length] = arena[start : start + length]
        self._row_start[row] = tail
        self._row_cap[row] = capacity
        self._arena_tail = tail + capacity
        self._relocations += 1

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(
        self,
    ) -> tuple[list[MergeStep], dict[int, list[int]], bool, dict[str, int]]:
        """Execute the merge loop; see :func:`arena_agglomerate` for the
        return contract."""
        self._init_arena_state()
        n = self.n_points
        alive = self._alive
        size_np = self._size_np
        pow_np = self._pow
        best_neg = self._best_neg
        best_partner = self._best_partner
        row_start = self._row_start
        row_len = self._row_len
        row_cap = self._row_cap
        intra = self._intra
        infinity = np.inf

        merge_history: list[MergeStep] = []
        alive_count = n
        next_id = n
        stopped_early = False
        selection_scans = best_rescans = rescan_cells = 0
        frontier_total = frontier_max = 0

        # Frontier-union scratch, all zero between merges.
        accumulator = np.zeros(alive.size, dtype=self._arena_count.dtype)

        while alive_count > self.n_clusters:
            # One C-speed scan replaces the global heap: argmin's
            # first-minimum rule is the heap's (goodness, cluster-id)
            # tie-break, because ids ascend left to right and dead
            # clusters sit at +inf.  A winner whose recorded partner is
            # dead holds a stale upper bound (its dead incumbent's value,
            # below every older surviving pair), so its true best is
            # computed now and the scan rerun.  A -1 partner ("no live
            # pair") only ever holds a best of 0.0, so the first test stops
            # the loop before the partner is read.
            while True:
                selection_scans += 1
                left = int(best_neg[:next_id].argmin())
                neg_goodness = float(best_neg[left])
                if not (neg_goodness < 0.0) or alive[best_partner[left]]:
                    break
                start = int(row_start[left])
                stop = start + int(row_len[left])
                partners = self._arena_partner[start:stop].astype(np.intp, copy=False)
                live = alive[partners]
                best_rescans += 1
                rescan_cells += stop - start
                if live.any():
                    masked = np.where(
                        live, self._arena_neg[start:stop], infinity
                    )
                    best_position = int(masked.argmin())
                    best_neg[left] = masked[best_position]
                    best_partner[left] = partners[best_position]
                else:
                    # No live partner remains; any future pair (negative
                    # goodness) immediately becomes the best again.
                    best_neg[left] = 0.0
                    best_partner[left] = -1
            if not (neg_goodness < 0.0):
                # Non-negative (or NaN) best goodness: nothing mergeable
                # remains, exactly the reference's early stop.
                stopped_early = True
                break
            right = int(best_partner[left])
            merged = next_id
            next_id += 1
            merged_size = int(size_np[left]) + int(size_np[right])
            merge_history.append(
                MergeStep(
                    step=len(merge_history),
                    left=left,
                    right=right,
                    goodness=-neg_goodness,
                    new_size=merged_size,
                )
            )

            # Kill the endpoints first so the aliveness filter below also
            # drops their mutual entries.
            alive[left] = False
            alive[right] = False
            alive[merged] = True
            best_neg[left] = infinity
            best_neg[right] = infinity
            size_np[merged] = merged_size
            alive_count -= 1

            # Combined frontier of the two consumed rows: left's live
            # partners, then right's new ones (the reference's combined-dict
            # order), a shared partner's count summed left + right (the
            # reference's addition order).  Dead entries are dropped.
            left_start = row_start[left]
            left_stop = left_start + row_len[left]
            right_start = row_start[right]
            right_stop = right_start + row_len[right]
            left_partners = self._arena_partner[left_start:left_stop].astype(
                np.intp, copy=False
            )
            left_counts = self._arena_count[left_start:left_stop]
            right_partners = self._arena_partner[right_start:right_stop].astype(
                np.intp, copy=False
            )
            right_counts = self._arena_count[right_start:right_stop]
            # The merged cluster's internal link mass: its children's plus
            # their cross count (right sits in left's row exactly once).
            cross = left_counts[int((left_partners == right).argmax())]
            intra[merged] = intra[left] + intra[right] + cross
            keep = alive[left_partners]
            left_partners = left_partners[keep]
            left_counts = left_counts[keep]
            keep = alive[right_partners]
            right_partners = right_partners[keep]
            right_counts = right_counts[keep]
            # Every stored count is positive (seeding keeps positive links
            # only; merged counts are their sums), so a right partner is
            # shared exactly when the accumulator holds a count for it.
            accumulator[left_partners] = left_counts
            shared = accumulator[right_partners] != 0
            accumulator[right_partners[shared]] += right_counts[shared]
            fresh = ~shared
            frontier = np.concatenate([left_partners, right_partners[fresh]])
            frontier_counts = np.concatenate(
                [accumulator[left_partners], right_counts[fresh]]
            )
            accumulator[left_partners] = 0
            frontier_size = int(frontier.size)
            frontier_total += frontier_size
            if frontier_size > frontier_max:
                frontier_max = frontier_size

            # Whole-frontier goodness in one gather-subtract-divide pass,
            # operand order as in goodness(), so the values are
            # bit-identical to the reference's.
            other_sizes = size_np[frontier]
            denominators = (
                pow_np[merged_size + other_sizes]
                - pow_np[merged_size]
                - pow_np[other_sizes]
            )
            frontier_negs = -(frontier_counts / denominators)

            # The merged cluster's row: carved at the arena tail with
            # append headroom.
            merged_capacity = self._headroomed(frontier_size)
            self._reserve(merged_capacity)
            tail = self._arena_tail
            self._arena_partner[tail : tail + frontier_size] = frontier
            self._arena_count[tail : tail + frontier_size] = frontier_counts
            self._arena_neg[tail : tail + frontier_size] = frontier_negs
            row_start[merged] = tail
            row_len[merged] = frontier_size
            row_cap[merged] = merged_capacity
            self._arena_tail = tail + merged_capacity

            if not frontier_size:
                continue

            # The merged cluster's own best: first occurrence of the
            # minimum (all frontier partners are alive by construction).
            merged_best_position = int(frontier_negs.argmin())
            best_neg[merged] = frontier_negs[merged_best_position]
            best_partner[merged] = frontier[merged_best_position]

            # Scatter-append the merged cluster into every frontier row.
            # Full rows relocate first (rare: every window has headroom),
            # then one vectorised position write per arena.  A relocation
            # may compact, which moves every row, drops its dead entries
            # and gives it fresh headroom, so lengths and positions are
            # re-read after one.
            lengths = row_len[frontier]
            full = lengths >= row_cap[frontier]
            if full.any():
                for row in frontier[full]:
                    if row_len[row] >= row_cap[row]:
                        self._relocate_row(int(row))
                lengths = row_len[frontier]
            positions = row_start[frontier] + lengths
            self._arena_partner[positions] = merged
            self._arena_count[positions] = frontier_counts
            self._arena_neg[positions] = frontier_negs
            row_len[frontier] = lengths + 1

            # Best maintenance, batched.  A new pair strictly beating the
            # standing best wins (ties keep the incumbent: a new pair ranks
            # last, as in the reference's local heaps); otherwise a cluster
            # whose incumbent just died keeps its bound in ``best_neg``,
            # now stale, and the replacement is computed lazily in the
            # selection scan, so clusters that merge away first never pay
            # for it.
            improved = frontier_negs < best_neg[frontier]
            improved_rows = frontier[improved]
            best_neg[improved_rows] = frontier_negs[improved]
            best_partner[improved_rows] = merged

        counters = {
            "merges": len(merge_history),
            "selection_scans": selection_scans,
            "best_rescans": best_rescans,
            "rescan_cells": rescan_cells,
            "frontier_total": frontier_total,
            "frontier_max": frontier_max,
            # Every frontier cell is appended to its row exactly once.
            "appended_cells": frontier_total,
            "row_relocations": self._relocations,
            "compactions": self._compactions,
            "arena_grows": self._grows,
            "arena_cells": self._arena_cells,
        }
        return merge_history, self._collect_members(merge_history), stopped_early, counters

    # ------------------------------------------------------------------ #
    # Final assembly
    # ------------------------------------------------------------------ #
    def intra_link_mass(self, cluster: int) -> int | float:
        """Link mass inside ``cluster`` after :meth:`run`: the links
        between its starting units, each unordered pair once (the input's
        diagonal is not counted), folded merge by merge."""
        return self._intra[cluster].item()

    def _collect_members(self, merge_history: list[MergeStep]) -> dict[int, list[int]]:
        """Surviving cluster id -> starting-unit ids, by a walk of the merge
        tree ``merge_history`` records: cluster ``n_points + s`` is the
        union of step ``s``'s ``left`` and ``right``."""
        n = self.n_points
        members: dict[int, list[int]] = {}
        for cluster in np.flatnonzero(self._alive).tolist():
            stack = [cluster]
            points: list[int] = []
            while stack:
                node = stack.pop()
                if node < n:
                    points.append(node)
                else:
                    step = merge_history[node - n]
                    stack.append(step.left)
                    stack.append(step.right)
            members[cluster] = points
        return members
