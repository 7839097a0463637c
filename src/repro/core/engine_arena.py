"""Arena-backed, batch-recompute agglomeration engine (``engine="arena"``).

The one greedy goodness merge loop of the package beside the frozen
reference spec (:meth:`repro.core.rock.RockClustering._agglomerate_reference`).
Point-level clustering, the online session's frontier re-agglomeration and
the sharded summary merge all run on it.

* **No heaps.**  Every cluster's current best merge is kept in a pair of
  flat arrays (``best_neg``/``best_partner``; dead clusters hold ``+inf``)
  plus a ``stale`` flag.  Selecting the next merge is one ``np.argmin``
  over the live prefix, and ``argmin``'s first-minimum semantics reproduce
  the reference's global-heap ``(goodness, cluster-id)`` tie-break.  When
  a cluster's incumbent best dies, ``best_neg`` keeps the dead pair's value
  as an upper bound, and the true next best (a vectorised masked
  ``argmin`` over the row, first occurrence again) is only computed when
  that bound wins the selection scan — the array analogue of lazy heap
  deletion.
* **Scratch arenas.**  Partner ids, pair counts and pair goodness live in
  three preallocated growable arrays.  Each cluster owns a
  ``(start, length, capacity)`` window; seed windows are packed copies of
  the canonical sorted-CSR link matrix, merged rows are allocated at the
  arena tail, and a full row relocates with doubled capacity when it
  outgrows its window.
* **Batched frontier maintenance.**  A merge recomputes the whole
  frontier's goodness in one counts-÷-pow-table-gather pass and then
  appends the merged cluster into every frontier row with one vectorised
  scatter.

**Weighted starting clusters.**  ``sizes`` makes the ``n_points`` starting
units clusters of the given sizes (the goodness normaliser uses the true
sizes) and the link matrix may carry float64 weights (the summary merge's
extrapolated link mass).  With ``sizes=None`` every unit is a point.

**Determinism.**  With unit sizes the merge history is bit-identical to
``reference``: same ``MergeStep`` history, same tie-breaks, same early-stop
behaviour, and a ``ZeroDivisionError`` where the reference's ``goodness()``
raises one (a linked pair at ``1 + 2 f(theta) == 1``).  The cross-engine
equivalence suite and the engine benchmarks assert this on every run.

The engine also records merge-loop counters (selection scans, best
rescans, rescan cells, frontier sizes, appends, relocations, arena grows)
surfaced through :class:`repro.core.engines.AgglomerationRun`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.goodness import ExponentFunction, default_expected_links_exponent
from repro.types import MergeStep


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
    """Arena-state machine for one agglomeration run."""

    #: Extra cells granted beyond the immediate need when a row is
    #: (re)allocated, so repeated appends amortise to O(1) relocations.
    _ROW_HEADROOM = 4

    def __init__(
        self,
        links: sparse.spmatrix,
        n_points: int,
        n_clusters: int,
        theta: float,
        exponent_function: ExponentFunction | None = None,
        sizes: np.ndarray | None = None,
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

    # ------------------------------------------------------------------ #
    # State initialisation
    # ------------------------------------------------------------------ #
    def _canonical_symmetric(self) -> sparse.csr_matrix:
        """Upper-triangle-symmetrised, positive, sorted float64 copy of the
        input (integer link counts stay exact: they are far below 2**53)."""
        matrix = sparse.csr_matrix(self._links)
        upper = sparse.triu(matrix, k=1).tocsr()
        if upper.nnz and (upper.data <= 0).any():
            upper = upper.copy()
            upper.data[upper.data <= 0] = 0
            upper.eliminate_zeros()
        upper = upper.astype(np.float64)
        symmetric = (upper + upper.T).tocsr()
        symmetric.sort_indices()
        return symmetric

    def _init_arena_state(self) -> None:
        n = self.n_points
        # Merged ids range over [n, 2n - 1 - n_clusters], so index 2n - 1 is
        # never assigned; the trailing dead cell doubles as the target of
        # the ``-1`` best-partner sentinel under negative indexing.
        capacity = max(2 * n, 1)
        symmetric = self._canonical_symmetric()
        nnz = int(symmetric.nnz)

        self._alive = np.zeros(capacity, dtype=bool)
        self._alive[:n] = True
        self._size_np = np.zeros(capacity, dtype=np.int64)
        self._size_np[:n] = self._sizes
        self._child_left = [-1] * capacity
        self._child_right = [-1] * capacity

        indptr = symmetric.indptr.astype(np.int64)
        row_sizes = np.diff(indptr)
        if nnz:
            pow_np = self._pow
            # Larger id's size first, as a merge scores its frontier
            # (merged cluster first), so both rows of a pair hold the same
            # float.
            rows = np.repeat(np.arange(n), row_sizes)
            columns = symmetric.indices
            newer = self._sizes[np.maximum(rows, columns)]
            older = self._sizes[np.minimum(rows, columns)]
            denominators = pow_np[newer + older] - pow_np[newer] - pow_np[older]
            if np.any(denominators == 0.0):
                # 1 + 2 f(theta) == 1 makes every denominator vanish; the
                # reference raises ZeroDivisionError from goodness() as soon
                # as a linked pair is scored, so mirror it with a clearer
                # message.
                raise ZeroDivisionError(
                    "goodness denominator is zero: 1 + 2 f(theta) == 1 "
                    "(theta == 1 under the paper's exponent function); "
                    "linked pairs cannot be scored"
                )
            seed_neg = -(symmetric.data / denominators)
        else:
            seed_neg = np.empty(0, dtype=np.float64)

        # The three arenas.  Seed rows occupy a packed prefix (capacity ==
        # length, so their first append relocates); merged rows are carved
        # from the tail.
        arena_capacity = max(nnz + self._ROW_HEADROOM * n, 1024)
        self._arena_partner = np.empty(arena_capacity, dtype=np.int64)
        self._arena_count = np.empty(arena_capacity, dtype=np.float64)
        self._arena_neg = np.empty(arena_capacity, dtype=np.float64)
        self._arena_partner[:nnz] = symmetric.indices
        self._arena_count[:nnz] = symmetric.data
        self._arena_neg[:nnz] = seed_neg
        self._arena_tail = nnz

        self._row_start = np.zeros(capacity, dtype=np.int64)
        self._row_len = np.zeros(capacity, dtype=np.int64)
        self._row_cap = np.zeros(capacity, dtype=np.int64)
        self._row_start[:n] = indptr[:-1]
        self._row_len[:n] = row_sizes
        self._row_cap[:n] = row_sizes

        # Per-cluster best merge.  0.0 / -1 is the "no live pair" state
        # (never selected: the loop stops at non-negative best); +inf
        # marks dead clusters out of every argmin.  ``stale`` is set when
        # the incumbent best dies and cleared when the true best is
        # recomputed — which happens only if the stale upper bound wins a
        # selection scan, the reference's lazy-deletion rework condition.
        best_neg = np.zeros(capacity, dtype=np.float64)
        best_partner = np.full(capacity, -1, dtype=np.int64)
        self._stale = np.zeros(capacity, dtype=bool)
        if nnz:
            # First-occurrence minimum per seed CSR row: rows list partners
            # in ascending id order, the reference's local-heap insertion
            # order.  A row whose minimum is NaN keeps its first entry.
            nonempty = row_sizes > 0
            rows = np.nonzero(nonempty)[0]
            starts = indptr[:-1][nonempty]
            row_min = np.minimum.reduceat(seed_neg, starts)
            masked = np.where(
                seed_neg == np.repeat(row_min, row_sizes[nonempty]),
                np.arange(nnz, dtype=np.int64),
                nnz,
            )
            first_min = np.minimum.reduceat(masked, starts)
            first_min = np.where(first_min == nnz, starts, first_min)
            best_neg[rows] = seed_neg[first_min]
            best_partner[rows] = symmetric.indices[first_min]
        self._best_neg = best_neg
        self._best_partner = best_partner

        self._counters: dict[str, int] = {
            "merges": 0,
            "selection_scans": 0,
            "best_rescans": 0,
            "rescan_cells": 0,
            "frontier_total": 0,
            "frontier_max": 0,
            "appended_cells": 0,
            "row_relocations": 0,
            "arena_grows": 0,
        }

    # ------------------------------------------------------------------ #
    # Arena management
    # ------------------------------------------------------------------ #
    def _ensure_tail(self, need: int) -> None:
        """Grow the arenas so ``need`` cells fit past the tail."""
        required = self._arena_tail + need
        current = self._arena_partner.size
        if required <= current:
            return
        new_capacity = max(2 * current, required)
        for attribute in ("_arena_partner", "_arena_count", "_arena_neg"):
            old = getattr(self, attribute)
            grown = np.empty(new_capacity, dtype=old.dtype)
            grown[: self._arena_tail] = old[: self._arena_tail]
            setattr(self, attribute, grown)
        self._counters["arena_grows"] += 1

    def _relocate_row(self, row: int, extra: int) -> None:
        """Move a full row to the arena tail with doubled capacity."""
        length = int(self._row_len[row])
        new_capacity = max(2 * (length + extra), length + extra, 4)
        self._ensure_tail(new_capacity)
        start = int(self._row_start[row])
        tail = self._arena_tail
        self._arena_partner[tail : tail + length] = self._arena_partner[
            start : start + length
        ]
        self._arena_count[tail : tail + length] = self._arena_count[
            start : start + length
        ]
        self._arena_neg[tail : tail + length] = self._arena_neg[
            start : start + length
        ]
        self._row_start[row] = tail
        self._row_cap[row] = new_capacity
        self._arena_tail = tail + new_capacity
        self._counters["row_relocations"] += 1

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
        child_left = self._child_left
        child_right = self._child_right
        counters = self._counters
        infinity = np.inf

        merge_history: list[MergeStep] = []
        alive_count = n
        next_id = n
        stopped_early = False

        stale = self._stale

        while alive_count > self.n_clusters:
            # One C-speed scan replaces the global heap: argmin's
            # first-minimum rule is the heap's (goodness, cluster-id)
            # tie-break, because ids ascend left to right and dead
            # clusters sit at +inf.  A stale winner holds an upper bound
            # (its dead incumbent's value, below every older surviving
            # pair), so its true best is computed now and the scan rerun.
            while True:
                counters["selection_scans"] += 1
                left = int(np.argmin(best_neg[:next_id]))
                neg_goodness = float(best_neg[left])
                if not (neg_goodness < 0.0):
                    break
                if not stale[left]:
                    break
                start = int(row_start[left])
                stop = start + int(row_len[left])
                partners_view = self._arena_partner[start:stop]
                live = alive[partners_view]
                counters["best_rescans"] += 1
                counters["rescan_cells"] += stop - start
                if live.any():
                    masked = np.where(
                        live, self._arena_neg[start:stop], infinity
                    )
                    best_position = int(masked.argmin())
                    best_neg[left] = masked[best_position]
                    best_partner[left] = partners_view[best_position]
                else:
                    # No live partner remains; any future pair (negative
                    # goodness) immediately becomes the best again.
                    best_neg[left] = 0.0
                    best_partner[left] = -1
                stale[left] = False
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
            best_partner[left] = -1
            best_partner[right] = -1
            size_np[merged] = merged_size
            child_left[merged] = left
            child_right[merged] = right
            alive_count -= 1

            # Combined frontier of the two consumed rows, first-occurrence
            # order of "left's partners then right's new partners" (the
            # reference's combined-dict order), counts summed for shared
            # partners, dead entries dropped.
            left_start = row_start[left]
            right_start = row_start[right]
            left_partners = self._arena_partner[
                left_start : left_start + row_len[left]
            ]
            right_partners = self._arena_partner[
                right_start : right_start + row_len[right]
            ]
            concatenated = np.concatenate([left_partners, right_partners])
            concatenated_counts = np.concatenate(
                [
                    self._arena_count[left_start : left_start + row_len[left]],
                    self._arena_count[right_start : right_start + row_len[right]],
                ]
            )
            keep = alive[concatenated]
            frontier = concatenated[keep]
            frontier_counts = concatenated_counts[keep]
            if frontier.size:
                unique, inverse = np.unique(frontier, return_inverse=True)
                if unique.size != frontier.size:
                    summed = np.zeros(unique.size, dtype=np.float64)
                    np.add.at(summed, inverse, frontier_counts)
                    first_position = np.full(
                        unique.size, frontier.size, dtype=np.int64
                    )
                    np.minimum.at(
                        first_position, inverse, np.arange(frontier.size)
                    )
                    order = np.argsort(first_position, kind="stable")
                    frontier = unique[order]
                    frontier_counts = summed[order]
            frontier_size = int(frontier.size)
            counters["merges"] += 1
            counters["frontier_total"] += frontier_size
            if frontier_size > counters["frontier_max"]:
                counters["frontier_max"] = frontier_size

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
            merged_capacity = (
                frontier_size + (frontier_size >> 2) + self._ROW_HEADROOM
            )
            self._ensure_tail(merged_capacity)
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
            # Full rows relocate first (cheap and rare: doubling
            # amortises), then one vectorised position write per arena.
            full = row_len[frontier] >= row_cap[frontier]
            if full.any():
                for row in frontier[full]:
                    self._relocate_row(int(row), 1)
            positions = row_start[frontier] + row_len[frontier]
            self._arena_partner[positions] = merged
            self._arena_count[positions] = frontier_counts
            self._arena_neg[positions] = frontier_negs
            row_len[frontier] += 1
            counters["appended_cells"] += frontier_size

            # Best maintenance, batched.  A new pair strictly beating the
            # standing best wins (ties keep the incumbent: a new pair ranks
            # last, as in the reference's local heaps); otherwise a cluster
            # whose incumbent just died merely turns stale — its bound
            # stays in ``best_neg`` and the replacement is computed lazily
            # in the selection scan, so clusters that merge away first
            # never pay for it.
            improved = frontier_negs < best_neg[frontier]
            improved_rows = frontier[improved]
            best_neg[improved_rows] = frontier_negs[improved]
            best_partner[improved_rows] = merged
            stale[improved_rows] = False
            unimproved_rows = frontier[~improved]
            incumbents = best_partner[unimproved_rows]
            # ``alive[-1]`` (the never-assigned trailing cell) keeps the
            # -1 no-partner sentinel on the stale path.
            died = ~stale[unimproved_rows] & ~alive[incumbents]
            stale[unimproved_rows[died]] = True

        members = self._collect_members(next_id)
        return merge_history, members, stopped_early, dict(counters)

    # ------------------------------------------------------------------ #
    # Final assembly
    # ------------------------------------------------------------------ #
    def _collect_members(self, next_id: int) -> dict[int, list[int]]:
        """Surviving cluster id -> starting-unit ids, by merge-tree walk."""
        n = self.n_points
        members: dict[int, list[int]] = {}
        child_left = self._child_left
        child_right = self._child_right
        alive = self._alive
        for cluster in range(next_id):
            if not alive[cluster]:
                continue
            stack = [cluster]
            points: list[int] = []
            while stack:
                node = stack.pop()
                if node < n:
                    points.append(node)
                else:
                    stack.append(child_left[node])
                    stack.append(child_right[node])
            members[cluster] = points
        return members
