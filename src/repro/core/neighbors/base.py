"""Neighbour-backend protocol and registry.

A *neighbour backend* is a named strategy for building the thresholded
adjacency matrix of a point set.  Backends register themselves here by
name; :func:`repro.core.neighbors.compute_neighbors` resolves the
requested strategy through :func:`get_backend` and delegates construction
to it.  The registry is what the CLI and pipeline strategy knobs
enumerate, so adding a backend is one ``register_backend`` call — no layer
above needs to change.

Every backend must produce a **bit-identical** adjacency to the
brute-force reference on the same inputs; the cross-backend equivalence
suite enforces that over a theta grid, empty/duplicate transactions and
every vectorizable measure.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import Protocol, runtime_checkable

from scipy import sparse

from repro.errors import ConfigurationError
from repro.similarity.base import SetSimilarity, supports_vectorized_counts

#: Strategy name that defers backend selection to :func:`select_backend_name`.
AUTO_STRATEGY = "auto"

#: Default strategy of every public entry point.
DEFAULT_NEIGHBOR_STRATEGY = AUTO_STRATEGY

#: Row-block height of the blocked backend when none is requested.
DEFAULT_BLOCK_SIZE = 512

#: Point count at which ``auto`` starts considering the inverted index at
#: all.  Below it the blocked product is fast regardless of sparsity, so
#: the posting-list statistics pass is not worth running.
AUTO_INVERTED_MIN_POINTS = 2048

#: Candidate-pair density at or below which ``auto`` picks the inverted
#: index over the blocked product.  The inverted index's work scales with
#: the squared posting-list lengths (the candidate mass), not with
#: ``n^2``: when the posting lists generate candidates for at most this
#: fraction of all unordered pairs — a sparse, rare-item workload — it
#: skips almost every pair, while the matmul backends still pay the block
#: scheduling over all rows.  Dense tight-cluster workloads sit far above
#: this bound and keep the blocked product.
AUTO_INVERTED_MAX_DENSITY = 0.02


@runtime_checkable
class NeighborBackend(Protocol):
    """Protocol implemented by all neighbour-graph construction backends.

    Backends may additionally set a ``capability_hint`` string describing
    what ``supports`` demands of a measure; the dispatcher appends it to
    the capability-mismatch error so a third-party backend can explain its
    own requirement (the built-in fast backends use
    :data:`VECTORIZED_CAPABILITY_HINT`).
    """

    #: Registry name (also the public strategy string).
    name: str

    def supports(self, measure: SetSimilarity) -> bool:
        """Whether this backend can evaluate ``measure``."""
        ...  # pragma: no cover - protocol definition

    def build_adjacency(
        self,
        transactions: list[frozenset],
        theta: float,
        measure: SetSimilarity,
        item_index: dict | None = None,
        block_size: int | None = None,
    ) -> sparse.csr_matrix:
        """Build the boolean CSR adjacency under ``theta``.

        ``item_index`` optionally shares a pre-built item-to-column index;
        ``block_size`` is only meaningful to blocked construction and is
        ignored by the other backends.
        """
        ...  # pragma: no cover - protocol definition


#: Hint appended to capability-mismatch errors by the backends whose
#: ``supports`` requirement is the vectorized-counts capability.
VECTORIZED_CAPABILITY_HINT = (
    "requires a measure with the vectorized-counts capability "
    "(similarity_from_counts); use strategy='bruteforce' or 'auto'"
)

_REGISTRY: dict[str, NeighborBackend] = {}


def normalize_backend_name(name: str) -> str:
    """Canonical registry key: lower-case, underscores as hyphens."""
    return str(name).strip().lower().replace("_", "-")


def register_backend(backend: NeighborBackend) -> None:
    """Register ``backend`` under its ``name``.

    Re-registering an existing name raises
    :class:`~repro.errors.ConfigurationError` to avoid silent overrides.
    """
    key = normalize_backend_name(getattr(backend, "name", ""))
    if not key:
        raise ConfigurationError("a neighbour backend must have a non-empty name")
    if key in _REGISTRY:
        raise ConfigurationError("neighbour backend %r is already registered" % key)
    _REGISTRY[key] = backend


def available_backends() -> list[str]:
    """Registered backend names, in registration order."""
    return list(_REGISTRY)


def get_backend(name: str) -> NeighborBackend:
    """Resolve a backend by name (case-insensitive, ``_`` == ``-``)."""
    key = normalize_backend_name(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ConfigurationError(
            "unknown neighbour strategy %r; expected one of %s"
            % (name, ", ".join([AUTO_STRATEGY] + available_backends()))
        ) from None


def candidate_pair_density(
    transactions: Sequence[frozenset], n_points: int | None = None
) -> float:
    """Fraction of unordered pairs the posting lists generate as candidates.

    The inverted-index backend enumerates, for every item, the pairs of
    points sharing it; its total work is therefore bounded by the
    *candidate mass* ``sum_i f_i (f_i - 1) / 2`` over the item frequencies
    ``f_i`` (pairs counted once per shared item).  Dividing by the number
    of unordered point pairs gives a scale-free density: ``0`` means no
    two points share an item, values above ``1`` mean the average pair
    shares more than one item (a dense workload where candidate pruning
    cannot win).  One ``O(total items)`` counting pass — cheap next to any
    neighbour computation.
    """
    counts = Counter(item for transaction in transactions for item in transaction)
    n = len(transactions) if n_points is None else int(n_points)
    if n < 2:
        return 0.0
    candidate_mass = sum(count * (count - 1) for count in counts.values()) / 2.0
    return candidate_mass / (n * (n - 1) / 2.0)


def select_backend_name(
    measure: SetSimilarity,
    n_points: int,
    transactions: Sequence[frozenset] | None = None,
) -> str:
    """The backend ``auto`` resolves to for ``measure`` at ``n_points``.

    Measures without the
    :class:`~repro.similarity.base.VectorizedSetSimilarity` capability can
    only be evaluated pair by pair (brute force).  Vectorizable measures
    use the memory-bounded blocked product at every size (against a
    one-shot product over all pairs it measured within 0.3 ms up to
    n=1000, faster from n=1500 on, and never larger in traced peak; see
    ``docs/ARCHITECTURE.md``) — unless ``transactions`` are supplied and
    their posting-list statistics mark the workload as sparse and
    rare-item (:func:`candidate_pair_density` at or below
    :data:`AUTO_INVERTED_MAX_DENSITY` with at least
    :data:`AUTO_INVERTED_MIN_POINTS` points), where the inverted index
    skips almost every pair and wins.  Without ``transactions`` (size-only
    callers) the choice is the blocked product.
    """
    if not supports_vectorized_counts(measure):
        return "bruteforce"
    if (
        transactions is not None
        and n_points >= AUTO_INVERTED_MIN_POINTS
        and candidate_pair_density(transactions, n_points)
        <= AUTO_INVERTED_MAX_DENSITY
    ):
        return "inverted-index"
    return "blocked"


#: Backends no longer registered whose checkpoints still restore: each
#: built the adjacency every registered backend reproduces bit-identically.
_RETIRED_BACKENDS = frozenset({"vectorized"})


def restored_backend_name(recorded: str) -> str:
    """The neighbour strategy a session restored from durable state runs under.

    Checkpoints written under a retired backend record a name the registry
    no longer holds; they resume under :data:`DEFAULT_NEIGHBOR_STRATEGY`.
    Any other name is returned unchanged (and validated where it is used).
    """
    if normalize_backend_name(recorded) in _RETIRED_BACKENDS:
        return DEFAULT_NEIGHBOR_STRATEGY
    return recorded


def validate_block_size(block_size: int | None) -> int:
    """Normalise an optional block size (``None`` -> the default)."""
    if block_size is None:
        return DEFAULT_BLOCK_SIZE
    block_size = int(block_size)
    if block_size < 1:
        raise ConfigurationError(
            "neighbor block_size must be positive, got %r" % block_size
        )
    return block_size
