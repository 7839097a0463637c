"""Neighbour-backend protocol and registry.

A *neighbour backend* is a named strategy for building the thresholded
adjacency matrix of a point set.  Backends register themselves here by
name; :func:`repro.core.neighbors.compute_neighbors` resolves the
requested strategy through :func:`get_backend` and delegates construction
to it.  ``compute_neighbors(strategy=)`` is the one place a caller picks a
backend: every composite (pipeline, online session, summary merge, QROCK)
calls it with ``auto``, so adding a backend is one ``register_backend``
call — no layer above needs to change.

Every backend must produce a **bit-identical** adjacency to the
brute-force reference on the same inputs; the cross-backend equivalence
suite enforces that over a theta grid, empty/duplicate transactions and
every vectorizable measure.
"""

from __future__ import annotations

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


@runtime_checkable
class NeighborBackend(Protocol):
    """Protocol implemented by all neighbour-graph construction backends.

    Backends may additionally set a ``capability_hint`` string describing
    what ``supports`` demands of a measure; the dispatcher appends it to
    the capability-mismatch error so a third-party backend can explain its
    own requirement (the built-in ``blocked`` backend uses
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


def select_backend_name(measure: SetSimilarity) -> str:
    """The backend ``auto`` resolves to for ``measure``.

    Measures without the
    :class:`~repro.similarity.base.VectorizedSetSimilarity` capability can
    only be evaluated pair by pair (brute force); every other measure uses
    the memory-bounded blocked product, at every size and sparsity (see
    ``docs/ARCHITECTURE.md`` for the measurements behind the retired
    alternatives).
    """
    return "blocked" if supports_vectorized_counts(measure) else "bruteforce"


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
