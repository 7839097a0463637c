"""Pluggable agglomeration-engine registry (mirrors the neighbour registry).

The neighbour phase went through this exact evolution in PR 4: a frozen
brute-force spec, faster bit-identical implementations, and an ``auto``
selector, all behind ``repro.core.neighbors.base``.  This module gives the
agglomeration phase the same shape:

* ``reference`` — the paper's Section 4.1 pseudo-code transcription living
  in :class:`repro.core.rock.RockClustering` (SPEC001-pinned, never
  optimised): the spec every other engine is tested against.
* ``arena`` — the batch-recompute engine (:mod:`repro.core.engine_arena`):
  heap-free eager best tracking over preallocated growable scratch arenas.
  It is the package's one merge loop beside the spec: the online frontier
  and the sharded summary merge call
  :func:`~repro.core.engine_arena.arena_agglomerate` too, with weighted
  starting clusters (``sizes=``), which the reference cannot express.

Every registered engine satisfies the same **bit-identity contract**: given
the same link matrix it produces the identical :class:`~repro.types.MergeStep`
history (including tie-break order and early-stop behaviour) and the
identical surviving membership.  ``auto`` resolves to the fastest
bit-identical engine (currently ``arena``); engines with weaker contracts
must not be registered here.

Engine names are registry data: string literals for them belong in this
module (and the modules they name) only — the REG001 lint rule rejects
dispatch-position literals anywhere else under ``src/repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from scipy import sparse

    from repro.core.goodness import ExponentFunction
    from repro.types import MergeStep

#: Registry keyword that defers the engine choice to
#: :func:`select_engine_name`.
AUTO_ENGINE = "auto"

#: Canonical registered names.  Exported so call sites dispatch on the
#: constants rather than re-spelling the literals (REG001).
REFERENCE_ENGINE = "reference"
ARENA_ENGINE = "arena"

#: Default engine for every user-facing surface (``RockClustering``,
#: ``RockPipeline``, ``IncrementalRock``, the CLI).  ``auto`` so call sites
#: track the fastest bit-identical engine without code changes.
DEFAULT_ENGINE = AUTO_ENGINE


@dataclass
class AgglomerationRun:
    """What one agglomeration run produced.

    ``merge_history`` and ``members`` follow the
    :func:`repro.core.engine_arena.arena_agglomerate` contract exactly;
    ``counters`` carries engine-specific merge-loop observability (empty
    for engines that do not instrument themselves).
    """

    merge_history: list["MergeStep"]
    members: dict[int, list[int]]
    stopped_early: bool
    counters: dict[str, int | float] = field(default_factory=dict)


class AgglomerationEngine(Protocol):
    """Contract every registered engine implements."""

    #: Registry name the engine was registered under.
    name: str

    def agglomerate(
        self,
        links: "sparse.spmatrix",
        n_points: int,
        n_clusters: int,
        theta: float,
        exponent_function: "ExponentFunction | None" = None,
    ) -> AgglomerationRun:
        """Run one agglomeration; bit-identical across engines."""
        ...


_REGISTRY: dict[str, AgglomerationEngine] = {}


def normalize_engine_name(name: str) -> str:
    """Lower-case and hyphenate an engine name for lookup."""
    return name.strip().lower().replace("_", "-")


def register_engine(engine: AgglomerationEngine) -> AgglomerationEngine:
    """Add an engine to the registry under ``engine.name``.

    Raises :class:`~repro.errors.ConfigurationError` on an empty or
    already-registered name — duplicate registrations are always a
    programming error, never something to resolve silently.
    """
    name = normalize_engine_name(engine.name)
    if not name:
        raise ConfigurationError("engine name must be a non-empty string")
    if name == AUTO_ENGINE:
        raise ConfigurationError(
            "engine name %r is reserved for automatic selection" % AUTO_ENGINE
        )
    if name in _REGISTRY:
        raise ConfigurationError("engine %r is already registered" % name)
    _REGISTRY[name] = engine
    return engine


def available_engines() -> list[str]:
    """Registered engine names, in registration order."""
    return list(_REGISTRY)


def engine_choices() -> list[str]:
    """Every accepted ``engine=`` value: ``auto`` plus the registry."""
    return [AUTO_ENGINE] + available_engines()


def get_engine(name: str) -> AgglomerationEngine:
    """Look up a registered engine by (normalised) name."""
    key = normalize_engine_name(name)
    if key not in _REGISTRY:
        raise ConfigurationError(
            "unknown agglomeration engine %r; expected one of %s"
            % (name, ", ".join(engine_choices()))
        )
    return _REGISTRY[key]


def validate_engine_name(name: str) -> str:
    """Normalise ``name`` and confirm it is ``auto`` or registered."""
    key = normalize_engine_name(name)
    if key != AUTO_ENGINE:
        get_engine(key)
    return key


#: Engines no longer registered whose checkpoints still restore: each ran
#: the merge semantics every registered engine reproduces bit-identically.
_RETIRED_ENGINES = frozenset({"flat"})


def restored_engine_name(recorded: str | None) -> str:
    """The engine a session restored from durable state runs under.

    Checkpoints written before the registry record no engine, and ones
    written under a retired engine record a name the registry no longer
    holds; both resume under :data:`DEFAULT_ENGINE`.  Any other name is
    returned unchanged (and validated where the session is built).
    """
    if recorded is None or normalize_engine_name(recorded) in _RETIRED_ENGINES:
        return DEFAULT_ENGINE
    return recorded


def select_engine_name() -> str:
    """Resolve ``auto`` to a concrete engine.

    Every registered engine is bit-identical, so ``auto`` simply picks the
    fastest one: the arena engine beats the pure-Python reference spec at
    every size in ``BENCH_engine.json`` (~6x at n=500, ~23x at n=2000).
    """
    return ARENA_ENGINE


def resolve_engine_name(name: str) -> str:
    """Map a user-supplied engine value to a registered engine name."""
    key = validate_engine_name(name)
    if key == AUTO_ENGINE:
        return select_engine_name()
    return key


# --------------------------------------------------------------------- #
# Registered engines.  Adapters import their implementation modules
# lazily so this registry can be imported from anywhere in repro.core
# without cycles.
# --------------------------------------------------------------------- #
class _ReferenceEngineAdapter:
    """The paper-transcription engine (SPEC001-pinned, never optimised)."""

    name = REFERENCE_ENGINE

    def agglomerate(
        self,
        links: "sparse.spmatrix",
        n_points: int,
        n_clusters: int,
        theta: float,
        exponent_function: "ExponentFunction | None" = None,
    ) -> AgglomerationRun:
        from scipy import sparse as sparse_module

        from repro.core.rock import RockClustering

        model = RockClustering(
            n_clusters=n_clusters,
            theta=theta,
            engine=self.name,
            exponent_function=exponent_function,
        )
        result = model._agglomerate_reference(
            sparse_module.csr_matrix(links), int(n_points)
        )
        members = {
            index: list(cluster) for index, cluster in enumerate(result.clusters)
        }
        return AgglomerationRun(
            result.merge_history, members, result.stopped_early
        )


class _ArenaEngineAdapter:
    """The batch-recompute arena engine (heap-free, vectorised)."""

    name = ARENA_ENGINE

    def agglomerate(
        self,
        links: "sparse.spmatrix",
        n_points: int,
        n_clusters: int,
        theta: float,
        exponent_function: "ExponentFunction | None" = None,
    ) -> AgglomerationRun:
        from repro.core.engine_arena import arena_agglomerate

        merge_history, members, stopped_early, counters = arena_agglomerate(
            links, n_points, n_clusters, theta, exponent_function
        )
        return AgglomerationRun(merge_history, members, stopped_early, counters)


register_engine(_ReferenceEngineAdapter())
register_engine(_ArenaEngineAdapter())
