"""One validated set of ROCK model parameters, shared by every composite.

:class:`RockConfig` holds what the phases of the paper's pipeline read:
``k``, ``theta``, the similarity measure, the goodness exponent
``f(theta)``, the labelling fraction and the outlier knobs.  The pipeline,
the online session and the summary merge each build one from their
keyword arguments and pass it down whole: the shard task is
``functools.partial(cluster_shard, config)``, every labeller is made from
it, and a checkpoint's session config is derived from it.  The config is
frozen, and it pickles whenever its measure and f do.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.goodness import ExponentFunction, default_expected_links_exponent
from repro.core.labeling import StreamingLabeler, validate_labeling_fraction
from repro.core.neighbors.graph import validate_theta
from repro.errors import ConfigurationError, SnapshotConfigMismatchError
from repro.similarity.base import SetSimilarity
from repro.similarity.jaccard import JaccardSimilarity

#: The fields a checkpoint's session config records by value.
_SESSION_FIELDS = (
    "n_clusters", "theta", "labeling_fraction", "assign_outliers", "include_self_links"
)


def check_session_config(
    recorded: dict, requested: dict, keys: Iterable[str], source: str = "the session state"
) -> None:
    """Refuse to restore ``source``, whose ``recorded`` session config
    differs from the ``requested`` one on any of ``keys``
    (:class:`~repro.errors.SnapshotConfigMismatchError` naming them).  A
    recorded config without ``exponent`` (written before the key existed)
    skips that key."""
    differing = sorted(
        key
        for key in keys
        if recorded.get(key) != requested.get(key)
        and (key in recorded or key != "exponent")
    )
    if differing:
        raise SnapshotConfigMismatchError(
            "%s was written under a different session configuration "
            "(mismatched: %s); resume with the original parameters or start "
            "a fresh snapshot directory"
            % (source, ", ".join(
                "%s (recorded %r != requested %r)"
                % (key, recorded.get(key), requested.get(key))
                for key in differing
            ))
        )


def _at_least(name: str, value: int, bound: int) -> int:
    if int(value) < bound:
        raise ConfigurationError("%s must be at least %d, got %r" % (name, bound, value))
    return int(value)


@dataclass(frozen=True)
class RockConfig:
    """The model parameters of one ROCK run, each bound checked once.

    The keywords are :class:`~repro.core.pipeline.RockPipeline`'s without
    ``sample_size`` and ``rng``.  An out-of-range value raises
    :class:`~repro.errors.ConfigurationError`, also through
    :func:`dataclasses.replace`; ``measure=None`` resolves to Jaccard and
    ``exponent_function=None`` to the paper's f.
    """

    n_clusters: int
    theta: float
    measure: SetSimilarity
    exponent_function: ExponentFunction
    labeling_fraction: float
    assign_outliers: bool
    include_self_links: bool
    min_neighbors: int
    min_cluster_size: int
    strict: bool

    def __init__(
        self,
        n_clusters: int,
        theta: float = 0.5,
        measure: SetSimilarity | None = None,
        exponent_function: ExponentFunction | None = None,
        labeling_fraction: float = 1.0,
        assign_outliers: bool = True,
        include_self_links: bool = True,
        min_neighbors: int = 0,
        min_cluster_size: int = 1,
        strict: bool = False,
    ) -> None:
        resolved = {
            "n_clusters": _at_least("n_clusters", n_clusters, 1),
            "theta": validate_theta(theta),
            "measure": JaccardSimilarity() if measure is None else measure,
            "exponent_function": (
                default_expected_links_exponent if exponent_function is None else exponent_function
            ),
            "labeling_fraction": validate_labeling_fraction(labeling_fraction),
            "assign_outliers": bool(assign_outliers),
            "include_self_links": bool(include_self_links),
            "min_neighbors": _at_least("min_neighbors", min_neighbors, 0),
            "min_cluster_size": _at_least("min_cluster_size", min_cluster_size, 1),
            "strict": bool(strict),
        }
        for name, value in resolved.items():
            object.__setattr__(self, name, value)

    def labeler(
        self, sample: Sequence[frozenset], clusters: Sequence[Sequence[int]],
        rng: np.random.Generator, item_index: dict | None,
    ) -> StreamingLabeler:
        """A labeller of ``clusters`` (indices into ``sample``) under this config."""
        return StreamingLabeler(
            sample, clusters, theta=self.theta, measure=self.measure,
            exponent_function=self.exponent_function, labeling_fraction=self.labeling_fraction,
            rng=rng, item_index=item_index, assign_outliers=self.assign_outliers,
        )

    def restored_labeler(self, state: dict) -> StreamingLabeler:
        """The labeller ``state`` (:meth:`StreamingLabeler.state`) captured."""
        return StreamingLabeler.from_state(
            state, theta=self.theta, measure=self.measure,
            exponent_function=self.exponent_function, assign_outliers=self.assign_outliers,
        )

    def session_dict(self, refresh_threshold: float | None) -> dict[str, Any]:
        """The JSON-compatible session config a checkpoint records: the
        session fields, the measure's name, ``exponent`` = ``f(theta)``
        (the only value of f a session evaluates) and the threshold."""
        return {
            **{name: getattr(self, name) for name in _SESSION_FIELDS},
            "measure": getattr(self.measure, "name", type(self.measure).__name__),
            "exponent": float(self.exponent_function(self.theta)),
            "refresh_threshold": refresh_threshold,
        }

    @classmethod
    def from_session_dict(
        cls,
        recorded: dict,
        measure: SetSimilarity | None,
        exponent_function: ExponentFunction | None,
    ) -> RockConfig:
        """The config of a recorded :meth:`session_dict` under the caller's
        measure and f (code, not data)."""
        fields = {name: recorded[name] for name in _SESSION_FIELDS}
        return cls(**fields, measure=measure, exponent_function=exponent_function)
