"""Toy vectorizable measures shared by the exactness tests.

Each one stresses a corner of the exact overlap kernel
(:mod:`repro.core.neighbors.vectorized`) that the four built-in measures
never reach.
"""

import numpy as np


class ShiftedOverlap:
    """Toy monotone measure ``(overlap + 1) / (min size + 1)``: it is
    positive at overlap 0, so small sets get a zero threshold even when
    they intersect, and disjoint sets can be neighbours."""

    name = "shifted-overlap"

    def __call__(self, left, right):
        return (len(left & right) + 1) / (min(len(left), len(right)) + 1)

    def similarity_from_counts(self, intersection, size_left, size_right):
        smaller = np.minimum(np.asarray(size_left), np.asarray(size_right))
        return (np.asarray(intersection) + 1) / (smaller + 1)


class OverlapRule:
    """Toy vectorizable measure of the overlap alone: 1.0 where
    ``rule(overlap)`` holds for two non-empty sets, else 0.0."""

    def __init__(self, name, rule):
        self.name = name
        self.rule = rule

    def __call__(self, left, right):
        return float(bool(left and right) and self.rule(len(left & right)))

    def similarity_from_counts(self, intersection, size_left, size_right):
        both = (np.asarray(size_left) > 0) & (np.asarray(size_right) > 0)
        return np.where(both & self.rule(np.asarray(intersection)), 1.0, 0.0)


def overlap_is_zero(overlap):
    """The "disjoint-only" rule at module level, so an :class:`OverlapRule`
    of it pickles (a process shard worker can receive it)."""
    return overlap == 0


#: Non-monotone rules, each caught by a different spot check of the
#: threshold table.
NON_MONOTONE_RULES = [
    # Falls as the overlap grows: only the check at overlap 0 sees it.
    ("disjoint-only", lambda overlap: overlap == 0),
    # Rises then falls: the check at the largest overlap sees it.
    ("exactly-one", lambda overlap: overlap == 1),
]
