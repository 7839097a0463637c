"""Shared fixtures for the test suite.

Also registers the pinned hypothesis profile CI runs under
(``HYPOTHESIS_PROFILE=ci``): examples are derandomized (a fixed seed, so
every run explores the same cases — no flaky shrink sessions on shared
runners) and the per-example deadline is disabled (CI hardware jitter must
not fail a property that passes locally).  The default profile stays
untouched for local runs.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import settings

from repro.core import sharding
from repro.data.dataset import CategoricalDataset, TransactionDataset
from repro.datasets.mushroom import generate_mushroom_like
from repro.datasets.votes import generate_votes_like

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def two_group_transactions() -> list[frozenset]:
    """Six baskets forming two obvious groups of three."""
    return [
        frozenset({1, 2, 3}),
        frozenset({1, 2, 4}),
        frozenset({1, 3, 4}),
        frozenset({7, 8, 9}),
        frozenset({7, 8, 10}),
        frozenset({7, 9, 10}),
    ]


@pytest.fixture
def two_group_labels() -> list[str]:
    """Ground truth for :func:`two_group_transactions`."""
    return ["a", "a", "a", "b", "b", "b"]


@pytest.fixture
def small_categorical_dataset() -> CategoricalDataset:
    """A tiny labelled categorical dataset with one missing value."""
    records = [
        ("y", "n", "y"),
        ("y", "n", "n"),
        ("y", None, "y"),
        ("n", "y", "n"),
        ("n", "y", "y"),
    ]
    labels = ["r", "r", "r", "d", "d"]
    return CategoricalDataset(records, attribute_names=["v1", "v2", "v3"], labels=labels)


@pytest.fixture
def small_transaction_dataset(two_group_transactions, two_group_labels) -> TransactionDataset:
    """The two-group baskets wrapped in a TransactionDataset."""
    return TransactionDataset(two_group_transactions, labels=two_group_labels)


@pytest.fixture(scope="session")
def votes_small() -> CategoricalDataset:
    """A small synthetic Votes data set (fast but structurally faithful)."""
    return generate_votes_like(n_republicans=40, n_democrats=60, rng=7)


@pytest.fixture(scope="session")
def mushroom_small():
    """A small synthetic Mushroom data set with its latent group labels."""
    return generate_mushroom_like(
        group_sizes_edible=(40, 25, 15, 10),
        group_sizes_poisonous=(35, 30, 20, 5),
        rng=11,
        return_groups=True,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def process_pools(monkeypatch) -> list[int]:
    """The worker count of every process pool the sharding module makes."""
    pools: list[int] = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sharding, "ProcessPoolExecutor", CountingPool)
    return pools
