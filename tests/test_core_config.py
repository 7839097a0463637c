"""Tests for repro.core.config: one validated RockConfig behind every composite.

The pipeline, the online session and the summary merge build one
:class:`RockConfig` from their keyword arguments and pass it down whole, so
each bound is checked in one place and the keyword signatures stay as they
were.
"""

import dataclasses
import inspect
import math
import pickle

import pytest

import repro.core.config as config_module
from repro.core.config import RockConfig
from repro.core.goodness import default_expected_links_exponent
from repro.core.incremental import IncrementalRock
from repro.core.pipeline import RockPipeline, cluster_shard
from repro.core.sharding import merge_shard_summaries
from repro.datasets.market_basket import generate_market_baskets
from repro.errors import ConfigurationError
from repro.similarity.jaccard import DiceSimilarity, JaccardSimilarity

OUT_OF_RANGE = [
    ("n_clusters", 0),
    ("theta", -0.1),
    ("theta", 1.5),
    ("theta", math.nan),
    ("labeling_fraction", 0),
    ("labeling_fraction", 1.5),
    ("min_neighbors", -1),
    ("min_cluster_size", 0),
]


@pytest.mark.parametrize(
    "build, name, value",
    [
        pytest.param(build, name, value, id="%s-%s=%r" % (build.__name__, name, value))
        for build in (RockConfig, RockPipeline, IncrementalRock)
        for name, value in OUT_OF_RANGE
        if name in inspect.signature(build).parameters
    ],
)
def test_out_of_range_value_raises_at_construction(build, name, value):
    with pytest.raises(ConfigurationError, match=name.replace("_", "[_ ]")):
        build(**{"n_clusters": 2, name: value})


def test_replace_is_validated_too():
    config = RockConfig(n_clusters=2)
    with pytest.raises(ConfigurationError, match="n_clusters"):
        dataclasses.replace(config, n_clusters=0)
    assert dataclasses.replace(config, min_neighbors=3).min_neighbors == 3


def test_defaults_resolve_and_values_coerce():
    config = RockConfig(n_clusters=3.0, theta=1, assign_outliers=0, strict=1)
    assert isinstance(config.measure, JaccardSimilarity)
    assert config.exponent_function is default_expected_links_exponent
    assert (config.n_clusters, config.theta) == (3, 1.0)
    assert type(config.n_clusters) is int and type(config.theta) is float
    assert config.assign_outliers is False and config.strict is True
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.theta = 0.2


def _fields_but_measure(config):
    return {name: value for name, value in vars(config).items() if name != "measure"}


def test_config_pickles():
    config = RockConfig(
        n_clusters=3,
        theta=0.4,
        measure=DiceSimilarity(),
        labeling_fraction=0.5,
        assign_outliers=False,
        include_self_links=False,
        min_neighbors=2,
        min_cluster_size=3,
        strict=True,
    )
    restored = pickle.loads(pickle.dumps(config))
    assert _fields_but_measure(restored) == _fields_but_measure(config)
    assert type(restored.measure) is DiceSimilarity


def test_session_config_round_trips_through_the_session_fields():
    config = RockConfig(
        n_clusters=3, theta=0.4, labeling_fraction=0.5, assign_outliers=False
    )
    recorded = config.session_dict(0.25)
    assert recorded == {
        "n_clusters": 3,
        "theta": 0.4,
        "measure": "jaccard",
        "exponent": default_expected_links_exponent(0.4),
        "labeling_fraction": 0.5,
        "assign_outliers": False,
        "include_self_links": True,
        "refresh_threshold": 0.25,
    }
    rebuilt = RockConfig.from_session_dict(recorded, DiceSimilarity(), None)
    assert rebuilt.session_dict(0.25) == dict(recorded, measure="dice")


def test_the_online_session_runs_under_the_pipeline_config():
    baskets = generate_market_baskets(n_transactions=120, rng=0, n_clusters=2)
    pipeline = RockPipeline(n_clusters=2, theta=0.4, sample_size=60, rng=0)
    pipeline.run_online(baskets.transactions, batch_size=32, refresh_threshold=0.5)
    assert pipeline.online_session.config is pipeline.config
    assert pipeline.online_session.config_dict() == pipeline.online_expected_config(0.5)


def _pinned(function):
    return [
        (parameter.name, parameter.default)
        for parameter in inspect.signature(function).parameters.values()
    ]


def test_public_keyword_signatures_unchanged():
    """The config is built behind the public signatures, never added to them."""
    required = inspect.Parameter.empty
    assert _pinned(RockPipeline) == [
        ("n_clusters", required),
        ("theta", 0.5),
        ("sample_size", None),
        ("measure", None),
        ("min_neighbors", 0),
        ("min_cluster_size", 1),
        ("labeling_fraction", 1.0),
        ("exponent_function", None),
        ("assign_outliers", True),
        ("include_self_links", True),
        ("rng", None),
        ("strict", False),
    ]
    assert _pinned(IncrementalRock) == [
        ("n_clusters", required),
        ("theta", 0.5),
        ("measure", None),
        ("exponent_function", None),
        ("labeling_fraction", 1.0),
        ("assign_outliers", True),
        ("include_self_links", True),
        ("refresh_threshold", None),
        ("rng", None),
    ]
    assert _pinned(merge_shard_summaries) == [
        ("pooled_sample", required),
        ("summaries", required),
        ("n_clusters", required),
        ("theta", required),
        ("measure", None),
        ("exponent_function", None),
        ("representatives_per_cluster", 16),
        ("rng", None),
        ("include_self_links", True),
        ("item_index", None),
        ("fan_in", None),
        ("summary_groups", None),
    ]
    assert _pinned(cluster_shard) == [
        ("config", required),
        ("shard_id", required),
        ("sample", required),
        ("positions", required),
    ]
    source = inspect.getsource(config_module)
    assert "environ" not in source and "getenv" not in source
