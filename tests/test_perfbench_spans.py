"""The end-to-end benchmark's tracer must keep finding what it wraps.

``perfbench/spans.py`` (``--trace 1``) wraps library callables at the
names their callers look up, e.g. ``repro.core.incremental.compute_neighbors``.
Renaming or removing one of those names breaks traced benchmark runs but
nothing else, so these tests install the tracer against the package and
fail on the rename instead.
"""

import importlib.util
import multiprocessing
from pathlib import Path

import pytest

from repro.core import sharding
from repro.core.incremental import IncrementalRock
from repro.core.pipeline import RockPipeline
from repro.datasets.market_basket import generate_market_baskets

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans):
    for module_name, attribute, *_ in spans.SPAN_TARGETS + spans.CHOICE_TARGETS:
        owner, leaf = spans._resolve(module_name, attribute)
        yield "%s.%s" % (module_name, attribute), owner, leaf


def test_install_wraps_every_target_and_restore_undoes_it(spans):
    originals = {name: vars(owner)[leaf] for name, owner, leaf in _targets(spans)}
    restore = spans.install(spans.SpanRecorder())
    try:
        wrapped = {name: vars(owner)[leaf] for name, owner, leaf in _targets(spans)}
    finally:
        restore()
    assert all(wrapped[name] is not originals[name] for name in originals)
    restored = {name: vars(owner)[leaf] for name, owner, leaf in _targets(spans)}
    assert all(restored[name] is originals[name] for name in originals)


def test_traced_online_session_records_its_layers(spans):
    bootstrap = [frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({7, 8, 9})]
    recorder = spans.SpanRecorder()
    restore = spans.install(recorder)
    try:
        session = IncrementalRock(n_clusters=2, theta=0.3, rng=0)
        session.bootstrap(bootstrap, [[0, 1], [2]])
        session.ingest([frozenset({1, 3}), frozenset({8, 9})])
        session.refresh()
    finally:
        restore()
    metrics = spans.layer_metrics(recorder)
    for layer in ("incremental.bootstrap", "incremental.ingest", "links.compute"):
        assert layer in recorder.names
    assert metrics["neighbors.edges"] > 0
    assert metrics["links.nnz"] > 0


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
@pytest.mark.parametrize("shard_workers, executor", [(1, "thread"), (2, "process")])
def test_traced_shard_executor_choice_is_what_ran(
    spans, monkeypatch, process_pools, shard_workers, executor
):
    # The executor left out, the choice the tracer records is the pool the
    # run made: threads for one worker, forked processes for two.
    monkeypatch.setattr(sharding, "_start_method", lambda: "fork")
    baskets = generate_market_baskets(n_transactions=120, rng=0, n_clusters=2)
    recorder = spans.SpanRecorder()
    restore = spans.install(recorder)
    try:
        result = RockPipeline(n_clusters=2, theta=0.5, rng=0).run_sharded(
            baskets.transactions, n_shards=2, shard_workers=shard_workers
        )
    finally:
        restore()
    assert dict(recorder.choices["shard_executor"]) == {executor: 1}
    assert result.parameters["shard_executor"] == executor
    assert process_pools == ([shard_workers] if executor == "process" else [])
