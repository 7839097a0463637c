"""Tests for repro.core.cpu_pool: who may use the shared CPU pool, and what
survives a fork.

Both callers, the link product and the labelling kernel, reach the pool
through :func:`cpu_pool`; their own suites check that pooled work equals
the inline path.
"""

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.core.cpu_pool as cpu_pool_module
import repro.core.labeling as labeling_module
import repro.core.links as links_module
from repro.core.labeling import StreamingLabeler
from repro.core.links import links_from_neighbors
from repro.core.neighbors import compute_neighbors
from repro.datasets.market_basket import generate_market_baskets


def test_the_pool_is_shared_and_sized_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(cpu_pool_module, "_pool", None)
    monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 3)
    first = cpu_pool_module.cpu_pool()
    second = cpu_pool_module.cpu_pool()
    assert first is second
    pool, workers = first
    assert workers == 3
    pool.shutdown()


def test_both_callers_reach_the_same_pool(monkeypatch):
    monkeypatch.setattr(cpu_pool_module, "_pool", None)
    monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 2)
    shared = links_module._link_pool(links_module._POOL_MIN_MULTIPLY_ADDS)
    assert shared is not None
    assert labeling_module.cpu_pool() is shared
    shared[0].shutdown()


def test_no_pool_on_one_cpu(monkeypatch):
    monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 1)
    assert cpu_pool_module.cpu_pool() is None


def test_no_pool_off_the_main_thread(monkeypatch):
    monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 2)
    with ThreadPoolExecutor(max_workers=1) as executor:
        chosen = executor.submit(cpu_pool_module.cpu_pool).result()
    assert chosen is None


def test_no_pool_in_a_multiprocessing_child(monkeypatch):
    monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert cpu_pool_module.cpu_pool() is None


def _labelling_case():
    """A sample clustered by its generator segments and a batch that spans
    several row blocks of the dense kernel form."""
    data = generate_market_baskets(n_transactions=260, rng=7, n_clusters=4)
    sample, batch = data.transactions[:200], data.transactions[200:]
    segments = np.asarray(data.labels[:200])
    clusters = [np.flatnonzero(segments == s).tolist() for s in np.unique(segments)]
    return sample, clusters, batch


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_completes_pooled_work(monkeypatch):
    """The pool's threads do not survive a fork: a raw ``os.fork()`` child
    drops the inherited pool, makes its own and finishes a pooled link
    product and a pooled label batch."""
    monkeypatch.setattr(links_module, "_POOL_MIN_MULTIPLY_ADDS", 0)
    monkeypatch.setattr(cpu_pool_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cpu_pool_module, "_pool", None)
    baskets = generate_market_baskets(n_transactions=150, rng=3, n_clusters=4)
    graph = compute_neighbors(baskets.transactions, theta=0.3)
    expected = links_from_neighbors(graph)
    sample, clusters, batch = _labelling_case()
    labeler = StreamingLabeler(sample, clusters, theta=0.3)
    assert labeler._dense_form
    # Eight points per serial block: the batch spans several of them.
    monkeypatch.setattr(labeling_module, "BLOCK_CELLS", 8 * len(sample))
    expected_counts = labeler.label_batch(batch).neighbor_counts
    parent_pool = cpu_pool_module._pool
    assert parent_pool is not None  # the parent's pool exists and has run
    with warnings.catch_warnings():
        # Python 3.12+ warns that forking a multi-threaded process may
        # deadlock the child: that hazard is what this test covers.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            inherited = cpu_pool_module._pool
            result = links_from_neighbors(graph)
            same = all(
                np.array_equal(getattr(result, name), getattr(expected, name))
                for name in ("indptr", "indices", "data")
            )
            counts = labeler.label_batch(batch).neighbor_counts
            if (
                inherited is None
                and cpu_pool_module._pool is not None
                and same
                and np.array_equal(counts, expected_counts)
            ):
                code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on the pooled work")
        time.sleep(0.05)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    parent_pool[0].shutdown()
