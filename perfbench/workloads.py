"""Workload definitions shared by every process of the benchmark.

Every workload draws Instacart-shaped baskets from
``repro.datasets.market_basket.generate_instacart_baskets`` with the
benchmark's ``--seed``; the pipeline seed is derived from it, so the program
only ever sees the generated baskets.  Heavy imports stay inside the
functions: the batch child times ``import repro`` as part of its set-up.
"""

from __future__ import annotations

import hashlib

N_CLUSTERS = 8
THETA = 0.3
MIN_CLUSTER_SIZE = 2
BATCH_SIZE = 4096


class BatchWorkload:
    """One timed pipeline call on generated in-memory baskets.

    A run times the call on ``inputs`` different inputs derived from the
    seed (:func:`input_seed`): timings, memory and the ARI of one input
    depend on how its segments happen to cluster, and the median over
    several inputs keeps that out of the run-to-run spread.
    """

    def __init__(self, name, n_baskets, sample_size, mode, inputs, shard_workers=None):
        self.name = name
        self.n_baskets = n_baskets
        self.sample_size = sample_size
        self.mode = mode
        self.inputs = inputs
        self.shard_workers = shard_workers

    def call(self, pipeline, transactions):
        """The one timed call; returns the pipeline's result."""
        if self.mode == "run":
            return pipeline.run(transactions)
        if self.mode == "run_streaming":
            return pipeline.run_streaming(transactions, batch_size=BATCH_SIZE)
        return pipeline.run_sharded(
            transactions,
            n_shards=8,
            shard_workers=self.shard_workers,
            batch_size=BATCH_SIZE,
        )


BATCH_WORKLOADS = {
    workload.name: workload
    for workload in (
        BatchWorkload("stream-100k", 100_000, 4000, "run_streaming", 2),
        BatchWorkload("shard-16k", 16_000, None, "run_sharded", 4, shard_workers=2),
        BatchWorkload("inmem-40k", 40_000, 2000, "run", 4),
    )
}

#: A run's ``ari_truth`` (the mean over its inputs) must reach this.  One
#: input can fall to ~0.34 when its segments merge (a 200-basket serve
#: session) while the lowest run mean seen is 0.71: the floor catches
#: approximate shortcuts, not unlucky inputs.
ARI_FLOOR = 0.4

#: serve-mixed: sessions per run (each on its own input, like the batch
#: workloads' inputs), bootstrap size, ingest traffic and label-read rate.
SERVE_SESSIONS = 4
SERVE_BOOTSTRAP = 2000
SERVE_INGEST_BATCHES = 25
SERVE_INGEST_BATCH = 8
SERVE_LABEL_RATE = 200.0


def input_seed(seed: int, index: int) -> int:
    """The generator seed of a run's ``index``-th input (0 is ``seed``)."""
    return int(seed) + 100_003 * int(index)


def pipeline_seed(seed: int) -> int:
    """The pipeline's RNG seed, derived from the benchmark seed."""
    return (int(seed) * 7919 + 104_729) % (2**31 - 1)


def make_baskets(n_baskets: int, seed: int):
    """``n_baskets`` Instacart-shaped baskets with their segment labels."""
    from repro.datasets.market_basket import generate_instacart_baskets

    return generate_instacart_baskets(n_transactions=n_baskets, rng=int(seed))


def serve_baskets(seed: int):
    """serve-mixed baskets: the bootstrap set first, then the wire ingests."""
    n_ingested = SERVE_INGEST_BATCHES * SERVE_INGEST_BATCH
    return make_baskets(SERVE_BOOTSTRAP + n_ingested, seed)


def make_pipeline(sample_size, seed: int):
    """The pipeline every workload runs, seeded from the benchmark seed."""
    from repro.core.pipeline import RockPipeline

    return RockPipeline(
        n_clusters=N_CLUSTERS,
        theta=THETA,
        sample_size=sample_size,
        min_cluster_size=MIN_CLUSTER_SIZE,
        rng=pipeline_seed(seed),
    )


def bootstrap_session(bootstrap_baskets, seed: int):
    """The online session serve-mixed serves (and its replay rebuilds)."""
    pipeline = make_pipeline(None, seed)
    pipeline.run_online(bootstrap_baskets, batch_size=BATCH_SIZE)
    return pipeline.online_session


def label_digest(labels) -> str:
    """A short digest of a label sequence, for run-to-run identity checks."""
    import numpy as np

    data = np.asarray(labels, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def ari(labels, truth) -> float:
    """Adjusted Rand index of ``labels`` against the generator's segments."""
    from repro.evaluation.metrics import adjusted_rand_index

    return float(adjusted_rand_index(list(labels), list(truth)))
