"""Core ROCK machinery: neighbours, links, goodness, heaps and the algorithm.

The modules follow the structure of the ROCK paper:

* :mod:`repro.core.neighbors` — thresholded similarity graph (Section 3.1),
  built through a pluggable backend registry (bruteforce / blocked,
  bit-identical);
* :mod:`repro.core.links` — link (common-neighbour) computation (Section 3.2
  and the ``compute_links`` procedure of Section 4);
* :mod:`repro.core.goodness` — criterion function and goodness measure
  (Sections 3.3 and 3.4);
* :mod:`repro.core.heaps` — the local/global heap machinery of the
  agglomerative procedure (Section 4.1);
* :mod:`repro.core.rock` — the agglomerative clustering algorithm itself;
* :mod:`repro.core.engines` — the agglomeration-engine registry
  (``arena`` / ``reference``, bit-identical, ``auto`` selection);
* :mod:`repro.core.engine_arena` — the arena-backed batch-recompute
  engine (``engine="arena"``, what ``auto`` resolves to), also the merge
  loop of the online frontier and the sharded summary merge;
* :mod:`repro.core.sampling` — Chernoff-bound random sampling (Section 4.3);
* :mod:`repro.core.labeling` — labelling of disk-resident points
  (Section 4.4);
* :mod:`repro.core.outliers` — outlier handling (Section 4.5);
* :mod:`repro.core.sharding` — sharded clustering: shard plans, parallel
  per-shard clustering and the summary-merge agglomeration;
* :mod:`repro.core.incremental` — online ingest: a live clustering that
  accepts new points in batches (splice + frontier re-agglomeration +
  drift-triggered refresh);
* :mod:`repro.core.pipeline` — the end-to-end sample/cluster/label pipeline
  (in-memory, streaming, sharded and online entry points);
* :mod:`repro.core.config` — the validated model parameters every
  composite above shares.
"""

from repro.core.config import RockConfig
from repro.core.goodness import (
    criterion_function,
    default_expected_links_exponent,
    expected_pairwise_links,
    goodness,
    theta_power,
)
from repro.core.engine_arena import ArenaAgglomerationEngine, arena_agglomerate
from repro.core.engines import (
    AgglomerationEngine,
    AgglomerationRun,
    available_engines,
    engine_choices,
    get_engine,
    register_engine,
)
from repro.core.heaps import AddressableMaxHeap
from repro.core.incremental import (
    IncrementalRock,
    IngestResult,
    validate_refresh_threshold,
)
from repro.core.labeling import (
    LabelingResult,
    StreamingLabeler,
    StreamingLabelingResult,
    label_points,
    label_points_streaming,
)
from repro.core.links import compute_links, links_from_neighbors
from repro.core.neighbors import (
    NEIGHBOR_STRATEGIES,
    NeighborBackend,
    NeighborGraph,
    available_backends,
    compute_neighbors,
    get_backend,
    register_backend,
)
from repro.core.outliers import drop_small_clusters, isolated_point_mask
from repro.core.pipeline import (
    RockPipeline,
    RockPipelineResult,
    cluster_shard,
    rock_cluster,
)
from repro.core.rock import ENGINES, RockClustering, RockResult
from repro.core.sampling import chernoff_sample_size, draw_sample, reservoir_sample
from repro.core.sharding import (
    DEFAULT_SHARD_STRATEGY,
    PROCESS_SHARD_EXECUTOR,
    SHARD_EXECUTORS,
    SHARD_STRATEGIES,
    THREAD_SHARD_EXECUTOR,
    ShardClusterResult,
    ShardPlan,
    ShardRunResults,
    SummaryMergeResult,
    allocate_sample_sizes,
    cluster_shards,
    merge_shard_summaries,
    resolve_shard_executor,
    stable_shard_hash,
)

__all__ = [
    "RockConfig",
    "criterion_function",
    "default_expected_links_exponent",
    "expected_pairwise_links",
    "goodness",
    "theta_power",
    "AddressableMaxHeap",
    "IncrementalRock",
    "IngestResult",
    "validate_refresh_threshold",
    "ENGINES",
    "AgglomerationEngine",
    "AgglomerationRun",
    "ArenaAgglomerationEngine",
    "arena_agglomerate",
    "available_engines",
    "engine_choices",
    "get_engine",
    "register_engine",
    "LabelingResult",
    "StreamingLabeler",
    "StreamingLabelingResult",
    "label_points",
    "label_points_streaming",
    "compute_links",
    "links_from_neighbors",
    "NEIGHBOR_STRATEGIES",
    "NeighborBackend",
    "NeighborGraph",
    "available_backends",
    "compute_neighbors",
    "get_backend",
    "register_backend",
    "drop_small_clusters",
    "isolated_point_mask",
    "RockPipeline",
    "RockPipelineResult",
    "cluster_shard",
    "rock_cluster",
    "RockClustering",
    "RockResult",
    "chernoff_sample_size",
    "draw_sample",
    "reservoir_sample",
    "DEFAULT_SHARD_STRATEGY",
    "PROCESS_SHARD_EXECUTOR",
    "SHARD_EXECUTORS",
    "SHARD_STRATEGIES",
    "THREAD_SHARD_EXECUTOR",
    "ShardClusterResult",
    "ShardPlan",
    "ShardRunResults",
    "SummaryMergeResult",
    "allocate_sample_sizes",
    "cluster_shards",
    "merge_shard_summaries",
    "resolve_shard_executor",
    "stable_shard_hash",
]
