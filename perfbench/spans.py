"""Span recorder and per-layer report for traced runs.

``install`` wraps each layer's public callables at the name its caller
looks up (``repro.core.rock.compute_neighbors``,
``StreamingLabeler.label_batch``, ...).  Every call records a span — name,
start, end, parent — in memory; spans opened on a worker thread with no
open span of their own take the main thread's innermost open span as
parent, so per-shard work nests under ``sharding.cluster_shards``.  The
wrappers also record the concrete choice each ``auto`` resolved to.

A layer's self time is its spans' duration minus the part of each interval
that child spans cover.  Summed per layer that is *busy* time, which counts
overlapping worker spans once per worker; :func:`wall_shares` instead
splits every instant of the root span evenly among the innermost spans
running at that instant, so the shares add up to the root's wall time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict


class SpanRecorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self.threads: list[int] = []
        self.counters: Counter = Counter()
        self.choices: dict[str, Counter] = defaultdict(Counter)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def begin(self, name: str) -> int:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if thread != self._main and main else None
            span = len(self.names)
            self.names.append(name)
            self.parents.append(parent)
            self.threads.append(thread)
            self.ends.append(float("nan"))
            stack.append(span)
            self.starts.append(time.perf_counter())
        return span

    def end(self, span: int) -> None:
        now = time.perf_counter()
        with self._lock:
            self.ends[span] = now
            self._stacks[threading.get_ident()].pop()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def choose(self, kind: str, value: str) -> None:
        with self._lock:
            self.choices[kind][str(value)] += 1

    # ------------------------------------------------------------------ #
    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for span, parent in enumerate(self.parents):
            if parent is not None:
                kids[parent].append(span)
        return kids

    def self_times(self) -> list[float]:
        """Duration minus the union of child intervals, per span."""
        kids = self.children()
        result = []
        for span, duration in enumerate(self.durations()):
            start, end = self.starts[span], self.ends[span]
            intervals = sorted(
                (max(self.starts[k], start), min(self.ends[k], end)) for k in kids[span]
            )
            covered, reach = 0.0, start
            for low, high in intervals:
                low = max(low, reach)
                if high > low:
                    covered += high - low
                    reach = high
            result.append(duration - covered)
        return result

    def wall_shares(self, root: int) -> dict[str, float]:
        """Split the root span's wall time among the innermost open spans."""
        kids = self.children()
        inside = [root]
        for span in inside:
            inside.extend(kids[span])
        edges = sorted({self.starts[s] for s in inside} | {self.ends[s] for s in inside})
        shares: dict[str, float] = defaultdict(float)
        for low, high in zip(edges, edges[1:]):
            open_spans = {
                s for s in inside if self.starts[s] <= low and self.ends[s] >= high
            }
            leaves = [
                s for s in open_spans if not any(k in open_spans for k in kids[s])
            ]
            for span in leaves:
                shares[self.names[span]] += (high - low) / len(leaves)
        return dict(shares)

    def to_json(self) -> dict:
        return {
            "spans": [
                {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "thread": thread,
                }
                for name, start, end, parent, thread in zip(
                    self.names, self.starts, self.ends, self.parents, self.threads
                )
            ],
            "counters": dict(self.counters),
            "choices": {kind: dict(values) for kind, values in self.choices.items()},
        }


# --------------------------------------------------------------------- #
# What to wrap.  Each entry: module, attribute ("Class.method" for
# methods), span name, and an optional hook that records counters from
# the call's arguments and result.
# --------------------------------------------------------------------- #
def _neighbor_edges(recorder, args, kwargs, graph):
    recorder.count("neighbors.edges", graph.adjacency.nnz // 2)


def _links_nnz(recorder, args, kwargs, links):
    recorder.count("links.nnz", links.nnz)


def _engine_counters(recorder, args, kwargs, run):
    recorder.count("engines.merges", len(run.merge_history))
    for key in ("selection_scans", "best_rescans", "rescan_cells", "frontier_total"):
        recorder.count("engines." + key, run.counters.get(key, 0))


def _labeler_choice(recorder, args, kwargs, result):
    labeler = args[0]
    recorder.choose(
        "labeling_strategy", "sparse-matmul" if labeler._use_sparse else "bruteforce"
    )


def _label_batch(recorder, args, kwargs, result):
    recorder.count("labeling.points", len(result.labels))
    recorder.count("labeling.outliers", result.n_outliers)


def _merge_levels(recorder, args, kwargs, merge):
    recorder.count("sharding.merge_levels", merge.levels)


def _wal_size(args):
    path = args[0].path
    return path.stat().st_size if path.exists() else 0


def _wal_bytes(recorder, args, kwargs, result, before):
    recorder.count("persistence.wal_bytes", _wal_size(args) - before)


def _snapshot_bytes(recorder, args, kwargs, checkpoint):
    size = sum(path.stat().st_size for path in checkpoint.rglob("*") if path.is_file())
    recorder.count("persistence.snapshot_bytes", size)


def _choice(kind, to_value=str):
    def hook(recorder, args, kwargs, result):
        recorder.choose(kind, to_value(result))

    return hook


SPAN_TARGETS = [
    ("repro.core.pipeline", "RockPipeline.run", "pipeline", None),
    ("repro.core.pipeline", "RockPipeline.run_streaming", "pipeline", None),
    ("repro.core.pipeline", "RockPipeline.run_sharded", "pipeline", None),
    ("repro.core.pipeline", "draw_sample", "sampling.draw", None),
    ("repro.core.pipeline", "build_shard_samples", "sampling.draw", None),
    ("repro.core.pipeline", "build_item_index", "encoding.item_index", None),
    ("repro.core.labeling", "build_item_index", "encoding.item_index", None),
    ("repro.core.incremental", "build_item_index", "encoding.item_index", None),
    ("repro.core.labeling", "transactions_to_incidence", "encoding.incidence", None),
    ("repro.core.incremental", "transactions_to_incidence", "encoding.incidence", None),
    (
        "repro.core.neighbors.vectorized",
        "transactions_to_incidence",
        "encoding.incidence",
        None,
    ),
    ("repro.core.pipeline", "compute_neighbors", "neighbors.compute", _neighbor_edges),
    ("repro.core.rock", "compute_neighbors", "neighbors.compute", _neighbor_edges),
    ("repro.core.incremental", "compute_neighbors", "neighbors.compute", _neighbor_edges),
    ("repro.core.sharding", "compute_neighbors", "neighbors.compute", _neighbor_edges),
    ("repro.core.rock", "links_from_neighbors", "links.compute", _links_nnz),
    ("repro.core.incremental", "links_from_neighbors", "links.compute", _links_nnz),
    ("repro.core.sharding", "links_from_neighbors", "links.compute", _links_nnz),
    ("repro.core.rock", "RockClustering.fit", "rock.fit", None),
    ("repro.core.pipeline", "cluster_shards", "sharding.cluster_shards", None),
    (
        "repro.core.pipeline",
        "merge_shard_summaries",
        "sharding.merge_summaries",
        _merge_levels,
    ),
    ("repro.core.pipeline", "label_points", "labeling.label_points", None),
    ("repro.core.labeling", "StreamingLabeler.__init__", "labeling.setup", _labeler_choice),
    ("repro.core.labeling", "StreamingLabeler.label_batch", "labeling.label_batch", _label_batch),
    ("repro.core.incremental", "IncrementalRock.bootstrap", "incremental.bootstrap", None),
    ("repro.core.incremental", "IncrementalRock.ingest", "incremental.ingest", None),
    ("repro.core.incremental", "IncrementalRock.label_only", "incremental.label_only", None),
    ("repro.persistence.snapshot", "SessionSnapshot.save", "persistence.snapshot", _snapshot_bytes),
]

#: Wrapped without a span: they only report what ``auto`` resolved to.
CHOICE_TARGETS = [
    ("repro.core.neighbors", "get_backend", _choice("neighbor_backend", lambda b: b.name)),
    ("repro.core.rock", "resolve_engine_name", _choice("engine")),
    ("repro.core.incremental", "resolve_engine_name", _choice("engine")),
    ("repro.core.pipeline", "resolve_shard_executor", _choice("shard_executor")),
]


def _wrap_span(recorder, function, name, hook, before=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        context = before(args) if before is not None else None
        span = recorder.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(span)
        if before is not None:
            hook(recorder, args, kwargs, result, context)
        elif hook is not None:
            hook(recorder, args, kwargs, result)
        return result

    return wrapper


def _wrap_choice(recorder, function, hook):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        result = function(*args, **kwargs)
        hook(recorder, args, kwargs, result)
        return result

    return wrapper


def _resolve(module_name, attribute):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(recorder: SpanRecorder):
    """Wrap every target; returns a callable that restores the originals."""
    from repro.core.engines import available_engines, get_engine
    from repro.persistence.wal import WriteAheadLog

    patches = []

    def patch(owner, leaf, replacement):
        patches.append((owner, leaf, owner.__dict__[leaf]))
        setattr(owner, leaf, replacement)

    for module_name, attribute, name, hook in SPAN_TARGETS:
        owner, leaf = _resolve(module_name, attribute)
        patch(owner, leaf, _wrap_span(recorder, getattr(owner, leaf), name, hook))
    for module_name, attribute, hook in CHOICE_TARGETS:
        owner, leaf = _resolve(module_name, attribute)
        patch(owner, leaf, _wrap_choice(recorder, getattr(owner, leaf), hook))
    # Every registered engine adapter, whichever ``auto`` picks.
    for engine_class in {type(get_engine(name)) for name in available_engines()}:
        patch(
            engine_class,
            "agglomerate",
            _wrap_span(
                recorder, engine_class.agglomerate, "engines.agglomerate", _engine_counters
            ),
        )
    patch(
        WriteAheadLog,
        "append",
        _wrap_span(
            recorder,
            WriteAheadLog.append,
            "persistence.wal_append",
            _wal_bytes,
            before=_wal_size,
        ),
    )

    def restore():
        for owner, leaf, original in reversed(patches):
            setattr(owner, leaf, original)

    return restore


# --------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------- #
#: Per-layer ``*_s`` metrics that are the summed self time of one span name.
SELF_TIME_METRICS = {
    "pipeline.self_s": "pipeline",
    "sampling.draw_s": "sampling.draw",
    "encoding.item_index_s": "encoding.item_index",
    "encoding.incidence_s": "encoding.incidence",
    "neighbors.compute_s": "neighbors.compute",
    "links.compute_s": "links.compute",
    "engines.agglomerate_s": "engines.agglomerate",
    "rock.fit_s": "rock.fit",
    "sharding.merge_summaries_s": "sharding.merge_summaries",
    "labeling.setup_s": "labeling.setup",
    "labeling.label_batch_s": "labeling.label_batch",
    "labeling.label_points_s": "labeling.label_points",
    "incremental.bootstrap_s": "incremental.bootstrap",
    "incremental.ingest_s": "incremental.ingest",
    "incremental.label_only_s": "incremental.label_only",
    "persistence.wal_append_s": "persistence.wal_append",
    "persistence.snapshot_s": "persistence.snapshot",
}

#: Per-layer metrics read straight from the recorder's counters.
COUNTER_METRICS = (
    "neighbors.edges",
    "links.nnz",
    "engines.merges",
    "engines.selection_scans",
    "engines.best_rescans",
    "engines.rescan_cells",
    "engines.frontier_total",
    "sharding.merge_levels",
    "labeling.outliers",
    "persistence.wal_bytes",
    "persistence.snapshot_bytes",
)


def layer_metrics(recorder: SpanRecorder, shard_workers: int | None = None) -> dict:
    """Every per-layer metric the spans support (0 for layers not called)."""
    self_times = recorder.self_times()
    durations = recorder.durations()
    by_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter(recorder.names)
    for name, value in zip(recorder.names, self_times):
        by_name[name] += value
    metrics = {metric: by_name[name] for metric, name in SELF_TIME_METRICS.items()}
    for metric in COUNTER_METRICS:
        metrics[metric] = float(recorder.counters[metric])
    metrics["encoding.incidence_calls"] = float(calls["encoding.incidence"])
    metrics["neighbors.calls"] = float(calls["neighbors.compute"])
    metrics["labeling.batches"] = float(calls["labeling.label_batch"])
    label_wall = sum(
        d for n, d in zip(recorder.names, durations) if n == "labeling.label_batch"
    )
    metrics["labeling.points_per_s"] = (
        recorder.counters["labeling.points"] / label_wall if label_wall else 0.0
    )

    # Shard clustering: the call's wall time, the summed per-shard spans
    # under it (they run on the worker threads) and their ratio.
    kids = recorder.children()
    shard_wall = shard_busy = 0.0
    for span, name in enumerate(recorder.names):
        if name == "sharding.cluster_shards":
            shard_wall += durations[span]
            shard_busy += sum(durations[k] for k in kids[span])
    metrics["sharding.cluster_shards_s"] = shard_wall
    metrics["sharding.shard_busy_s"] = shard_busy
    metrics["sharding.parallel_efficiency"] = (
        shard_busy / (shard_workers * shard_wall) if shard_wall and shard_workers else 0.0
    )
    return metrics


def root_span(recorder: SpanRecorder, name: str = "pipeline") -> int | None:
    """The first top-level span of ``name`` (the timed pipeline call)."""
    for span, (span_name, parent) in enumerate(zip(recorder.names, recorder.parents)):
        if span_name == name and parent is None:
            return span
    return None
