"""One batch-workload process: set up, make the inputs, run the timed call.

Run by ``run.py`` as ``python perfbench/child.py WORKLOAD SEED INPUT MODE``
from the checkout root, with ``src`` on ``PYTHONPATH``; ``INPUT`` picks one
of the run's inputs (``workloads.input_seed``).  ``MODE`` is ``setup``
(time the import and pipeline construction only), ``untraced`` or
``traced``.  Prints one JSON object on its last line.  Each timed call gets
a fresh process, so its peak memory is its own.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import memory  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def main(name: str, seed: int, index: int, mode: str) -> dict:
    workload = workloads.BATCH_WORKLOADS[name]
    import repro.core.pipeline  # noqa: F401  (the import is part of set-up)

    imported = time.perf_counter() - _STARTED
    seed = workloads.input_seed(seed, index)
    data = None if mode == "setup" else workloads.make_baskets(workload.n_baskets, seed)
    start = time.perf_counter()
    pipeline = workloads.make_pipeline(workload.sample_size, seed)
    out = {"setup_s": imported + time.perf_counter() - start}
    if mode == "setup":
        return out

    recorder = spans.SpanRecorder() if mode == "traced" else None
    if recorder is not None:
        spans.install(recorder)
    transactions = data.transactions
    reset_worked = memory.reset_peak()
    start = time.perf_counter()
    result = workload.call(pipeline, transactions)
    out["total_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = memory.peak_mb(reset_worked)
    out["peak_probe"] = "VmHWM" if reset_worked else "ru_maxrss"
    out["digest"] = workloads.label_digest(result.labels)
    out["ari_truth"] = workloads.ari(result.labels, data.labels)
    if recorder is not None:
        root = spans.root_span(recorder)
        out["layers"] = spans.layer_metrics(recorder, workload.shard_workers)
        out["wall_shares"] = recorder.wall_shares(root)
        out["traced_total_s"] = recorder.ends[root] - recorder.starts[root]
        out["trace"] = recorder.to_json()
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])))
