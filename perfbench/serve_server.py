"""serve-mixed server process, started by ``serve_load.py``.

``python perfbench/serve_server.py SEED STORE_DIR TRACE`` bootstraps the
online session on the input's bootstrap baskets, creates a durable
``ReproServer`` in ``STORE_DIR`` and starts it; that set-up is timed up to
the first answered request on a fresh connection.  It then prints a
``ready`` JSON line with the port and set-up time, serves until the
``shutdown`` verb, writes its peak memory and, when ``TRACE`` is 1, its
spans to ``REPORT_NAME`` in ``STORE_DIR``, and prints a ``done`` JSON line.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

import memory
import spans
import workloads

REPORT_NAME = "server-report.json"


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


async def serve(seed: int, store: Path, traced: bool) -> None:
    from repro.serve import ReproServer, ServeClient

    bootstrap = workloads.serve_baskets(seed).transactions[: workloads.SERVE_BOOTSTRAP]
    recorder = spans.SpanRecorder() if traced else None
    if recorder is not None:
        spans.install(recorder)
    start = time.perf_counter()
    session = workloads.bootstrap_session(bootstrap, seed)
    server = ReproServer.create(session, store / "session")
    host, port = await server.start()
    async with await ServeClient.connect(host, port) as probe:
        await probe.status()
    emit(
        {"event": "ready", "host": host, "port": port, "setup_s": time.perf_counter() - start}
    )

    reset_worked = memory.reset_peak()
    await server.serve_forever()
    done = {"peak_rss_mb": memory.peak_mb(reset_worked)}
    if recorder is not None:
        durations = recorder.durations()
        done["layers"] = spans.layer_metrics(recorder)
        done["label_only_s"] = [
            d for n, d in zip(recorder.names, durations) if n == "incremental.label_only"
        ]
        done["trace"] = recorder.to_json()
    # The spans are too long for one pipe line; they go through a file.
    (store / REPORT_NAME).write_text(json.dumps(done))
    emit({"event": "done"})


if __name__ == "__main__":
    asyncio.run(serve(int(sys.argv[1]), Path(sys.argv[2]), sys.argv[3] == "1"))
