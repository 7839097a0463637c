"""serve-mixed: open-loop load generator and in-process correctness replay.

A run serves ``SERVE_SESSIONS`` inputs one after another, each for an
equal share of ``--seconds``.  The server runs in its own process
(``serve_server.py``).  This process opens two connections and sends on
fixed schedules that do not slow when the server slows: ``label`` reads at
``SERVE_LABEL_RATE`` per second on one, ``SERVE_INGEST_BATCHES`` ingests of
``SERVE_INGEST_BATCH`` new baskets spread evenly over the share on the
other.  Requests on a connection are
pipelined; the server answers them in order, so each reply is matched to
its request and timed from the request's scheduled send time.  A
``snapshot`` and a ``shutdown`` follow on the ingest connection.

Afterwards an identically bootstrapped session replays the acked batches
through ``IncrementalRock.ingest`` and the label reads through
``label_only``; every disagreement counts as a failed operation, as do
error frames and requests that got no reply in time.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import sys
from pathlib import Path

import serve_server
import workloads

HERE = Path(__file__).resolve().parent

#: How long past the end of the schedule a reply may still arrive.
REPLY_GRACE_S = 10.0

#: Upper bounds on the server's start-up and on its exit.
SERVER_START_TIMEOUT_S = 30.0
SERVER_EXIT_TIMEOUT_S = 15.0


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


class Traffic:
    """The generated requests of one session, pre-encoded as wire frames."""

    def __init__(self, seed: int, seconds: float) -> None:
        import numpy as np
        from repro.serve.protocol import encode_frame, encode_transaction

        data = workloads.serve_baskets(seed)
        transactions, truth = data.transactions, data.labels
        boot = workloads.SERVE_BOOTSTRAP
        size = workloads.SERVE_INGEST_BATCH
        self.bootstrap = transactions[:boot]
        self.batches = [
            transactions[start:start + size]
            for start in range(boot, len(transactions), size)
        ]
        self.batch_truth = [truth[start:start + size] for start in range(boot, len(truth), size)]
        picks = np.random.default_rng(workloads.pipeline_seed(seed)).integers(
            0, len(transactions), size=int(workloads.SERVE_LABEL_RATE * seconds)
        )
        self.queries = [transactions[i] for i in picks]
        self.label_frames = [
            encode_frame({"verb": "label", "transaction": encode_transaction(t)})
            for t in self.queries
        ]
        self.ingest_frames = [
            encode_frame({"verb": "ingest", "batch": [encode_transaction(t) for t in b]})
            for b in self.batches
        ]
        self.seconds = float(seconds)


class Stream:
    """One connection's schedule, send times and replies."""

    def __init__(self, frames, due) -> None:
        self.frames = frames
        self.due = due
        self.sent: list[float] = []
        self.done: list[float] = []
        self.replies: list[dict] = []

    async def send(self, writer, loop) -> None:
        for frame, due in zip(self.frames, self.due):
            wait = due - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            self.sent.append(loop.time())
            writer.write(frame)

    async def receive(self, reader, loop) -> None:
        from repro.serve.protocol import read_frame

        for _ in self.frames:
            reply = await read_frame(reader)
            if reply is None:
                return
            self.done.append(loop.time())
            self.replies.append(reply)

    def latencies_ms(self) -> list[float]:
        return [(done - due) * 1e3 for done, due in zip(self.done, self.due)]

    def lags_ms(self) -> list[float]:
        return [(sent - due) * 1e3 for sent, due in zip(self.sent, self.due)]


async def _request(reader, writer, payload: dict) -> dict | None:
    from repro.serve.protocol import encode_frame, read_frame

    writer.write(encode_frame(payload))
    return await asyncio.wait_for(read_frame(reader), REPLY_GRACE_S)


async def _drive(host: str, port: int, traffic: Traffic) -> dict:
    loop = asyncio.get_running_loop()
    label_reader, label_writer = await asyncio.open_connection(host, port)
    ingest_reader, ingest_writer = await asyncio.open_connection(host, port)
    start = loop.time() + 0.05
    n_ingest = len(traffic.ingest_frames)
    labels = Stream(
        traffic.label_frames,
        [start + i / workloads.SERVE_LABEL_RATE for i in range(len(traffic.label_frames))],
    )
    ingests = Stream(
        traffic.ingest_frames,
        [start + j * traffic.seconds / n_ingest for j in range(n_ingest)],
    )
    tasks = [
        labels.send(label_writer, loop),
        labels.receive(label_reader, loop),
        ingests.send(ingest_writer, loop),
        ingests.receive(ingest_reader, loop),
    ]
    out = {"labels": labels, "ingests": ingests, "snapshot": None, "shutdown": None}
    try:
        await asyncio.wait_for(
            asyncio.gather(*tasks), traffic.seconds + REPLY_GRACE_S
        )
        label_writer.close()
        await label_writer.wait_closed()
        snapshot_start = loop.time()
        out["snapshot"] = await _request(ingest_reader, ingest_writer, {"verb": "snapshot"})
        out["snapshot_ms"] = (loop.time() - snapshot_start) * 1e3
        out["total_s"] = loop.time() - start
        out["shutdown"] = await _request(ingest_reader, ingest_writer, {"verb": "shutdown"})
    except asyncio.TimeoutError:
        pass  # unanswered requests are counted as failures below
    finally:
        for writer in (label_writer, ingest_writer):
            writer.close()
    return out


async def _read_event(process, timeout: float) -> dict:
    line = await asyncio.wait_for(process.stdout.readline(), timeout)
    if not line:
        raise RuntimeError("the serve-mixed server exited before reporting")
    return json.loads(line)


async def _session(seed: int, traffic: Traffic, traced: bool, root: Path, env: dict, store: Path):
    process = await asyncio.create_subprocess_exec(
        sys.executable,
        str(HERE / "serve_server.py"),
        str(seed),
        str(store),
        "1" if traced else "0",
        cwd=str(root),
        env=env,
        stdout=asyncio.subprocess.PIPE,
    )
    try:
        ready = await _read_event(process, SERVER_START_TIMEOUT_S)
        driven = await _drive(ready["host"], ready["port"], traffic)
        await _read_event(process, SERVER_EXIT_TIMEOUT_S)
        await asyncio.wait_for(process.wait(), SERVER_EXIT_TIMEOUT_S)
    finally:
        if process.returncode is None:
            try:
                process.kill()
            except ProcessLookupError:
                pass
            await process.wait()
    done = json.loads((store / serve_server.REPORT_NAME).read_text())
    return ready, driven, done


def _replay(seed: int, traffic: Traffic, acked: list, answers: list) -> tuple[int, int]:
    """Mismatches of the acked ingests and of the label reads."""
    session = workloads.bootstrap_session(traffic.bootstrap, seed)
    bad_ingests = 0
    for batch, ack in acked:
        expected = [int(x) for x in session.ingest(batch).labels]
        bad_ingests += expected != ack["labels"]
    queried = [traffic.queries[i] for i, _ in answers]
    expected = session.label_only(queried) if queried else []
    bad_labels = sum(int(e) != reply["label"] for e, (_, reply) in zip(expected, answers))
    return bad_ingests, bad_labels


def _one_session(seed: int, seconds: float, traced: bool, root: Path, env: dict, store: Path):
    """Serve one input, check it, and return its raw observations."""
    import shutil

    traffic = Traffic(seed, seconds)
    try:
        ready, driven, done = asyncio.run(_session(seed, traffic, traced, root, env, store))
    finally:
        shutil.rmtree(store, ignore_errors=True)
    labels, ingests = driven["labels"], driven["ingests"]
    answers = [(i, r) for i, r in enumerate(labels.replies) if r.get("ok")]
    acked = [(traffic.batches[j], r) for j, r in enumerate(ingests.replies) if r.get("ok")]
    bad_ingests, bad_labels = _replay(seed, traffic, acked, answers)
    failures = {
        "error frames": (len(labels.replies) - len(answers))
        + (len(ingests.replies) - len(acked)),
        "requests without a reply": (len(labels.frames) - len(labels.replies))
        + (len(ingests.frames) - len(ingests.replies)),
        "failed snapshot/shutdown": sum(
            not (reply or {}).get("ok") for reply in (driven["snapshot"], driven["shutdown"])
        ),
        "acked ingests that differ from the replay": bad_ingests,
        "label reads that differ from the replay": bad_labels,
    }
    acked_labels = [label for _, ack in acked for label in ack["labels"]]
    acked_truth = [
        t for j, r in enumerate(ingests.replies) if r.get("ok") for t in traffic.batch_truth[j]
    ]
    ari_truth = workloads.ari(acked_labels, acked_truth) if acked_labels else 0.0
    label_ms = labels.latencies_ms()
    session = {
        "attempted": len(labels.frames) + len(ingests.frames) + 2,
        "failures": failures,
        "setup_s": ready["setup_s"],
        "total_s": driven.get("total_s", float("nan")),
        "peak_rss_mb": done["peak_rss_mb"],
        "ari_truth": ari_truth,
        "label_ms": label_ms,
        "ingest_ms": ingests.latencies_ms(),
        "lag_ms": labels.lags_ms() + ingests.lags_ms(),
        "snapshot_ms": driven.get("snapshot_ms", float("nan")),
        "coalesced": [ack["coalesced"] for _, ack in acked],
    }
    if traced:
        session["layers"] = done["layers"]
        session["wait_ms"] = [
            latency - served * 1e3 for latency, served in zip(label_ms, done["label_only_s"])
        ]
        session["trace"] = done["trace"]
    return session


def run(seed: int, seconds: float, traced: bool, root: Path, env: dict, out_dir: Path) -> dict:
    """``SERVE_SESSIONS`` sessions on different inputs; every number run.py reports."""
    share = seconds / workloads.SERVE_SESSIONS
    sessions = [
        _one_session(
            workloads.input_seed(seed, index),
            share,
            traced,
            root,
            env,
            out_dir / ("serve-store-%d-%d" % (os.getpid(), index)),
        )
        for index in range(workloads.SERVE_SESSIONS)
    ]
    failures: dict[str, int] = {}
    for session in sessions:
        for what, count in session["failures"].items():
            failures[what] = failures.get(what, 0) + count

    ari_truth = statistics.mean(session["ari_truth"] for session in sessions)
    failures["runs with ari_truth below the floor %.2f" % workloads.ARI_FLOOR] = int(
        ari_truth < workloads.ARI_FLOOR
    )

    def pooled(key):
        return [value for session in sessions for value in session[key]]

    label_ms, ingest_ms = pooled("label_ms"), pooled("ingest_ms")
    out = {
        "attempted": sum(session["attempted"] for session in sessions),
        "failed": sum(failures.values()),
        "problems": ["%d %s" % (count, what) for what, count in failures.items() if count],
        "setup_s": statistics.median(session["setup_s"] for session in sessions),
        "total_s": sum(session["total_s"] for session in sessions),
        "peak_rss_mb": statistics.median(session["peak_rss_mb"] for session in sessions),
        "ari_truth": ari_truth,
        "serve.label_p50_ms": percentile(label_ms, 50),
        "serve.label_p99_ms": percentile(label_ms, 99),
        "serve.ingest_p50_ms": percentile(ingest_ms, 50),
        "serve.ingest_p90_ms": percentile(ingest_ms, 90),
        "serve.snapshot_ms": statistics.median(session["snapshot_ms"] for session in sessions),
        "serve.gen_lag_ms": percentile(pooled("lag_ms"), 99),
        "serve.coalesced_per_append": (
            statistics.mean(pooled("coalesced")) if pooled("coalesced") else 0.0
        ),
        "serve.label_samples": len(label_ms),
        "serve.ingest_samples": len(ingest_ms),
    }
    if traced:
        layers: dict[str, float] = {}
        for session in sessions:
            for key, value in session["layers"].items():
                layers[key] = layers.get(key, 0.0) + value
        layers["trace.total_s"] = out["total_s"]
        out["layers"] = layers
        out["serve.label_wait_ms"] = percentile(pooled("wait_ms"), 99)
        choices: dict[str, dict[str, int]] = {}
        for session in sessions:
            for kind, values in session["trace"]["choices"].items():
                merged = choices.setdefault(kind, {})
                for value, count in values.items():
                    merged[value] = merged.get(value, 0) + count
        out["trace"] = {
            "sessions": [session["trace"] for session in sessions],
            "choices": choices,
        }
    return out
