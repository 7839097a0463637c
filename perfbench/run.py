"""End-to-end, layer-by-layer benchmark of the ROCK pipeline (``repro``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-100k --seed 1 --seconds 12 --trace 0

Workloads (see README.md for why each exists and what it should show):

* ``stream-100k``: ``run_streaming`` on 100k baskets, sample 4000;
* ``shard-16k``:   ``run_sharded`` on 16k baskets, 8 shards on 2 threads;
* ``inmem-40k``:   ``run`` on 40k baskets, sample 2000;
* ``serve-mixed``: open-loop label reads beside ingest writes against a
  served online session, with the server in its own process.

A batch workload repeats its timed call, each in a fresh process, until
``--seconds`` have passed, and times set-up (import plus pipeline
construction) in several more processes.  ``serve-mixed`` spreads its
schedule over ``--seconds``.  With ``--trace 0`` the last line of output
is a JSON object with every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` a traced run beside an untraced one gives every per-layer
metric instead, and the spans are written under ``perfbench/out/``.  The
exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import serve_load
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up samples per batch run (timed calls count toward them).
SETUP_SAMPLES = 9

#: Everything one invocation does must end within this many seconds.
RUN_BUDGET_S = 170.0

#: Relative tolerance of "the per-layer times add up to the traced total".
SUM_TOLERANCE = 0.01


class CheckFailed(Exception):
    """The checkout cannot be benchmarked (missing sources or config)."""


def load_config() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file() or not (SRC / "repro" / "__init__.py").is_file():
        raise CheckFailed(
            "run from a checkout holding BENCHMARK.json and src/repro (looked in %s)" % ROOT
        )
    return json.loads(path.read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class BatchRun:
    """Timed calls of one batch workload, each in its own process."""

    def __init__(self, name: str, seed: int, deadline: float) -> None:
        self.name = name
        self.seed = seed
        self.deadline = deadline
        self.calls: list[dict] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, index: int, mode: str) -> dict | None:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise CheckFailed("the run budget of %.0f s ran out" % RUN_BUDGET_S)
        command = [
            sys.executable,
            str(HERE / "child.py"),
            self.name,
            str(self.seed),
            str(index),
            mode,
        ]
        try:
            done = subprocess.run(
                command,
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.problems.append("%s call timed out" % mode)
            return None
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append("%s call failed: %s" % (mode, tail[0]))
            return None
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.setups.append(result["setup_s"])
        return result

    def timed(self, index: int, mode: str) -> dict | None:
        self.attempted += 1
        result = self.child(index, mode)
        if result is None:
            self.failed += 1
        else:
            result["input"] = index
            self.calls.append(result)
        return result

    def check_digests(self) -> None:
        """Every call on the same input, traced or not, gives the same labels."""
        digests: dict[int, set] = {}
        for call in self.calls:
            digests.setdefault(call["input"], set()).add(call["digest"])
        for index, seen in sorted(digests.items()):
            if len(seen) > 1:
                self.problems.append("input %d: label digests differ: %s" % (index, sorted(seen)))
                self.failed += len(seen) - 1


def run_batch(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workload = workloads.BATCH_WORKLOADS[name]
    run = BatchRun(name, seed, deadline)
    start = time.monotonic()
    if trace:
        untraced = run.timed(0, "untraced")
        traced = run.timed(0, "traced")
    else:
        # Every input once, then repeats of them (whose labels must match)
        # until the run's time is used.
        done = 0
        while True:
            began = time.monotonic()
            run.timed(done % workload.inputs, "untraced")
            done += 1
            now = time.monotonic()
            if done >= workload.inputs and now - start >= seconds:
                break
            if now + (now - began) > deadline - 10:
                break
    while len(run.setups) < SETUP_SAMPLES:
        if run.child(0, "setup") is None:
            break
    run.check_digests()

    out = {"attempted": run.attempted, "failed": run.failed, "problems": run.problems}
    out["calls"] = len(run.calls)
    if run.calls:
        ari_of_input = {call["input"]: call["ari_truth"] for call in run.calls}
        out["total_s"] = statistics.median(call["total_s"] for call in run.calls)
        out["peak_rss_mb"] = statistics.median(call["peak_rss_mb"] for call in run.calls)
        out["ari_truth"] = statistics.mean(ari_of_input.values())
        out["peak_probe"] = run.calls[0]["peak_probe"]
        if out["ari_truth"] < workloads.ARI_FLOOR:
            run.problems.append(
                "ari_truth %.4f below the floor %.2f" % (out["ari_truth"], workloads.ARI_FLOOR)
            )
            out["failed"] += 1
    if run.setups:
        out["setup_s"] = statistics.median(run.setups)
    if trace and untraced and traced:
        traced_total = traced["traced_total_s"]
        layers = dict(traced["layers"])
        layers["trace.total_s"] = traced_total
        layers["trace.overhead_s"] = traced["total_s"] - untraced["total_s"]
        out["layers"] = layers
        out["wall_shares"] = traced["wall_shares"]
        out["trace"] = traced["trace"]
        shares = sum(traced["wall_shares"].values())
        if abs(shares - traced_total) > SUM_TOLERANCE * traced_total:
            run.problems.append(
                "per-layer self times add up to %.4f s, not the traced total %.4f s"
                % (shares, traced_total)
            )
            out["failed"] += 1
    return out


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    # The generator and its replay run in this process.
    sys.path.insert(0, str(SRC))
    return serve_load.run(seed, seconds, trace, ROOT, child_env(), OUT)


def metric_values(config: dict, result: dict, trace: bool) -> dict:
    if not trace:
        return {
            metric["name"]: {"value": result[metric["name"]], "unit": metric["unit"]}
            for metric in config["end_to_end"]
        }
    values = dict(result.get("layers", {}))
    for key, value in result.items():
        if key.startswith("serve."):
            values[key] = value
    return {
        metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in config["per_layer"]
    }


def report(name: str, seed: int, result: dict, metrics: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print("[perfbench] workload=%s seed=%d" % (name, seed))
    for problem in result.get("problems", []):
        print("  FAILED: %s" % problem)
    failed_frac = result["failed"] / max(result["attempted"], 1)
    print("  %-32s %14.6f %s" % ("failed_frac", failed_frac, "1"))
    for key, entry in metrics.items():
        print("  %-32s %14.6f %s" % (key, entry["value"], entry["unit"]))
    for key in sorted(result):
        if key.startswith("serve.") and key not in metrics:
            print("  %-32s %14.6f %s" % (key, result[key], "ms" if key.endswith("_ms") else "1"))
    if "trace" in result:
        for kind, values in sorted(result["trace"]["choices"].items()):
            print("  auto resolved: %s -> %s" % (kind, values))
    if "wall_shares" in result:
        print("  wall time by layer (overlapping worker spans split evenly):")
        for layer, seconds in sorted(result["wall_shares"].items(), key=lambda kv: -kv[1]):
            print("    %-30s %10.4f s" % (layer, seconds))


def write_trace(name: str, seed: int, result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace.json" % (name, seed))
    payload = {
        key: result[key]
        for key in ("trace", "layers", "wall_shares")
        if key in result
    }
    path.write_text(json.dumps(payload, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        config = load_config()
        if args.workload not in {w["name"] for w in config["workloads"]}:
            raise CheckFailed("unknown workload %r" % args.workload)
        trace = bool(args.trace)
        if args.workload == "serve-mixed":
            result = run_serve(args.seed, args.seconds, trace)
        else:
            result = run_batch(args.workload, args.seed, args.seconds, trace, deadline)
        metrics = metric_values(config, result, trace)
    except (CheckFailed, KeyError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    if trace:
        write_trace(args.workload, args.seed, result)
    report(args.workload, args.seed, result, metrics)
    correct = result["failed"] == 0 and not result["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
