"""Engine benchmark driver: phase timings, perf baseline and perf gate.

Run modes (see ``conftest.bench_full``):

* smoke (default, <30 s) — times n in {300, 600} with both engines,
  writes the record to ``benchmarks/results/`` and leaves the committed
  baseline untouched.
* full (``REPRO_BENCH_FULL=1``) — times n in {500, 1000, 2000, 4000}
  (reference engine up to 2000; larger rows carry the explicit
  ``reference_skipped`` marker), asserts the arena engine's >=10x
  agglomeration speedup over reference at n=2000, and rewrites the
  committed ``BENCH_engine.json`` baseline at the repository root.

``test_engine_perf_gate`` re-measures the gate size and fails when the
agglomeration, labelling or neighbour-backend time (vectorized and
blocked are both gated) regresses more than 1.5x against the committed
baseline (:mod:`repro.bench.perf_gate`); each phase only fails when its
machine-robust relative signal regresses too.  Every run also exercises
the ``blocked`` backend and asserts its adjacency identical to the
vectorized one (see ``NEIGHBOR_BENCH_STRATEGIES``), so the CI smoke job
covers the backend registry end to end.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import bench_full, engine_bench_sizes, write_record

from repro.data.io import atomic_write_text

from repro.bench.engine_bench import run_engine_bench, time_engine_phases
from repro.bench.perf_gate import (
    BASELINE_FILENAME,
    check_phase_regressions,
    check_ratio_regression,
    check_reference_accounting,
    check_speedup_regression,
    load_bench,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_PATH = REPO_ROOT / BASELINE_FILENAME

#: Workload size the perf gate re-measures (must exist in the baseline).
GATE_SIZE = 500


def _render(payload: dict) -> str:
    lines = ["[ENGINE] arena vs reference agglomeration benchmark"]
    lines.append(
        "workload: market-basket, theta=%s, clusters=%d"
        % (payload["theta"], payload["n_clusters_requested"])
    )
    for row in payload["sizes"]:
        parts = [
            "n=%-5d" % row["n"],
            "neighbors(vectorized) %.3fs" % row["neighbors_vectorized_s"],
            "neighbors(blocked) %.3fs" % row["neighbors_blocked_s"],
            "links %.3fs" % row["links_s"],
            "agglomerate(arena) %.3fs" % row["agglomerate_arena_s"],
        ]
        if "agglomerate_reference_s" in row:
            parts.append("agglomerate(reference) %.3fs" % row["agglomerate_reference_s"])
            parts.append("speedup %.1fx" % row["agglomerate_speedup"])
        elif row.get("reference_skipped"):
            parts.append("reference skipped (quadratic above reference_max)")
        parts.append("label %.3fs" % row["label_s"])
        if "label_batched_s" in row:
            parts.append(
                "label(batched x%d) %.3fs" % (row["label_batches"], row["label_batched_s"])
            )
        lines.append("  " + "  ".join(parts))
    return "\n".join(lines)


def test_benchmark_engine_phases(results_dir):
    sizes, reference_max = engine_bench_sizes()
    full = bench_full()
    payload = run_engine_bench(
        sizes,
        reference_max=reference_max,
        path=BASELINE_PATH if full else None,
    )
    if not full:
        atomic_write_text(
            results_dir / "BENCH_engine_smoke.json",
            json.dumps(payload, indent=2) + "\n",
        )
    write_record(results_dir, "ENGINE_phase_timings", _render(payload))

    # run_engine_bench already asserts bit-identical merge histories for
    # every size where all engines ran; here we check the bookkeeping and
    # the perf claims.  Every row must either record the reference metrics
    # or carry the explicit reference_skipped marker — never neither.
    accounting = check_reference_accounting(payload, label="engine bench")
    assert not accounting, "\n".join(accounting)
    for row in payload["sizes"]:
        if "agglomerate_speedup" in row:
            assert row["agglomerate_speedup"] > 1.0, (
                "arena engine slower than reference at n=%d" % row["n"]
            )
    if full:
        # The arena engine's headline claim (same-process ratio, so it
        # holds on any machine); the dedicated merge-loop gate lives in
        # bench_agglomerate.py and runs in every CI smoke job.
        at_2000 = next(row for row in payload["sizes"] if row["n"] == 2000)
        assert at_2000["agglomerate_speedup"] >= 10.0, (
            "arena engine speedup at n=2000 fell below 10x: %.2fx"
            % at_2000["agglomerate_speedup"]
        )
        at_4000 = next(row for row in payload["sizes"] if row["n"] == 4000)
        # The blocked backend only computes the upper triangle and keeps
        # its COO intermediate bounded, so at the size where the one-shot
        # product dominates it must be measurably faster.  The 0.9 factor
        # demands a >=10% win (currently it is ~2.5x) while leaving head
        # room so a timing blip on a healthy run cannot fail the
        # baseline regeneration.
        assert (
            at_4000["neighbors_blocked_s"]
            < 0.9 * at_4000["neighbors_vectorized_s"]
        ), (
            "blocked neighbour backend not measurably faster than one-shot "
            "vectorized at n=4000: %.3fs vs %.3fs"
            % (at_4000["neighbors_blocked_s"], at_4000["neighbors_vectorized_s"])
        )


def test_engine_perf_gate(results_dir):
    if not BASELINE_PATH.exists():
        pytest.skip("no committed %s baseline yet" % BASELINE_FILENAME)
    baseline = load_bench(BASELINE_PATH)
    current = {
        "sizes": [time_engine_phases(GATE_SIZE, include_reference=True, repeats=3)]
    }
    # The absolute wall-clock checks are machine-specific (the baseline was
    # recorded on one machine); each phase therefore has a relative signal
    # measured in the same process that divides machine speed out: the
    # arena/reference speedup for the agglomeration, the label/neighbors
    # time ratio for the labelling.  Only flag a phase when both of its
    # signals trip: a uniformly slower machine preserves the ratios, a
    # genuine hot-path regression breaks them.
    # check_phase_regressions applies each metric's own slack (tight for the
    # millisecond-scale labelling phases, generous for the agglomeration).
    # Reference-metric bookkeeping errors (missing without the
    # reference_skipped marker, or contradicting it) are hard violations:
    # they mean the payload itself is malformed, not that a phase is slow.
    violations = check_reference_accounting(current, label="current run")
    violations += check_reference_accounting(baseline, label="baseline")
    softened = []
    for absolute, relative in (
        (
            check_phase_regressions(current, baseline, metrics=("agglomerate_arena_s",)),
            check_speedup_regression(current, baseline),
        ),
        (
            check_phase_regressions(current, baseline, metrics=("label_s",)),
            check_ratio_regression(current, baseline),
        ),
        (
            check_phase_regressions(current, baseline, metrics=("label_batched_s",)),
            check_ratio_regression(current, baseline, metric="label_batched_s"),
        ),
        # Neighbour phase (since the backend registry landed): the
        # vectorized backend's relative signal is the link phase (both
        # sparse-product bound), the blocked backend's is the vectorized
        # backend measured in the same process.
        (
            check_phase_regressions(
                current, baseline, metrics=("neighbors_vectorized_s",)
            ),
            check_ratio_regression(
                current, baseline,
                metric="neighbors_vectorized_s", reference_metric="links_s",
            ),
        ),
        (
            check_phase_regressions(
                current, baseline, metrics=("neighbors_blocked_s",)
            ),
            check_ratio_regression(
                current, baseline,
                metric="neighbors_blocked_s",
                reference_metric="neighbors_vectorized_s",
            ),
        ),
    ):
        if absolute and relative:
            violations.extend(absolute + relative)
        elif absolute:
            softened.extend(absolute)
    status = "PASS" if not violations else "; ".join(violations)
    if softened and not violations:
        status += " (absolute time above baseline limit, but the in-process "
        status += "phase ratios held — slower machine, not a regression)"
    write_record(
        results_dir,
        "ENGINE_perf_gate",
        "[ENGINE] perf gate at n=%d: %s" % (GATE_SIZE, status),
    )
    assert not violations, "\n".join(violations)
