"""Merge-loop microbenchmark: arena vs the reference spec, gated.

Unlike ``bench_engine.py`` (which times every pipeline phase), this script
isolates the agglomeration merge loop on one prebuilt link matrix and
gates the arena engine two ways:

* **Against the spec, in process.**  At ``REFERENCE_GATE_N`` the arena
  engine must finish the merge loop at least ``MIN_REFERENCE_SPEEDUP``
  times faster than the reference engine, whose merge history it must
  reproduce bit for bit.  Same-process ratios divide out absolute machine
  speed, so this gate holds on any hardware.
* **Against the committed baseline.**  At ``BASELINE_GATE_N`` the arena
  time is compared with ``agglomerate_arena_s`` in ``BENCH_engine.json``
  (``repro.bench.perf_gate``, 1.5x plus slack).  Like the engine perf
  gate it only fails when the machine-robust signal — the in-process
  reference speed-up against the baseline's at the same size — trips
  too; otherwise the record notes a slower machine.
* **Memory, per link nonzero.**  At ``BASELINE_GATE_N`` the ``tracemalloc``
  peak of one arena run must stay within ``MAX_PEAK_BYTES_PER_NNZ`` bytes
  per link-matrix nonzero.  Allocation sizes do not depend on the machine,
  so this gate holds on any hardware.

Alongside the timings the record reports the arena engine's native
counters (selection scans, stale-bound reworks and the cells they touch,
frontier sizes, row relocations, compactions, arena growths and capacity),
so a perf regression can be attributed to extra work rather than
re-profiled from scratch.  The rendered record and a JSON row land in
``benchmarks/results/``.
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import write_record

from repro.bench.agglomerate_bench import merge_loop_bench
from repro.bench.perf_gate import (
    BASELINE_FILENAME,
    check_agglomeration_regression,
    check_speedup_regression,
    load_bench,
)
from repro.data.io import atomic_write_text

BASELINE_PATH = Path(__file__).resolve().parents[1] / BASELINE_FILENAME

#: Largest size at which the quadratic reference engine is timed.
REFERENCE_GATE_N = 2000

#: The arena engine must beat the reference's merge-loop time by at least
#: this factor at ``REFERENCE_GATE_N`` (measured ~25x; 8x leaves head room
#: for a noisy run without letting the optimisation quietly rot away).
MIN_REFERENCE_SPEEDUP = 8.0

#: Size whose arena time is compared with the committed baseline.
BASELINE_GATE_N = 4000

#: Ceiling on the arena run's traced allocation peak at ``BASELINE_GATE_N``,
#: in bytes per link nonzero.  The arena's 16-byte cells (an int32 partner
#: id, an int32 count and a float64 goodness) at ~1.9 cells per nonzero,
#: plus the int32 canonical symmetric copy while seeding, measure ~41; the
#: 24-byte cells before (int64 ids, float64 counts and a float64 copy)
#: measured ~60, and an arena that doubles instead of compacting ~260.
MAX_PEAK_BYTES_PER_NNZ = 48.0


def _render(rows: list[dict], status: str) -> str:
    lines = []
    for row in rows:
        arena = row["arena_counters"]
        lines.append(
            "[AGGLOMERATE] merge-loop microbenchmark at n=%d "
            "(links_nnz=%d, merges=%d, theta=%s)"
            % (row["n"], row["links_nnz"], row["n_merges"], row["theta"])
        )
        line = "  arena: %.3fs" % row["agglomerate_arena_s"]
        if "agglomerate_reference_s" in row:
            line += "  reference: %.3fs  speedup %.1fx" % (
                row["agglomerate_reference_s"],
                row["agglomerate_speedup"],
            )
        lines.append(line)
        lines.append(
            "  arena counters: selection_scans=%d best_rescans=%d rescan_cells=%d "
            "mean_frontier=%.1f frontier_max=%d row_relocations=%d"
            % (
                arena["selection_scans"],
                arena["best_rescans"],
                arena["rescan_cells"],
                row["mean_frontier"],
                arena["frontier_max"],
                arena["row_relocations"],
            )
        )
        lines.append(
            "  arena memory: traced peak %.1f MiB (%.1f B/link nnz) "
            "compactions=%d arena_grows=%d arena_cells=%d"
            % (
                row["agglomerate_arena_peak_bytes"] / 2**20,
                row["arena_peak_bytes_per_nnz"],
                arena["compactions"],
                arena["arena_grows"],
                arena["arena_cells"],
            )
        )
    lines.append("  baseline gate at n=%d: %s" % (BASELINE_GATE_N, status))
    lines.append(
        "  memory gate at n=%d: <= %.0f B/link nnz"
        % (BASELINE_GATE_N, MAX_PEAK_BYTES_PER_NNZ)
    )
    return "\n".join(lines)


def test_merge_loop_microbenchmark(results_dir):
    against_spec = merge_loop_bench(REFERENCE_GATE_N, include_reference=True)
    at_scale = merge_loop_bench(BASELINE_GATE_N)
    rows = [against_spec, at_scale]

    baseline = load_bench(BASELINE_PATH)
    absolute = check_agglomeration_regression({"sizes": [at_scale]}, baseline)
    relative = check_speedup_regression({"sizes": [against_spec]}, baseline)
    if absolute and relative:
        status = "; ".join(absolute + relative)
    elif absolute:
        status = "PASS (absolute time above baseline limit, but the in-process "
        status += "reference speed-up held — slower machine, not a regression)"
    else:
        status = "PASS"
    atomic_write_text(
        results_dir / "BENCH_agglomerate.json", json.dumps(rows, indent=2) + "\n"
    )
    write_record(results_dir, "AGGLOMERATE_merge_loop", _render(rows, status))

    # merge_loop_bench already asserted the arena history equals the
    # reference's; the numbers below are only meaningful because of that.
    # (The workload exhausts its links before reaching the requested
    # cluster count, so a substantial merge count — not stopped_early — is
    # what proves the loop actually ran.)
    for row in rows:
        assert row["n_merges"] > row["n"] // 2, "gate workload barely merged"
        assert row["arena_counters"]["merges"] == row["n_merges"]
    assert against_spec["agglomerate_speedup"] >= MIN_REFERENCE_SPEEDUP, (
        "arena engine fell below %.1fx the reference engine at n=%d: "
        "%.3fs vs %.3fs (%.2fx)"
        % (
            MIN_REFERENCE_SPEEDUP,
            REFERENCE_GATE_N,
            against_spec["agglomerate_arena_s"],
            against_spec["agglomerate_reference_s"],
            against_spec["agglomerate_speedup"],
        )
    )
    assert not (absolute and relative), status
    assert at_scale["arena_peak_bytes_per_nnz"] <= MAX_PEAK_BYTES_PER_NNZ, (
        "arena merge loop at n=%d peaked at %.1f bytes per link nonzero "
        "(%d bytes traced for %d nonzeros), above the %.0f B/nnz ceiling"
        % (
            BASELINE_GATE_N,
            at_scale["arena_peak_bytes_per_nnz"],
            at_scale["agglomerate_arena_peak_bytes"],
            at_scale["links_nnz"],
            MAX_PEAK_BYTES_PER_NNZ,
        )
    )
