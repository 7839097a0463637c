"""Perf gate: fail when hot-path phase timings regress against the baseline.

``BENCH_engine.json`` (committed at the repository root by
:mod:`repro.bench.engine_bench`) records the arena engine's agglomeration,
labelling and per-backend neighbour times per workload size.  The gate compares a freshly
measured run against those numbers and reports every size whose time
exceeds the committed baseline by more than ``max_ratio`` (plus a small
absolute slack that keeps millisecond-scale measurements from tripping the
gate on scheduler noise).  :func:`check_phase_regressions` applies the
check to every gated phase metric (``DEFAULT_PHASE_METRICS``).

The gate is intentionally one-sided: faster-than-baseline runs pass, and a
run that beats the baseline substantially is the cue to re-generate the
baseline (``REPRO_BENCH_FULL=1 pytest benchmarks/bench_engine.py``) so
future regressions are measured from the improved level.

Absolute wall-clock comparisons are machine-specific (the committed
baseline records the author's machine), so the gate offers a second,
machine-robust signal per phase: :func:`check_speedup_regression` compares
the arena-over-reference *speedup ratio* of the agglomeration, and
:func:`check_ratio_regression` compares one phase time *relative to
another* measured in the same process — the labelling phases against the
neighbour phase, and the blocked neighbour backend against the link phase
(both sparse-product bound).  The benchmark driver flags
a regression only when both the absolute and the relative signal of a phase
trip — a uniformly slower machine slows everything and keeps the ratios,
while a genuine hot-path regression breaks them.

Sizes above the benchmark's ``reference_max`` skip the quadratic-cost
reference engine by design and therefore legitimately lack
``agglomerate_reference_s`` / ``agglomerate_speedup``; such rows must carry
an explicit ``reference_skipped`` marker, and
:func:`check_reference_accounting` rejects rows whose reference metrics are
missing *without* the marker (or present despite it) instead of silently
ignoring them.
"""

from __future__ import annotations

import json
from pathlib import Path

#: A measurement above ``baseline * DEFAULT_MAX_RATIO + DEFAULT_SLACK_SECONDS``
#: is a regression.
DEFAULT_MAX_RATIO = 1.5
DEFAULT_SLACK_SECONDS = 0.05

#: Phase timings the gate watches: the agglomeration merge loop (arena
#: engine), both labelling paths (one-shot and batched/streaming) and the
#: blocked neighbour backend.
DEFAULT_PHASE_METRICS = (
    "agglomerate_arena_s",
    "label_s",
    "label_batched_s",
    "neighbors_blocked_s",
)

#: Per-metric absolute slack.  The labelling and neighbour phases run in
#: single-digit milliseconds at the gate size, so the generic 50 ms slack
#: would hide anything short of a ~10x regression; their measurements are
#: best-of-N (see :mod:`repro.bench.engine_bench`), which keeps the
#: tighter slack safe against scheduler noise.
DEFAULT_PHASE_SLACKS = {
    "agglomerate_arena_s": DEFAULT_SLACK_SECONDS,
    "label_s": 0.01,
    "label_batched_s": 0.01,
    "neighbors_blocked_s": 0.01,
}

#: Default location of the committed baseline (repository root).
BASELINE_FILENAME = "BENCH_engine.json"

#: Metrics only present when the quadratic-cost reference engine was timed.
#: A row without them must carry the explicit ``reference_skipped`` marker;
#: :func:`check_reference_accounting` rejects silent omissions.
REFERENCE_METRICS = ("agglomerate_reference_s", "agglomerate_speedup")


def load_bench(path: str | Path) -> dict:
    """Load a ``BENCH_engine.json`` payload."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _rows_by_size(payload: dict) -> dict[int, dict]:
    return {int(row["n"]): row for row in payload.get("sizes", [])}


def check_reference_accounting(payload: dict, label: str = "payload") -> list[str]:
    """Reject rows whose reference-engine metrics are *silently* missing.

    The speedup checks skip sizes without ``agglomerate_reference_s`` /
    ``agglomerate_speedup``, which is correct for sizes where the
    quadratic reference engine is skipped by design — but it also used to
    swallow rows that lost the metrics by accident.  This check makes the
    distinction explicit: a row must either record both reference metrics,
    or carry ``reference_skipped: true``.  Violations are reported for

    - rows with neither the metrics nor the marker (silent omission),
    - rows with the marker *and* the metrics (contradictory bookkeeping),
    - rows with only one of the two metrics (partial measurement).
    """
    violations: list[str] = []
    for row in payload.get("sizes", []):
        n = row.get("n", "?")
        present = [metric for metric in REFERENCE_METRICS if row.get(metric) is not None]
        skipped = bool(row.get("reference_skipped"))
        if skipped and present:
            violations.append(
                "%s at n=%s marks reference_skipped but records %s; "
                "drop the marker or the metrics" % (label, n, ", ".join(present))
            )
        elif not skipped and len(present) == len(REFERENCE_METRICS):
            continue
        elif not skipped:
            missing = [m for m in REFERENCE_METRICS if m not in present]
            violations.append(
                "%s at n=%s is missing %s without a reference_skipped marker; "
                "re-run the benchmark or mark the row as skipped by design"
                % (label, n, ", ".join(missing))
            )
    return violations


def check_agglomeration_regression(
    current: dict,
    baseline: dict,
    max_ratio: float = DEFAULT_MAX_RATIO,
    slack_seconds: float = DEFAULT_SLACK_SECONDS,
    metric: str = "agglomerate_arena_s",
) -> list[str]:
    """Compare two benchmark payloads; return a violation message per regression.

    Sizes present in only one payload are ignored (the gate judges what was
    measured, not coverage).  An empty list means the gate passes.
    """
    current_rows = _rows_by_size(current)
    baseline_rows = _rows_by_size(baseline)
    violations: list[str] = []
    for n in sorted(set(current_rows) & set(baseline_rows)):
        measured = current_rows[n].get(metric)
        reference = baseline_rows[n].get(metric)
        if measured is None or reference is None:
            continue
        limit = reference * max_ratio + slack_seconds
        if measured > limit:
            violations.append(
                "%s at n=%d regressed: %.4fs measured vs %.4fs baseline "
                "(limit %.4fs = baseline * %.2f + %.2fs slack)"
                % (metric, n, measured, reference, limit, max_ratio, slack_seconds)
            )
    return violations


def check_phase_regressions(
    current: dict,
    baseline: dict,
    metrics: tuple = DEFAULT_PHASE_METRICS,
    max_ratio: float = DEFAULT_MAX_RATIO,
    slack_seconds: float | None = None,
) -> list[str]:
    """Run the absolute-time check over several phase metrics at once.

    The multi-phase front door of the gate: every metric in ``metrics`` is
    compared the way :func:`check_agglomeration_regression` compares the
    agglomeration time, and the violation messages are concatenated.
    ``slack_seconds=None`` (the default) applies each metric's own slack
    from ``DEFAULT_PHASE_SLACKS``, so millisecond-scale phases are gated
    tightly while second-scale phases keep the generous generic slack.
    Metrics absent from either payload are ignored, so older baselines
    without the labelling fields keep gating the phases they do record.
    """
    violations: list[str] = []
    for metric in metrics:
        slack = (
            slack_seconds
            if slack_seconds is not None
            else DEFAULT_PHASE_SLACKS.get(metric, DEFAULT_SLACK_SECONDS)
        )
        violations.extend(
            check_agglomeration_regression(
                current,
                baseline,
                max_ratio=max_ratio,
                slack_seconds=slack,
                metric=metric,
            )
        )
    return violations


def check_ratio_regression(
    current: dict,
    baseline: dict,
    metric: str = "label_s",
    reference_metric: str = "neighbors_s",
    max_ratio: float = DEFAULT_MAX_RATIO,
) -> list[str]:
    """Machine-robust phase check: compare ``metric / reference_metric``.

    The labelling counterpart of :func:`check_speedup_regression`: both
    phases run on the same machine in the same process, so dividing the
    labelling time by the neighbour-phase time (both sparse-product bound)
    cancels absolute machine speed.  A size regresses when its measured
    ratio exceeds ``baseline_ratio * max_ratio``.  Sizes missing either
    metric, or with a non-positive reference time, are ignored.
    """
    current_rows = _rows_by_size(current)
    baseline_rows = _rows_by_size(baseline)
    violations: list[str] = []
    for n in sorted(set(current_rows) & set(baseline_rows)):
        measured_pair = (
            current_rows[n].get(metric),
            current_rows[n].get(reference_metric),
        )
        reference_pair = (
            baseline_rows[n].get(metric),
            baseline_rows[n].get(reference_metric),
        )
        if None in measured_pair or None in reference_pair:
            continue
        if measured_pair[1] <= 0 or reference_pair[1] <= 0:
            continue
        measured_ratio = measured_pair[0] / measured_pair[1]
        baseline_ratio = reference_pair[0] / reference_pair[1]
        limit = baseline_ratio * max_ratio
        if measured_ratio > limit:
            violations.append(
                "%s/%s at n=%d regressed: %.2f measured vs %.2f baseline "
                "(limit %.2f = baseline * %.2f)"
                % (
                    metric,
                    reference_metric,
                    n,
                    measured_ratio,
                    baseline_ratio,
                    limit,
                    max_ratio,
                )
            )
    return violations


def check_speedup_regression(
    current: dict,
    baseline: dict,
    max_ratio: float = DEFAULT_MAX_RATIO,
) -> list[str]:
    """Machine-robust variant: compare arena-over-reference speedup ratios.

    A size regresses when its measured ``agglomerate_speedup`` falls below
    ``baseline_speedup / max_ratio``.  Because both engines run on the same
    machine in the same process, the ratio divides out absolute machine
    speed; sizes missing the speedup field (reference engine not timed) are
    ignored.
    """
    current_rows = _rows_by_size(current)
    baseline_rows = _rows_by_size(baseline)
    violations: list[str] = []
    for n in sorted(set(current_rows) & set(baseline_rows)):
        measured = current_rows[n].get("agglomerate_speedup")
        reference = baseline_rows[n].get("agglomerate_speedup")
        if measured is None or reference is None:
            continue
        floor = reference / max_ratio
        if measured < floor:
            violations.append(
                "agglomerate_speedup at n=%d regressed: %.2fx measured vs "
                "%.2fx baseline (floor %.2fx = baseline / %.2f)"
                % (n, measured, reference, floor, max_ratio)
            )
    return violations


def gate_against_baseline(
    current: dict,
    baseline_path: str | Path,
    max_ratio: float = DEFAULT_MAX_RATIO,
    slack_seconds: float | None = None,
) -> list[str]:
    """Convenience wrapper: load the baseline file and run the check.

    Returns the violation list; a missing baseline file yields a single
    violation naming the file, so callers can decide to skip or fail.
    """
    baseline_path = Path(baseline_path)
    if not baseline_path.exists():
        return ["baseline %s does not exist" % baseline_path]
    baseline = load_bench(baseline_path)
    violations = check_reference_accounting(current, label="current run")
    violations += check_reference_accounting(baseline, label="baseline")
    violations += check_phase_regressions(
        current,
        baseline,
        max_ratio=max_ratio,
        slack_seconds=slack_seconds,
    )
    return violations
