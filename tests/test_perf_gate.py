"""Tests for repro.bench.perf_gate and the engine benchmark plumbing."""

import json


from repro.bench.engine_bench import run_engine_bench, time_engine_phases
from repro.bench.perf_gate import (
    DEFAULT_MAX_RATIO,
    check_agglomeration_regression,
    gate_against_baseline,
    load_bench,
)


def _payload(rows):
    return {"benchmark": "engine", "sizes": rows}


class TestRegressionCheck:
    def test_passes_when_equal(self):
        baseline = _payload([{"n": 500, "agglomerate_arena_s": 1.0}])
        assert check_agglomeration_regression(baseline, baseline) == []

    def test_passes_within_ratio(self):
        current = _payload([{"n": 500, "agglomerate_arena_s": 1.4}])
        baseline = _payload([{"n": 500, "agglomerate_arena_s": 1.0}])
        assert check_agglomeration_regression(current, baseline) == []

    def test_fails_beyond_ratio(self):
        current = _payload([{"n": 500, "agglomerate_arena_s": 2.0}])
        baseline = _payload([{"n": 500, "agglomerate_arena_s": 1.0}])
        violations = check_agglomeration_regression(current, baseline)
        assert len(violations) == 1
        assert "n=500" in violations[0]

    def test_slack_absorbs_tiny_times(self):
        # 3x regression on a 10 ms measurement stays within the absolute
        # slack, so scheduler noise cannot trip the gate.
        current = _payload([{"n": 500, "agglomerate_arena_s": 0.030}])
        baseline = _payload([{"n": 500, "agglomerate_arena_s": 0.010}])
        assert check_agglomeration_regression(current, baseline) == []

    def test_unmatched_sizes_ignored(self):
        current = _payload([{"n": 500, "agglomerate_arena_s": 9.0}])
        baseline = _payload([{"n": 1000, "agglomerate_arena_s": 1.0}])
        assert check_agglomeration_regression(current, baseline) == []

    def test_faster_run_passes(self):
        current = _payload([{"n": 500, "agglomerate_arena_s": 0.2}])
        baseline = _payload([{"n": 500, "agglomerate_arena_s": 1.0}])
        assert check_agglomeration_regression(current, baseline) == []

    def test_custom_ratio(self):
        current = _payload([{"n": 500, "agglomerate_arena_s": 1.2}])
        baseline = _payload([{"n": 500, "agglomerate_arena_s": 1.0}])
        assert check_agglomeration_regression(
            current, baseline, max_ratio=1.1, slack_seconds=0.0
        ) != []
        assert DEFAULT_MAX_RATIO == 1.5

    def test_missing_baseline_file(self, tmp_path):
        violations = gate_against_baseline(_payload([]), tmp_path / "nope.json")
        assert len(violations) == 1
        assert "does not exist" in violations[0]


class TestEngineBenchSmoke:
    def test_time_engine_phases_small(self):
        row = time_engine_phases(60, include_reference=True, repeats=1)
        assert row["n"] == 60
        assert row["agglomerate_arena_s"] > 0
        assert row["agglomerate_reference_s"] > 0
        assert row["n_merges"] > 0
        assert "agglomerate_speedup" in row

    def test_per_strategy_neighbor_timings_recorded(self):
        row = time_engine_phases(60, include_reference=False, repeats=1)
        # neighbors_s is the auto call, the labelling-ratio denominator.
        assert row["neighbors_s"] > 0
        assert row["neighbors_blocked_s"] > 0
        assert "neighbors_vectorized_s" not in row

    def test_neighbor_metrics_are_gated(self):
        from repro.bench.perf_gate import DEFAULT_PHASE_METRICS, DEFAULT_PHASE_SLACKS

        assert "neighbors_blocked_s" in DEFAULT_PHASE_METRICS
        assert DEFAULT_PHASE_SLACKS["neighbors_blocked_s"] <= 0.01
        assert "neighbors_vectorized_s" not in DEFAULT_PHASE_METRICS

    def test_neighbor_peak_is_traced_per_block_cell(self):
        from repro.bench.engine_bench import trace_neighbor_peak
        from repro.core.neighbors import DEFAULT_BLOCK_SIZE

        row = trace_neighbor_peak(60)
        assert row["neighbors_peak_bytes"] > 0
        assert row["block_cells"] == DEFAULT_BLOCK_SIZE * 60
        assert row["neighbors_peak_bytes_per_cell"] == (
            row["neighbors_peak_bytes"] / row["block_cells"]
        )

    def test_run_engine_bench_writes_json(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        payload = run_engine_bench([50], reference_max=50, repeats=1, path=path)
        assert path.exists()
        on_disk = load_bench(path)
        assert on_disk["sizes"][0]["n"] == payload["sizes"][0]["n"] == 50
        assert on_disk["workload"]["generator"] == "market-basket"

    def test_gate_against_fresh_baseline_passes(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        payload = run_engine_bench([50], reference_max=0, repeats=1, path=path)
        assert gate_against_baseline(payload, path) == []


class TestSpeedupRegressionCheck:
    def test_ratio_holds_passes(self):
        current = _payload([{"n": 500, "agglomerate_speedup": 4.5}])
        baseline = _payload([{"n": 500, "agglomerate_speedup": 4.5}])
        from repro.bench.perf_gate import check_speedup_regression

        assert check_speedup_regression(current, baseline) == []

    def test_ratio_drop_fails(self):
        from repro.bench.perf_gate import check_speedup_regression

        current = _payload([{"n": 500, "agglomerate_speedup": 2.0}])
        baseline = _payload([{"n": 500, "agglomerate_speedup": 4.5}])
        violations = check_speedup_regression(current, baseline)
        assert len(violations) == 1
        assert "agglomerate_speedup" in violations[0]

    def test_small_drop_within_ratio_passes(self):
        from repro.bench.perf_gate import check_speedup_regression

        current = _payload([{"n": 500, "agglomerate_speedup": 3.5}])
        baseline = _payload([{"n": 500, "agglomerate_speedup": 4.5}])
        assert check_speedup_regression(current, baseline) == []

    def test_missing_speedup_ignored(self):
        from repro.bench.perf_gate import check_speedup_regression

        current = _payload([{"n": 500, "agglomerate_arena_s": 0.1}])
        baseline = _payload([{"n": 500, "agglomerate_speedup": 4.5}])
        assert check_speedup_regression(current, baseline) == []


class TestPhaseRegressionChecks:
    def test_label_metric_gated(self):
        from repro.bench.perf_gate import check_phase_regressions

        current = _payload([
            {"n": 500, "agglomerate_arena_s": 1.0, "label_s": 2.0}
        ])
        baseline = _payload([
            {"n": 500, "agglomerate_arena_s": 1.0, "label_s": 1.0}
        ])
        violations = check_phase_regressions(current, baseline)
        assert len(violations) == 1
        assert "label_s" in violations[0]

    def test_both_phases_flagged(self):
        from repro.bench.perf_gate import check_phase_regressions

        current = _payload([
            {"n": 500, "agglomerate_arena_s": 3.0, "label_s": 3.0}
        ])
        baseline = _payload([
            {"n": 500, "agglomerate_arena_s": 1.0, "label_s": 1.0}
        ])
        assert len(check_phase_regressions(current, baseline)) == 2

    def test_old_baseline_without_label_metric_ignored(self):
        from repro.bench.perf_gate import check_phase_regressions

        current = _payload([
            {"n": 500, "agglomerate_arena_s": 1.0, "label_s": 9.0}
        ])
        baseline = _payload([{"n": 500, "agglomerate_arena_s": 1.0}])
        assert check_phase_regressions(current, baseline) == []

    def test_gate_against_baseline_covers_labeling(self, tmp_path):
        import json

        from repro.bench.perf_gate import gate_against_baseline

        baseline_path = tmp_path / "BENCH_engine.json"
        # Rows must account for the reference engine explicitly now
        # (reference_skipped), or the accounting check fires first.
        baseline_path.write_text(json.dumps(
            _payload([{
                "n": 500, "agglomerate_arena_s": 1.0, "label_s": 1.0,
                "reference_skipped": True,
            }])
        ))
        current = _payload([
            {
                "n": 500, "agglomerate_arena_s": 1.0, "label_s": 2.0,
                "reference_skipped": True,
            }
        ])
        violations = gate_against_baseline(current, baseline_path)
        assert len(violations) == 1
        assert "label_s" in violations[0]


class TestRatioRegressionCheck:
    def test_ratio_holds_passes(self):
        from repro.bench.perf_gate import check_ratio_regression

        current = _payload([{"n": 500, "label_s": 0.4, "neighbors_s": 0.2}])
        baseline = _payload([{"n": 500, "label_s": 0.2, "neighbors_s": 0.1}])
        assert check_ratio_regression(current, baseline) == []

    def test_ratio_blowup_fails(self):
        from repro.bench.perf_gate import check_ratio_regression

        current = _payload([{"n": 500, "label_s": 1.0, "neighbors_s": 0.1}])
        baseline = _payload([{"n": 500, "label_s": 0.2, "neighbors_s": 0.1}])
        violations = check_ratio_regression(current, baseline)
        assert len(violations) == 1
        assert "label_s/neighbors_s" in violations[0]

    def test_missing_metrics_ignored(self):
        from repro.bench.perf_gate import check_ratio_regression

        current = _payload([{"n": 500, "label_s": 9.0}])
        baseline = _payload([{"n": 500, "label_s": 0.1, "neighbors_s": 0.1}])
        assert check_ratio_regression(current, baseline) == []

    def test_zero_reference_ignored(self):
        from repro.bench.perf_gate import check_ratio_regression

        current = _payload([{"n": 500, "label_s": 9.0, "neighbors_s": 0.0}])
        baseline = _payload([{"n": 500, "label_s": 0.1, "neighbors_s": 0.1}])
        assert check_ratio_regression(current, baseline) == []


class TestLabelBatchedBenchField:
    def test_time_engine_phases_records_batched_labeling(self):
        row = time_engine_phases(60, include_reference=False, repeats=1)
        assert row["label_batched_s"] > 0
        assert row["label_batches"] >= 1


class TestBatchedLabelMetricGated:
    def test_label_batched_metric_gated(self):
        from repro.bench.perf_gate import check_phase_regressions

        current = _payload([
            {"n": 500, "agglomerate_arena_s": 1.0, "label_s": 1.0,
             "label_batched_s": 2.0}
        ])
        baseline = _payload([
            {"n": 500, "agglomerate_arena_s": 1.0, "label_s": 1.0,
             "label_batched_s": 1.0}
        ])
        violations = check_phase_regressions(current, baseline)
        assert len(violations) == 1
        assert "label_batched_s" in violations[0]

    def test_ratio_check_accepts_batched_metric(self):
        from repro.bench.perf_gate import check_ratio_regression

        current = _payload([
            {"n": 500, "label_batched_s": 1.0, "neighbors_s": 0.1}
        ])
        baseline = _payload([
            {"n": 500, "label_batched_s": 0.2, "neighbors_s": 0.1}
        ])
        violations = check_ratio_regression(
            current, baseline, metric="label_batched_s"
        )
        assert len(violations) == 1
        assert "label_batched_s/neighbors_s" in violations[0]


class TestPerMetricSlack:
    def test_label_metric_uses_tight_slack(self):
        # A 3x regression on a 10 ms labelling time must trip (tight 10 ms
        # slack) even though the same numbers pass for the agglomeration
        # metric under its 50 ms slack.
        from repro.bench.perf_gate import check_phase_regressions

        current = _payload([
            {"n": 500, "agglomerate_arena_s": 0.030, "label_s": 0.030}
        ])
        baseline = _payload([
            {"n": 500, "agglomerate_arena_s": 0.010, "label_s": 0.010}
        ])
        violations = check_phase_regressions(current, baseline)
        assert len(violations) == 1
        assert "label_s" in violations[0]

    def test_explicit_slack_overrides_per_metric_defaults(self):
        from repro.bench.perf_gate import check_phase_regressions

        current = _payload([{"n": 500, "label_s": 0.030}])
        baseline = _payload([{"n": 500, "label_s": 0.010}])
        assert check_phase_regressions(
            current, baseline, slack_seconds=0.05
        ) == []


class TestReferenceAccounting:
    """check_reference_accounting: reference metrics must never go missing
    silently — a row either records them or marks reference_skipped."""

    def _row(self, **extra):
        return {"n": 4000, "agglomerate_arena_s": 1.0, **extra}

    def test_metrics_present_passes(self):
        from repro.bench.perf_gate import check_reference_accounting

        payload = _payload([
            self._row(agglomerate_reference_s=5.0, agglomerate_speedup=5.0)
        ])
        assert check_reference_accounting(payload) == []

    def test_marker_without_metrics_passes(self):
        from repro.bench.perf_gate import check_reference_accounting

        payload = _payload([self._row(reference_skipped=True)])
        assert check_reference_accounting(payload) == []

    def test_silent_omission_flagged(self):
        from repro.bench.perf_gate import check_reference_accounting

        violations = check_reference_accounting(_payload([self._row()]))
        assert len(violations) == 1
        assert "n=4000" in violations[0]
        assert "reference_skipped" in violations[0]

    def test_partial_metrics_flagged(self):
        from repro.bench.perf_gate import check_reference_accounting

        violations = check_reference_accounting(
            _payload([self._row(agglomerate_reference_s=5.0)])
        )
        assert len(violations) == 1
        assert "agglomerate_speedup" in violations[0]

    def test_marker_metric_contradiction_flagged(self):
        from repro.bench.perf_gate import check_reference_accounting

        violations = check_reference_accounting(
            _payload([
                self._row(
                    reference_skipped=True,
                    agglomerate_reference_s=5.0,
                    agglomerate_speedup=5.0,
                )
            ])
        )
        assert len(violations) == 1
        assert "marks reference_skipped but records" in violations[0]

    def test_gate_against_baseline_runs_accounting(self, tmp_path):
        # A baseline whose large row silently lost its reference metrics is
        # rejected loudly instead of being half-gated.
        baseline_path = tmp_path / "BENCH_engine.json"
        baseline_path.write_text(
            json.dumps(_payload([self._row()])), encoding="utf-8"
        )
        current = _payload([
            self._row(agglomerate_reference_s=5.0, agglomerate_speedup=5.0)
        ])
        violations = gate_against_baseline(current, baseline_path)
        assert any("baseline" in v and "reference_skipped" in v for v in violations)

    def test_arena_metric_is_gated(self):
        from repro.bench.perf_gate import DEFAULT_PHASE_METRICS, DEFAULT_PHASE_SLACKS

        assert "agglomerate_arena_s" in DEFAULT_PHASE_METRICS
        assert "agglomerate_arena_s" in DEFAULT_PHASE_SLACKS

    def test_committed_baseline_accounts_for_every_row(self):
        from pathlib import Path

        from repro.bench.perf_gate import (
            BASELINE_FILENAME,
            check_reference_accounting,
        )

        path = Path(__file__).resolve().parents[1] / BASELINE_FILENAME
        assert check_reference_accounting(load_bench(path)) == []
