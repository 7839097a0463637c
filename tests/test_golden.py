"""Golden regression tests: every execution mode vs its committed fixture.

The fixtures under ``tests/golden/`` pin the exact labels and cluster
summaries of small seeded runs of all pipeline modes (in-memory /
streaming / sharded / online / online-with-refresh) on a mushroom-dataset
slice, plus the full request/response wire transcript of a scripted
``repro.serve`` session (the ``serve`` fixture, diffed byte for byte).  A failure here means the label pipeline's observable behaviour
changed; if the change is intentional, regenerate with::

    PYTHONPATH=src python tests/golden/regenerate.py

and commit the updated fixtures with the change.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", GOLDEN_DIR / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("mode", golden.MODES)
def test_mode_matches_committed_fixture(mode):
    path = golden.fixture_path(mode)
    assert path.is_file(), (
        "missing golden fixture %s; run tests/golden/regenerate.py" % path
    )
    expected = json.loads(path.read_text(encoding="utf-8"))
    actual = golden.summarize(mode, golden.run_case(mode))
    # Compare field by field so a mismatch names what drifted instead of
    # dumping two full JSON blobs.
    for key in expected:
        assert actual.get(key) == expected[key], (
            "golden drift in mode=%s field=%r (intentional? regenerate the "
            "fixtures and commit them with the change)" % (mode, key)
        )
    assert set(actual) == set(expected)


def test_fixtures_cover_every_mode():
    committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert committed == set(golden.MODES)


def test_online_fixture_agrees_with_streaming_fixture():
    # The determinism contract in fixture form: without a refresh trigger
    # the online labels are bit-identical to the streaming labels.
    streaming = json.loads(
        golden.fixture_path("streaming").read_text(encoding="utf-8")
    )
    online = json.loads(golden.fixture_path("online").read_text(encoding="utf-8"))
    assert online["labels"] == streaming["labels"]


def test_serve_transcript_frames_are_canonical_wire_bytes():
    # The committed hex frames ARE the wire bytes: the codec is canonical
    # (sorted keys, no whitespace), so re-encoding each decoded payload
    # must reproduce the recorded frame byte for byte.
    from repro.serve import protocol

    payload = json.loads(golden.fixture_path("serve").read_text(encoding="utf-8"))
    transcript = payload["transcript"]
    assert len(transcript) == 10
    for entry in transcript:
        assert bytes.fromhex(entry["request_frame"]) == protocol.encode_frame(
            entry["request"]
        )
        assert bytes.fromhex(entry["response_frame"]) == protocol.encode_frame(
            entry["response"]
        )
    # The scripted error paths stay typed.
    kinds = [
        entry["response"]["error"]["kind"]
        for entry in transcript
        if not entry["response"]["ok"]
    ]
    assert kinds == ["ConfigurationError", "ProtocolError"]


def test_refresh_fixture_actually_refreshed():
    payload = json.loads(
        golden.fixture_path("online_refresh").read_text(encoding="utf-8")
    )
    assert payload["n_refreshes"] >= 1


#: Reporting keys every entry point shares.
SHARED_PARAMETERS = {
    "n_clusters", "theta", "sample_size", "min_neighbors", "min_cluster_size",
    "labeling_fraction", "assign_outliers", "merge_counters",
}

#: The entry points behind the one phase driver: how each is called on the
#: golden slice and the reporting keys it adds to the shared ones.
CONTRACT_MODES = {
    "run": (lambda pipeline, data: pipeline.run(data), set()),
    "streaming": (
        lambda pipeline, data: pipeline.run_streaming(data, batch_size=golden.BATCH_SIZE),
        {"streaming", "batch_size", "sample_method"},
    ),
    "sharded-1": (
        lambda pipeline, data: pipeline.run_sharded(
            data, n_shards=1, batch_size=golden.BATCH_SIZE
        ),
        {
            "sharded", "n_shards", "shard_strategy", "shard_workers",
            "shard_executor", "shard_retries", "merge_fan_in", "merge_levels",
            "batch_size", "representatives_per_cluster", "skipped_shards",
        },
    ),
    "online": (
        lambda pipeline, data: pipeline.run_online(data, batch_size=golden.BATCH_SIZE),
        {
            "online", "batch_size", "sample_method", "refresh_threshold",
            "n_refreshes", "refresh_merge_counters",
        },
    ),
}


@pytest.mark.parametrize("mode", list(CONTRACT_MODES))
def test_every_entry_point_gives_the_run_result(mode):
    # streaming ≡ in-memory, 1-shard ≡ streaming and incremental ≡
    # streaming, checked on one slice together with the result shape the
    # shared finalizer gives every mode.
    from repro.core.pipeline import RockPipeline

    data = golden.golden_transactions()
    reference = RockPipeline(**golden.PIPELINE_PARAMS).run(data)
    call, mode_keys = CONTRACT_MODES[mode]
    result = call(RockPipeline(**golden.PIPELINE_PARAMS), data)

    assert result.labels.tolist() == reference.labels.tolist()
    assert result.clusters == reference.clusters
    assert result.n_outliers == reference.n_outliers
    assert sorted(result.labeled_indices) == sorted(reference.labeled_indices)
    assert result.labeling_result.neighbor_counts.shape == (0, result.n_clusters)
    assert set(result.timings) == {
        "sampling", "neighbors", "clustering", "labeling", "total",
    }
    assert set(result.parameters) == SHARED_PARAMETERS | mode_keys
    if mode == "sharded-1":
        # One shard reports every key a multi-shard run does.
        assert set(result.parameters) == set(golden.run_case("sharded").parameters)
