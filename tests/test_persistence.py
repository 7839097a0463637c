"""Tests for repro.persistence: failpoints, WAL, snapshots and recovery.

The contract under test (docs/ARCHITECTURE.md, "Persistence & recovery"):
a session restored from the last durable checkpoint plus the WAL tail is
*bit-identical* to one that never stopped — same labels, same matrices,
same RNG stream — no matter where the process was killed.  The kill points
are exercised through the :mod:`repro.persistence.failpoints` registry
rather than actual signals, so every crash window is deterministic.
"""

import hashlib
import json
import pickle
import struct

import numpy as np
import pytest

from repro.core.incremental import IncrementalRock
from repro.core.pipeline import RockPipeline
from repro.core.rock import RockClustering
from repro.data.dataset import TransactionDataset
from repro.data.io import read_transactions, write_transactions
from repro.datasets.market_basket import generate_market_baskets
from repro.errors import (
    ConfigurationError,
    PersistenceError,
    ReproError,
    SnapshotConfigMismatchError,
    SnapshotCorruptionError,
    SnapshotNotFoundError,
    SnapshotVersionError,
    WalCorruptionError,
)
from repro.persistence import failpoints
from repro.persistence.session import PersistentSession
from repro.persistence.snapshot import (
    CURRENT_NAME,
    MANIFEST_NAME,
    SNAPSHOT_FORMAT_VERSION,
    SessionSnapshot,
    latest_checkpoint,
    list_checkpoints,
)
from repro.persistence.wal import WriteAheadLog

# --------------------------------------------------------------------- #
# Fixtures and helpers
# --------------------------------------------------------------------- #
GROUP_A = [
    frozenset({1, 2, 3}), frozenset({1, 2, 4}),
    frozenset({1, 3, 4}), frozenset({2, 3, 4}),
]
GROUP_B = [
    frozenset({7, 8, 9}), frozenset({7, 8, 10}),
    frozenset({7, 9, 10}), frozenset({8, 9, 10}),
]
BOOTSTRAP = GROUP_A + GROUP_B
STREAM_BATCHES = [
    [frozenset({1, 2}), frozenset({7, 8})],
    [frozenset({2, 3})],
    [frozenset({9, 10}), frozenset({1, 4}), frozenset({8, 10})],
    [frozenset({3, 4}), frozenset({7, 9})],
]

#: The strategy keys snapshot format versions 1 and 2 recorded, at the
#: defaults every session then ran under.
RECORDED_STRATEGY_DEFAULTS = {
    "engine": "auto",
    "neighbor_strategy": "auto",
    "neighbor_block_size": None,
    "link_strategy": "auto",
    "labeling_strategy": "auto",
}


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


def _session(theta=0.4, rng=0, **kwargs):
    clusters = RockClustering(n_clusters=2, theta=theta).fit(BOOTSTRAP).clusters_
    session = IncrementalRock(n_clusters=2, theta=theta, rng=rng, **kwargs)
    session.bootstrap(BOOTSTRAP, clusters)
    return session


def _assert_sessions_identical(left, right):
    """Bit-identity over everything the ingest path can observe."""
    assert (left.adjacency_ != right.adjacency_).nnz == 0
    assert (left.links_ != right.links_).nnz == 0
    np.testing.assert_array_equal(left._cluster_of, right._cluster_of)
    assert (left._cluster_links != right._cluster_links).nnz == 0
    assert left.rng.bit_generator.state == right.rng.bit_generator.state


def _run_schedule(session, batches):
    return [session.ingest(batch).labels.tolist() for batch in batches]


def _assert_recorded_choice_resumes(directory, monkeypatch, key, value):
    """A format-version-2 checkpoint whose config recorded ``key=value``
    (every other strategy key at its default) resumes under the current
    session config and keeps ingesting bit-identically."""
    reference = _session()
    _run_schedule(reference, STREAM_BATCHES[:2])
    interrupted = _session()
    _run_schedule(interrupted, STREAM_BATCHES[:2])
    recorded = {**interrupted.config_dict(), **RECORDED_STRATEGY_DEFAULTS, key: value}
    monkeypatch.setattr(interrupted, "config_dict", lambda: recorded)
    SessionSnapshot(interrupted).save(directory)
    manifest_path = latest_checkpoint(directory) / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    assert manifest["config"][key] == value
    manifest["version"] = 2
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

    restored = SessionSnapshot.load(
        directory, expected_config=_session().config_dict()
    ).session
    assert _run_schedule(restored, STREAM_BATCHES[2:]) == _run_schedule(
        reference, STREAM_BATCHES[2:]
    )
    _assert_sessions_identical(restored, reference)


# --------------------------------------------------------------------- #
# Failpoint registry
# --------------------------------------------------------------------- #
class TestFailpoints:
    def test_inactive_site_is_a_no_op(self):
        failpoints.hit("nothing.armed")  # must not raise

    def test_activate_and_budget(self):
        failpoints.activate("site", times=2)
        with pytest.raises(failpoints.InjectedFaultError):
            failpoints.hit("site")
        with pytest.raises(failpoints.InjectedFaultError):
            failpoints.hit("site")
        failpoints.hit("site")  # budget exhausted

    def test_unlimited_budget(self):
        failpoints.activate("site")
        for _ in range(5):
            with pytest.raises(failpoints.InjectedFaultError):
                failpoints.hit("site")

    def test_zero_times_is_inert(self):
        failpoints.activate("site", times=0)
        failpoints.hit("site")

    def test_context_manager_deactivates_on_exit(self):
        with failpoints.failpoint("site"):
            assert "site" in failpoints.active_failpoints()
        assert "site" not in failpoints.active_failpoints()
        failpoints.hit("site")

    def test_consume_reports_without_raising(self):
        failpoints.activate("site", times=1)
        assert failpoints.consume("site") is True
        assert failpoints.consume("site") is False

    def test_error_is_not_a_repro_error(self):
        # Injected faults simulate infrastructure crashes; they must not be
        # swallowed by `except ReproError` handlers (e.g. the CLI).
        assert not issubclass(failpoints.InjectedFaultError, ReproError)

    def test_load_from_env_parses_names_and_budgets(self):
        failpoints.load_from_env({failpoints.ENV_VAR: "alpha, beta*2"})
        active = failpoints.active_failpoints()
        assert active["alpha"] == -1
        assert active["beta"] == 2


# --------------------------------------------------------------------- #
# Write-ahead log
# --------------------------------------------------------------------- #
class TestWriteAheadLog:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        payloads = [["a", "b"], {"k": 1}, [frozenset({1, 2})]]
        for seq, payload in enumerate(payloads):
            wal.append(seq, payload)
        records = wal.recover()
        assert [record.seq for record in records] == [0, 1, 2]
        assert [record.payload for record in records] == payloads
        assert wal.last_seq() == 2

    def test_after_seq_filters_replayed_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        for seq in range(4):
            wal.append(seq, seq)
        tail = wal.recover(after_seq=1)
        assert [record.seq for record in tail] == [2, 3]

    def test_missing_file_recovers_empty(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "absent.log")
        assert wal.recover() == []
        assert wal.last_seq() == -1

    def test_reset_empties_the_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(0, "x")
        wal.reset()
        assert wal.recover() == []

    def test_torn_tail_truncated_not_crashed(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for seq in range(3):
            wal.append(seq, ["payload", seq])
        intact_size = path.stat().st_size
        wal.append(3, ["torn"])
        with path.open("r+b") as handle:  # cut the last record in half
            handle.truncate(intact_size + 7)
        records = wal.recover()
        assert [record.seq for record in records] == [0, 1, 2]
        assert path.stat().st_size == intact_size  # repaired in place

    def test_torn_append_failpoint_produces_recoverable_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(0, "good")
        with failpoints.failpoint("wal.torn-append", times=1):
            with pytest.raises(failpoints.InjectedFaultError):
                wal.append(1, "half-written")
        records = wal.recover()
        assert [record.payload for record in records] == ["good"]
        wal.append(1, "after-repair")
        assert [r.payload for r in wal.recover()] == ["good", "after-repair"]

    def test_mid_log_corruption_raises_typed_error(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for seq in range(3):
            wal.append(seq, "payload-%d" % seq)
        blob = bytearray(path.read_bytes())
        header = struct.calcsize("<QII")
        first = header + len(pickle.dumps("payload-0", pickle.HIGHEST_PROTOCOL))
        blob[first + header + 2] ^= 0xFF  # flip a byte inside record 1
        path.write_bytes(bytes(blob))
        with pytest.raises(WalCorruptionError):
            wal.recover()

    def test_corrupt_final_record_treated_as_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(0, "keep")
        keep_size = path.stat().st_size
        wal.append(1, "scramble")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        records = wal.recover()
        assert [record.payload for record in records] == ["keep"]
        assert path.stat().st_size == keep_size

    def test_wal_errors_sit_under_persistence_error(self):
        assert issubclass(WalCorruptionError, PersistenceError)
        assert issubclass(PersistenceError, ReproError)


# --------------------------------------------------------------------- #
# Snapshot save/load
# --------------------------------------------------------------------- #
class TestSnapshotRoundTrip:
    def test_restored_session_continues_bit_identically(self, tmp_path):
        reference = _session()
        _run_schedule(reference, STREAM_BATCHES[:2])

        interrupted = _session()
        _run_schedule(interrupted, STREAM_BATCHES[:2])
        SessionSnapshot(interrupted).save(tmp_path)
        restored = SessionSnapshot.load(tmp_path).session

        _assert_sessions_identical(restored, reference)
        tail_restored = _run_schedule(restored, STREAM_BATCHES[2:])
        tail_reference = _run_schedule(reference, STREAM_BATCHES[2:])
        assert tail_restored == tail_reference
        _assert_sessions_identical(restored, reference)

    def test_earlier_cluster_id_layout_restores(self):
        # Checkpoints written while every merge minted a fresh cluster id
        # carry sparse ids plus the retired heap stores, and may record the
        # retired flat engine; they restore to the same partition,
        # compacted to slots in id order.
        reference = _session()
        _run_schedule(reference, STREAM_BATCHES[:2])
        state = reference.session_state()
        state["cluster_of"] = [3 * slot + 7 for slot in state["cluster_of"]]
        state["counters"].update(next_cluster_id=99, heap_seq=42)
        state.update(members={}, cluster_links={}, heap=[])
        state["config"]["engine"] = "flat"

        restored = IncrementalRock.from_session_state(state)
        _assert_sessions_identical(restored, reference)
        assert _run_schedule(restored, STREAM_BATCHES[2:]) == _run_schedule(
            reference, STREAM_BATCHES[2:]
        )

    def test_extra_and_wal_seq_round_trip(self, tmp_path):
        extra = {"labels": [1, 2, 3], "nested": {"k": "v"}}
        SessionSnapshot(_session(), extra=extra, wal_seq=17).save(tmp_path)
        loaded = SessionSnapshot.load(tmp_path)
        assert loaded.extra == extra
        assert loaded.wal_seq == 17

    def test_matching_expected_config_loads(self, tmp_path):
        session = _session()
        SessionSnapshot(session).save(tmp_path)
        loaded = SessionSnapshot.load(
            tmp_path, expected_config=session.config_dict()
        )
        assert loaded.session.config_dict() == session.config_dict()

    def test_retired_flat_engine_checkpoint_resumes_under_default(
        self, tmp_path, monkeypatch
    ):
        _assert_recorded_choice_resumes(tmp_path, monkeypatch, "engine", "flat")

    @pytest.mark.parametrize("retired", ["vectorized", "inverted-index"])
    def test_retired_backend_checkpoint_resumes_under_auto(
        self, tmp_path, monkeypatch, retired
    ):
        # Checkpoints written while a retired backend (the one-shot product,
        # the inverted index) was registered resume and keep ingesting
        # bit-identically (the adjacency never depended on it).
        _assert_recorded_choice_resumes(
            tmp_path, monkeypatch, "neighbor_strategy", retired
        )

    def test_retired_vectorized_backend_state_restores_under_auto(self):
        reference = _session()
        _run_schedule(reference, STREAM_BATCHES[:2])
        state = reference.session_state()
        state["config"].update(RECORDED_STRATEGY_DEFAULTS, neighbor_strategy="Vectorized")

        restored = IncrementalRock.from_session_state(state)
        assert restored.config_dict() == reference.config_dict()
        assert _run_schedule(restored, STREAM_BATCHES[2:]) == _run_schedule(
            reference, STREAM_BATCHES[2:]
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("engine", "reference"),
            ("neighbor_strategy", "blocked"),
            ("neighbor_block_size", 16),
            ("link_strategy", "neighbor-lists"),
            ("labeling_strategy", "bruteforce"),
        ],
    )
    def test_recorded_strategy_choice_resumes(self, tmp_path, monkeypatch, key, value):
        # Format version 2 refused to resume under any choice but the one it
        # recorded.  Each choice reproduced the defaults' results, so a
        # checkpoint that recorded one now resumes under the defaults.
        _assert_recorded_choice_resumes(tmp_path, monkeypatch, key, value)

    def test_unknown_recorded_key_still_mismatches(self, tmp_path, monkeypatch):
        session = _session()
        recorded = dict(session.config_dict(), warp=9)
        monkeypatch.setattr(session, "config_dict", lambda: recorded)
        SessionSnapshot(session).save(tmp_path)
        with pytest.raises(SnapshotConfigMismatchError, match="warp"):
            SessionSnapshot.load(tmp_path, expected_config=_session().config_dict())

    def test_keep_garbage_collects_old_checkpoints(self, tmp_path):
        session = _session()
        SessionSnapshot(session).save(tmp_path, keep=1)
        SessionSnapshot(session).save(tmp_path, keep=1)
        assert [p.name for p in list_checkpoints(tmp_path)] == ["checkpoint-000001"]
        SessionSnapshot(session).save(tmp_path, keep=2)
        assert len(list_checkpoints(tmp_path)) == 2

    def test_current_pointer_tracks_newest(self, tmp_path):
        session = _session()
        SessionSnapshot(session).save(tmp_path, keep=3)
        SessionSnapshot(session).save(tmp_path, keep=3)
        pointer = (tmp_path / CURRENT_NAME).read_text().strip()
        assert pointer == "checkpoint-000001"
        assert latest_checkpoint(tmp_path).name == pointer

    def test_dangling_current_falls_back_to_newest_dir(self, tmp_path):
        SessionSnapshot(_session()).save(tmp_path)
        (tmp_path / CURRENT_NAME).write_text("checkpoint-999999\n")
        assert latest_checkpoint(tmp_path).name == "checkpoint-000000"
        assert SessionSnapshot.load(tmp_path).session is not None


class TestSnapshotCrashSafety:
    @pytest.mark.parametrize("site", [
        "snapshot.before-manifest",
        "snapshot.before-rename",
        "snapshot.before-current",
    ])
    def test_kill_mid_snapshot_preserves_previous_checkpoint(
        self, tmp_path, site
    ):
        session = _session()
        SessionSnapshot(session, wal_seq=5).save(tmp_path)
        _run_schedule(session, STREAM_BATCHES[:1])
        with failpoints.failpoint(site, times=1):
            with pytest.raises(failpoints.InjectedFaultError):
                SessionSnapshot(session, wal_seq=9).save(tmp_path)
        loaded = SessionSnapshot.load(tmp_path)
        # Every site recovers to the previous checkpoint: the still-valid
        # CURRENT pointer wins even when the before-current kill left the
        # newer directory behind (the un-reset WAL covers the gap either
        # way, so both answers replay to the same state).
        assert loaded.wal_seq == 5
        # After the injected crash the directory keeps working.
        final = SessionSnapshot(session, wal_seq=9).save(tmp_path)
        assert SessionSnapshot.load(tmp_path).wal_seq == 9
        assert final.is_dir()

    def test_stale_tmp_directories_cleaned_on_next_save(self, tmp_path):
        session = _session()
        with failpoints.failpoint("snapshot.before-rename", times=1):
            with pytest.raises(failpoints.InjectedFaultError):
                SessionSnapshot(session).save(tmp_path)
        assert list(tmp_path.glob(".tmp-checkpoint-*"))
        SessionSnapshot(session).save(tmp_path)
        assert not list(tmp_path.glob(".tmp-checkpoint-*"))


class TestSnapshotValidation:
    def _saved(self, tmp_path):
        SessionSnapshot(_session()).save(tmp_path)
        return latest_checkpoint(tmp_path)

    def test_empty_directory_raises_not_found(self, tmp_path):
        with pytest.raises(SnapshotNotFoundError):
            SessionSnapshot.load(tmp_path / "nowhere")

    def test_wrong_version_raises_version_error(self, tmp_path):
        checkpoint = self._saved(tmp_path)
        manifest_path = checkpoint / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        for version in (999, 0, SNAPSHOT_FORMAT_VERSION + 1, "2", None):
            manifest["version"] = version
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(SnapshotVersionError, match="version %r" % version):
                SessionSnapshot.load(tmp_path)

    def test_mismatched_config_raises_with_differing_keys(self, tmp_path):
        session = _session()
        self._saved(tmp_path)
        wrong = dict(session.config_dict(), theta=0.9)
        with pytest.raises(SnapshotConfigMismatchError, match="theta"):
            SessionSnapshot.load(tmp_path, expected_config=wrong)

    def test_corrupted_blob_raises_naming_the_file(self, tmp_path):
        checkpoint = self._saved(tmp_path)
        blob_path = checkpoint / "arrays.npz"
        blob = bytearray(blob_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorruptionError, match="arrays.npz"):
            SessionSnapshot.load(tmp_path)

    def test_missing_blob_raises_corruption(self, tmp_path):
        checkpoint = self._saved(tmp_path)
        (checkpoint / "objects.pkl").unlink()
        with pytest.raises(SnapshotCorruptionError, match="objects.pkl"):
            SessionSnapshot.load(tmp_path)

    def test_missing_manifest_raises_corruption(self, tmp_path):
        checkpoint = self._saved(tmp_path)
        (checkpoint / MANIFEST_NAME).unlink()
        with pytest.raises(SnapshotCorruptionError, match=MANIFEST_NAME):
            SessionSnapshot.load(tmp_path)

    def test_unparsable_manifest_raises_corruption(self, tmp_path):
        checkpoint = self._saved(tmp_path)
        (checkpoint / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SnapshotCorruptionError, match="JSON"):
            SessionSnapshot.load(tmp_path)

    def test_foreign_manifest_raises_corruption(self, tmp_path):
        checkpoint = self._saved(tmp_path)
        (checkpoint / MANIFEST_NAME).write_text('{"format": "something-else"}')
        with pytest.raises(SnapshotCorruptionError):
            SessionSnapshot.load(tmp_path)

    def test_every_snapshot_error_sits_under_persistence_error(self):
        for error in (
            SnapshotNotFoundError,
            SnapshotCorruptionError,
            SnapshotVersionError,
            SnapshotConfigMismatchError,
        ):
            assert issubclass(error, PersistenceError)

    def test_load_parses_the_verified_bytes(self, tmp_path, monkeypatch):
        # A blob rewritten between its checksum and its parse must not be
        # what gets loaded: the arrays come from the verified bytes.
        session = _session()
        _run_schedule(session, STREAM_BATCHES[:2])
        SessionSnapshot(session).save(tmp_path)
        verified_blobs = SessionSnapshot._verified_blobs

        def verify_then_overwrite(checkpoint, manifest):
            blobs = verified_blobs(checkpoint, manifest)
            (checkpoint / "arrays.npz").write_bytes(b"rewritten after the check")
            return blobs

        monkeypatch.setattr(
            SessionSnapshot, "_verified_blobs", staticmethod(verify_then_overwrite)
        )
        _assert_sessions_identical(SessionSnapshot.load(tmp_path).session, session)


# --------------------------------------------------------------------- #
# Format compatibility: version 1 carried the point-level link matrix
# --------------------------------------------------------------------- #
def _rewrite_as_version_1(checkpoint, links):
    """Turn a current checkpoint into the version-1 layout: the same blobs
    plus the ``links_*`` arrays, manifest version 1, checksums recomputed."""
    arrays_path = checkpoint / "arrays.npz"
    with np.load(arrays_path, allow_pickle=False) as bundle:
        blobs = {name: bundle[name] for name in bundle.files}
    assert not any(name.startswith("links_") for name in blobs)
    blobs.update(
        links_data=links.data,
        links_indices=links.indices,
        links_indptr=links.indptr,
        links_shape=np.asarray(links.shape, dtype=np.int64),
    )
    with arrays_path.open("wb") as handle:
        np.savez(handle, **blobs)
    manifest_path = checkpoint / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 1
    manifest["files"]["arrays.npz"] = hashlib.sha256(
        arrays_path.read_bytes()
    ).hexdigest()
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")


class TestSnapshotFormatCompatibility:
    def test_current_checkpoint_holds_no_links(self, tmp_path):
        SessionSnapshot(_session()).save(tmp_path)
        checkpoint = latest_checkpoint(tmp_path)
        manifest = json.loads((checkpoint / MANIFEST_NAME).read_text())
        assert manifest["version"] == SNAPSHOT_FORMAT_VERSION == 3
        with np.load(checkpoint / "arrays.npz", allow_pickle=False) as bundle:
            assert {name.split("_")[0] for name in bundle.files} == {
                "adjacency", "incidence", "sizes"
            }

    def test_version_1_checkpoint_resumes_bit_identically(self, tmp_path):
        # A version-1 checkpoint plus its WAL tail resumes exactly like the
        # uninterrupted session; its links blob is checksummed, not read.
        reference = _session()
        labels_reference = _run_schedule(reference, STREAM_BATCHES)

        store = PersistentSession.create(tmp_path, _session())
        labels = [store.ingest(batch).labels.tolist() for batch in STREAM_BATCHES[:1]]
        store.snapshot()
        labels += [
            store.ingest(batch).labels.tolist() for batch in STREAM_BATCHES[1:2]
        ]
        checkpoint = latest_checkpoint(tmp_path)
        _rewrite_as_version_1(checkpoint, store.session.links_)
        del store  # simulated kill: the WAL holds the second batch

        resumed = PersistentSession.resume(
            tmp_path, expected_config=reference.config_dict()
        )
        assert resumed.n_replayed == 1
        labels += [
            resumed.ingest(batch).labels.tolist() for batch in STREAM_BATCHES[2:]
        ]
        assert labels == labels_reference
        _assert_sessions_identical(resumed.session, reference)

    @pytest.mark.parametrize("with_links", [False, True])
    def test_from_session_state_with_or_without_links(self, with_links):
        reference = _session()
        _run_schedule(reference, STREAM_BATCHES[:2])
        state = reference.session_state()
        assert "links" not in state["arrays"]
        if with_links:
            state["arrays"]["links"] = reference.links_

        restored = IncrementalRock.from_session_state(state)
        _assert_sessions_identical(restored, reference)
        assert _run_schedule(restored, STREAM_BATCHES[2:]) == _run_schedule(
            reference, STREAM_BATCHES[2:]
        )


# --------------------------------------------------------------------- #
# PersistentSession: WAL + snapshots end to end
# --------------------------------------------------------------------- #
class TestPersistentSession:
    def test_create_writes_immediate_checkpoint(self, tmp_path):
        store = PersistentSession.create(tmp_path, _session())
        assert store.n_snapshots == 1
        assert PersistentSession.can_resume(tmp_path)

    def test_crash_without_close_resumes_bit_identically(self, tmp_path):
        reference = _session()
        labels_reference = _run_schedule(reference, STREAM_BATCHES)

        store = PersistentSession.create(tmp_path, _session())
        labels_before = [
            store.ingest(batch).labels.tolist() for batch in STREAM_BATCHES[:2]
        ]
        del store  # simulated kill: no close(), WAL holds the tail

        resumed = PersistentSession.resume(tmp_path)
        assert resumed.n_replayed == 2
        labels_after = [
            resumed.ingest(batch).labels.tolist() for batch in STREAM_BATCHES[2:]
        ]
        assert labels_before + labels_after == labels_reference
        _assert_sessions_identical(resumed.session, reference)

    def test_snapshot_every_checkpoints_and_resets_wal(self, tmp_path):
        store = PersistentSession.create(tmp_path, _session(), snapshot_every=2)
        for batch in STREAM_BATCHES[:2]:
            store.ingest(batch)
        assert store.n_snapshots == 2  # checkpoint 0 + one periodic
        assert store.wal.last_seq() == -1  # reset after the checkpoint
        resumed = PersistentSession.resume(tmp_path)
        assert resumed.n_replayed == 0

    def test_torn_wal_append_recovers_previous_state(self, tmp_path):
        reference = _session()
        _run_schedule(reference, STREAM_BATCHES)

        store = PersistentSession.create(tmp_path, _session())
        store.ingest(STREAM_BATCHES[0])
        with failpoints.failpoint("wal.torn-append", times=1):
            with pytest.raises(failpoints.InjectedFaultError):
                store.ingest(STREAM_BATCHES[1])

        resumed = PersistentSession.resume(tmp_path)
        assert resumed.n_replayed == 1  # only the intact first record
        for batch in STREAM_BATCHES[1:]:
            resumed.ingest(batch)
        _assert_sessions_identical(resumed.session, reference)

    def test_crash_between_checkpoint_and_wal_reset_is_idempotent(
        self, tmp_path
    ):
        # The dangerous window: the checkpoint is durable but the WAL was
        # not reset before the kill.  The wal_seq guard must keep replay
        # from applying records the checkpoint already contains.
        reference = _session()
        _run_schedule(reference, STREAM_BATCHES)

        store = PersistentSession.create(tmp_path, _session())
        for batch in STREAM_BATCHES[:2]:
            store.ingest(batch)
        SessionSnapshot(store.session, wal_seq=store._wal_seq).save(tmp_path)
        # (no wal.reset() — simulated kill right here)

        resumed = PersistentSession.resume(tmp_path)
        assert resumed.n_replayed == 0
        for batch in STREAM_BATCHES[2:]:
            resumed.ingest(batch)
        _assert_sessions_identical(resumed.session, reference)

    def test_close_writes_final_checkpoint_once(self, tmp_path):
        store = PersistentSession.create(tmp_path, _session())
        store.ingest(STREAM_BATCHES[0])
        assert store.close() is not None
        assert store.close() is None  # nothing new since the checkpoint

    def test_kill_mid_periodic_snapshot_then_resume(self, tmp_path):
        # A crash *inside* a periodic checkpoint write: the previous
        # checkpoint plus the (not yet reset) WAL must still reconstruct
        # the full state.
        reference = _session()
        _run_schedule(reference, STREAM_BATCHES)

        store = PersistentSession.create(tmp_path, _session(), snapshot_every=2)
        store.ingest(STREAM_BATCHES[0])
        with failpoints.failpoint("snapshot.before-rename", times=1):
            with pytest.raises(failpoints.InjectedFaultError):
                store.ingest(STREAM_BATCHES[1])  # triggers the checkpoint

        resumed = PersistentSession.resume(tmp_path)
        assert resumed.n_replayed == 2
        for batch in STREAM_BATCHES[2:]:
            resumed.ingest(batch)
        _assert_sessions_identical(resumed.session, reference)

    def test_invalid_snapshot_every_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            PersistentSession(tmp_path, _session(), snapshot_every=0)

    def test_resume_nothing_raises_not_found(self, tmp_path):
        with pytest.raises(SnapshotNotFoundError):
            PersistentSession.resume(tmp_path / "empty")

    def test_double_close_is_idempotent(self, tmp_path):
        store = PersistentSession.create(tmp_path, _session())
        store.ingest(STREAM_BATCHES[0])
        assert store.closed is False
        assert store.close() is not None
        assert store.closed is True
        # Every further close is a pure no-op: no checkpoint, no error.
        before = store.n_snapshots
        assert store.close() is None
        assert store.close() is None
        assert store.n_snapshots == before

    def test_context_manager_closes_on_clean_exit(self, tmp_path):
        with PersistentSession.create(tmp_path, _session()) as store:
            store.ingest(STREAM_BATCHES[0])
            assert store.closed is False
        assert store.closed is True
        assert store.n_snapshots == 2  # checkpoint 0 + the final close

    def test_context_manager_tolerates_explicit_close_in_body(self, tmp_path):
        with PersistentSession.create(tmp_path, _session()) as store:
            store.ingest(STREAM_BATCHES[0])
            store.close()
        assert store.n_snapshots == 2  # the with-exit close was a no-op

    def test_context_manager_does_not_checkpoint_on_error(self, tmp_path):
        # An exception leaves the store closed WITHOUT a final checkpoint:
        # the session may be mid-mutation, so recovery must come from the
        # last durable checkpoint + WAL, not a snapshot of unknown state.
        with pytest.raises(RuntimeError, match="boom"):
            with PersistentSession.create(tmp_path, _session()) as store:
                store.ingest(STREAM_BATCHES[0])
                raise RuntimeError("boom")
        assert store.closed is True
        assert store.n_snapshots == 1  # only checkpoint 0
        resumed = PersistentSession.resume(tmp_path)
        assert resumed.n_replayed == 1  # the logged batch came back

    def test_ingest_after_close_reopens_the_store(self, tmp_path):
        store = PersistentSession.create(tmp_path, _session())
        store.ingest(STREAM_BATCHES[0])
        store.close()
        # run_online closes its store at the end of the run, but the
        # session object stays live and post-run ingests are documented —
        # a new write re-opens, and the next close checkpoints again.
        store.ingest(STREAM_BATCHES[1])
        assert store.closed is False
        assert store.close() is not None


# --------------------------------------------------------------------- #
# Pipeline wiring: run_online with snapshots and resume
# --------------------------------------------------------------------- #
class TestPipelinePersistence:
    @pytest.fixture(scope="class")
    def basket_path(self, tmp_path_factory):
        baskets = generate_market_baskets(rng=3, n_transactions=160, n_clusters=3)
        path = tmp_path_factory.mktemp("data") / "baskets.txt"
        write_transactions(baskets, path)
        return path

    def _pipeline(self):
        return RockPipeline(
            n_clusters=3, theta=0.3, sample_size=60, min_cluster_size=2, rng=5
        )

    def test_snapshot_run_matches_plain_run(self, basket_path, tmp_path):
        plain = self._pipeline().run_online(basket_path, batch_size=32)
        persisted = self._pipeline().run_online(
            basket_path, batch_size=32,
            snapshot_dir=tmp_path / "snaps", snapshot_every=1,
        )
        assert np.array_equal(plain.labels, persisted.labels)
        assert plain.clusters == persisted.clusters
        assert (tmp_path / "snaps" / CURRENT_NAME).is_file()

    def test_crash_mid_run_then_resume_is_bit_identical(
        self, basket_path, tmp_path, monkeypatch
    ):
        plain = self._pipeline().run_online(
            basket_path, batch_size=16, refresh_threshold=0.25
        )

        # Kill the run via a torn WAL write on the 4th ingest append.
        calls = {"n": 0}
        original = WriteAheadLog.append

        def crashing_append(self, seq, payload):
            calls["n"] += 1
            if calls["n"] == 4:
                failpoints.activate("wal.torn-append", times=1)
            return original(self, seq, payload)

        monkeypatch.setattr(WriteAheadLog, "append", crashing_append)
        snaps = tmp_path / "snaps"
        with pytest.raises(failpoints.InjectedFaultError):
            self._pipeline().run_online(
                basket_path, batch_size=16, refresh_threshold=0.25,
                snapshot_dir=snaps, snapshot_every=2,
            )
        monkeypatch.setattr(WriteAheadLog, "append", original)

        resumed = self._pipeline().run_online(
            basket_path, batch_size=16, refresh_threshold=0.25,
            snapshot_dir=snaps, resume=True,
        )
        assert np.array_equal(plain.labels, resumed.labels)
        assert plain.clusters == resumed.clusters
        assert plain.parameters["n_refreshes"] == resumed.parameters["n_refreshes"]

    def test_resume_of_completed_run_reproduces_result(
        self, basket_path, tmp_path
    ):
        snaps = tmp_path / "snaps"
        first = self._pipeline().run_online(
            basket_path, batch_size=32, snapshot_dir=snaps
        )
        resumed = self._pipeline().run_online(
            basket_path, batch_size=32, snapshot_dir=snaps, resume=True
        )
        assert np.array_equal(first.labels, resumed.labels)
        assert first.clusters == resumed.clusters

    def test_resume_with_different_batch_size_rejected(
        self, basket_path, tmp_path
    ):
        snaps = tmp_path / "snaps"
        self._pipeline().run_online(basket_path, batch_size=32, snapshot_dir=snaps)
        with pytest.raises(SnapshotConfigMismatchError, match="batch_size"):
            self._pipeline().run_online(
                basket_path, batch_size=16, snapshot_dir=snaps, resume=True
            )

    def test_resume_with_different_theta_rejected(self, basket_path, tmp_path):
        snaps = tmp_path / "snaps"
        self._pipeline().run_online(basket_path, batch_size=32, snapshot_dir=snaps)
        mismatched = RockPipeline(
            n_clusters=3, theta=0.5, sample_size=60, min_cluster_size=2, rng=5
        )
        with pytest.raises(SnapshotConfigMismatchError, match="theta"):
            mismatched.run_online(
                basket_path, batch_size=32, snapshot_dir=snaps, resume=True
            )

    def test_bare_session_checkpoint_rejected_by_pipeline_resume(
        self, tmp_path
    ):
        # A checkpoint created through PersistentSession directly carries
        # no online-pipeline bookkeeping; resuming it through run_online
        # must fail with a typed error, not mislabel the stream.
        PersistentSession.create(tmp_path, _session())
        pipeline = RockPipeline(n_clusters=2, theta=0.4, sample_size=6, rng=0)
        source = [list(batch) for batch in STREAM_BATCHES]
        flat = [t for batch in source for t in batch] + BOOTSTRAP
        with pytest.raises((SnapshotCorruptionError, SnapshotConfigMismatchError)):
            pipeline.run_online(
                flat, batch_size=4, snapshot_dir=tmp_path, resume=True
            )

    def test_snapshot_every_without_dir_rejected(self, basket_path):
        with pytest.raises(ConfigurationError):
            self._pipeline().run_online(basket_path, snapshot_every=2)

    @pytest.mark.parametrize("as_path", [False, True], ids=["in-memory", "path"])
    def test_resume_on_longer_source_rejected_before_logging(
        self, basket_path, tmp_path, as_path
    ):
        source = read_transactions(basket_path).transactions
        longer = source + source[:50]
        if as_path:
            write_transactions(TransactionDataset(longer), tmp_path / "longer.txt")
            source, longer = basket_path, tmp_path / "longer.txt"
        plain = self._pipeline().run_online(source, batch_size=32)
        snaps = tmp_path / "snaps"
        self._pipeline().run_online(source, batch_size=32, snapshot_dir=snaps)
        with pytest.raises(SnapshotConfigMismatchError, match="160"):
            self._pipeline().run_online(
                longer, batch_size=32, snapshot_dir=snaps, resume=True
            )
        # Nothing of the longer source reached the WAL: the directory
        # still resumes, bit-identically, on the source it was written for.
        resumed = self._pipeline().run_online(
            source, batch_size=32, snapshot_dir=snaps, resume=True
        )
        assert np.array_equal(plain.labels, resumed.labels)
        assert plain.clusters == resumed.clusters

    def test_resume_on_shorter_source_after_crash_rejected(
        self, basket_path, tmp_path, monkeypatch
    ):
        plain = self._pipeline().run_online(basket_path, batch_size=32)

        # Crash before the third WAL append: the run is left half done.
        calls = {"n": 0}
        original = WriteAheadLog.append

        def crashing_append(self, seq, payload):
            calls["n"] += 1
            if calls["n"] == 3:
                failpoints.activate("wal.before-append", times=1)
            return original(self, seq, payload)

        monkeypatch.setattr(WriteAheadLog, "append", crashing_append)
        snaps = tmp_path / "snaps"
        with pytest.raises(failpoints.InjectedFaultError):
            self._pipeline().run_online(basket_path, batch_size=32, snapshot_dir=snaps)
        monkeypatch.setattr(WriteAheadLog, "append", original)

        shorter = read_transactions(basket_path).transactions[:100]
        with pytest.raises(SnapshotConfigMismatchError, match="100"):
            self._pipeline().run_online(
                shorter, batch_size=32, snapshot_dir=snaps, resume=True
            )
        resumed = self._pipeline().run_online(
            basket_path, batch_size=32, snapshot_dir=snaps, resume=True
        )
        assert np.array_equal(plain.labels, resumed.labels)
        assert plain.clusters == resumed.clusters

    def test_resume_without_dir_rejected(self, basket_path):
        with pytest.raises(ConfigurationError):
            self._pipeline().run_online(basket_path, resume=True)

    def test_env_failpoints_reach_the_snapshot_path(self, tmp_path):
        # The env-var spelling used by the CI fault-injection job.
        failpoints.load_from_env(
            {failpoints.ENV_VAR: "snapshot.before-rename*1"}
        )
        with pytest.raises(failpoints.InjectedFaultError):
            SessionSnapshot(_session()).save(tmp_path)
        SessionSnapshot(_session()).save(tmp_path)  # budget spent


# --------------------------------------------------------------------- #
# Atomic write helper
# --------------------------------------------------------------------- #
class TestAtomicWrite:
    def test_writes_content_and_leaves_no_tmp_files(self, tmp_path):
        from repro.data.io import atomic_write_text

        target = tmp_path / "out" / "file.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert [p.name for p in target.parent.iterdir()] == ["file.txt"]

    def test_failure_mid_write_preserves_previous_content(self, tmp_path):
        from repro.data.io import atomic_write

        target = tmp_path / "file.txt"
        target.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("partial")
                raise RuntimeError("killed mid-write")
        assert target.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]

    def test_bytes_variant(self, tmp_path):
        from repro.data.io import atomic_write_bytes

        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"
