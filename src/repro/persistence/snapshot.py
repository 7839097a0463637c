"""Checksummed, versioned, atomically-written session checkpoints.

On-disk layout of a snapshot directory::

    <snapshot_dir>/
        CURRENT                 # name of the live checkpoint, swapped atomically
        checkpoint-000003/
            MANIFEST.json       # version, session config, wal_seq, checksums
            arrays.npz          # CSR blobs: adjacency / incidence + sizes
            objects.pkl         # points, partition, labeler, RNG, extra
        wal.log                 # write-ahead log since checkpoint-000003

A checkpoint is built in a hidden ``.tmp-*`` sibling, every file is
fsynced, the directory is renamed into place and only then is ``CURRENT``
swapped — so a kill at *any* instant leaves the previous checkpoint fully
intact (exercised by the ``snapshot.*`` failpoints).  ``MANIFEST.json``
records a SHA-256 per blob; :meth:`SessionSnapshot.load` verifies them and
raises a typed error naming the offending file on mismatch.

The manifest's ``wal_seq`` is the sequence number of the last WAL record
whose effect the checkpoint already contains; recovery replays only records
above it (see :mod:`repro.persistence.wal`).

Versions 1 and 2 still load.  Version 1 differs only by the ``links_*``
arrays in ``arrays.npz``, which the checksum covers but load() never reads.
Versions 1 and 2 record the strategy choices the session no longer has
(:data:`_RETIRED_CONFIG_KEYS`) in their config; a resume ignores them,
since every choice reproduced the defaults' results bit-identically.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import re
import shutil
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import sparse

from repro.core.incremental import IncrementalRock
from repro.data.io import atomic_write_text
from repro.errors import (
    SnapshotConfigMismatchError,
    SnapshotCorruptionError,
    SnapshotNotFoundError,
    SnapshotVersionError,
)
from repro.persistence import failpoints

#: Format marker and version of the checkpoint layout.  Bump the version on
#: any incompatible change; load() refuses other versions with a typed error.
SNAPSHOT_FORMAT = "repro-session-snapshot"
SNAPSHOT_FORMAT_VERSION = 3
_READABLE_VERSIONS = (1, 2, SNAPSHOT_FORMAT_VERSION)

#: Session config keys versions 1 and 2 recorded and this build no longer
#: has: the resume check skips them.  Any other key the checkpoint records
#: and the caller does not expect still mismatches.
_RETIRED_CONFIG_KEYS = frozenset(
    {"engine", "neighbor_strategy", "neighbor_block_size", "link_strategy", "labeling_strategy"}
)

MANIFEST_NAME = "MANIFEST.json"
CURRENT_NAME = "CURRENT"
_CHECKPOINT_PATTERN = re.compile(r"^checkpoint-(\d{6})$")
_CSR_NAMES = ("adjacency", "incidence")


def _fsync_path(path: Path) -> None:
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _checkpoint_index(path: Path) -> int | None:
    match = _CHECKPOINT_PATTERN.match(path.name)
    return int(match.group(1)) if match else None


def list_checkpoints(directory: str | os.PathLike) -> list[Path]:
    """Checkpoint directories under ``directory``, oldest first."""
    root = Path(directory)
    if not root.is_dir():
        return []
    found = [
        (index, entry)
        for entry in root.iterdir()
        if entry.is_dir() and (index := _checkpoint_index(entry)) is not None
    ]
    return [entry for _, entry in sorted(found)]


def latest_checkpoint(directory: str | os.PathLike) -> Path | None:
    """The live checkpoint of ``directory``, or ``None`` when none exists.

    Prefers the ``CURRENT`` pointer; falls back to the highest-numbered
    checkpoint directory when the pointer is missing or dangling (the crash
    window between the checkpoint rename and the pointer swap — safe because
    WAL replay skips records a newer checkpoint already contains).
    """
    root = Path(directory)
    pointer = root / CURRENT_NAME
    if pointer.is_file():
        target = root / pointer.read_text(encoding="utf-8").strip()
        if target.is_dir():
            return target
    checkpoints = list_checkpoints(root)
    return checkpoints[-1] if checkpoints else None


class SessionSnapshot:
    """One checkpoint of an :class:`IncrementalRock` session.

    ``extra`` carries caller-owned restart state (the online pipeline stores
    its label bookkeeping there); it round-trips through ``objects.pkl``
    untouched.  ``wal_seq`` is the last WAL sequence folded into the
    captured state.
    """

    def __init__(self, session: IncrementalRock, extra: dict | None = None,
                 wal_seq: int = -1):
        self.session = session
        self.extra = extra
        self.wal_seq = int(wal_seq)

    # ------------------------------------------------------------------ #
    # Save
    # ------------------------------------------------------------------ #
    def save(self, directory: str | os.PathLike, keep: int = 1) -> Path:
        """Durably write this snapshot; returns the new checkpoint directory.

        The write is atomic at directory granularity (tmp dir + fsync +
        rename + ``CURRENT`` swap); the ``keep`` newest checkpoints survive
        garbage collection.  Failpoints ``snapshot.before-manifest``,
        ``snapshot.before-rename`` and ``snapshot.before-current`` simulate
        kills at each stage.
        """
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        for stale in root.glob(".tmp-checkpoint-*"):
            shutil.rmtree(stale, ignore_errors=True)
        checkpoints = list_checkpoints(root)
        index = (_checkpoint_index(checkpoints[-1]) + 1) if checkpoints else 0
        name = "checkpoint-%06d" % index
        tmp = root / (".tmp-" + name)
        tmp.mkdir()

        state = self.session.session_state()
        arrays = state.pop("arrays")
        blobs: dict[str, np.ndarray] = {"sizes": arrays["sizes"]}
        for csr_name in _CSR_NAMES:
            matrix = arrays[csr_name]
            blobs[csr_name + "_data"] = matrix.data
            blobs[csr_name + "_indices"] = matrix.indices
            blobs[csr_name + "_indptr"] = matrix.indptr
            blobs[csr_name + "_shape"] = np.asarray(matrix.shape, dtype=np.int64)
        arrays_path = tmp / "arrays.npz"
        with arrays_path.open("wb") as handle:
            np.savez(handle, **blobs)
            handle.flush()
            os.fsync(handle.fileno())

        state["extra"] = self.extra
        objects_blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        objects_path = tmp / "objects.pkl"
        with objects_path.open("wb") as handle:
            handle.write(objects_blob)
            handle.flush()
            os.fsync(handle.fileno())

        failpoints.hit("snapshot.before-manifest")
        manifest = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_FORMAT_VERSION,
            "config": state["config"],
            "counters": state["counters"],
            "wal_seq": self.wal_seq,
            "files": {
                "arrays.npz": hashlib.sha256(arrays_path.read_bytes()).hexdigest(),
                "objects.pkl": hashlib.sha256(objects_blob).hexdigest(),
            },
        }
        manifest_path = tmp / MANIFEST_NAME
        with manifest_path.open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        _fsync_path(tmp)

        failpoints.hit("snapshot.before-rename")
        final = root / name
        os.replace(tmp, final)
        _fsync_path(root)

        failpoints.hit("snapshot.before-current")
        atomic_write_text(root / CURRENT_NAME, name + "\n")
        _fsync_path(root)

        expired = list_checkpoints(root)[:-keep] if keep > 0 else []
        for old in expired:
            shutil.rmtree(old, ignore_errors=True)
        return final

    # ------------------------------------------------------------------ #
    # Load
    # ------------------------------------------------------------------ #
    @classmethod
    def load(
        cls,
        directory: str | os.PathLike,
        measure: Callable[..., Any] | None = None,
        exponent_function: Callable[..., Any] | None = None,
        expected_config: dict | None = None,
    ) -> "SessionSnapshot":
        """Restore the live checkpoint of ``directory``.

        Raises
        ------
        SnapshotNotFoundError
            No checkpoint exists under ``directory``.
        SnapshotCorruptionError
            Missing or unparsable manifest, missing blob, or a checksum
            mismatch (the message names the offending file).
        SnapshotVersionError
            The checkpoint was written by an incompatible format version.
        SnapshotConfigMismatchError
            ``expected_config`` disagrees with the recorded session
            configuration (the message lists the differing keys).
        """
        root = Path(directory)
        checkpoint = latest_checkpoint(root)
        if checkpoint is None:
            raise SnapshotNotFoundError(
                "no checkpoint found under %s — nothing to resume; run once "
                "with --snapshot-dir to create one" % root
            )
        manifest = cls._read_manifest(checkpoint)
        if expected_config is not None:
            recorded = {
                key: value
                for key, value in manifest.get("config", {}).items()
                if key not in _RETIRED_CONFIG_KEYS
            }
            differing = sorted(
                key
                for key in set(recorded) | set(expected_config)
                if recorded.get(key) != expected_config.get(key)
            )
            if differing:
                raise SnapshotConfigMismatchError(
                    "checkpoint %s was written under a different session "
                    "configuration (mismatched: %s); resume with the original "
                    "parameters or start a fresh snapshot directory"
                    % (checkpoint, ", ".join(
                        "%s (snapshot %r != requested %r)"
                        % (key, recorded.get(key), expected_config.get(key))
                        for key in differing
                    ))
                )
        blobs = cls._verified_blobs(checkpoint, manifest)

        # Parse the checksummed bytes rather than re-reading the file.
        with np.load(io.BytesIO(blobs["arrays.npz"]), allow_pickle=False) as bundle:
            arrays = {"sizes": bundle["sizes"]}
            for csr_name in _CSR_NAMES:
                arrays[csr_name] = sparse.csr_matrix(
                    (
                        bundle[csr_name + "_data"],
                        bundle[csr_name + "_indices"],
                        bundle[csr_name + "_indptr"],
                    ),
                    shape=tuple(bundle[csr_name + "_shape"]),
                )
        try:
            state = pickle.loads(blobs["objects.pkl"])
        except Exception as error:
            raise SnapshotCorruptionError(
                "checkpoint %s: objects.pkl passed its checksum but failed to "
                "deserialise (%s)" % (checkpoint, error)
            ) from error
        state["arrays"] = arrays
        extra = state.pop("extra", None)
        session = IncrementalRock.from_session_state(
            state, measure=measure, exponent_function=exponent_function
        )
        return cls(session, extra=extra, wal_seq=int(manifest.get("wal_seq", -1)))

    # ------------------------------------------------------------------ #
    @staticmethod
    def _read_manifest(checkpoint: Path) -> dict:
        manifest_path = checkpoint / MANIFEST_NAME
        if not manifest_path.is_file():
            raise SnapshotCorruptionError(
                "checkpoint %s has no %s — the snapshot is incomplete; "
                "delete the directory or point CURRENT at an older checkpoint"
                % (checkpoint, MANIFEST_NAME)
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise SnapshotCorruptionError(
                "checkpoint %s: %s is not valid JSON (%s)"
                % (checkpoint, MANIFEST_NAME, error)
            ) from error
        if manifest.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotCorruptionError(
                "checkpoint %s: %s does not look like a %s manifest"
                % (checkpoint, MANIFEST_NAME, SNAPSHOT_FORMAT)
            )
        version = manifest.get("version")
        if version not in _READABLE_VERSIONS:
            raise SnapshotVersionError(
                "checkpoint %s was written by snapshot format version %r but "
                "this build reads versions %s; restore with a matching build "
                "or re-create the snapshot"
                % (checkpoint, version, "/".join(map(str, _READABLE_VERSIONS)))
            )
        return manifest

    @staticmethod
    def _verified_blobs(checkpoint: Path, manifest: dict) -> dict[str, bytes]:
        blobs: dict[str, bytes] = {}
        for file_name, expected in manifest.get("files", {}).items():
            blob_path = checkpoint / file_name
            if not blob_path.is_file():
                raise SnapshotCorruptionError(
                    "checkpoint %s is missing blob %s listed in its manifest"
                    % (checkpoint, file_name)
                )
            blob = blob_path.read_bytes()
            digest = hashlib.sha256(blob).hexdigest()
            if digest != expected:
                raise SnapshotCorruptionError(
                    "checkpoint %s: checksum mismatch in %s (manifest %s, "
                    "file %s) — the blob is corrupt; fall back to an older "
                    "checkpoint or re-create the snapshot"
                    % (checkpoint, file_name, expected[:12], digest[:12])
                )
            blobs[file_name] = blob
        return blobs
