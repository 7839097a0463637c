"""End-to-end crash/recovery check for the CI fault-injection step.

Two phases, run as separate processes so the env-var failpoint activation
(`REPRO_FAILPOINTS`) is exercised exactly the way an operator would use it:

``write <dir>``
    Bootstrap a small online session, checkpoint it, then durably ingest
    two batches.  Under ``REPRO_FAILPOINTS="wal.torn-append*1"`` the first
    ingest dies halfway through its WAL append; the process exits 9 (the
    "injected crash" code the CI step expects) with the bootstrap
    checkpoint and a torn WAL record on disk.  Without the env var the run
    completes and exits 0.

``recover <dir>``
    In a clean process, resume from the directory under the session config
    the writer ran with — the checkpoint's recorded config is checked
    against it, and the torn trailing record must be truncated, not
    crashed on — then re-ingest the stream and assert the result matches an
    uninterrupted session bit for bit.

Usage::

    REPRO_FAILPOINTS="wal.torn-append*1" \
        python scripts/crash_snapshot_demo.py write snapdir || test $? -eq 9
    python scripts/crash_snapshot_demo.py recover snapdir
"""

from __future__ import annotations

import sys

from repro.core.incremental import IncrementalRock
from repro.core.rock import RockClustering
from repro.persistence import InjectedFaultError, PersistentSession

BOOTSTRAP = [
    frozenset({1, 2, 3}), frozenset({1, 2, 4}),
    frozenset({1, 3, 4}), frozenset({2, 3, 4}),
    frozenset({7, 8, 9}), frozenset({7, 8, 10}),
    frozenset({7, 9, 10}), frozenset({8, 9, 10}),
]
BATCHES = [
    [frozenset({1, 2}), frozenset({7, 8})],
    [frozenset({2, 3}), frozenset({9, 10})],
]
CRASH_EXIT = 9


def _session() -> IncrementalRock:
    clusters = RockClustering(n_clusters=2, theta=0.4).fit(BOOTSTRAP).clusters_
    session = IncrementalRock(n_clusters=2, theta=0.4, rng=0)
    session.bootstrap(BOOTSTRAP, clusters)
    return session


def write(directory: str) -> int:
    # create() checkpoints the bootstrap state before any WAL traffic, so
    # the env-armed torn-append cannot fire before something durable exists.
    store = PersistentSession.create(directory, _session())
    try:
        for batch in BATCHES:
            store.ingest(batch)
    except InjectedFaultError as fault:
        print("injected crash at failpoint %r — torn WAL record left behind"
              % fault.name)
        return CRASH_EXIT
    store.close()
    print("run completed (no failpoint armed)")
    return 0


def recover(directory: str) -> int:
    reference = _session()
    store = PersistentSession.resume(directory, expected_config=reference.config_dict())
    assert (store.session.links_ != reference.links_).nnz == 0
    assert store.session.live_clusters() == reference.live_clusters()
    assert store.session.rng.bit_generator.state == reference.rng.bit_generator.state
    for batch in BATCHES:
        assert store.ingest(batch).labels.tolist() == (
            reference.ingest(batch).labels.tolist()
        )
    print(
        "recovered (%d WAL records replayed), post-resume ingests bit-identical"
        % store.n_replayed
    )
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("write", "recover"):
        print(__doc__, file=sys.stderr)
        return 2
    return {"write": write, "recover": recover}[argv[0]](argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
