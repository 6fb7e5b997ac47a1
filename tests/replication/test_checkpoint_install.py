"""A stale or diverged replica installs the primary's checkpoint file.

The history that matters is the restart: a replica that caught up by an
install must reopen its own directory to the primary's state and LSN, and
keep tailing without a second install. Every crash point of the landing
(tmp file written, tmp file loaded, log restarted, checkpoint renamed)
must reopen to the installed checkpoint, to the replica's own pre-sync
durable state, or be refused with
:class:`~repro.errors.CheckpointMismatchError` — never to anything else.
A replica checkpoint taken while an install lands waits for it, and then
snapshots the installed state.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import wire
from repro.errors import (
    CheckpointMismatchError,
    CorruptPageError,
    SimulatedCrashError,
)
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.obs.metrics import REGISTRY
from repro.persistence import snapshot
from repro.replication import ReplicaDatabase
from repro.server.net import TcpQueryServer
from tests.wal.conftest import BSSF_PARAMS, SSF_PARAMS, fingerprint


def _define(db: Database) -> None:
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    db.create_ssf_index("Student", "hobbies", **SSF_PARAMS)
    db.create_bssf_index("Student", "hobbies", **BSSF_PARAMS)


def _insert(db: Database, start: int, count: int) -> None:
    for i in range(start, start + count):
        db.insert(
            "Student",
            {"name": f"s{i:03d}", "hobbies": {f"h{i % 7}", f"h{(i * 3) % 11}"}},
        )


def _replica(url: str, wal_dir: str, **kwargs) -> ReplicaDatabase:
    return ReplicaDatabase(
        url, wal_dir, name="install", stall_timeout_seconds=3.0, **kwargs
    )


def _reopened(wal_dir: str):
    """``(fingerprint, lsn, objects)`` of ``Database.open`` on ``wal_dir``."""
    db = Database.open(wal_dir)
    try:
        return fingerprint(db), db.wal_applied_lsn, len(db.objects._directory)
    finally:
        db.close()


def _installed(path: str):
    """``(fingerprint, lsn, objects)`` of the checkpoint file at ``path``."""
    installed = snapshot.load_database(path)
    return (
        fingerprint(installed),
        installed.wal_applied_lsn,
        len(installed.objects._directory),
    )


def _stale_replica_directory(primary_db, server, wal_dir: str) -> None:
    """8 ops reach the replica, which checkpoints and closes; the primary
    then applies 12, checkpoints past the replica, and applies 4 more."""
    _define(primary_db)
    _insert(primary_db, 0, 8)
    with _replica(server.url, wal_dir) as replica:
        assert replica.wait_for_lsn(primary_db.wal.end_lsn, timeout=10.0)
        replica.checkpoint()
    _insert(primary_db, 8, 12)
    primary_db.checkpoint()
    _insert(primary_db, 20, 4)


def test_a_replica_reopens_to_the_state_it_installed(primary, tmp_path):
    db, server = primary
    wal_dir = str(tmp_path / "stale")
    _stale_replica_directory(db, server, wal_dir)

    with _replica(server.url, wal_dir) as replica:
        caught_up = replica.wait_for_lsn(db.wal.end_lsn, timeout=10.0)
        assert caught_up, replica.last_error
        assert fingerprint(replica.database) == fingerprint(db)
    assert REGISTRY.counter("replication.resyncs").value == 1

    assert _reopened(wal_dir) == (fingerprint(db), db.wal.end_lsn, 24)

    # A fresh replica on the directory tails on: no second install.
    with _replica(server.url, wal_dir) as replica:
        _insert(db, 24, 1)
        caught_up = replica.wait_for_lsn(db.wal.end_lsn, timeout=10.0)
        assert caught_up, replica.last_error
        assert fingerprint(replica.database) == fingerprint(db)
    assert REGISTRY.counter("replication.resyncs").value == 1


def test_the_earlier_landing_is_refused_not_reopened_short(primary, tmp_path):
    """The directory a Merkle resync left — the replica's old 8-op
    checkpoint beside a log restarted at the primary's end — reopened
    with 8 of 24 objects. It is refused now."""
    db, server = primary
    wal_dir = str(tmp_path / "stale")
    _stale_replica_directory(db, server, wal_dir)
    with _replica(server.url, wal_dir, auto_start=False) as replica:
        replica.wal.reset(db.wal.end_lsn)
    with pytest.raises(CheckpointMismatchError) as refused:
        Database.open(wal_dir)
    assert refused.value.base_lsn == db.wal.end_lsn
    assert refused.value.checkpoint_lsn < refused.value.base_lsn


def test_a_diverged_replica_installs_a_checkpoint_taken_on_demand(
    primary, tmp_path
):
    db, server = primary
    wal_dir = str(tmp_path / "diverged")
    _define(db)
    _insert(db, 0, 12)
    with _replica(server.url, wal_dir) as replica:
        assert replica.wait_for_lsn(db.wal.end_lsn, timeout=10.0)

    other = Database(wal_dir=str(tmp_path / "other"))
    _define(other)
    _insert(other, 100, 2)
    other_server = TcpQueryServer(other, heartbeat_seconds=0.1).start()
    try:
        with _replica(other_server.url, wal_dir) as replica:
            assert replica.watermark > other.wal.end_lsn  # past its end
            deadline = time.monotonic() + 10.0
            while REGISTRY.counter("replication.resyncs").value == 0:
                assert time.monotonic() < deadline, replica.last_error
                time.sleep(0.02)
            assert replica.wait_for_lsn(other.wal.end_lsn, timeout=10.0)
            assert REGISTRY.counter("replication.resyncs").value == 1
            assert fingerprint(replica.database) == fingerprint(other)
        assert os.path.exists(other.checkpoint_path)
        assert _reopened(wal_dir) == (fingerprint(other), other.wal.end_lsn, 2)
    finally:
        other_server.stop(drain=False)
        other.close()


# ----------------------------------------------------------------------
# Crash points of the landing
# ----------------------------------------------------------------------
def _crash_after(step: str, replica: ReplicaDatabase, monkeypatch) -> None:
    """Make the install raise SimulatedCrashError right after ``step``."""

    def crash(*_args, **_kwargs):
        raise SimulatedCrashError(f"crash after {step}")

    def then_crash(real):
        def wrapped(*args, **kwargs):
            real(*args, **kwargs)
            crash()

        return wrapped

    if step == "written":
        monkeypatch.setattr(snapshot, "load_database", crash)
    elif step == "loaded":
        monkeypatch.setattr(
            snapshot, "load_database", then_crash(snapshot.load_database)
        )
    elif step == "log-reset":
        monkeypatch.setattr(replica.wal, "reset", then_crash(replica.wal.reset))
    else:
        assert step == "renamed"
        real = snapshot.fsync_directory

        def fsync_then_crash(directory):
            real(directory)
            # The primary shares the module: only the replica's landing
            # crashes, not a checkpoint the primary takes on demand.
            if os.path.samefile(directory, replica.wal_dir):
                crash()

        monkeypatch.setattr(snapshot, "fsync_directory", fsync_then_crash)


#: what a crash after each step reopens to
_OUTCOME = {
    "written": "pre-sync",
    "loaded": "pre-sync",
    "log-reset": "refused",
    "renamed": "installed",
}


def _history(case: str, local_checkpoint: bool, primary_db, tmp_path):
    """Build the replica's directory; return the primary it syncs from."""
    wal_dir = str(tmp_path / "replica")
    _define(primary_db)
    _insert(primary_db, 0, 8)
    server = TcpQueryServer(primary_db, heartbeat_seconds=0.1).start()
    with _replica(server.url, wal_dir) as replica:
        assert replica.wait_for_lsn(primary_db.wal.end_lsn, timeout=10.0)
        if local_checkpoint:
            replica.checkpoint()
    if case == "stale":
        _insert(primary_db, 8, 12)
        primary_db.checkpoint()
        _insert(primary_db, 20, 4)
        return wal_dir, primary_db, server
    server.stop(drain=False)
    # Diverged: a primary with a shorter, different history that never
    # checkpointed, so its answer is a checkpoint taken on demand.
    other = Database(wal_dir=str(tmp_path / "other"))
    _define(other)
    _insert(other, 100, 1)
    return wal_dir, other, TcpQueryServer(other, heartbeat_seconds=0.1).start()


@pytest.mark.parametrize(
    "local_checkpoint", [False, True], ids=["log-only", "checkpointed"]
)
@pytest.mark.parametrize("case", ["stale", "diverged"])
@pytest.mark.parametrize("step", list(_OUTCOME))
def test_a_crash_in_the_landing_reopens_to_a_state_it_had(
    tmp_path, monkeypatch, case, local_checkpoint, step
):
    first = Database(wal_dir=str(tmp_path / "primary"))
    wal_dir, source, server = _history(case, local_checkpoint, first, tmp_path)
    try:
        pre_sync = _reopened(wal_dir)
        replica = _replica(server.url, wal_dir, auto_start=False)
        try:
            if case == "diverged":
                assert replica.watermark > source.wal.end_lsn
            else:
                assert replica.watermark < source.wal.base_lsn
            _crash_after(step, replica, monkeypatch)
            with pytest.raises(SimulatedCrashError):
                replica._install_checkpoint(replica._connect())
        finally:
            monkeypatch.undo()
            replica.close()

        expected = {
            "pre-sync": pre_sync,
            "installed": _installed(source.checkpoint_path),
        }
        outcome = _OUTCOME[step]
        if outcome == "refused":
            with pytest.raises(CheckpointMismatchError):
                Database.open(wal_dir)
        else:
            assert _reopened(wal_dir) == expected[outcome]
    finally:
        server.stop(drain=False)
        source.close()
        first.close()


def test_a_damaged_checkpoint_is_refused_before_anything_is_touched(
    primary, tmp_path
):
    db, server = primary
    wal_dir = str(tmp_path / "stale")
    _stale_replica_directory(db, server, wal_dir)
    pre_sync = _reopened(wal_dir)
    with open(db.checkpoint_path, "r+b") as stream:
        stream.seek(-16, os.SEEK_END)  # inside the last page's bytes
        byte = stream.read(1)
        stream.seek(-16, os.SEEK_END)
        stream.write(bytes([byte[0] ^ 0xFF]))
    replica = _replica(server.url, wal_dir, auto_start=False)
    try:
        with pytest.raises(CorruptPageError):
            replica._install_checkpoint(replica._connect())
    finally:
        replica.close()
    assert not os.path.exists(os.path.join(wal_dir, "checkpoint.sigdb.tmp"))
    assert _reopened(wal_dir) == pre_sync


@pytest.mark.parametrize("moment", ["receiving", "log-reset"])
def test_a_checkpoint_during_an_install_waits_for_it(
    primary, tmp_path, monkeypatch, moment
):
    """A replica checkpoint started mid-install would share the install's
    tmp file (while the bytes arrive) or stamp the old state with the new
    log's LSN (between the log restart and the rename). It waits for the
    landing instead, and then snapshots the installed state."""
    db, server = primary
    wal_dir = str(tmp_path / "stale")
    _stale_replica_directory(db, server, wal_dir)
    replica = _replica(server.url, wal_dir, auto_start=False)
    racer = {}

    def race() -> None:
        if "thread" in racer:
            return
        racer["thread"] = threading.Thread(
            target=lambda: racer.update(path=replica.checkpoint())
        )
        racer["thread"].start()
        racer["thread"].join(0.3)
        racer["waited"] = racer["thread"].is_alive()

    if moment == "receiving":
        real_read = wire.read_frame

        def read_then_race(*args, **kwargs):
            frame = real_read(*args, **kwargs)
            if frame is not None and frame[0] == wire.SYNC_PAGES:
                race()  # before the slice is written to the tmp file
            return frame

        monkeypatch.setattr(wire, "read_frame", read_then_race)
    else:
        real_reset = replica.wal.reset

        def reset_then_race(lsn: int) -> None:
            real_reset(lsn)
            race()

        monkeypatch.setattr(replica.wal, "reset", reset_then_race)
    try:
        replica._install_checkpoint(replica._connect())
        racer["thread"].join(10.0)
    finally:
        monkeypatch.undo()
        replica.close()
    assert racer["waited"], "the checkpoint ran inside the install"
    assert "path" in racer, "the checkpoint failed"
    assert _reopened(wal_dir) == _installed(db.checkpoint_path)
