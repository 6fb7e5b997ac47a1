"""A checkpoint's renames are durable before the log is truncated.

A rename survives a power loss only once its directory is fsynced. If the
truncated ``wal.log`` reached the disk while the new ``checkpoint.sigdb``
entry did not, the records the truncation dropped would be gone. So the
order is: rename the snapshot, fsync its directory, and only then rename
the truncated log (itself followed by a directory fsync).
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.objects.database import Database
from repro.persistence.snapshot import save_database
from repro.wal.log import WAL_FILE_NAME, WriteAheadLog
from tests.wal.conftest import apply_ops, workload_ops


@pytest.fixture
def durability_events(monkeypatch):
    """``("replace", target)`` and ``("fsync-dir", (dev, ino))`` in order."""
    events = []
    real_replace, real_fsync = os.replace, os.fsync

    def recording_replace(source, target, *args, **kwargs):
        real_replace(source, target, *args, **kwargs)
        events.append(("replace", os.fspath(target)))

    def recording_fsync(fd):
        real_fsync(fd)
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            events.append(("fsync-dir", (info.st_dev, info.st_ino)))

    monkeypatch.setattr(os, "replace", recording_replace)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    return events


def directory_key(path) -> tuple:
    info = os.stat(path)
    return (info.st_dev, info.st_ino)


def fsynced_after(events, index, directory) -> int:
    """Position of the first fsync of ``directory`` after ``events[index]``."""
    wanted = ("fsync-dir", directory_key(directory))
    later = [at for at in range(index + 1, len(events)) if events[at] == wanted]
    assert later, f"{directory} is not fsynced after {events[index]}"
    return later[0]


def wal_database(tmp_path) -> Database:
    db = Database(page_size=4096, pool_capacity=0, wal_dir=str(tmp_path / "wal"))
    apply_ops(db, workload_ops(inserts=30, seed=5))
    return db


@pytest.mark.parametrize("target", ["checkpoint", "elsewhere"])
def test_checkpoint_renames_are_durable_before_truncation(
    tmp_path, durability_events, target
):
    db = wal_database(tmp_path)
    wal_dir = db.wal_dir
    durability_events.clear()
    if target == "checkpoint":
        db.checkpoint()
    else:
        elsewhere = tmp_path / "saved"
        elsewhere.mkdir()
        save_database(db, elsewhere / "db.sigdb")
    replaces = [event for event in durability_events if event[0] == "replace"]
    checkpoint_at = durability_events.index(("replace", db.checkpoint_path))
    log_at = durability_events.index(
        ("replace", os.path.join(wal_dir, WAL_FILE_NAME))
    )
    assert fsynced_after(durability_events, checkpoint_at, wal_dir) < log_at
    fsynced_after(durability_events, log_at, wal_dir)
    if target == "elsewhere":
        saved_at = durability_events.index(
            ("replace", str(tmp_path / "saved" / "db.sigdb"))
        )
        assert saved_at < checkpoint_at
        fsynced_after(durability_events, saved_at, tmp_path / "saved")
        assert len(replaces) == 3
    else:
        assert len(replaces) == 2
    db.close()


def test_new_log_and_reset_fsync_their_directory(tmp_path, durability_events):
    wal = WriteAheadLog(str(tmp_path))
    assert durability_events == [("fsync-dir", directory_key(tmp_path))]
    durability_events.clear()
    wal.reset(17)
    reset_at = durability_events.index(("replace", wal.path))
    fsynced_after(durability_events, reset_at, tmp_path)
    wal.close()
