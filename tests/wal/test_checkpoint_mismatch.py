"""Recovery refuses a checkpoint and a log that do not fit together.

The log must cover the checkpoint's LSN: ``base_lsn <= checkpoint_lsn <=
end_lsn``, where a directory without a checkpoint has checkpoint LSN 0.
Replaying a log over a checkpoint it does not cover would reopen a state
no history reached, so :func:`~repro.wal.replay.recover_database` raises
:class:`~repro.errors.CheckpointMismatchError` naming both instead. The
repair of a damaged log (``wal truncate``) never makes such a pair.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.errors import (
    CheckpointMismatchError,
    SimulatedCrashError,
    WalCorruptError,
    WalError,
)
from repro.objects.database import Database
from repro.wal.log import WAL_FILE_NAME, WriteAheadLog, scan_wal
from tests.wal.conftest import apply_ops, fingerprint, workload_ops


def _checkpointed(tmp_path) -> str:
    """A directory whose checkpoint covers half the ops; return its path."""
    wal_dir = str(tmp_path / "wal")
    ops = workload_ops(inserts=10)
    db = Database(wal_dir=wal_dir)
    apply_ops(db, ops[:8])
    db.checkpoint()
    apply_ops(db, ops[8:])
    db.close()
    return wal_dir


def _base_lsn(wal_dir: str) -> int:
    log = WriteAheadLog(wal_dir)
    log.close()
    return log.base_lsn


def _restart_log(wal_dir: str, base_lsn: int) -> None:
    log = WriteAheadLog(wal_dir)
    log.reset(base_lsn)
    log.close()


def test_a_consistent_pair_recovers(tmp_path):
    wal_dir = _checkpointed(tmp_path)
    expected = Database()
    apply_ops(expected, workload_ops(inserts=10))
    db = Database.open(wal_dir)
    assert fingerprint(db) == fingerprint(expected)
    db.close()


def test_a_log_starting_past_the_checkpoint_is_refused(tmp_path):
    wal_dir = _checkpointed(tmp_path)
    checkpoint_lsn = _base_lsn(wal_dir)  # the checkpoint truncated here
    _restart_log(wal_dir, checkpoint_lsn + 4096)
    with pytest.raises(CheckpointMismatchError) as refused:
        Database.open(wal_dir)
    assert isinstance(refused.value, WalError)
    assert refused.value.checkpoint_lsn == checkpoint_lsn
    assert refused.value.base_lsn == checkpoint_lsn + 4096
    message = str(refused.value)
    assert str(checkpoint_lsn) in message and str(checkpoint_lsn + 4096) in message


def test_a_truncated_log_without_its_checkpoint_is_refused(tmp_path):
    wal_dir = _checkpointed(tmp_path)
    base_lsn = _base_lsn(wal_dir)
    assert base_lsn > 0
    os.unlink(os.path.join(wal_dir, "checkpoint.sigdb"))
    with pytest.raises(CheckpointMismatchError) as refused:
        Database.open(wal_dir)
    assert refused.value.checkpoint_lsn == 0
    assert refused.value.base_lsn == base_lsn


def test_a_log_ending_before_the_checkpoint_is_refused(tmp_path):
    wal_dir = _checkpointed(tmp_path)
    checkpoint_lsn = _base_lsn(wal_dir)  # the checkpoint truncated here
    _restart_log(wal_dir, 0)  # starts below the checkpoint, but ends there too
    with pytest.raises(CheckpointMismatchError) as refused:
        Database.open(wal_dir)
    assert refused.value.checkpoint_lsn == checkpoint_lsn
    assert refused.value.end_lsn == 0


def test_a_cut_below_the_checkpoint_restarts_the_log_there(
    tmp_path, monkeypatch
):
    """A crash between a checkpoint's rename and its log truncation keeps
    records below the checkpoint's LSN in the log. Cutting a damaged log
    among them would end it before the checkpoint; ``wal truncate``
    restarts it at the checkpoint's LSN instead, so the directory reopens
    to the checkpoint and keeps what is logged next."""
    wal_dir = str(tmp_path / "wal")
    ops = workload_ops(inserts=10)
    db = Database(wal_dir=wal_dir)
    apply_ops(db, ops[:8])

    def crash(_wal, _lsn):
        raise SimulatedCrashError("crash before the log truncation")

    monkeypatch.setattr(WriteAheadLog, "truncate_until", crash)
    with pytest.raises(SimulatedCrashError):
        db.checkpoint()
    monkeypatch.undo()
    checkpoint_lsn = db.wal.end_lsn
    db.wal.close()
    db = Database.open(wal_dir)
    apply_ops(db, ops[8:])
    db.close()

    path = os.path.join(wal_dir, WAL_FILE_NAME)
    victim = scan_wal(path).records[3]
    assert _base_lsn(wal_dir) == 0 and victim.lsn < checkpoint_lsn
    with open(path, "r+b") as stream:
        stream.seek(16 + victim.lsn + 8)  # file header + frame header
        byte = stream.read(1)
        stream.seek(16 + victim.lsn + 8)
        stream.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(WalCorruptError):
        Database.open(wal_dir)

    assert main(["wal", "truncate", wal_dir, "--lsn", str(victim.lsn)]) == 0
    assert _base_lsn(wal_dir) == checkpoint_lsn
    expected = Database()
    apply_ops(expected, ops[:8])
    db = Database.open(wal_dir)
    assert fingerprint(db) == fingerprint(expected)
    apply_ops(db, ops[8:])
    db.close()
    apply_ops(expected, ops[8:])
    db = Database.open(wal_dir)
    assert fingerprint(db) == fingerprint(expected)
    db.close()
