"""Write-ahead logging: durable redo records, checkpoints, crash recovery.

See :mod:`repro.wal.log` for the on-disk format and
:mod:`repro.wal.replay` for recovery semantics. The usual entry points::

    db = Database(wal_dir="state/")        # fresh WAL-mode database
    db = Database.open("state/")           # recover after a crash
    db.checkpoint()                        # snapshot + truncate the log
"""

from repro.wal.log import (
    WAL_FILE_NAME,
    WalRecord,
    WalScan,
    WriteAheadLog,
    encode_record,
    scan_wal,
    truncate_wal,
)
from repro.wal.replay import recover_database, replay_records, truncate_log

__all__ = [
    "WAL_FILE_NAME",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "encode_record",
    "scan_wal",
    "truncate_wal",
    "recover_database",
    "replay_records",
    "truncate_log",
]
