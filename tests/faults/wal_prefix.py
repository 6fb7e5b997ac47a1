"""The durable prefix a crashed run left in its write-ahead log.

Shared by the WAL and LSM crash matrices and ``tools/lsm_smoke.py``: each
recovers a crashed workload and compares it with a fresh run of the first
``durable_ops`` operations, so all three must count those operations the
same way.
"""

from __future__ import annotations

import os

from repro.wal.log import WAL_FILE_NAME, scan_wal


def durable_ops(wal_dir: str) -> int:
    """Records that redo a workload op: not the checkpoint markers, nor the
    mode record a ``durability="lsm"`` database logs when it is created."""
    scan = scan_wal(os.path.join(wal_dir, WAL_FILE_NAME))
    return sum(
        1
        for r in scan.records
        if r.type != "durability" and not r.type.startswith("checkpoint")
    )
