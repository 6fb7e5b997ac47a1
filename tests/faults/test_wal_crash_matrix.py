"""WAL crash matrix: byte-equivalence of recovery at every crash point.

The durable-prefix method: the workload's operations map 1:1 onto logical
WAL records, and a WAL-free baseline database applying the first ``p`` ops
yields the exact state ``baselines[p]`` recovery must reproduce whenever
``p`` operation records survive in the log.  After each induced crash we
*count* the surviving records rather than assume them — the write-ahead
invariant (log before mutate, fsync before return) is then checked as a
plain equality:

* a crash **before** the ``k``-th append leaves ``k - 1`` records;
* a **torn** append (half a frame reaches the disk) is silently truncated
  back to the same ``k - 1`` prefix;
* a crash at any **device write** happens *after* the op's record was
  logged, so recovery rolls the in-flight operation forward.

Crash points are enumerated with a never-firing dry run and stride-sampled,
mirroring ``tests/faults/test_crash_matrix.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulatedCrashError
from repro.objects.database import Database
from repro.recovery import run_fsck
from repro.storage import FaultRule
from tests.faults.conftest import warm_every_decode
from tests.faults.wal_prefix import durable_ops
from tests.wal.conftest import (
    apply_ops,
    baseline_fingerprints,
    fingerprint,
    workload_ops,
)

#: keep the matrix fast: test at most this many crash points per dimension
MAX_POINTS = 12

NEVER = 10**9

#: device-write crash dimensions — every facility kind plus the object file
WRITE_PATTERNS = ["ssf:*", "bssf:*", "nix:*", "objects:*"]

_BASELINES = None


def baselines():
    global _BASELINES
    if _BASELINES is None:
        _BASELINES = baseline_fingerprints(workload_ops())
    return _BASELINES


def sampled(total: int) -> list:
    if total <= MAX_POINTS:
        return list(range(1, total + 1))
    stride = total / MAX_POINTS
    points = sorted({round(1 + i * stride) for i in range(MAX_POINTS)} | {total})
    return [p for p in points if 1 <= p <= total]


def crash_then_recover(tmp_path, rule: FaultRule, label: str) -> None:
    """Run the workload until ``rule`` kills it, then prove recovery exact."""
    wal_dir = str(tmp_path)
    db = Database(wal_dir=wal_dir)
    db.attach_fault_injector(rules=[rule])
    with pytest.raises(SimulatedCrashError):
        apply_ops(db, workload_ops())
    db.detach_fault_injector()
    db.close()  # drop the dead process's handle; state lives in wal_dir

    p = durable_ops(wal_dir)
    recovered = Database.open(wal_dir)
    assert fingerprint(recovered) == baselines()[p], (
        f"{label}: recovery does not match the {p}-op durable prefix"
    )
    warm_every_decode(recovered)
    assert run_fsck(recovered, deep=True).ok, f"{label}: fsck dirty"
    recovered.close()


def test_crash_before_every_wal_append(tmp_path_factory):
    """A clean crash at append ``k`` leaves exactly the ``k - 1`` prefix."""
    ops = workload_ops()
    for at_call in sampled(len(ops)):
        tmp = tmp_path_factory.mktemp("crash")
        crash_then_recover(
            tmp,
            FaultRule("wal-append", "crash", at_call=at_call),
            f"wal-append crash @{at_call}",
        )
        # the k-th record never reached the disk
        assert durable_ops(str(tmp)) == at_call - 1


def test_torn_write_inside_every_wal_append(tmp_path_factory):
    """Half a frame on disk is indistinguishable from no frame at all."""
    ops = workload_ops()
    for at_call in sampled(len(ops)):
        tmp = tmp_path_factory.mktemp("torn")
        crash_then_recover(
            tmp,
            FaultRule("wal-append", "torn", at_call=at_call),
            f"wal-append torn @{at_call}",
        )
        assert durable_ops(str(tmp)) == at_call - 1


def device_write_points(pattern: str, tmp_path) -> int:
    db = Database(wal_dir=str(tmp_path))
    injector = db.attach_fault_injector(
        rules=[FaultRule("write", "crash", file=pattern, at_call=NEVER)]
    )
    apply_ops(db, workload_ops())
    total = injector.rule_calls(0)
    db.detach_fault_injector()
    db.close()
    return total


@pytest.mark.parametrize("pattern", WRITE_PATTERNS)
def test_crash_at_every_device_write_point(pattern, tmp_path_factory):
    """Device crashes happen after the op was logged: redo rolls forward."""
    total = device_write_points(pattern, tmp_path_factory.mktemp("dry"))
    assert total > 0, f"workload never wrote to {pattern}"
    for at_call in sampled(total):
        crash_then_recover(
            tmp_path_factory.mktemp("dev"),
            FaultRule("write", "crash", file=pattern, at_call=at_call),
            f"{pattern} write crash @{at_call}",
        )


def test_crash_during_checkpoint_is_recoverable(tmp_path_factory):
    """Dying at either checkpoint append leaves a recoverable directory."""
    ops = workload_ops()
    for at_call in (1, 2):  # 1 = checkpoint_begin, 2 = checkpoint_end
        wal_dir = str(tmp_path_factory.mktemp("ckpt"))
        db = Database(wal_dir=wal_dir)
        apply_ops(db, ops[:10])
        db.attach_fault_injector(
            rules=[FaultRule("wal-append", "crash", at_call=at_call)]
        )
        with pytest.raises(SimulatedCrashError):
            db.checkpoint()
        db.detach_fault_injector()
        db.close()

        recovered = Database.open(wal_dir)
        assert fingerprint(recovered) == baselines()[10], (
            f"checkpoint crash @append {at_call} lost state"
        )
        # the recovered database keeps working: finish the workload
        apply_ops(recovered, ops[10:])
        assert fingerprint(recovered) == baselines()[len(ops)]
        recovered.close()
