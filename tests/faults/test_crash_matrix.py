"""Crash matrix: a process death at ANY facility write point is repairable.

For each facility kind, a dry run with a never-firing crash rule
enumerates every write the kind's files see during a fixed maintenance
workload (inserts, updates, deletes). The matrix then re-runs the same
workload on a fresh database, crashing at each write point in turn (stride
sampled when the matrix is large), and proves that rebuilding the
facilities always restores a checksum-clean state that answers every
fixed-seed query exactly.

Crashes are confined to facility files: the object file is the source of
truth the recovery story rebuilds from, so its durability is a separate
(snapshot-level) concern.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulatedCrashError
from repro.recovery import run_fsck
from repro.storage import FaultRule
from tests.conftest import HOBBIES
from tests.faults.conftest import (
    QUERY_SETS,
    build_indexed_db,
    facility_slots,
    scan_ground_truth,
    superset_results,
    warm_every_decode,
)

#: keep the matrix fast: test at most this many crash points per kind
MAX_POINTS = 12

NEVER = 10**9


def run_workload(db) -> None:
    """Deterministic maintenance mix touching all three facilities."""
    rng = random.Random(99)
    oids = [oid for oid, _ in db.objects.scan("Student")]
    new = []
    for i in range(4):
        new.append(
            db.insert(
                "Student",
                {"name": f"w{i}", "hobbies": set(rng.sample(HOBBIES, 3))},
            )
        )
    for oid in oids[:3]:
        values = db.get(oid)
        values["hobbies"] = set(rng.sample(HOBBIES, 3))
        db.update(oid, values)
    db.delete(oids[3])
    db.delete(new[0])


def crash_points(pattern: str) -> int:
    """Dry-run the workload counting writes matching ``pattern``."""
    db = build_indexed_db(count=30)
    injector = db.storage.attach_fault_injector(
        rules=[FaultRule("write", "crash", file=pattern, at_call=NEVER)]
    )
    run_workload(db)
    db.storage.detach_fault_injector()
    return injector.rule_calls(0)


def sampled(total: int) -> list:
    if total <= MAX_POINTS:
        return list(range(1, total + 1))
    stride = total / MAX_POINTS
    points = sorted({round(1 + i * stride) for i in range(MAX_POINTS)} | {total})
    return [p for p in points if 1 <= p <= total]


@pytest.mark.parametrize("kind", ["ssf", "bssf", "nix"])
def test_crash_at_every_facility_write_point_is_repairable(kind):
    pattern = f"{kind}:*"
    total = crash_points(pattern)
    assert total > 0, f"workload never wrote to {pattern}"
    for at_call in sampled(total):
        db = build_indexed_db(count=30)
        db.storage.attach_fault_injector(
            rules=[FaultRule("write", "crash", file=pattern, at_call=at_call)]
        )
        with pytest.raises(SimulatedCrashError):
            run_workload(db)
        db.storage.detach_fault_injector()
        # Recovery: rebuild every facility from the surviving object file.
        for facility in ("ssf", "bssf", "nix"):
            db.rebuild_facility("Student", "hobbies", facility)
        warm_every_decode(db)
        assert run_fsck(db, deep=True).ok, f"fsck dirty after crash @{at_call}"
        truths = {qs: scan_ground_truth(db, qs) for qs in QUERY_SETS}
        for facility in ("ssf", "bssf", "nix"):
            for query_set in QUERY_SETS:
                oids, stats = superset_results(db, query_set, facility)
                assert oids == truths[query_set], (
                    f"{facility} wrong after {pattern} crash @{at_call}"
                )
                assert "degraded" not in stats.detail


def test_rebuilt_decodes_stay_cold_until_warmed():
    """Guard: a rebuild leaves decodes cold, so the matrix's deep fsck
    compares them only because ``warm_every_decode`` fills them first."""
    db = build_indexed_db(count=30)
    for facility in ("ssf", "bssf", "nix"):
        db.rebuild_facility("Student", "hobbies", facility)
    slots = {"objects": db.objects._files["Student"]._decode}
    for name, facility in db.indexes_on("Student", "hobbies").items():
        slots.update(facility_slots(name, facility))
    assert [label for label, slot in slots.items() if slot.held() is None]
    warm_every_decode(db)
    assert all(slot.held() is not None for slot in slots.values())
    assert run_fsck(db, deep=True).ok
