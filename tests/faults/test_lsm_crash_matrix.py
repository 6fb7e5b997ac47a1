"""LSM crash matrix: byte-equivalent recovery at flush/compaction/manifest points.

Same durable-prefix method as ``test_wal_crash_matrix.py`` — a WAL-free
baseline database applying the first ``p`` operations is the exact state
recovery must reproduce when ``p`` records survive — but the workload runs
against LSM facilities with a tiny flush threshold, so the sampled crash
points land *inside* memtable flushes, compaction-output builds, entry-table
writes and manifest slot installs. All of those are deterministic functions of the
operation history (that is the design invariant the matrix enforces), so
recovery after a crash at any of them must be byte-identical to the
durable prefix, run files and manifest slots included.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.errors import SimulatedCrashError
from repro.lsm.manifest import SLOT_SUFFIXES, manifest_slot_name
from repro.objects.database import Database
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.recovery import run_fsck
from repro.storage import FaultRule
from tests.conftest import HOBBIES
from tests.faults.conftest import warm_every_decode
from tests.faults.wal_prefix import durable_ops
from tests.wal.conftest import fingerprint

MAX_POINTS = 12
NEVER = 10**9

#: tiny layout so the short workload crosses many flush/compaction installs
LSM_PARAMS = dict(
    signature_bits=32, bits_per_element=2, seed=3,
    lsm=True, flush_threshold=4, fanout=2,
)

#: device-write crash dimensions: run-file builds (memtable flushes and
#: compaction outputs share the run writer), the entry table each build
#: ends with, and manifest slot installs
WRITE_PATTERNS = [
    "ssf:Student.hobbies:r*",
    "bssf:Student.hobbies:r*",
    "ssf:Student.hobbies:r*:entries",
    "bssf:Student.hobbies:r*:entries",
    "ssf:Student.hobbies:manifest:*",
    "bssf:Student.hobbies:manifest:*",
]

STUDENT_CLASS_ID = 1


def workload_ops():
    rng = random.Random(23)
    ops = [
        ("define", lambda db: db.define_class(
            ClassSchema.build("Student", name="scalar", hobbies="set"))),
        ("create ssf", lambda db: db.create_ssf_index(
            "Student", "hobbies", **LSM_PARAMS)),
        ("create bssf", lambda db: db.create_bssf_index(
            "Student", "hobbies", **LSM_PARAMS)),
    ]

    def _insert(i, hobbies):
        return lambda db: db.insert(
            "Student", {"name": f"s{i:03d}", "hobbies": set(hobbies)}
        )

    def _update(serial, hobbies):
        return lambda db: db.update(
            OID(STUDENT_CLASS_ID, serial),
            {"name": f"u{serial:03d}", "hobbies": set(hobbies)},
        )

    def _delete(serial):
        return lambda db: db.delete(OID(STUDENT_CLASS_ID, serial))

    for i in range(14):
        ops.append((f"insert {i}", _insert(i, rng.sample(HOBBIES, 3))))
    ops.append(("update 2", _update(2, rng.sample(HOBBIES, 3))))
    ops.append(("update 5", _update(5, rng.sample(HOBBIES, 2))))
    ops.append(("delete 3", _delete(3)))
    ops.append(("insert 14", _insert(14, rng.sample(HOBBIES, 3))))
    ops.append(("delete 7", _delete(7)))
    return ops


def apply_ops(db, ops):
    for _, op in ops:
        op(db)


def lsm_fingerprint(db: Database) -> dict:
    """Durable pages plus the facilities' uncharged in-memory layer.

    Byte-equivalence of the page store alone would miss a divergent
    memtable or live map, so the fingerprint folds them in.
    """
    base = fingerprint(db)
    facilities = {}
    for (class_name, attribute), per_path in sorted(db._indexes.items()):
        for name, facility in sorted(per_path.items()):
            if not getattr(facility, "is_lsm", False):
                continue
            facilities[f"{class_name}.{attribute}/{name}"] = {
                "memtable": facility.memtable.to_state(),
                "runs": [run.to_state() for run in facility.runs],
                "live": sorted(
                    (oid.to_int(), seq) for oid, seq in facility._live.items()
                ),
                "next_seq": facility._next_seq,
                "next_run_id": facility._next_run_id,
                "manifest_version": facility.manifest.version,
            }
    base["lsm"] = facilities
    return base


_BASELINES = None


def baselines() -> List[dict]:
    global _BASELINES
    if _BASELINES is None:
        db = Database(page_size=4096, pool_capacity=0)
        result = [lsm_fingerprint(db)]
        for _, op in workload_ops():
            op(db)
            result.append(lsm_fingerprint(db))
        _BASELINES = result
    return _BASELINES


def sampled(total: int) -> list:
    if total <= MAX_POINTS:
        return list(range(1, total + 1))
    stride = total / MAX_POINTS
    points = sorted({round(1 + i * stride) for i in range(MAX_POINTS)} | {total})
    return [p for p in points if 1 <= p <= total]


def crash_then_recover(tmp_path, rule: FaultRule, label: str) -> None:
    wal_dir = str(tmp_path)
    db = Database(wal_dir=wal_dir, durability="lsm")
    db.attach_fault_injector(rules=[rule])
    with pytest.raises(SimulatedCrashError):
        apply_ops(db, workload_ops())
    db.detach_fault_injector()
    db.close()

    p = durable_ops(wal_dir)
    recovered = Database.open(wal_dir)
    if p >= 2:  # the first create_index record is what marks the DB as LSM
        assert recovered.durability == "lsm"
    assert lsm_fingerprint(recovered) == baselines()[p], (
        f"{label}: recovery does not match the {p}-op durable prefix"
    )
    warm_every_decode(recovered)
    assert run_fsck(recovered, deep=True).ok, f"{label}: fsck dirty"
    recovered.close()


def test_crash_before_every_wal_append(tmp_path_factory):
    for at_call in sampled(len(workload_ops())):
        tmp = tmp_path_factory.mktemp("lsm-crash")
        crash_then_recover(
            tmp,
            FaultRule("wal-append", "crash", at_call=at_call),
            f"wal-append crash @{at_call}",
        )
        assert durable_ops(str(tmp)) == at_call - 1


def test_torn_write_inside_every_wal_append(tmp_path_factory):
    for at_call in sampled(len(workload_ops())):
        tmp = tmp_path_factory.mktemp("lsm-torn")
        crash_then_recover(
            tmp,
            FaultRule("wal-append", "torn", at_call=at_call),
            f"wal-append torn @{at_call}",
        )
        assert durable_ops(str(tmp)) == at_call - 1


def device_write_points(pattern: str, tmp_path) -> int:
    db = Database(wal_dir=str(tmp_path), durability="lsm")
    injector = db.attach_fault_injector(
        rules=[FaultRule("write", "crash", file=pattern, at_call=NEVER)]
    )
    apply_ops(db, workload_ops())
    total = injector.rule_calls(0)
    db.detach_fault_injector()
    db.close()
    return total


@pytest.mark.parametrize("pattern", WRITE_PATTERNS)
def test_crash_at_every_flush_compaction_and_manifest_write(
    pattern, tmp_path_factory
):
    """Crashes inside run builds and manifest installs roll forward exactly."""
    total = device_write_points(pattern, tmp_path_factory.mktemp("lsm-dry"))
    assert total > 0, f"workload never wrote to {pattern}"
    for at_call in sampled(total):
        crash_then_recover(
            tmp_path_factory.mktemp("lsm-dev"),
            FaultRule("write", "crash", file=pattern, at_call=at_call),
            f"{pattern} write crash @{at_call}",
        )


def test_workload_actually_compacts():
    """Guard: the matrix is vacuous unless merges happen mid-workload."""
    db = Database(page_size=4096, pool_capacity=0)
    apply_ops(db, workload_ops())
    for name in ("ssf", "bssf"):
        facility = db.index("Student", "hobbies", name)
        assert facility.counters["flushes"] >= 3
        assert facility.counters["compactions"] >= 1


def test_torn_manifest_install_rolls_back_to_prior_run_set():
    """A manifest torn mid-install yields the previous version's runs."""
    from repro.lsm import LSMSignatureFacility
    from repro.core.signature import SignatureScheme
    from repro.storage.paged_file import StorageManager

    storage = StorageManager(page_size=4096, pool_capacity=0)
    scheme = SignatureScheme(32, 2, seed=3)
    facility = LSMSignatureFacility(
        storage, scheme, "ssf", "ssf:T.s", flush_threshold=100, fanout=100,
    )
    facility.insert(frozenset({"a", "b"}), OID(1, 0))
    facility.flush()
    state_before = [run.to_state() for run in facility.runs]
    facility.insert(frozenset({"c"}), OID(1, 1))
    facility.flush()

    # tear the slot the second install wrote (version 2 -> slot a)
    torn = manifest_slot_name("ssf:T.s", SLOT_SUFFIXES[facility.manifest.version % 2])
    storage.store._apply_corruption(torn, 0, b"\xfe" * 4096)

    from repro.lsm import RunManifest

    states, rolled_back = RunManifest(storage, "ssf:T.s").load()
    assert rolled_back
    assert states == state_before
