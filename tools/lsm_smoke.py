"""LSM smoke: seeded flush/compact/crash drill with differential gates.

Drives one fixed-seed workload (inserts / updates / deletes over a set
attribute, SSF + BSSF indexes with a tiny flush threshold so the run
crosses many memtable flushes and background-eligible compactions) and
asserts:

1. **Differential equivalence** — every canonical query returns the same
   plan, the same rows and the same object-file page count whether the
   indexes are in-place or LSM-structured, and the LSM build is
   non-vacuous (multiple flushes, at least one compaction, several live
   runs);
2. **Crash recovery** — the workload is re-run under ``durability="lsm"``
   with a fault injector that crashes the device mid-run-file build,
   mid-entry-table write and mid-manifest install; recovery from the surviving log must answer
   every canonical query exactly like a WAL-free replay of the durable
   prefix, and deep fsck must come back clean.

Exit status 0 on success; any assertion prints and exits 1. Runs in a few
seconds; CI calls it from tools/check.sh.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.errors import SimulatedCrashError  # noqa: E402
from repro.objects.database import Database  # noqa: E402
from repro.objects.oid import OID  # noqa: E402
from repro.objects.schema import ClassSchema  # noqa: E402
from repro.query.executor import QueryExecutor  # noqa: E402
from repro.recovery import run_fsck  # noqa: E402
from repro.storage import FaultRule  # noqa: E402
from tests.faults.wal_prefix import durable_ops  # noqa: E402

SEED = int(os.environ.get("LSM_SMOKE_SEED", "1993"))
HOBBIES = [
    "Baseball", "Fishing", "Tennis", "Football", "Golf", "Chess",
    "Photography", "Climbing", "Cycling", "Painting", "Cooking", "Sailing",
]
QUERIES = [
    'select Student where hobbies has-subset ("Chess", "Golf")',
    'select Student where hobbies in-subset '
    '("Chess", "Golf", "Tennis", "Fishing")',
    'select Student where hobbies overlaps ("Sailing", "Cycling")',
    'select Student where hobbies contains ("Baseball")',
]
STUDENT_CLASS_ID = 1

#: tiny layout so ~150 ops cross many flushes and several compactions
LSM_PARAMS = dict(flush_threshold=8, fanout=2)

#: device-write crash dimensions for the recovery drill: mid-run-file
#: build (flushes and compaction outputs share the run writer), mid-entry-
#: table write and mid-manifest slot install. Each at_call sits near the
#: middle of what the workload writes to its pattern (about 310 / 4,900 /
#: 155 / 80 page writes; flushes seal sequential runs, so the bssf count is
#: all compaction outputs), clear of the vacuity check at either end.
CRASH_RULES = [
    ("run-file crash", FaultRule(
        "write", "crash", file="ssf:Student.hobbies:r*", at_call=150)),
    ("run-file crash (bssf)", FaultRule(
        "write", "crash", file="bssf:Student.hobbies:r*", at_call=2500)),
    ("entry-table crash", FaultRule(
        "write", "crash", file="bssf:Student.hobbies:r*:entries", at_call=80)),
    ("manifest crash", FaultRule(
        "write", "crash", file="ssf:Student.hobbies:manifest:*", at_call=40)),
]


def workload_ops(*, lsm: bool) -> list:
    """One deterministic op list; each op logs exactly one WAL record."""
    index_kwargs = dict(signature_bits=128, bits_per_element=2, seed=SEED)
    if lsm:
        index_kwargs.update(lsm=True, **LSM_PARAMS)
    ops = [
        lambda db: db.define_class(
            ClassSchema.build("Student", name="scalar", hobbies="set")),
        lambda db: db.create_ssf_index("Student", "hobbies", **index_kwargs),
        lambda db: db.create_bssf_index("Student", "hobbies", **index_kwargs),
    ]

    def _insert(i, hobbies):
        return lambda db: db.insert(
            "Student", {"name": f"s{i:03d}", "hobbies": set(hobbies)})

    def _update(serial, hobbies):
        return lambda db: db.update(
            OID(STUDENT_CLASS_ID, serial),
            {"name": f"u{serial:03d}", "hobbies": set(hobbies)})

    def _delete(serial):
        return lambda db: db.delete(OID(STUDENT_CLASS_ID, serial))

    rng = random.Random(SEED)
    live, next_serial = [], 0
    for _ in range(140):
        roll = rng.random()
        if live and roll < 0.18:
            victim = rng.choice(live)
            ops.append(_update(victim, rng.sample(HOBBIES, rng.randint(1, 4))))
        elif live and roll < 0.26:
            victim = live.pop(rng.randrange(len(live)))
            ops.append(_delete(victim))
        else:
            ops.append(_insert(next_serial, rng.sample(HOBBIES, 3)))
            live.append(next_serial)
            next_serial += 1
    return ops


def build_db(*, lsm: bool, wal_dir=None, ops_limit=None) -> Database:
    kwargs = dict(page_size=4096, pool_capacity=0)
    if wal_dir is not None:
        kwargs.update(wal_dir=wal_dir, durability="lsm")
    db = Database(**kwargs)
    ops = workload_ops(lsm=lsm)
    if ops_limit is not None:
        ops = ops[:ops_limit]
    for op in ops:
        op(db)
    return db


def answers(db: Database) -> list:
    """(plan, rows, object-file pages) per canonical query."""
    db.analyze("Student", "hobbies")
    executor = QueryExecutor(db)
    out = []
    for text in QUERIES:
        result = executor.execute_text(text)
        out.append((result.statistics.plan, tuple(result.oids())))
    out.append(("object-pages", db.objects.object_pages("Student")))
    return out


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def differential_drill() -> None:
    inplace = build_db(lsm=False)
    lsm = build_db(lsm=True)
    check(
        answers(inplace) == answers(lsm),
        "in-place and LSM paths disagree on plans/rows/pages",
    )
    for kind in ("ssf", "bssf"):
        facility = lsm.index("Student", "hobbies", kind)
        check(facility.is_lsm, f"{kind} facility not LSM")
        check(
            facility.counters["flushes"] >= 3,
            f"{kind}: vacuous drill — fewer than 3 memtable flushes",
        )
        check(
            facility.counters["compactions"] >= 1,
            f"{kind}: vacuous drill — no compaction ran",
        )
        check(facility.run_count >= 1, f"{kind}: no live runs")
    print(
        "differential: in-place == LSM on "
        f"{len(QUERIES)} queries; flushes/compactions per index: "
        + ", ".join(
            f"{kind}={lsm.index('Student', 'hobbies', kind).counters}"
            for kind in ("ssf", "bssf")
        )
    )


def crash_drill(label: str, rule: FaultRule) -> None:
    with tempfile.TemporaryDirectory(prefix="lsm-smoke-") as wal_dir:
        db = Database(wal_dir=wal_dir, durability="lsm")
        db.attach_fault_injector(rules=[rule])
        crashed = False
        try:
            for op in workload_ops(lsm=True):
                op(db)
        except SimulatedCrashError:
            crashed = True
        check(crashed, f"{label}: fault never fired — drill is vacuous")
        db.detach_fault_injector()
        db.close()

        p = durable_ops(wal_dir)
        check(p >= 3, f"{label}: durable prefix too short to query")
        recovered = Database.open(wal_dir)
        check(recovered.durability == "lsm", f"{label}: durability lost")
        report = run_fsck(recovered, deep=True)
        check(report.ok, f"{label}: fsck dirty after recovery: {report}")
        baseline = build_db(lsm=True, ops_limit=p)
        check(
            answers(recovered) == answers(baseline),
            f"{label}: recovered answers diverge from the "
            f"{p}-op durable prefix",
        )
        recovered.close()
        print(f"{label}: recovered {p}-op prefix, fsck clean, answers match")


def main() -> int:
    differential_drill()
    for label, rule in CRASH_RULES:
        crash_drill(label, rule)
    print("lsm smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
