"""Fixtures and helpers for the write-ahead-log suite.

The crash and recovery tests all lean on two facts:

* every ``Database``-level operation is deterministic (OID allocation,
  facility maintenance), so a *baseline* database that simply applies the
  first ``p`` workload operations is byte-for-byte the state recovery must
  reproduce when exactly ``p`` logical records survived the crash;
* :func:`fingerprint` captures the complete durable state (every stored
  page image plus the object directory and allocator), so byte-equivalence
  is one dictionary comparison.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, List, Tuple

import pytest

from repro.objects.database import Database
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.obs.metrics import REGISTRY
from tests.conftest import HOBBIES

#: small geometry keeps matrices fast (mirrors tests/faults/conftest.py)
SSF_PARAMS = dict(signature_bits=32, bits_per_element=2, seed=3)
BSSF_PARAMS = dict(signature_bits=32, bits_per_element=2, seed=3)

#: the Student class is the first defined class, so its OIDs are (1, serial)
STUDENT_CLASS_ID = 1

WorkloadOp = Tuple[str, Callable[[Database], None]]


@pytest.fixture(autouse=True)
def _reset_registry():
    """Metrics assertions need a clean slate per test."""
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def _op_define(db: Database) -> None:
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))


def _op_insert(i: int, hobbies: List[str]) -> Callable[[Database], None]:
    def run(db: Database) -> None:
        db.insert("Student", {"name": f"s{i:03d}", "hobbies": set(hobbies)})

    return run


def _op_update(serial: int, hobbies: List[str]) -> Callable[[Database], None]:
    def run(db: Database) -> None:
        db.update(
            OID(STUDENT_CLASS_ID, serial),
            {"name": f"u{serial:03d}", "hobbies": set(hobbies)},
        )

    return run


def _op_delete(serial: int) -> Callable[[Database], None]:
    def run(db: Database) -> None:
        db.delete(OID(STUDENT_CLASS_ID, serial))

    return run


def workload_ops(inserts: int = 12, seed: int = 41) -> List[WorkloadOp]:
    """A deterministic schema + DDL + DML mix, one logical record per op."""
    rng = random.Random(seed)
    ops: List[WorkloadOp] = [
        ("define_class", _op_define),
        (
            "create ssf",
            lambda db: db.create_ssf_index("Student", "hobbies", **SSF_PARAMS),
        ),
        (
            "create bssf",
            lambda db: db.create_bssf_index("Student", "hobbies", **BSSF_PARAMS),
        ),
        ("create nix", lambda db: db.create_nested_index("Student", "hobbies")),
    ]
    for i in range(inserts):
        ops.append((f"insert {i}", _op_insert(i, rng.sample(HOBBIES, 3))))
    ops.append(("update 2", _op_update(2, rng.sample(HOBBIES, 3))))
    ops.append(("update 5", _op_update(5, rng.sample(HOBBIES, 2))))
    ops.append(("delete 3", _op_delete(3)))
    ops.append((f"insert {inserts}", _op_insert(inserts, rng.sample(HOBBIES, 3))))
    ops.append(("delete 7", _op_delete(7)))
    return ops


def apply_ops(db: Database, ops: List[WorkloadOp]) -> None:
    for _, op in ops:
        op(db)


def fingerprint(db: Database) -> dict:
    """Complete durable state: page images, directory, allocator."""
    db.storage.flush()
    store = db.storage.store
    files = {}
    for name in sorted(store.file_names()):
        digest = hashlib.sha256()
        pages = store.num_pages(name)
        for page_no in range(pages):
            digest.update(store.page_image(name, page_no))
        files[name] = (pages, digest.hexdigest())
    return {
        "files": files,
        "directory": sorted(
            (word, address.page_no, address.slot)
            for word, address in db.objects._directory.items()
        ),
        "allocator": dict(db.objects._allocator._next_serial),
        "classes": db.objects.class_names(),
    }


def baseline_fingerprints(ops: List[WorkloadOp]) -> List[dict]:
    """``result[p]`` = state after the first ``p`` ops, WAL-free."""
    db = Database(page_size=4096, pool_capacity=0)
    result = [fingerprint(db)]
    for _, op in ops:
        op(db)
        result.append(fingerprint(db))
    return result
