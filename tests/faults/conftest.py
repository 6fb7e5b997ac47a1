"""Fixtures for the fault-injection / recovery suite."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.objects.database import Database
from repro.obs.metrics import REGISTRY
from tests.conftest import HOBBIES, populate_students

#: Facility geometry kept small so crash matrices stay fast.
SSF_PARAMS = dict(signature_bits=32, bits_per_element=2, seed=3)
BSSF_PARAMS = dict(signature_bits=32, bits_per_element=2, seed=3)

#: Superset query constants for the fixed-seed correctness sweeps.
QUERY_SETS = [
    frozenset({HOBBIES[0]}),
    frozenset({HOBBIES[5]}),
    frozenset({HOBBIES[0], HOBBIES[1]}),
    frozenset({HOBBIES[2], HOBBIES[7], HOBBIES[11]}),
]


@pytest.fixture(autouse=True)
def _reset_registry():
    """Metrics assertions need a clean slate per test."""
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def build_indexed_db(count: int = 60) -> Database:
    """Student database with all three facility kinds on ``hobbies``."""
    from repro.objects.schema import ClassSchema

    db = Database(page_size=4096, pool_capacity=0)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    populate_students(db, count=count)
    db.create_ssf_index("Student", "hobbies", **SSF_PARAMS)
    db.create_bssf_index("Student", "hobbies", **BSSF_PARAMS)
    db.create_nested_index("Student", "hobbies")
    return db


@pytest.fixture
def indexed_db() -> Database:
    return build_indexed_db()


def facility_slots(label: str, facility) -> Dict[str, object]:
    """Every decode slot ``facility`` keeps (an LSM facility's per run)."""
    from repro.access.nix.nested_index import NestedIndex

    if getattr(facility, "is_lsm", False):
        slots = {}
        for run in facility.runs:
            slots.update(facility_slots(f"{label}:r{run.run_id}", run.inner))
        return slots
    if isinstance(facility, NestedIndex):
        return {f"{label}:nodes": facility.tree._decode}
    return {
        f"{label}:matrix": facility._decode,
        f"{label}:oids": facility.oid_file._decode,
    }


def warm_every_decode(db: Database) -> None:
    """Run one query forced onto each facility, then assert that every
    decode slot holds a payload, so that a deep fsck after it compares
    every decode with its pages instead of skipping the cold ones.

    The query is ``in-subset`` every element the live objects hold (the
    planner's domain), so every live entry is a drop and every live
    object a candidate. A class with no live object has nothing to
    decode and is skipped.
    """
    from repro.query.executor import QueryExecutor
    from repro.query.options import ExecutionOptions
    from repro.query.parser import parse_query

    executor = QueryExecutor(db)
    cold = []
    for class_name, attribute in db.indexed_paths():
        domain = set()
        for _, values in db.objects.scan(class_name):
            domain |= values[attribute]
        if not domain:
            continue
        elements = ", ".join(f'"{e}"' for e in sorted(domain))
        query = parse_query(
            f"select {class_name} where {attribute} in-subset ({elements})"
        )
        facilities = db.indexes_on(class_name, attribute)
        slots = {f"objects:{class_name}": db.objects._files[class_name]._decode}
        for name, facility in facilities.items():
            executor.execute(query, ExecutionOptions(prefer_facility=name))
            slots.update(
                facility_slots(f"{class_name}.{attribute}/{name}", facility)
            )
        cold += [label for label, slot in slots.items() if slot.held() is None]
    assert not cold, f"decodes left cold: {cold}"


def scan_ground_truth(db: Database, query_set: frozenset) -> List:
    """OIDs whose hobbies are a superset of ``query_set`` (exact, no index)."""
    return sorted(
        oid
        for oid, values in db.objects.scan("Student")
        if query_set <= values["hobbies"]
    )


def facility_files(db: Database, facility_name: str) -> List[str]:
    """Storage files owned by one facility kind."""
    return [
        name
        for name in db.storage.store.file_names()
        if name.startswith(f"{facility_name}:")
    ]


def corrupt_page(db: Database, file_name: str, page_no: int) -> None:
    """Flip one byte of a stored page image, leaving its checksum stale."""
    store = db.storage.store
    image = bytearray(store.page_image(file_name, page_no))
    image[0] ^= 0xFF
    store._apply_corruption(file_name, page_no, bytes(image))


def superset_results(db: Database, query_set: frozenset, facility: str):
    """Run the superset query through one facility; return (oids, stats)."""
    from repro.query.executor import QueryExecutor
    from repro.query.options import ExecutionOptions
    from repro.query.parser import parse_query

    elements = ", ".join(f'"{e}"' for e in sorted(query_set))
    text = f"select Student where hobbies has-subset ({elements})"
    executor = QueryExecutor(db)
    result = executor.execute(
        parse_query(text), ExecutionOptions(prefer_facility=facility)
    )
    return sorted(result.oids()), result.statistics
