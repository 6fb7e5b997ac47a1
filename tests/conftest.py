"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.storage.page import Page


@pytest.fixture
def database() -> Database:
    """Empty unbuffered database (paper's no-cache cost model)."""
    return Database(page_size=4096, pool_capacity=0)


@pytest.fixture
def student_db(database: Database) -> Database:
    """Database with the Student class defined (no data, no indexes)."""
    database.define_class(
        ClassSchema.build("Student", name="scalar", hobbies="set")
    )
    return database


@pytest.fixture
def page_accessor_calls(monkeypatch) -> list:
    """``(offset, length)`` of every bounds-checked ``Page`` accessor call.

    All of ``read_*`` / ``write_*`` go through ``Page._check_span``; code
    that works on ``page.data`` directly does not. The counting guards use
    this to tell a per-page codec from a per-field one.
    """
    calls = []
    real_check = Page._check_span

    def counting_check(page, offset, length):
        calls.append((offset, length))
        real_check(page, offset, length)

    monkeypatch.setattr(Page, "_check_span", counting_check)
    return calls


@pytest.fixture
def device_reads(monkeypatch) -> list:
    """``(file, page_no)`` of every page image read off the simulated disk.

    Fetches past the pool and decode-cache peeks all end in
    ``DiskStore.read_page``; a charge that only verifies a page's checksum
    (``DiskStore.check_page``) moves nothing and does not pass here. The
    counting guards use this to tell a write that re-reads the pages it
    rewrites from one that images them from what is already decoded.
    """
    from repro.storage.disk import DiskStore

    reads = []
    real_read = DiskStore.read_page

    def counting_read(store, name, page_no):
        reads.append((name, page_no))
        return real_read(store, name, page_no)

    monkeypatch.setattr(DiskStore, "read_page", counting_read)
    return reads


@pytest.fixture
def node_decodes(monkeypatch) -> list:
    """Every node the nested index's B+-tree decodes from a page.

    The tree decodes through ``deserialize_node`` alone; a node it takes
    from its decoded-node map does not pass here. The counting guards use
    this to tell a lookup that reuses the map from one that decodes its
    way down again.
    """
    from repro.access.nix import btree

    decoded = []
    real_deserialize = btree.deserialize_node

    def counting_deserialize(page):
        node = real_deserialize(page)
        decoded.append(node)
        return node

    monkeypatch.setattr(btree, "deserialize_node", counting_deserialize)
    return decoded


@pytest.fixture
def cost_models_built(monkeypatch) -> list:
    """Class name of every analytical cost model constructed.

    The planner prices through ``SSFCostModel`` / ``BSSFCostModel`` /
    ``NIXCostModel`` and nothing else; a price served from its memo
    constructs none. The counting guards use this to tell a plan that
    re-derives its constants from one that looks them up.
    """
    from repro.costmodel.bssf_model import BSSFCostModel
    from repro.costmodel.nix_model import NIXCostModel
    from repro.costmodel.ssf_model import SSFCostModel

    built = []
    for model in (SSFCostModel, BSSFCostModel, NIXCostModel):
        real_check = model.__post_init__

        def counting_check(self, real_check=real_check):
            built.append(type(self).__name__)
            real_check(self)

        monkeypatch.setattr(model, "__post_init__", counting_check)
    return built


@pytest.fixture
def class_scans(monkeypatch) -> list:
    """Class name of every ``ObjectStore.scan`` started.

    Statistics are collected by scan once per path and from running
    aggregates after; the counting guards use this to tell the two apart.
    """
    from repro.objects.object_store import ObjectStore

    scans = []
    real_scan = ObjectStore.scan

    def counting_scan(store, class_name):
        scans.append(class_name)
        return real_scan(store, class_name)

    monkeypatch.setattr(ObjectStore, "scan", counting_scan)
    return scans


HOBBIES = [
    "Baseball", "Fishing", "Tennis", "Football", "Golf", "Chess",
    "Photography", "Climbing", "Cycling", "Painting", "Cooking", "Sailing",
]


def populate_students(db: Database, count: int = 120, per_student: int = 3,
                      seed: int = 5) -> list:
    """Insert ``count`` students with random hobby sets; returns OIDs."""
    rng = random.Random(seed)
    oids = []
    for i in range(count):
        hobbies = set(rng.sample(HOBBIES, per_student))
        oids.append(
            db.insert("Student", {"name": f"s{i:03d}", "hobbies": hobbies})
        )
    return oids


@pytest.fixture
def populated_db(student_db: Database) -> Database:
    populate_students(student_db)
    return student_db
