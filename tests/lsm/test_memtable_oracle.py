"""The memtable's one kernel pass against the per-entry oracle.

Seeded random histories drive a memtable directly and through an LSM
facility (so flushes start new generations); after every op, each mode
and partial-evaluation option must yield the same ``(seq, oid)`` drops
from :meth:`MemTable.drops` as from ``tests/reference/memtable.py``.
"""

import random

import pytest

from repro.access.base import query_words
from repro.lsm import LSMSignatureFacility, MemTable
from repro.objects.oid import OID
from repro.storage.paged_file import StorageManager

from tests.lsm.conftest import DOMAIN, SAMPLE_QUERIES, make_scheme
from tests.reference.memtable import memtable_drops

#: (mode, options) pairs; slices_to_examine 0 makes every entry a drop
SEARCHES = [
    ("superset", {}),
    ("superset", {"use_elements": 1}),
    ("superset", {"use_elements": 2}),
    ("subset", {}),
    ("subset", {"slices_to_examine": 0}),
    ("subset", {"slices_to_examine": 1}),
    ("subset", {"slices_to_examine": 5}),
    ("overlap", {}),
]


def assert_matches_oracle(memtable: MemTable) -> None:
    for query in SAMPLE_QUERIES[1:]:
        for mode, options in SEARCHES:
            words = query_words(memtable.scheme, mode, query, **options)
            assert memtable.drops(mode, words) == memtable_drops(
                memtable, mode, query, **options
            ), (mode, options, sorted(query))


def random_elements(rng):
    return frozenset(rng.sample(DOMAIN, rng.randint(0, 4)))


@pytest.mark.parametrize("seed", range(8))
def test_random_histories_match_the_oracle(seed):
    rng = random.Random(seed)
    table = MemTable(make_scheme())
    oids = [OID(1, i) for i in range(12)]
    for seq in range(60):
        oid = rng.choice(oids)
        if rng.random() < 0.3:
            table.delete(oid)
        else:
            table.insert(random_elements(rng), oid, seq)
        assert_matches_oracle(table)
    restored = MemTable.from_state(table.to_state(), table.scheme)
    assert_matches_oracle(restored)


def test_update_in_the_same_generation_retires_the_old_row():
    table = MemTable(make_scheme())
    table.insert(frozenset({"e1", "e2"}), OID(1, 0), 0)
    table.insert(frozenset({"e3"}), OID(1, 0), 1)
    assert_matches_oracle(table)
    words = query_words(table.scheme, "superset", frozenset({"e1", "e2"}))
    assert (0, OID(1, 0)) not in table.drops("superset", words)


def test_delete_then_reinsert_answers_with_the_new_version():
    table = MemTable(make_scheme())
    table.insert(frozenset({"e1"}), OID(1, 0), 0)
    table.delete(OID(1, 0))
    assert_matches_oracle(table)
    table.insert(frozenset({"e1", "e4"}), OID(1, 0), 1)
    assert_matches_oracle(table)
    words = query_words(table.scheme, "overlap", frozenset({"e1"}))
    assert table.drops("overlap", words) == [(1, OID(1, 0))]


@pytest.mark.parametrize("kind", ["ssf", "bssf"])
@pytest.mark.parametrize("seed", range(4))
def test_a_facility_s_memtable_matches_across_flushes_and_restores(kind, seed):
    rng = random.Random(100 + seed)
    storage = StorageManager(page_size=4096, pool_capacity=0)
    facility = LSMSignatureFacility(
        storage, make_scheme(), kind, f"{kind}:T.s", flush_threshold=5
    )
    live = {}
    for serial in range(80):
        roll = rng.random()
        if roll < 0.5 or not live:
            oid = OID(1, serial)
            live[oid] = random_elements(rng)
            facility.insert(live[oid], oid)
        elif roll < 0.8:
            oid = rng.choice(sorted(live))
            facility.delete(live[oid], oid)
            live[oid] = random_elements(rng)
            facility.insert(live[oid], oid)
        else:
            oid = rng.choice(sorted(live))
            facility.delete(live.pop(oid), oid)
        assert_matches_oracle(facility.memtable)
        if serial % 17 == 0:
            restored = LSMSignatureFacility.attach(
                storage, facility.scheme, facility.file_prefix,
                facility.state_blob(),
            )
            assert_matches_oracle(restored.memtable)
    assert facility.counters["flushes"] > 3
