"""Unit tests for the LSM memtable."""

from repro.access.base import query_words
from repro.lsm import MemTable
from repro.objects.oid import OID

from tests.lsm.conftest import make_scheme


def test_insert_records_signature_and_seq():
    scheme = make_scheme()
    table = MemTable(scheme)
    oid = OID(1, 0)
    table.insert(frozenset({"a", "b"}), oid, 7)
    elements, seq, row = table.entries[oid]
    assert elements == frozenset({"a", "b"})
    assert seq == 7
    assert row == 0
    words = scheme.set_signature({"a", "b"}).words
    assert (table._signatures[0][row] == words).all()
    assert table.ops == 1
    assert len(table) == 1
    assert not table.is_empty


def test_delete_shadows_and_insert_clears_tombstone():
    scheme = make_scheme()
    table = MemTable(scheme)
    oid = OID(1, 0)
    table.insert(frozenset({"a"}), oid, 0)
    table.delete(oid)
    assert oid not in table.entries
    assert oid in table.tombstones
    table.insert(frozenset({"b"}), oid, 1)
    assert oid not in table.tombstones
    assert table.entries[oid][0] == frozenset({"b"})
    assert table.ops == 3


def test_retired_rows_never_drop():
    """An update or a delete clears the old row's live bit."""
    scheme = make_scheme()
    table = MemTable(scheme)
    table.insert(frozenset({"a"}), OID(1, 0), 0)
    table.insert(frozenset({"a", "b"}), OID(1, 1), 1)
    table.insert(frozenset({"c"}), OID(1, 0), 2)  # update of OID(1, 0)
    table.delete(OID(1, 1))
    table.insert(frozenset({"a"}), OID(1, 2), 3)
    everything = query_words(scheme, "subset", frozenset({"x"}), slices_to_examine=0)
    assert table.drops("subset", everything) == [(2, OID(1, 0)), (3, OID(1, 2))]
    with_a = query_words(scheme, "superset", frozenset({"a"}))
    assert (3, OID(1, 2)) in table.drops("superset", with_a)
    assert (0, OID(1, 0)) not in table.drops("superset", with_a)


def test_delete_of_unknown_oid_is_a_pure_tombstone():
    table = MemTable(make_scheme())
    table.delete(OID(1, 9))
    assert table.tombstones == {OID(1, 9)}
    assert not table.is_empty


def test_state_roundtrip_preserves_seq_order_and_signatures():
    scheme = make_scheme()
    table = MemTable(scheme)
    table.insert(frozenset({"x", "y"}), OID(1, 2), 5)
    table.insert(frozenset({"z"}), OID(1, 0), 3)
    table.delete(OID(1, 7))
    restored = MemTable.from_state(table.to_state(), scheme)
    assert {oid: entry[:2] for oid, entry in restored.entries.items()} == {
        oid: entry[:2] for oid, entry in table.entries.items()
    }
    assert restored.tombstones == table.tombstones
    assert restored.ops == table.ops
    for mode, query in (("overlap", {"x"}), ("superset", {"z"})):
        words = query_words(scheme, mode, frozenset(query))
        assert sorted(restored.drops(mode, words)) == sorted(
            table.drops(mode, words)
        )


def test_state_is_deterministic():
    scheme = make_scheme()
    a, b = MemTable(scheme), MemTable(scheme)
    for table in (a, b):
        table.insert(frozenset({"p", "q"}), OID(1, 1), 0)
        table.delete(OID(1, 4))
    assert a.to_state() == b.to_state()
