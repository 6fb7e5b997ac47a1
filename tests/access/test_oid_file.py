"""Tests for the shared OID file."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.oid_file import OIDFile
from repro.errors import AccessFacilityError
from repro.objects.oid import OID
from repro.storage.paged_file import StorageManager
from tests.reference import ReferenceOIDFile


def make_oid_file(page_size: int = 4096):
    manager = StorageManager(page_size=page_size, pool_capacity=0)
    return OIDFile(manager.create_file("oids")), manager


class TestAppendGet:
    def test_sequential_indices(self):
        oid_file, _ = make_oid_file()
        assert oid_file.append(OID(1, 0)) == 0
        assert oid_file.append(OID(1, 1)) == 1
        assert oid_file.entry_count == 2

    def test_get_roundtrip(self):
        oid_file, _ = make_oid_file()
        oid_file.append(OID(3, 99))
        assert oid_file.get(0) == OID(3, 99)

    def test_entries_per_page_matches_table2(self):
        oid_file, _ = make_oid_file()
        assert oid_file.entries_per_page == 512  # O_p = P / oid

    def test_page_boundary(self):
        oid_file, _ = make_oid_file(page_size=32)  # 4 entries/page
        for i in range(9):
            oid_file.append(OID(1, i))
        assert oid_file.num_pages == 3
        assert oid_file.get(8) == OID(1, 8)

    def test_index_bounds_checked(self):
        oid_file, _ = make_oid_file()
        with pytest.raises(AccessFacilityError):
            oid_file.get(0)
        oid_file.append(OID(1, 0))
        with pytest.raises(AccessFacilityError):
            oid_file.get(1)
        with pytest.raises(AccessFacilityError):
            oid_file.get(-1)


class TestTombstonePatternIsNotAnEntry:
    """``OID(0xFFFF, 0xFFFFFFFFFFFF)`` packs to the all-ones tombstone."""

    ALL_ONES = OID(0xFFFF, 0xFFFFFFFFFFFF)

    def test_append_refuses_it_before_touching_a_page(self):
        oid_file, manager = make_oid_file()
        oid_file.append(OID(1, 0))
        before = manager.snapshot()
        with pytest.raises(AccessFacilityError, match="tombstone"):
            oid_file.append(self.ALL_ONES)
        assert manager.snapshot() == before
        assert oid_file.entry_count == 1

    def test_bulk_append_refuses_the_whole_batch(self):
        oid_file, manager = make_oid_file(page_size=32)
        batch = [OID(1, i) for i in range(6)] + [self.ALL_ONES]
        with pytest.raises(AccessFacilityError, match="tombstone"):
            oid_file.bulk_append(batch)
        assert oid_file.entry_count == 0
        assert oid_file.num_pages == 0

    def test_delete_does_not_match_a_tombstone(self):
        oid_file, _ = make_oid_file()
        oid_file.append(OID(1, 0))
        oid_file.delete(OID(1, 0))
        with pytest.raises(AccessFacilityError):
            oid_file.delete(self.ALL_ONES)

    def test_its_neighbours_are_ordinary_entries(self):
        oid_file, _ = make_oid_file()
        neighbours = [OID(0xFFFF, 0xFFFFFFFFFFFE), OID(0xFFFE, 0xFFFFFFFFFFFF)]
        oid_file.bulk_append(neighbours)
        assert oid_file.get_many([0, 1]) == neighbours
        assert oid_file.delete(neighbours[1]) == 1
        assert [oid for _, oid in oid_file.scan_live()] == neighbours[:1]


class TestGetMany:
    def test_preserves_request_order(self):
        oid_file, _ = make_oid_file()
        for i in range(10):
            oid_file.append(OID(1, i))
        result = oid_file.get_many([5, 1, 7])
        assert result == [OID(1, 5), OID(1, 1), OID(1, 7)]

    def test_one_read_per_touched_page(self):
        oid_file, manager = make_oid_file(page_size=32)  # 4 entries/page
        for i in range(12):
            oid_file.append(OID(1, i))
        before = manager.snapshot()
        oid_file.get_many([0, 1, 2, 9])  # pages 0 and 2
        delta = manager.snapshot() - before
        assert delta.for_file("oids").logical_reads == 2

    def test_duplicates_allowed(self):
        oid_file, _ = make_oid_file()
        oid_file.append(OID(1, 0))
        assert oid_file.get_many([0, 0]) == [OID(1, 0), OID(1, 0)]

    def test_empty_request(self):
        oid_file, _ = make_oid_file()
        assert oid_file.get_many([]) == []


ENTRIES = 19  # five pages at 4 entries/page, the last one partial
CAPACITY = 2  # smaller than the file, so LRU order shows the read order


def twin_oid_files(capacity, tombstoned):
    """The same entries and tombstones under OIDFile and its oracle."""
    out = []
    for oid_file_class in (OIDFile, ReferenceOIDFile):
        manager = StorageManager(page_size=32, pool_capacity=capacity)
        oid_file = oid_file_class(manager.create_file("oids"))
        oid_file.bulk_append([OID(1, i) for i in range(ENTRIES)])
        for i in sorted(tombstoned):
            oid_file.delete(OID(1, i))
        out.append((oid_file, manager))
    return out


def metered(manager, op):
    """Outcome (or the error), I/O delta, pool hit/miss delta, LRU order."""
    pool = manager.pool
    before_pool = (pool.hits, pool.misses)
    before = manager.snapshot()
    try:
        outcome = op()
    except AccessFacilityError as exc:
        outcome = str(exc)
    return (
        outcome,
        manager.snapshot() - before,
        (pool.hits - before_pool[0], pool.misses - before_pool[1]),
        list(pool._frames),
    )


def metered_get_many(oid_file, manager, indices):
    return metered(manager, lambda: oid_file.get_many(indices))


class TestGetManyAgainstReference:
    """``get_many`` answers from the decoded table but must charge what the
    per-entry lookup in ``tests/reference/`` really reads."""

    @settings(max_examples=60, deadline=None)
    @given(
        indices=st.lists(st.integers(0, ENTRIES - 1), max_size=12),
        tombstoned=st.sets(st.integers(0, ENTRIES - 1), max_size=5),
        capacity=st.sampled_from([0, CAPACITY]),
    )
    def test_same_entries_same_charges(self, indices, tombstoned, capacity):
        (fast, fast_mgr), (ref, ref_mgr) = twin_oid_files(capacity, tombstoned)
        pages = sorted({index // fast.entries_per_page for index in indices})
        for _ in range(2):  # cold, then warm decode cache and pool
            observed = metered_get_many(fast, fast_mgr, indices)
            assert observed == metered_get_many(ref, ref_mgr, indices)
            result, delta, _, lru = observed
            assert result == [
                None if i in tombstoned else OID(1, i) for i in indices
            ]
            assert delta.for_file("oids").logical_reads == len(pages)
            if capacity and pages:
                # distinct pages, ascending: the most recently used frames
                # are the highest pages, in order
                tail = [("oids", page_no) for page_no in pages][-CAPACITY:]
                assert lru[-len(tail):] == tail

    @settings(max_examples=30, deadline=None)
    @given(
        indices=st.lists(st.integers(0, ENTRIES - 1), max_size=6),
        bad=st.sampled_from([-1, -7, ENTRIES, ENTRIES + 40]),
        position=st.integers(0, 6),
        capacity=st.sampled_from([0, CAPACITY]),
    )
    def test_bad_index_raises_before_any_charge(
        self, indices, bad, position, capacity
    ):
        (fast, fast_mgr), (ref, ref_mgr) = twin_oid_files(capacity, set())
        indices = indices[:position] + [bad] + indices[position:]
        observed = metered_get_many(fast, fast_mgr, indices)
        assert observed == metered_get_many(ref, ref_mgr, indices)
        message, delta, pool_delta, _ = observed
        assert message.startswith("OID-file index")
        assert delta.total().logical_reads == 0
        assert delta.total().physical_reads == 0
        assert pool_delta == (0, 0)


def page_bytes(oid_file):
    return [
        bytes(oid_file.file.peek_page(page_no).data)
        for page_no in range(oid_file.num_pages)
    ]


class TestScansAgainstReference:
    """``delete`` and ``scan_live`` compare a page of words at a time; the
    slot-at-a-time loops in ``tests/reference/`` say what they must return,
    charge and leave on the pages."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("delete"), st.integers(0, ENTRIES + 2)),
                st.tuples(st.just("append"), st.integers(100, 103)),
                st.tuples(st.just("scan"), st.just(0)),
                st.tuples(st.just("lookup"), st.integers(0, ENTRIES - 1)),
            ),
            min_size=1,
            max_size=14,
        ),
        capacity=st.sampled_from([0, CAPACITY]),
    )
    def test_same_index_same_charges_same_bytes(self, steps, capacity):
        (fast, fast_mgr), (ref, ref_mgr) = twin_oid_files(capacity, set())
        for step, argument in steps:
            if step == "delete":  # a live entry, a dead one or one never stored
                op = lambda f: f.delete(OID(1, argument))
            elif step == "append":
                op = lambda f: f.append(OID(2, argument))
            elif step == "scan":
                op = lambda f: list(f.scan_live())
            else:  # between writes, so the decoded table has to follow them
                op = lambda f: f.get_many([argument, fast.entry_count - 1])
            observed = metered(fast_mgr, lambda: op(fast))
            assert observed == metered(ref_mgr, lambda: op(ref))
            assert page_bytes(fast) == page_bytes(ref)
            if step == "delete" and isinstance(observed[0], str):
                # not found: said only after every page has been charged
                assert observed[1].for_file("oids").logical_reads == fast.num_pages
                assert observed[1].for_file("oids").logical_writes == 0
        if capacity == 0:  # (a pool's dirty evictions are file writes too)
            # one decode for the whole history: every write was followed in place
            assert fast._decode.stats()["misses"] <= 1

    def test_tombstoning_costs_page_accessors_per_page_not_per_entry(
        self, page_accessor_calls
    ):
        """Deleting the last entry of an 8-page file scans all 4096 slots;
        it may not call into ``Page`` once per slot to do so."""
        oid_file, _ = make_oid_file()
        per_page = oid_file.entries_per_page
        oid_file.bulk_append([OID(1, i) for i in range(8 * per_page)])
        calls = page_accessor_calls
        del calls[:]
        assert oid_file.delete(OID(1, 8 * per_page - 1)) == 8 * per_page - 1
        assert len(calls) <= 2 * oid_file.num_pages
        reference = ReferenceOIDFile(oid_file.file, entry_count=oid_file.entry_count)
        del calls[:]
        with pytest.raises(AccessFacilityError):
            reference.delete(OID(1, 8 * per_page - 1))  # already a tombstone
        assert len(calls) == 8 * per_page  # what the guard is counting


class TestDelete:
    def test_tombstone_hides_entry(self):
        oid_file, _ = make_oid_file()
        oid_file.append(OID(1, 0))
        oid_file.append(OID(1, 1))
        index = oid_file.delete(OID(1, 0))
        assert index == 0
        assert oid_file.get(0) is None
        assert not oid_file.is_live(0)
        assert oid_file.get(1) == OID(1, 1)

    def test_delete_scans_sequentially(self):
        """Deleting the last entry must touch every page (the model's
        SC_OID/2 expected cost comes from this scan)."""
        oid_file, manager = make_oid_file(page_size=32)
        for i in range(12):  # 3 pages
            oid_file.append(OID(1, i))
        before = manager.snapshot()
        oid_file.delete(OID(1, 11))
        delta = manager.snapshot() - before
        assert delta.for_file("oids").logical_reads == 3
        assert delta.for_file("oids").logical_writes == 1

    def test_delete_first_entry_touches_one_page(self):
        oid_file, manager = make_oid_file(page_size=32)
        for i in range(12):
            oid_file.append(OID(1, i))
        before = manager.snapshot()
        oid_file.delete(OID(1, 0))
        assert (manager.snapshot() - before).for_file("oids").logical_reads == 1

    def test_delete_missing_raises(self):
        oid_file, _ = make_oid_file()
        oid_file.append(OID(1, 0))
        with pytest.raises(AccessFacilityError):
            oid_file.delete(OID(1, 99))

    def test_entry_count_includes_tombstones(self):
        oid_file, _ = make_oid_file()
        oid_file.append(OID(1, 0))
        oid_file.delete(OID(1, 0))
        assert oid_file.entry_count == 1


class TestScanLive:
    def test_skips_tombstones(self):
        oid_file, _ = make_oid_file()
        for i in range(5):
            oid_file.append(OID(1, i))
        oid_file.delete(OID(1, 2))
        live = list(oid_file.scan_live())
        assert [index for index, _ in live] == [0, 1, 3, 4]
        assert [oid.serial for _, oid in live] == [0, 1, 3, 4]
