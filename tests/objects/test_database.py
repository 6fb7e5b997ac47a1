"""Tests for the Database facade and index maintenance."""

import pytest

from repro.errors import AccessFacilityError, ConfigurationError, SchemaError
from repro.objects.database import Database
from repro.objects.schema import ClassSchema

from tests.conftest import populate_students


class TestIndexManagement:
    def test_create_all_three(self, student_db):
        student_db.create_ssf_index("Student", "hobbies", 64, 2)
        student_db.create_bssf_index("Student", "hobbies", 64, 2)
        student_db.create_nested_index("Student", "hobbies")
        assert set(student_db.indexes_on("Student", "hobbies")) == {
            "ssf", "bssf", "nix",
        }

    def test_index_on_scalar_rejected(self, student_db):
        with pytest.raises(SchemaError):
            student_db.create_nested_index("Student", "name")

    def test_duplicate_facility_rejected(self, student_db):
        student_db.create_ssf_index("Student", "hobbies", 64, 2)
        with pytest.raises(AccessFacilityError):
            student_db.create_ssf_index("Student", "hobbies", 128, 2)

    def test_index_lookup_by_name(self, student_db):
        ssf = student_db.create_ssf_index("Student", "hobbies", 64, 2)
        assert student_db.index("Student", "hobbies", "ssf") is ssf
        assert student_db.index("Student", "hobbies") is ssf

    def test_ambiguous_lookup_requires_name(self, student_db):
        student_db.create_ssf_index("Student", "hobbies", 64, 2)
        student_db.create_nested_index("Student", "hobbies")
        with pytest.raises(AccessFacilityError):
            student_db.index("Student", "hobbies")

    def test_missing_index_raises(self, student_db):
        with pytest.raises(AccessFacilityError):
            student_db.index("Student", "hobbies")
        student_db.create_ssf_index("Student", "hobbies", 64, 2)
        with pytest.raises(AccessFacilityError):
            student_db.index("Student", "hobbies", "nix")

    def test_backfill_on_late_index_creation(self, student_db):
        oids = populate_students(student_db, count=30)
        nix = student_db.create_nested_index("Student", "hobbies")
        values = student_db.get(oids[0])
        element = next(iter(values["hobbies"]))
        assert oids[0] in nix.lookup_element(element)


#: (creating call, its arguments) for every facility configuration
FACILITY_CONFIGS = {
    "ssf": ("create_ssf_index", dict(signature_bits=64, bits_per_element=2, seed=5)),
    "bssf": (
        "create_bssf_index",
        dict(signature_bits=96, bits_per_element=3, seed=6, worst_case_insert=True),
    ),
    "nix": ("create_nested_index", dict(overflow_chains=True)),
    "lsm-ssf": (
        "create_ssf_index",
        dict(signature_bits=64, bits_per_element=2, seed=7, lsm=True,
             flush_threshold=9, fanout=3),
    ),
    "lsm-bssf": (
        "create_bssf_index",
        dict(signature_bits=64, bits_per_element=2, seed=8, lsm=True,
             flush_threshold=11, fanout=5),
    ),
}


class TestCreateIndexFromParams:
    """``facility.create_params()`` → ``Database.create_index`` is the one
    way replay, sharding and rebuild make "another facility like this"."""

    @pytest.mark.parametrize("config", list(FACILITY_CONFIGS))
    def test_copy_has_the_same_configuration(self, config, tmp_path):
        method, kwargs = FACILITY_CONFIGS[config]
        source = Database(wal_dir=str(tmp_path))
        source.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
        original = getattr(source, method)("Student", "hobbies", **kwargs)
        kind, params = original.create_params()
        assert kind == original.name

        # It is the create_index record's own list, layout included, so a
        # copy keeps its layout on a database of any mode.
        logged = [r.fields for r in source.wal.records() if r.type == "create_index"]
        assert [fields[1] for fields in logged] == [kind]
        assert logged[0][4] == params
        source.close()

        lsm_mode = Database(durability="lsm", wal_dir=str(tmp_path / "lsm"))
        for target in (Database(), lsm_mode):
            target.define_class(
                ClassSchema.build("Student", name="scalar", hobbies="set")
            )
            copy = target.create_index(kind, "Student", "hobbies", params)
            assert type(copy) is type(original)
            assert copy.create_params() == (kind, params)
            for option in ("worst_case_insert", "overflow_chains", "flush_threshold",
                           "fanout"):
                assert getattr(copy, option, None) == getattr(original, option, None)
            target.close()

    def test_unknown_kind_rejected(self, student_db):
        with pytest.raises(ConfigurationError):
            student_db.create_index("rtree", "Student", "hobbies", [])


class TestIndexMaintenance:
    @pytest.fixture
    def indexed_db(self, student_db):
        student_db.create_ssf_index("Student", "hobbies", 64, 2)
        student_db.create_bssf_index("Student", "hobbies", 64, 2)
        student_db.create_nested_index("Student", "hobbies")
        return student_db

    def _search_all(self, db, query):
        results = {}
        for name, facility in db.indexes_on("Student", "hobbies").items():
            candidates = facility.search_superset(frozenset(query)).candidates
            confirmed = [
                oid for oid in candidates
                if frozenset(db.get(oid)["hobbies"]) >= frozenset(query)
            ]
            results[name] = sorted(confirmed)
        return results

    def test_insert_updates_every_index(self, indexed_db):
        oid = indexed_db.insert(
            "Student", {"name": "J", "hobbies": {"Baseball", "Fishing"}}
        )
        for answer in self._search_all(indexed_db, {"Baseball"}).values():
            assert answer == [oid]

    def test_delete_removes_from_every_index(self, indexed_db):
        oid = indexed_db.insert(
            "Student", {"name": "J", "hobbies": {"Baseball"}}
        )
        indexed_db.delete(oid)
        for answer in self._search_all(indexed_db, {"Baseball"}).values():
            assert answer == []

    def test_update_reindexes_changed_set(self, indexed_db):
        oid = indexed_db.insert("Student", {"name": "J", "hobbies": {"Chess"}})
        indexed_db.update(oid, {"name": "J", "hobbies": {"Golf"}})
        assert self._search_all(indexed_db, {"Chess"})["nix"] == []
        assert self._search_all(indexed_db, {"Golf"})["nix"] == [oid]

    def test_update_with_unchanged_set_skips_reindex(self, indexed_db):
        oid = indexed_db.insert("Student", {"name": "J", "hobbies": {"Chess"}})
        before = indexed_db.io_snapshot()
        indexed_db.update(oid, {"name": "Jeff", "hobbies": {"Chess"}})
        delta = indexed_db.io_snapshot() - before
        index_pages = sum(
            counts.logical_total
            for name, counts in delta.per_file.items()
            if not name.startswith("objects:")
        )
        assert index_pages == 0

    def test_verify_indexes(self, indexed_db):
        populate_students(indexed_db, count=40)
        indexed_db.verify_indexes()  # must not raise

    def test_facility_storage_report(self, indexed_db):
        populate_students(indexed_db, count=10)
        report = indexed_db.facility_storage_report()
        assert "Student.hobbies/ssf" in report
        assert report["Student.hobbies/nix"]["leaf"] >= 1


class TestFacadeBasics:
    def test_get_roundtrip(self, student_db):
        oid = student_db.insert("Student", {"name": "x", "hobbies": {"a"}})
        assert student_db.get(oid)["name"] == "x"

    def test_scan_and_count(self, student_db):
        populate_students(student_db, count=7)
        assert student_db.count("Student") == 7
        assert len(list(student_db.scan("Student"))) == 7

    def test_io_snapshot_delta(self, student_db):
        before = student_db.io_snapshot()
        student_db.insert("Student", {"name": "x", "hobbies": set()})
        assert (student_db.io_snapshot() - before).logical_total >= 1

    def test_multiple_classes_independent(self, database):
        database.define_class(ClassSchema.build("A", tags="set"))
        database.define_class(ClassSchema.build("B", tags="set"))
        database.create_nested_index("A", "tags")
        oid_b = database.insert("B", {"tags": {"t"}})
        nix = database.index("A", "tags", "nix")
        assert nix.lookup_element("t") == []  # B's insert must not leak into A's index
        oid_a = database.insert("A", {"tags": {"t"}})
        assert nix.lookup_element("t") == [oid_a]
        assert database.get(oid_b)["tags"] == {"t"}
