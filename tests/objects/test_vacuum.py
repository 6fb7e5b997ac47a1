"""Tests for index vacuum/rebuild."""

import pytest

from repro.errors import AccessFacilityError

from tests.conftest import populate_students


@pytest.fixture
def churned_db(student_db):
    """Database with heavy delete churn: half the objects tombstoned."""
    student_db.create_ssf_index("Student", "hobbies", 64, 2, seed=2)
    student_db.create_bssf_index("Student", "hobbies", 64, 2, seed=2)
    student_db.create_nested_index("Student", "hobbies")
    oids = populate_students(student_db, count=100)
    for oid in oids[::2]:
        student_db.delete(oid)
    return student_db


class TestVacuum:
    def test_results_unchanged_after_vacuum(self, churned_db):
        facility = churned_db.index("Student", "hobbies", "ssf")
        query = frozenset({"Baseball"})
        before = set(facility.search_superset(query).candidates)
        fresh = churned_db.vacuum_index("Student", "hobbies", "ssf")
        after = set(fresh.search_superset(query).candidates)
        assert before == after

    def test_tombstones_reclaimed(self, churned_db):
        stale = churned_db.index("Student", "hobbies", "ssf")
        assert stale.entry_count == 100  # tombstones included
        fresh = churned_db.vacuum_index("Student", "hobbies", "ssf")
        assert fresh.entry_count == 50

    def test_bssf_vacuum_preserves_parameters(self, churned_db):
        old = churned_db.index("Student", "hobbies", "bssf")
        fresh = churned_db.vacuum_index("Student", "hobbies", "bssf")
        assert fresh.signature_bits == old.signature_bits
        assert fresh.scheme == old.scheme
        assert fresh.entry_count == 50
        fresh.verify()

    def test_nix_vacuum(self, churned_db):
        fresh = churned_db.vacuum_index("Student", "hobbies", "nix")
        fresh.verify()
        live = {oid for oid, _ in churned_db.scan("Student")}
        query = frozenset({"Chess"})
        assert set(fresh.search_superset(query).candidates) <= live

    def test_registry_updated(self, churned_db):
        fresh = churned_db.vacuum_index("Student", "hobbies", "bssf")
        assert churned_db.index("Student", "hobbies", "bssf") is fresh

    def test_consistency_after_vacuum(self, churned_db):
        for name in ("ssf", "bssf", "nix"):
            churned_db.vacuum_index("Student", "hobbies", name)
        churned_db.check_consistency(sample=30)

    def test_mutations_after_vacuum(self, churned_db):
        fresh = churned_db.vacuum_index("Student", "hobbies", "ssf")
        oid = churned_db.insert(
            "Student", {"name": "post", "hobbies": {"Baseball"}}
        )
        assert oid in fresh.search_superset(frozenset({"Baseball"})).candidates

    def test_unknown_facility_raises(self, churned_db):
        with pytest.raises(AccessFacilityError):
            churned_db.vacuum_index("Student", "hobbies", "btree")


class TestLayoutSurvivesRebuild:
    """A rebuild, a vacuum and the replay of either keep a facility's class
    and create params, even where the layout differs from the database's
    mode (an in-place facility on a ``durability="lsm"`` database)."""

    @pytest.fixture
    def lsm_db(self, tmp_path):
        from repro.objects.database import Database
        from repro.objects.schema import ClassSchema

        db = Database(durability="lsm", wal_dir=str(tmp_path))
        db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
        for number in range(20):
            db.insert("Student", {"name": str(number), "hobbies": {number % 5}})
        yield db
        db.close()

    @pytest.mark.parametrize("lsm", [False, True])
    def test_rebuild_facility(self, lsm_db, lsm):
        from repro.recovery import rebuild_facility

        before = lsm_db.create_ssf_index("Student", "hobbies", 64, 2, lsm=lsm)
        after = rebuild_facility(lsm_db, "Student", "hobbies", "ssf")
        assert type(after) is type(before)
        assert after.create_params() == before.create_params()

    @pytest.mark.parametrize("lsm", [False, True])
    def test_vacuum_index(self, lsm_db, lsm):
        before = lsm_db.create_bssf_index("Student", "hobbies", 64, 2, lsm=lsm)
        after = lsm_db.vacuum_index("Student", "hobbies", "bssf")
        assert type(after) is type(before)
        assert after.create_params() == before.create_params()

    @pytest.mark.parametrize("lsm", [False, True])
    def test_open_replays_the_vacuum(self, lsm_db, lsm):
        from repro.objects.database import Database

        before = lsm_db.create_ssf_index("Student", "hobbies", 64, 2, lsm=lsm)
        live = lsm_db.vacuum_index("Student", "hobbies", "ssf")
        lsm_db.close()
        reopened = Database.open(lsm_db.wal_dir)
        after = reopened.index("Student", "hobbies", "ssf")
        # replay redoes the vacuum as it ran live, layout included
        assert type(after) is type(live) is type(before)
        assert after.create_params() == live.create_params() == before.create_params()
        reopened.close()
