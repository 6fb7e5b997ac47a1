"""Degraded-mode execution: exact answers while any facility page is bad.

The acceptance sweep drives the headline guarantee: with a live
``FaultInjector`` corrupting any single facility page, every query in the
fixed-seed suite still returns exact correct results (via degraded
fallback), ``fsck`` reports the corruption, and ``rebuild_facility``
restores a checksum-clean state whose page-access profile is bit-identical
to a fresh build.
"""

from __future__ import annotations

import pytest

from repro.core.signature import SetPredicateKind
from repro.obs.metrics import REGISTRY
from repro.query.executor import QueryExecutor
from repro.query.options import ExecutionOptions
from repro.query.parser import ParsedQuery
from repro.query.planner import AccessPlan, SecondaryAccess
from repro.query.predicates import SetPredicate
from repro.recovery import run_fsck
from repro.storage import FaultRule
from tests.conftest import HOBBIES, populate_students
from tests.faults.conftest import (
    QUERY_SETS,
    build_indexed_db,
    corrupt_page,
    facility_files,
    scan_ground_truth,
    superset_results,
)

FACILITIES = ("ssf", "bssf", "nix")


class TestSingleCorruptPageSweep:
    """Any single bad facility page: queries stay exact, repair is clean."""

    @pytest.mark.parametrize("facility", FACILITIES)
    def test_every_page_of_every_file(self, facility):
        db = build_indexed_db()
        truths = {qs: scan_ground_truth(db, qs) for qs in QUERY_SETS}
        store = db.storage.store
        for file_name in facility_files(db, facility):
            for page_no in range(store.num_pages(file_name)):
                injector = db.storage.attach_fault_injector(
                    rules=[
                        FaultRule("read", "bitflip", file=file_name, page=page_no)
                    ]
                )
                try:
                    for query_set in QUERY_SETS:
                        oids, _ = superset_results(db, query_set, facility)
                        assert oids == truths[query_set], (
                            f"wrong answer with {file_name!r} page {page_no} bad"
                        )
                finally:
                    db.storage.detach_fault_injector()
                if injector.injected:
                    # The page was actually read and corrupted; fsck must
                    # see it, and a rebuild must restore a clean state.
                    assert not run_fsck(db).ok
                    db.rebuild_facility("Student", "hobbies", facility)
                assert run_fsck(db).ok

    def test_rebuilt_facility_matches_fresh_build_page_counts(self):
        """After corrupt -> degrade -> rebuild, the page-access profile of
        every query is bit-identical to a never-damaged twin's."""
        damaged = build_indexed_db()
        fresh = build_indexed_db()
        file_name = facility_files(damaged, "ssf")[0]
        corrupt_page(damaged, file_name, 0)
        # Trip the degradation, then repair.
        superset_results(damaged, QUERY_SETS[0], "ssf")
        assert damaged.is_degraded("Student", "hobbies", "ssf")
        damaged.rebuild_facility("Student", "hobbies", "ssf")
        assert run_fsck(damaged).ok
        for facility in FACILITIES:
            for query_set in QUERY_SETS:
                oids_a, stats_a = superset_results(damaged, query_set, facility)
                oids_b, stats_b = superset_results(fresh, query_set, facility)
                assert oids_a == oids_b
                assert list(stats_a.io.files()) == list(stats_b.io.files())
                assert "degraded" not in stats_a.detail


class TestDegradationBookkeeping:
    def test_fallback_marks_facility_and_plan(self, indexed_db):
        db = indexed_db
        file_name = facility_files(db, "ssf")[0]
        corrupt_page(db, file_name, 0)
        truth = scan_ground_truth(db, QUERY_SETS[0])
        oids, stats = superset_results(db, QUERY_SETS[0], "ssf")
        assert oids == truth
        assert stats.plan.endswith("-> degraded-fallback scan(Student)")
        assert stats.detail["degraded"]["facility"] == "ssf"
        assert db.is_degraded("Student", "hobbies", "ssf")
        assert db.degraded_facilities() == {
            "Student.hobbies/ssf": db.degraded_reason(
                "Student", "hobbies", "ssf"
            )
        }
        assert REGISTRY.counter("query.degraded_fallbacks").value == 1
        assert REGISTRY.gauge("recovery.degraded_facilities").value == 1

    def test_degraded_facility_stays_degraded_until_rebuilt(self, indexed_db):
        db = indexed_db
        corrupt_page(db, facility_files(db, "ssf")[0], 0)
        superset_results(db, QUERY_SETS[0], "ssf")
        # Second query never touches the damaged facility: straight to scan.
        oids, stats = superset_results(db, QUERY_SETS[1], "ssf")
        assert oids == scan_ground_truth(db, QUERY_SETS[1])
        assert "degraded" in stats.detail
        assert REGISTRY.counter("query.degraded_fallbacks").value == 2
        db.rebuild_facility("Student", "hobbies", "ssf")
        assert not db.is_degraded("Student", "hobbies", "ssf")
        assert REGISTRY.counter("recovery.rebuilds").value == 1
        assert REGISTRY.gauge("recovery.degraded_facilities").value == 0
        oids, stats = superset_results(db, QUERY_SETS[0], "ssf")
        assert oids == scan_ground_truth(db, QUERY_SETS[0])
        assert "degraded" not in stats.detail

    def test_other_facilities_unaffected(self, indexed_db):
        db = indexed_db
        corrupt_page(db, facility_files(db, "ssf")[0], 0)
        superset_results(db, QUERY_SETS[0], "ssf")
        oids, stats = superset_results(db, QUERY_SETS[0], "bssf")
        assert oids == scan_ground_truth(db, QUERY_SETS[0])
        assert "degraded" not in stats.detail

    def test_fsck_reports_the_corruption(self, indexed_db):
        db = indexed_db
        file_name = facility_files(db, "nix")[0]
        corrupt_page(db, file_name, 0)
        report = run_fsck(db)
        assert not report.ok
        assert any(
            issue.kind == "checksum" and issue.subject == file_name
            for issue in report.issues
        )
        db.rebuild_facility("Student", "hobbies", "nix")
        assert run_fsck(db, deep=True).ok


class TestIntersectionLeg:
    """A damaged second leg skips the intersection, never the answer."""

    def _two_attribute_db(self):
        from repro.objects.database import Database
        from repro.objects.schema import ClassSchema

        db = Database(page_size=4096, pool_capacity=0)
        db.define_class(
            ClassSchema.build(
                "Student", name="scalar", hobbies="set", sports="set"
            )
        )
        import random

        rng = random.Random(7)
        for i in range(40):
            db.insert(
                "Student",
                {
                    "name": f"s{i:03d}",
                    "hobbies": set(rng.sample(HOBBIES, 3)),
                    "sports": set(rng.sample(HOBBIES, 2)),
                },
            )
        db.create_ssf_index(
            "Student", "hobbies", signature_bits=32, bits_per_element=2, seed=3
        )
        db.create_ssf_index(
            "Student", "sports", signature_bits=32, bits_per_element=2, seed=3
        )
        return db

    def test_second_leg_failure_skips_intersection(self):
        db = self._two_attribute_db()
        first = SetPredicate(
            "hobbies", SetPredicateKind.HAS_SUBSET, frozenset({HOBBIES[0]})
        )
        second = SetPredicate(
            "sports", SetPredicateKind.HAS_SUBSET, frozenset({HOBBIES[1]})
        )
        plan = AccessPlan(
            class_name="Student",
            driving_predicate=first,
            facility_name="ssf",
            search_mode="superset",
            residual_predicates=(second,),
            intersect_with=SecondaryAccess(second, "ssf", "superset"),
        )
        query = ParsedQuery(class_name="Student", predicates=(first, second))
        truth = sorted(
            oid
            for oid, values in db.objects.scan("Student")
            if first.matches(values) and second.matches(values)
        )
        store = db.storage.store
        for file_name in facility_files(db, "ssf"):
            if ".sports:" in file_name:
                for page_no in range(store.num_pages(file_name)):
                    corrupt_page(db, file_name, page_no)
        result = QueryExecutor(db).execute_plan(plan, query)
        assert sorted(result.oids()) == truth
        detail = result.statistics.detail
        assert detail["intersection_skipped"]["facility"] == "ssf"
        assert db.is_degraded("Student", "sports", "ssf")
        assert not db.is_degraded("Student", "hobbies", "ssf")
        # a skipped intersection narrows nothing but degrades nothing
        # user-visible either: it is NOT a fallback scan
        assert REGISTRY.counter("query.degraded_fallbacks").value == 0

    def test_both_legs_failing_counts_one_fallback(self):
        """Regression: the fallback metric is per *query*, not per leg.

        With both legs of an intersection plan corrupt, the executor
        answers via a single degraded scan; the counter must read exactly
        1, however many facilities failed along the way.
        """
        db = self._two_attribute_db()
        first = SetPredicate(
            "hobbies", SetPredicateKind.HAS_SUBSET, frozenset({HOBBIES[0]})
        )
        second = SetPredicate(
            "sports", SetPredicateKind.HAS_SUBSET, frozenset({HOBBIES[1]})
        )
        plan = AccessPlan(
            class_name="Student",
            driving_predicate=first,
            facility_name="ssf",
            search_mode="superset",
            residual_predicates=(second,),
            intersect_with=SecondaryAccess(second, "ssf", "superset"),
        )
        query = ParsedQuery(class_name="Student", predicates=(first, second))
        truth = sorted(
            oid
            for oid, values in db.objects.scan("Student")
            if first.matches(values) and second.matches(values)
        )
        store = db.storage.store
        for file_name in facility_files(db, "ssf"):
            for page_no in range(store.num_pages(file_name)):
                corrupt_page(db, file_name, page_no)
        result = QueryExecutor(db).execute_plan(plan, query)
        assert sorted(result.oids()) == truth
        assert "degraded" in result.statistics.detail
        assert result.statistics.plan.endswith(
            "-> degraded-fallback scan(Student)"
        )
        assert REGISTRY.counter("query.degraded_fallbacks").value == 1

    def test_healthy_intersection_still_runs(self):
        db = self._two_attribute_db()
        first = SetPredicate(
            "hobbies", SetPredicateKind.HAS_SUBSET, frozenset({HOBBIES[0]})
        )
        second = SetPredicate(
            "sports", SetPredicateKind.HAS_SUBSET, frozenset({HOBBIES[1]})
        )
        plan = AccessPlan(
            class_name="Student",
            driving_predicate=first,
            facility_name="ssf",
            search_mode="superset",
            residual_predicates=(second,),
            intersect_with=SecondaryAccess(second, "ssf", "superset"),
        )
        query = ParsedQuery(class_name="Student", predicates=(first, second))
        result = QueryExecutor(db).execute_plan(plan, query)
        assert "intersected_with" in result.statistics.detail
