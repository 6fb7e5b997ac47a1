"""Tests for the query planner."""

import pytest

from repro.errors import ConfigurationError, PlanningError, SchemaError
from repro.query.parser import parse_query
from repro.query.planner import CostContext, plan_query

from tests.conftest import populate_students

CTX = CostContext(num_objects=120, domain_cardinality=12, target_cardinality=3)


def q1(*elements):
    body = ", ".join(f'"{e}"' for e in elements)
    return parse_query(f"select Student where hobbies has-subset ({body})")


def q2(*elements):
    body = ", ".join(f'"{e}"' for e in elements)
    return parse_query(f"select Student where hobbies in-subset ({body})")


class TestScanFallback:
    def test_no_index_means_scan(self, populated_db):
        plan = plan_query(populated_db, q1("Baseball"), context=CTX)
        assert plan.is_scan
        assert len(plan.residual_predicates) == 1
        assert "scan" in plan.describe()

    def test_unknown_class_raises(self, populated_db):
        query = parse_query('select Ghost where h contains "x"')
        with pytest.raises(SchemaError):
            plan_query(populated_db, query, context=CTX)

    def test_prefer_unavailable_facility_raises(self, populated_db):
        populated_db.create_ssf_index("Student", "hobbies", 64, 2)
        with pytest.raises(PlanningError):
            plan_query(
                populated_db, q1("Baseball"), context=CTX, prefer_facility="nix"
            )


class TestFacilitySelection:
    @pytest.fixture
    def full_db(self, populated_db):
        populated_db.create_ssf_index("Student", "hobbies", 64, 2)
        populated_db.create_bssf_index("Student", "hobbies", 64, 2)
        populated_db.create_nested_index("Student", "hobbies")
        return populated_db

    def test_plan_records_alternatives(self, full_db):
        plan = plan_query(full_db, q1("Baseball", "Fishing"), context=CTX)
        assert len(plan.alternatives) == 3
        assert plan.estimated_cost == min(plan.alternatives.values())

    def test_prefer_facility_honored(self, full_db):
        for name in ("ssf", "bssf", "nix"):
            plan = plan_query(
                full_db, q1("Baseball"), context=CTX, prefer_facility=name
            )
            assert plan.facility_name == name

    def test_superset_mode_for_has_subset(self, full_db):
        plan = plan_query(full_db, q1("Baseball"), context=CTX)
        assert plan.search_mode == "superset"

    def test_subset_mode_for_in_subset(self, full_db):
        plan = plan_query(full_db, q2("Baseball", "Tennis"), context=CTX)
        assert plan.search_mode == "subset"

    def test_overlap_mode(self, full_db):
        query = parse_query('select Student where hobbies overlaps ("Golf")')
        plan = plan_query(full_db, query, context=CTX)
        assert plan.search_mode == "overlap"

    def test_residuals_exclude_driver(self, full_db):
        query = parse_query(
            'select Student where hobbies has-subset ("Golf") '
            'and hobbies in-subset ("Golf", "Chess", "Tennis")'
        )
        plan = plan_query(full_db, query, context=CTX)
        assert len(plan.residual_predicates) == 1
        assert plan.driving_predicate not in plan.residual_predicates


class TestSmartParameters:
    @pytest.fixture
    def bssf_db(self, populated_db):
        populated_db.create_bssf_index("Student", "hobbies", 256, 2)
        return populated_db

    def test_smart_superset_limits_elements(self, bssf_db):
        plan = plan_query(
            bssf_db,
            q1("Baseball", "Fishing", "Tennis", "Golf"),
            context=CTX,
            smart=True,
        )
        assert plan.use_elements is not None
        assert plan.use_elements < 4

    def test_naive_mode_disables_strategy(self, bssf_db):
        plan = plan_query(
            bssf_db,
            q1("Baseball", "Fishing", "Tennis", "Golf"),
            context=CTX,
            smart=False,
        )
        assert plan.use_elements is None

    def test_smart_subset_sets_slice_budget(self, bssf_db):
        context = CostContext(
            num_objects=120, domain_cardinality=12, target_cardinality=2
        )
        plan = plan_query(
            bssf_db, q2("Baseball", "Fishing", "Tennis"), context=context
        )
        # with tiny Dq the smart budget caps the zero slices examined
        assert plan.search_mode == "subset"
        if plan.slices_to_examine is not None:
            assert 0 < plan.slices_to_examine < 256

    def test_describe_mentions_parameters(self, bssf_db):
        plan = plan_query(
            bssf_db, q1("Baseball", "Fishing", "Tennis"), context=CTX
        )
        assert "bssf" in plan.describe()


class TestCostContext:
    def test_estimate_from_database(self, populated_db):
        context = populated_db.analyze("Student", "hobbies").cost_context()
        assert context.num_objects == 120
        assert context.target_cardinality == 3
        assert context.domain_cardinality >= 10

    def test_estimate_empty_class_raises(self, student_db):
        # An empty class has nothing to estimate from: ANALYZE answers with
        # the degenerate N = V = Dt = 1, under which no wider query prices.
        context = student_db.analyze("Student", "hobbies").cost_context()
        assert context == CostContext(1, 1, 1)
        student_db.create_nested_index("Student", "hobbies")
        with pytest.raises(ConfigurationError, match="exceeds domain cardinality"):
            plan_query(student_db, q1("Baseball", "Fishing"), context=context)

    def test_parameters_conversion(self):
        params = CTX.parameters(page_bytes=4096)
        assert params.num_objects == 120
        assert params.domain_cardinality == 12

    def test_planner_estimates_context_when_missing(self, populated_db):
        populated_db.create_nested_index("Student", "hobbies")
        plan = plan_query(populated_db, q1("Baseball"))
        assert plan.facility_name == "nix"
