"""The memoised planner against the one that re-derived every constant.

``tests/reference/plan_pricing.py`` is ``plan_query`` as it was: a
``CostParameters`` and a cost model per candidate per plan, intersection
profiles for every query. The shipped planner prices each distinct
``(family, F, m, mode, Dq, context, page size, smart)`` once. The plans
must be indistinguishable — ``AccessPlan ==``, and every float identical
to the bit — on a cold memo and on a warm one, and an input the model
rejects must be rejected with the same error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import SetPredicateKind
from repro.errors import ReproError
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.query import planner
from repro.query.parser import ParsedQuery
from repro.query.planner import CostContext, plan_query
from repro.query.predicates import ScalarPredicate, SetPredicate
from tests.reference.plan_pricing import reference_plan_query


def _database(page_size: int) -> Database:
    db = Database(page_size=page_size, pool_capacity=0)
    db.define_class(ClassSchema.build("Thing", a="set", b="set", c="scalar"))
    for i in range(40):
        db.insert(
            "Thing",
            {
                "a": {i % 17, (i * 7) % 23, i % 5 + 30},
                "b": {i % 11, i % 3 + 50},
                "c": i,
            },
        )
    return db


@pytest.fixture(scope="module")
def databases():
    everything = _database(4096)
    everything.create_ssf_index("Thing", "a", 64, 2)
    everything.create_bssf_index("Thing", "a", 256, 3)
    everything.create_nested_index("Thing", "a")
    everything.create_bssf_index("Thing", "b", 128, 2)

    lsm = _database(1024)
    lsm.create_ssf_index("Thing", "a", 96, 2, lsm=True, flush_threshold=16)
    lsm.create_bssf_index("Thing", "a", 200, 1, lsm=True, flush_threshold=16)
    lsm.create_nested_index("Thing", "b")

    paper = _database(8192)
    paper.create_bssf_index("Thing", "a", 500, 2)
    paper.create_ssf_index("Thing", "b", 500, 2)
    paper.create_nested_index("Thing", "b")
    return [everything, lsm, paper]


def _bits(plan):
    """Every float of a plan as its exact hex form (``==`` forgives -0.0)."""
    cost = plan.estimated_cost
    return (
        None if cost is None else float(cost).hex(),
        {name: float(value).hex() for name, value in plan.alternatives.items()},
    )


def _outcome(plan_fn, *args, **kwargs):
    try:
        return plan_fn(*args, **kwargs), None
    except ReproError as error:
        return None, (type(error), str(error))


def assert_same_plan(db, query, **kwargs):
    expected, expected_error = _outcome(reference_plan_query, db, query, **kwargs)
    planner._price.cache_clear()
    planner._profile.cache_clear()
    for memo in ("cold", "warm"):
        got, got_error = _outcome(plan_query, db, query, **kwargs)
        assert got_error == expected_error, memo
        if expected is not None:
            assert got == expected, memo
            assert _bits(got) == _bits(expected), memo
            assert got.describe() == expected.describe(), memo


_KINDS = [
    SetPredicateKind.HAS_SUBSET,
    SetPredicateKind.IN_SUBSET,
    SetPredicateKind.EQUALS,
    SetPredicateKind.OVERLAPS,
    SetPredicateKind.CONTAINS,
]


@st.composite
def _set_predicate(draw, attribute: str):
    kind = draw(st.sampled_from(_KINDS))
    dq = 1 if kind is SetPredicateKind.CONTAINS else draw(
        st.one_of(st.integers(0, 12), st.sampled_from([30, 100, 300]))
    )
    start = draw(st.integers(0, 50))
    return SetPredicate(attribute, kind, frozenset(range(start, start + dq)))


@st.composite
def _query(draw):
    shape = draw(st.sampled_from(["a", "b", "a+b", "a+a", "a+scalar", "a+b+a"]))
    predicates = []
    for part in shape.split("+"):
        if part == "scalar":
            predicates.append(ScalarPredicate("c", draw(st.integers(0, 40))))
        else:
            predicates.append(draw(_set_predicate(part)))
    return ParsedQuery("Thing", tuple(predicates))


@st.composite
def _context(draw):
    V = draw(st.one_of(st.integers(1, 40), st.integers(40, 20_000)))
    return CostContext(
        num_objects=draw(st.one_of(st.integers(1, 64), st.integers(64, 200_000))),
        domain_cardinality=V,
        # mostly Dt <= V as statistics guarantee; sometimes not, to meet the
        # model's own rejection
        target_cardinality=draw(st.integers(1, 150)) % (V + 3) or 1,
    )


@settings(max_examples=400, deadline=None)
@given(
    which=st.integers(0, 2),
    query=_query(),
    context=_context(),
    smart=st.booleans(),
    prefer=st.sampled_from([None, None, "ssf", "bssf", "nix"]),
)
def test_property_plans_equal_the_reference_bit_for_bit(
    databases, which, query, context, smart, prefer
):
    assert_same_plan(
        databases[which], query,
        context=context, prefer_facility=prefer, smart=smart,
    )


@settings(max_examples=100, deadline=None)
@given(
    which=st.integers(0, 2),
    query=_query(),
    smart=st.booleans(),
    prefer=st.sampled_from([None, "ssf", "bssf", "nix"]),
)
def test_property_plans_from_collected_statistics_equal_the_reference(
    databases, which, query, smart, prefer
):
    assert_same_plan(databases[which], query, prefer_facility=prefer, smart=smart)


def test_a_warm_plan_builds_no_cost_model(databases, cost_models_built):
    """Counting guard: the second plan of a shape prices from the memo."""
    db = databases[0]
    context = CostContext(4096, 1664, 10)
    one = ParsedQuery(
        "Thing", (SetPredicate("a", SetPredicateKind.HAS_SUBSET, frozenset({1, 2})),)
    )
    two = ParsedQuery(
        "Thing",
        one.predicates
        + (SetPredicate("b", SetPredicateKind.IN_SUBSET, frozenset(range(9))),),
    )
    planner._price.cache_clear()
    planner._profile.cache_clear()
    for query in (one, two):
        first = plan_query(db, query, context=context)
        assert cost_models_built  # the first plan of a shape does the work
        del cost_models_built[:]
        assert plan_query(db, query, context=context) == first
        assert cost_models_built == []


def test_single_predicate_query_prices_no_intersection_profile(databases):
    db = databases[0]
    planner._price.cache_clear()
    planner._profile.cache_clear()
    query = ParsedQuery(
        "Thing", (SetPredicate("a", SetPredicateKind.HAS_SUBSET, frozenset({1})),)
    )
    plan_query(db, query, context=CostContext(4096, 1664, 10))
    assert planner._price.cache_info().misses == 3  # ssf, bssf, nix on a
    assert planner._profile.cache_info().currsize == 0


def test_the_memo_is_bounded():
    assert planner._price.cache_info().maxsize == planner._PRICE_MEMO
    assert planner._profile.cache_info().maxsize == planner._PRICE_MEMO
