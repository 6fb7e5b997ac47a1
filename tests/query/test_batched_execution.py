"""``execute_many`` vs one-at-a-time, and the meter vs dense snapshots.

``execute_many`` must answer a batch exactly as ``execute_text`` in a loop
does — identical rows in identical order, identical plans and statistics —
however the caller chunks it, for every facility, every search mode and
every fallback (scans, subqueries, degraded facilities). The reference
side meters each query the old way, as the difference of two dense
``io_snapshot()`` calls; the served side reports ``statistics.io`` from
the per-thread journal meter. The two must agree file by file, and the
meter must list touched files only. Fixed-seed golden checks pin that; a
hypothesis sweep searches for query mixes that break it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.query.executor import QueryExecutor
from repro.query.options import ExecutionOptions

from tests.conftest import HOBBIES, populate_students

OPS = ["has-subset", "in-subset", "overlaps", "contains"]


def build_db(seed=5):
    db = Database(page_size=4096, pool_capacity=0)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    db.create_ssf_index("Student", "hobbies", 64, 2)
    db.create_bssf_index("Student", "hobbies", 64, 2)
    db.create_nested_index("Student", "hobbies")
    populate_students(db, seed=seed)
    return db


def golden_queries(count=30, seed=9):
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        op = rng.choice(OPS)
        if op == "contains":
            texts.append(
                f'select Student where hobbies contains "{rng.choice(HOBBIES)}"'
            )
            continue
        elements = rng.sample(HOBBIES, rng.choice([1, 2, 3]))
        literals = ", ".join(f'"{e}"' for e in elements)
        texts.append(f"select Student where hobbies {op} ({literals})")
    return texts


def page_profile(io):
    """Nonzero per-file counters — the comparable core of an I/O snapshot."""
    return sorted(
        (name, counts.logical_reads, counts.logical_writes,
         counts.physical_reads, counts.physical_writes)
        for name, counts in io.files()
        if counts.logical_total or counts.physical_total
    )


class DenseMeteredExecutor(QueryExecutor):
    """Reference: meters each plan execution as two dense snapshots."""

    def execute_plan(self, plan, query):
        before = self.database.io_snapshot()
        result = super().execute_plan(plan, query)
        # A subquery's plan runs first; the outer plan's delta lands last.
        self.dense_delta = self.database.io_snapshot() - before
        return result


def run_one_at_a_time(db, texts, opts=None):
    """Reference run: each result with its dense before/after page delta."""
    executor = DenseMeteredExecutor(db)
    observed = []
    for text in texts:
        result = executor.execute_text(text, opts)
        observed.append((result, executor.dense_delta))
    return observed


def run_chunked(db, texts, chunk, opts=None):
    """``execute_many`` over consecutive chunks of ``chunk`` queries."""
    executor = QueryExecutor(db)
    results = []
    for start in range(0, len(texts), chunk):
        results.extend(executor.execute_many(texts[start : start + chunk], opts))
    return results


def assert_equivalent(sequential, served):
    assert len(sequential) == len(served)
    for (left, dense_delta), right in zip(sequential, served):
        assert left.rows == right.rows
        a, b = left.statistics, right.statistics
        assert a.plan == b.plan
        assert a.candidates == b.candidates
        assert a.false_drops == b.false_drops
        assert a.results == b.results
        assert a.detail.get("exact_search") == b.detail.get("exact_search")
        assert ("degraded" in a.detail) == ("degraded" in b.detail)
        assert page_profile(dense_delta) == page_profile(b.io)
        assert len(b.io.per_file) == len(page_profile(b.io))


class TestGoldenEquivalence:
    @pytest.mark.parametrize("prefer", ["ssf", "bssf", "nix", None])
    @pytest.mark.parametrize("chunk", [2, 8, 64])
    def test_rows_stats_and_pages_identical(self, prefer, chunk):
        texts = golden_queries()
        db_seq, db_bat = build_db(), build_db()
        opts = ExecutionOptions(prefer_facility=prefer)
        sequential = run_one_at_a_time(db_seq, texts, opts)
        served = run_chunked(db_bat, texts, chunk, opts)
        assert_equivalent(sequential, served)
        # Shared totals — not just per-query deltas — must agree.
        assert db_seq.io_snapshot().total() == db_bat.io_snapshot().total()

    def test_scan_queries_fall_out_of_batches(self):
        # Scalar-only predicates plan as scans, interleaved with index
        # queries.
        texts = [
            'select Student where hobbies contains "Chess"',
            'select Student where name = "s001"',
            'select Student where hobbies overlaps ("Golf", "Tennis")',
            'select Student where name = "s002"',
        ]
        db_seq, db_bat = build_db(), build_db()
        sequential = run_one_at_a_time(db_seq, texts)
        served = QueryExecutor(db_bat).execute_many(texts)
        assert_equivalent(sequential, served)

    def test_subqueries_fall_out_of_batches(self):
        def build_courses():
            db = Database(page_size=4096, pool_capacity=0)
            db.define_class(
                ClassSchema.build("Course", name="scalar", category="scalar")
            )
            db.define_class(
                ClassSchema.build("Student", name="scalar", courses="set:Course")
            )
            db.create_bssf_index("Student", "courses", 64, 2)
            course_oids = [
                db.insert(
                    "Course",
                    {"name": f"c{i}", "category": "DB" if i % 2 else "AI"},
                )
                for i in range(6)
            ]
            rng = random.Random(3)
            for i in range(40):
                db.insert(
                    "Student",
                    {
                        "name": f"s{i}",
                        "courses": set(rng.sample(course_oids, 2)),
                    },
                )
            return db

        texts = [
            "select Student where courses has-subset "
            '(select Course where category = "DB")',
            'select Student where courses overlaps '
            '(select Course where category = "AI")',
        ]
        db_seq, db_bat = build_courses(), build_courses()
        sequential = run_one_at_a_time(db_seq, texts)
        served = QueryExecutor(db_bat).execute_many(texts)
        assert_equivalent(sequential, served)


class TestDegradedFallback:
    def test_degraded_facility_batches_identically(self):
        texts = golden_queries(count=10)
        db_seq, db_bat = build_db(), build_db()
        for db in (db_seq, db_bat):
            db.mark_degraded("Student", "hobbies", "bssf", "injected for test")
        opts = ExecutionOptions(prefer_facility="bssf")
        sequential = run_one_at_a_time(db_seq, texts, opts)
        served = QueryExecutor(db_bat).execute_many(texts, opts)
        assert_equivalent(sequential, served)
        for result in served:
            assert result.statistics.plan.endswith(
                "-> degraded-fallback scan(Student)"
            )
        assert db_seq.io_snapshot().total() == db_bat.io_snapshot().total()

    def test_healthy_facilities_still_batch_around_degraded_one(self):
        texts = golden_queries(count=10)
        db_seq, db_bat = build_db(), build_db()
        for db in (db_seq, db_bat):
            db.mark_degraded("Student", "hobbies", "ssf", "injected for test")
        sequential = run_one_at_a_time(db_seq, texts)
        served = QueryExecutor(db_bat).execute_many(texts)
        assert_equivalent(sequential, served)


@st.composite
def query_text(draw):
    op = draw(st.sampled_from(OPS))
    if op == "contains":
        hobby = draw(st.sampled_from(HOBBIES))
        return f'select Student where hobbies contains "{hobby}"'
    elements = draw(
        st.lists(st.sampled_from(HOBBIES), min_size=1, max_size=5, unique=True)
    )
    literals = ", ".join(f'"{e}"' for e in elements)
    return f"select Student where hobbies {op} ({literals})"


# One database for the whole sweep: queries are read-only, so reuse keeps
# the property test fast enough to run as tier-1.
_DB = build_db()


class TestBatchedProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        texts=st.lists(query_text(), min_size=1, max_size=12),
        chunk=st.integers(2, 6),
    )
    def test_any_query_mix_is_equivalent(self, texts, chunk):
        sequential = run_one_at_a_time(_DB, texts)
        served = run_chunked(_DB, texts, chunk)
        assert_equivalent(sequential, served)
