"""In-process serving answers the live database and keeps its traces.

:class:`~repro.server.service.QueryService` runs each query on the
database it was built over, not on a copy: a write made after the
service started is seen by the next query, every query is charged to
the database's own page counters, and a traced query returns its whole
span tree. A run through the service must look like a sequential run of
the same queries: same rows, same plans, same per-file page counts.
"""

import random

import pytest

from repro.errors import AdmissionError
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.query.executor import QueryExecutor
from repro.query.options import ExecutionOptions
from repro.server.service import QueryService

from tests.conftest import HOBBIES, populate_students

CHESS = 'select Student where hobbies has-subset ("Chess")'


def build_db(*, index: bool = True):
    db = Database(page_size=4096, pool_capacity=0)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    if index:
        db.create_bssf_index("Student", "hobbies", 64, 2)
    populate_students(db, count=60)
    return db


def queries(count=12, seed=11):
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        elements = rng.sample(HOBBIES, rng.choice([1, 2, 3]))
        literals = ", ".join(f'"{e}"' for e in elements)
        op = rng.choice(["has-subset", "in-subset", "overlaps"])
        texts.append(f"select Student where hobbies {op} ({literals})")
    return texts


def page_profile(stats):
    return sorted(
        (name, counts.logical_total, counts.physical_total)
        for name, counts in stats.io.files()
        if counts.logical_total or counts.physical_total
    )


@pytest.fixture(scope="module")
def equivalence():
    """Traced sequential and two-worker runs over twin databases."""
    texts = queries()
    db_seq, db_served = build_db(), build_db()
    traced = ExecutionOptions(trace=True)
    executor = QueryExecutor(db_seq)
    sequential = [executor.execute_text(t, traced) for t in texts]
    with QueryService(db_served, max_workers=2) as service:
        served = service.execute_many(texts, traced)
    return db_seq, db_served, sequential, served


class TestServedEquivalence:
    def test_rows_and_statistics_identical(self, equivalence):
        _, _, sequential, served = equivalence
        assert len(served) == len(sequential)
        for left, right in zip(sequential, served):
            assert left.rows == right.rows
            a, b = left.statistics, right.statistics
            assert a.plan == b.plan
            assert (a.candidates, a.false_drops, a.results) == (
                b.candidates,
                b.false_drops,
                b.results,
            )
            assert page_profile(a) == page_profile(b)

    def test_traces_keep_their_span_tree(self, equivalence):
        _, _, _, served = equivalence
        for result in served:
            assert result.trace is not None
            assert result.trace.children
            assert result.trace.attributes["worker"].startswith("query-worker")

    def test_span_pages_match_sequential_traces(self, equivalence):
        _, _, sequential, served = equivalence

        def spans(result, planning):
            return [
                (span.name, span.logical_pages)
                for span in result.trace.walk()
                if (span.name == "query.plan") == planning
            ]

        for left, right in zip(sequential, served):
            assert spans(left, planning=False) == spans(right, planning=False)
        # The planner's one-time statistics read lands on whichever query
        # plans first, so only the batch's planning total is fixed.
        planned = [
            sum(pages for _, pages in spans(result, planning=True))
            for result in (*sequential, *served)
        ]
        assert sum(planned[: len(sequential)]) == sum(planned[len(sequential):])

    def test_database_totals_match_sequential_run(self, equivalence):
        db_seq, db_served, _, _ = equivalence
        assert db_seq.io_snapshot().total() == db_served.io_snapshot().total()


class TestLiveDatabase:
    def test_insert_after_construction_is_seen(self):
        db = build_db()
        with QueryService(db, max_workers=1) as service:
            before = service.execute(CHESS).oids()
            oid = db.insert(
                "Student", {"name": "late", "hobbies": {"Chess", "Golf"}}
            )
            after = service.execute(CHESS).oids()
        assert oid not in before
        assert sorted(after) == sorted(before + [oid])

    def test_delete_after_construction_is_seen(self):
        db = build_db()
        with QueryService(db, max_workers=1) as service:
            before = service.execute(CHESS).oids()
            assert before
            db.delete(before[0])
            after = service.execute(CHESS).oids()
        assert after == before[1:]

    def test_index_built_after_construction_is_used(self):
        db = build_db(index=False)
        with QueryService(db, max_workers=1) as service:
            scanned = service.execute(CHESS)
            db.create_ssf_index("Student", "hobbies", 64, 2)
            indexed = service.execute(CHESS)
        assert indexed.oids() == scanned.oids()
        assert "ssf" not in scanned.statistics.plan.lower()
        assert "ssf" in indexed.statistics.plan.lower()


class TestServiceLifecycle:
    def test_empty_batch_then_execute_many_after_close_sheds(self):
        service = QueryService(build_db(), max_workers=1)
        assert service.execute_many([]) == []
        service.close()
        service.close()  # idempotent
        with pytest.raises(AdmissionError):
            service.execute_many([CHESS])
