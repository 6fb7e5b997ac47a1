"""Process-pool serving equivalence: replicas answer, parent accounts.

``ProcessQueryService`` serves batches from worker processes over a
read-only snapshot replica. The contract mirrors the thread service's:
results in submission order, per-query statistics identical to a
sequential run, and the parent database's shared page totals — after the
per-query deltas are folded back in — equal to what a sequential run
would have charged.
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.query.executor import QueryExecutor
from repro.server import ProcessQueryService

from tests.conftest import HOBBIES, populate_students


def build_db():
    db = Database(page_size=4096, pool_capacity=0)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
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
    """One sequential run and one process-pool run over twin databases."""
    texts = queries()
    db_seq, db_proc = build_db(), build_db()
    sequential = [QueryExecutor(db_seq).execute_text(t) for t in texts]
    with ProcessQueryService(db_proc, max_workers=2) as service:
        served = service.execute_many(texts)
    return db_seq, db_proc, sequential, served


class TestProcessEquivalence:
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

    def test_traces_do_not_cross_the_process_boundary(self, equivalence):
        _, _, _, served = equivalence
        assert all(result.trace is None for result in served)

    def test_merged_totals_match_sequential_run(self, equivalence):
        db_seq, db_proc, _, _ = equivalence
        assert db_seq.io_snapshot().total() == db_proc.io_snapshot().total()


class TestProcessService:
    def test_execute_many_matches_sequential_pages(self):
        texts = queries(count=6)
        db_seq, db_proc = build_db(), build_db()
        sequential = [QueryExecutor(db_seq).execute_text(t) for t in texts]
        with ProcessQueryService(db_proc, max_workers=2) as service:
            served = service.execute_many(texts)
        for left, right in zip(sequential, served):
            assert left.rows == right.rows
            assert page_profile(left.statistics) == page_profile(
                right.statistics
            )

    def test_failed_construction_leaves_no_replica(
        self, monkeypatch, tmp_path
    ):
        import tempfile

        import repro.persistence.snapshot as snapshot

        def refuse(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(snapshot, "save_database", refuse)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(OSError, match="disk full"):
            ProcessQueryService(build_db(), max_workers=1)
        assert list(tmp_path.iterdir()) == []

    def test_replica_is_frozen_at_construction(self):
        db = build_db()
        with ProcessQueryService(db, max_workers=1) as service:
            before = service.execute_many(
                ['select Student where hobbies contains "Chess"']
            )
            db.insert(
                "Student", {"name": "late", "hobbies": {"Chess", "Golf"}}
            )
            after = service.execute_many(
                ['select Student where hobbies contains "Chess"']
            )
        assert [r.rows for r in before] == [r.rows for r in after]

    def test_empty_batch_and_shutdown_guard(self):
        db = build_db()
        service = ProcessQueryService(db, max_workers=1)
        assert service.execute_many([]) == []
        service.shutdown()
        service.shutdown()  # idempotent
        with pytest.raises(ConfigurationError):
            service.execute_many(['select Student where hobbies contains "x"'])

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessQueryService(build_db(), max_workers=0)
