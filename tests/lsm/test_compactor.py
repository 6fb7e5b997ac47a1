"""Background compaction: merges off-thread, answers never change."""

import random

from repro.lsm import Compactor

from tests.lsm.conftest import QUERY_TEXTS, build_db, churn_students, db_answers


def test_background_compactor_preserves_answers():
    reference = build_db(lsm=False)
    subject = build_db(lsm=True)
    churn_students(reference)

    facility = subject.index("Student", "hobbies", "bssf")
    compactor = Compactor(subject, facility, interval=0.005)
    with compactor:
        assert facility.auto_compact is False
        churn_students(subject)
        compactor.poke()
    # stop(drain=True) ran: no tier is still over-full
    assert facility.compaction_candidates() is None
    assert facility.auto_compact is True
    facility.verify()

    ref_answers = db_answers(reference)
    lsm_answers = db_answers(subject)
    for (ref_plan, ref_rows, _), (lsm_plan, lsm_rows, _) in zip(
        ref_answers, lsm_answers
    ):
        assert ref_plan == lsm_plan
        assert ref_rows == lsm_rows


def test_queries_run_concurrently_with_merges():
    """Readers racing the merge loop always see a complete answer set."""
    from repro.query.executor import QueryExecutor

    reference = build_db(lsm=False)
    subject = build_db(lsm=True)
    churn_students(reference, inserts=30, updates=8, deletes=4)
    expected = [rows for _, rows, _ in db_answers(reference)]

    facility = subject.index("Student", "hobbies", "bssf")
    executor = QueryExecutor(subject)
    rng = random.Random(3)
    with Compactor(subject, facility, interval=0.001):
        churn_students(subject, inserts=30, updates=8, deletes=4)
        for _ in range(25):
            text = rng.choice(QUERY_TEXTS)
            rows = tuple(executor.execute_text(text).oids())
            assert rows == expected[QUERY_TEXTS.index(text)]
    facility.verify()


def test_stop_without_drain_leaves_facility_consistent():
    subject = build_db(lsm=True)
    facility = subject.index("Student", "hobbies", "bssf")
    compactor = Compactor(subject, facility)
    compactor.start()
    churn_students(subject, inserts=20, updates=4, deletes=2)
    compactor.stop(drain=False)
    facility.verify()
    # inline compaction resumes once the thread is gone
    assert facility.auto_compact is True
