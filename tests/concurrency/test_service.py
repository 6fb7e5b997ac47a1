"""Unit tests for QueryService admission, ordering, and lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import AdmissionError, ConfigurationError
from repro.obs.metrics import REGISTRY
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.query.options import ExecutionOptions
from repro.server.service import QueryService
from repro.storage.faults import RetryPolicy
from tests.conftest import populate_students

#: Admission policy that sheds immediately (one short attempt, no backoff).
SHED_FAST = RetryPolicy(
    max_attempts=1,
    backoff_seconds=0.0,
    multiplier=1.0,
    jitter_seconds=0.0,
)


class BlockingExecutor:
    """Fake executor whose queries park on an event until released."""

    def __init__(self):
        self.database = None
        self.release = threading.Event()
        self.started = threading.Semaphore(0)

    def execute_text(self, text, options=None):
        self.started.release()
        if not self.release.wait(timeout=10):
            raise TimeoutError("BlockingExecutor never released")
        return text


def _student_db() -> Database:
    db = Database(page_size=4096, pool_capacity=0)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    db.create_ssf_index("Student", "hobbies", 128, 2)
    populate_students(db, count=60)
    return db


class TestServing:
    def test_execute_many_preserves_submission_order(self):
        db = _student_db()
        texts = [
            'select Student where hobbies has-subset ("Chess")',
            'select Student where hobbies has-subset ("Fishing")',
            'select Student where hobbies overlaps ("Golf", "Tennis")',
        ] * 4
        with QueryService(db, max_workers=4) as service:
            results = service.execute_many(texts)
        assert len(results) == len(texts)
        # Each result answers the query submitted at its position.
        sequential = [service.executor.execute_text(t) for t in texts]
        for got, want in zip(results, sequential):
            assert got.oids() == want.oids()

    def test_execute_single(self):
        db = _student_db()
        with QueryService(db, max_workers=2) as service:
            result = service.execute(
                'select Student where hobbies has-subset ("Chess")'
            )
        assert result.oids() == service.executor.execute_text(
            'select Student where hobbies has-subset ("Chess")'
        ).oids()

    def test_worker_attribution_on_traced_queries(self):
        db = _student_db()
        with QueryService(db, max_workers=2) as service:
            result = service.execute(
                'select Student where hobbies has-subset ("Chess")',
                ExecutionOptions(trace=True),
            )
        assert result.trace.attributes["worker"].startswith("query-worker")

    def test_query_error_propagates_from_execute_many(self):
        db = _student_db()
        texts = [
            'select Student where hobbies has-subset ("Chess")',
            "select Nope where hobbies has-subset (1)",  # unknown class
        ]
        with QueryService(db, max_workers=2) as service:
            with pytest.raises(Exception) as excinfo:
                service.execute_many(texts)
        assert "Nope" in str(excinfo.value)


class TestAdmission:
    def test_sheds_when_saturated(self):
        executor = BlockingExecutor()
        service = QueryService(
            executor=executor,
            max_workers=1,
            queue_depth=0,
            admission_policy=SHED_FAST,
            admission_timeout_seconds=0.05,
        )
        try:
            shed_before = REGISTRY.counter("server.shed").value
            first = service.submit("q1")
            assert executor.started.acquire(timeout=5)  # q1 is running
            with pytest.raises(AdmissionError):
                service.submit("q2")  # no slot: 1 worker + 0 queued
            assert REGISTRY.counter("server.shed").value == shed_before + 1
            executor.release.set()
            assert first.result(timeout=5) == "q1"
        finally:
            executor.release.set()
            service.shutdown()

    def test_queue_depth_admits_backlog(self):
        executor = BlockingExecutor()
        service = QueryService(
            executor=executor,
            max_workers=1,
            queue_depth=2,
            admission_policy=SHED_FAST,
            admission_timeout_seconds=0.05,
        )
        try:
            futures = [service.submit(f"q{i}") for i in range(3)]  # 1 + 2
            with pytest.raises(AdmissionError):
                service.submit("q3")
            executor.release.set()
            assert [f.result(timeout=5) for f in futures] == ["q0", "q1", "q2"]
        finally:
            executor.release.set()
            service.shutdown()

    def test_retry_then_admit(self):
        """A slot freed between attempts admits the retried submission."""
        executor = BlockingExecutor()
        service = QueryService(
            executor=executor,
            max_workers=1,
            queue_depth=0,
            admission_policy=RetryPolicy(
                max_attempts=10,
                backoff_seconds=0.01,
                multiplier=1.0,
                jitter_seconds=0.0,
            ),
            admission_timeout_seconds=0.05,
        )
        try:
            service.submit("q1")
            assert executor.started.acquire(timeout=5)

            def free_slot_later():
                time.sleep(0.1)
                executor.release.set()

            threading.Thread(target=free_slot_later, daemon=True).start()
            assert service.execute("q2") == "q2"
        finally:
            executor.release.set()
            service.shutdown()


class TestLifecycle:
    def test_submit_after_shutdown_sheds(self):
        service = QueryService(executor=BlockingExecutor(), max_workers=1)
        service.shutdown()
        with pytest.raises(AdmissionError):
            service.submit("q")

    def test_shutdown_is_idempotent(self):
        service = QueryService(executor=BlockingExecutor(), max_workers=1)
        service.shutdown()
        service.shutdown()

    def test_context_manager_drains(self):
        executor = BlockingExecutor()
        with QueryService(executor=executor, max_workers=1) as service:
            future = service.submit("q")
            executor.release.set()
        assert future.result(timeout=1) == "q"

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            QueryService(executor=BlockingExecutor(), max_workers=0)
        with pytest.raises(ConfigurationError):
            QueryService(
                executor=BlockingExecutor(), max_workers=1, queue_depth=-1
            )
        with pytest.raises(ConfigurationError):
            QueryService(
                executor=BlockingExecutor(),
                max_workers=1,
                admission_timeout_seconds=0.0,
            )
        with pytest.raises(ConfigurationError):
            QueryService()  # neither database nor executor

    def test_metrics_flow(self):
        db = _student_db()
        submitted = REGISTRY.counter("server.submitted").value
        completed = REGISTRY.counter("server.completed").value
        with QueryService(db, max_workers=2) as service:
            service.execute_many(
                ['select Student where hobbies has-subset ("Chess")'] * 5
            )
        assert REGISTRY.counter("server.submitted").value == submitted + 5
        assert REGISTRY.counter("server.completed").value == completed + 5
