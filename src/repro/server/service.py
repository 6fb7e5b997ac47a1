"""Worker-pool query service with bounded admission.

The paper's experiments drive one query at a time; a served OODB answers
many at once. :class:`QueryService` is the serving layer: a fixed pool of
worker threads executes queries through one shared
:class:`~repro.query.executor.QueryExecutor`, relying on the facade latch
(readers share, mutators exclude) and the thread-safe storage substrate for
correctness, and on the per-thread I/O journal for exact per-query metering.

Admission is bounded: at most ``max_workers + queue_depth`` queries may be
in flight or waiting. A ``submit`` past that limit blocks for
``admission_timeout_seconds`` per attempt and retries per a
:class:`~repro.resilience.RetryPolicy` (the same retry/backoff
semantics the storage layer uses for transient device faults); when every
attempt times out the request is *shed* with
:class:`~repro.errors.AdmissionError` instead of queueing unboundedly —
overload surfaces at the edge, not as latency collapse inside.

Service traffic feeds the ``server.*`` metrics: ``server.submitted`` /
``server.admitted`` / ``server.shed`` / ``server.completed`` /
``server.errors`` counters, the ``server.workers`` gauge, and the
``server.admission_wait_seconds`` / ``server.query_seconds`` histograms.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import List, Optional

from repro import resilience
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineExceededError,
)
from repro.obs.metrics import REGISTRY
from repro.query.executor import QueryExecutor, QueryResult
from repro.query.options import ExecutionOptions
from repro.resilience import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = ["QueryService"]


class QueryService:
    """Serve queries from a bounded worker pool over one database.

    ``database``
        The :class:`~repro.objects.database.Database` to serve (or pass an
        existing ``executor``; exactly one of the two styles is used).
    ``max_workers``
        Pool width. Results are always returned in submission order by
        :meth:`execute_many`; the pool only changes wall-clock overlap.
    ``queue_depth``
        Admitted-but-not-running backlog on top of the running queries.
        Defaults to ``2 * max_workers``.
    ``admission_policy`` / ``admission_timeout_seconds``
        Shed behaviour: each admission attempt waits up to the timeout for
        a slot, retrying (with the policy's backoff schedule) up to the
        policy's ``max_attempts`` before raising
        :class:`~repro.errors.AdmissionError`.

    The service is a context manager; leaving the block drains the pool.
    """

    def __init__(
        self,
        database=None,
        max_workers: int = 4,
        queue_depth: Optional[int] = None,
        admission_policy: Optional[RetryPolicy] = None,
        admission_timeout_seconds: float = 1.0,
        executor: Optional[QueryExecutor] = None,
    ):
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if executor is None:
            if database is None:
                raise ConfigurationError(
                    "QueryService needs a database or an executor"
                )
            executor = QueryExecutor(database)
        self.executor = executor
        self.database = executor.database
        self.max_workers = max_workers
        self.queue_depth = (
            queue_depth if queue_depth is not None else 2 * max_workers
        )
        if self.queue_depth < 0:
            raise ConfigurationError(
                f"queue_depth must be >= 0, got {self.queue_depth}"
            )
        self.admission_policy = admission_policy or DEFAULT_RETRY_POLICY
        if admission_timeout_seconds <= 0:
            raise ConfigurationError(
                "admission_timeout_seconds must be positive, "
                f"got {admission_timeout_seconds}"
            )
        self.admission_timeout_seconds = admission_timeout_seconds
        self._slots = threading.BoundedSemaphore(max_workers + self.queue_depth)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="query-worker"
        )
        self._closed = False
        self._m_submitted = REGISTRY.counter("server.submitted")
        self._m_deadline = REGISTRY.counter("server.deadline_rejections")
        self._m_admitted = REGISTRY.counter("server.admitted")
        self._m_shed = REGISTRY.counter("server.shed")
        self._m_completed = REGISTRY.counter("server.completed")
        self._m_errors = REGISTRY.counter("server.errors")
        self._h_wait = REGISTRY.histogram("server.admission_wait_seconds")
        self._h_query = REGISTRY.histogram("server.query_seconds")
        REGISTRY.gauge("server.workers").set(max_workers)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        """Take one in-flight slot or shed, per the admission policy."""
        policy = self.admission_policy
        waited_from = time.perf_counter()
        for attempt in range(1, policy.max_attempts + 1):
            if self._slots.acquire(timeout=self.admission_timeout_seconds):
                self._m_admitted.inc()
                self._h_wait.record(time.perf_counter() - waited_from)
                return
            if attempt < policy.max_attempts:
                resilience.backoff(policy, attempt)
        self._m_shed.inc()
        raise AdmissionError(
            f"query shed: no admission slot within "
            f"{policy.max_attempts} attempt(s) of "
            f"{self.admission_timeout_seconds}s "
            f"({self.max_workers} workers + {self.queue_depth} queued)"
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self, text: str, options: Optional[ExecutionOptions] = None
    ) -> "Future[QueryResult]":
        """Enqueue one query text; returns a future for its result.

        Raises :class:`~repro.errors.AdmissionError` (without enqueueing)
        when the service is saturated past its admission policy.
        """
        if self._closed:
            raise AdmissionError("query service is shut down")
        deadline_at = self._deadline_at(options)
        self._m_submitted.inc()
        self._admit()
        try:
            return self._pool.submit(self._run_one, text, options, deadline_at)
        except RuntimeError:
            # Pool shut down between the check and the submit.
            self._slots.release()
            self._m_shed.inc()
            raise AdmissionError("query service is shut down") from None

    def _deadline_at(self, options: Optional[ExecutionOptions]) -> Optional[float]:
        """Anchor the request's remaining budget to this process's clock.

        ``deadline_ms`` is a duration; anchoring happens once, at
        submission, so queue time counts against the budget. A budget that
        is already spent is rejected here — before it takes an admission
        slot a live request could have used.
        """
        budget_ms = getattr(options, "deadline_ms", None)
        if budget_ms is not None and budget_ms <= 0:
            self._m_deadline.inc()
            raise DeadlineExceededError(
                f"deadline budget exhausted before submission "
                f"({budget_ms:.1f}ms remaining)"
            )
        return resilience.deadline_at(budget_ms)

    def _run_one(
        self,
        text: str,
        options: Optional[ExecutionOptions],
        deadline_at: Optional[float] = None,
    ) -> QueryResult:
        if deadline_at is not None and time.monotonic() >= deadline_at:
            # Spent its whole budget queued; answering now helps nobody.
            self._m_deadline.inc()
            self._slots.release()
            raise DeadlineExceededError(
                "deadline expired while the request waited for a worker"
            )
        started = time.perf_counter()
        try:
            result = self.executor.execute_text(text, options)
        except Exception:
            self._m_errors.inc()
            raise
        else:
            self._m_completed.inc()
            trace = getattr(result, "trace", None)
            if trace is not None:
                # Per-worker span attribution: which pool thread served it.
                trace.set("worker", threading.current_thread().name)
            return result
        finally:
            self._h_query.record(time.perf_counter() - started)
            self._slots.release()

    def execute(
        self, text: str, options: Optional[ExecutionOptions] = None
    ) -> QueryResult:
        """Serve one query through the pool and wait for its result."""
        return self.submit(text, options).result()

    def execute_many(
        self,
        queries: List[str],
        options: Optional[ExecutionOptions] = None,
    ) -> List[QueryResult]:
        """Serve a batch; results come back in submission order.

        Admission backpressure applies while submitting: if the pool and
        queue stay full through the whole admission policy, the batch
        fails with :class:`~repro.errors.AdmissionError` after the results
        already in flight complete. A query that itself raises re-raises
        here, after all futures have settled.
        """
        futures: List["Future[QueryResult]"] = []
        try:
            for text in queries:
                futures.append(self.submit(text, options))
        finally:
            done = [
                (future.exception(), future) for future in futures
            ]
        for error, _ in done:
            if error is not None:
                raise error
        return [future.result() for _, future in done]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Drain (by default) and stop the pool; idempotent."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=wait)
            REGISTRY.gauge("server.workers").set(0)

    def close(self) -> None:
        """Alias of :meth:`shutdown` (the ``QueryBackend`` spelling)."""
        self.shutdown()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"QueryService(workers={self.max_workers}, "
            f"queue_depth={self.queue_depth}, {state})"
        )
