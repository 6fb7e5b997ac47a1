"""Process-pool query serving over a read-only snapshot.

Thread pools overlap the *simulated device latency* of a workload but not
its matching arithmetic — the GIL serializes the numpy-free bookkeeping
and every pure-Python drop test. :class:`ProcessQueryService` is the
CPU-bound counterpart of :class:`~repro.server.service.QueryService`: the
database is saved once (see :func:`~repro.persistence.snapshot.save_database`)
and each worker *process* lazily loads its own read-only replica on first
use, so query evaluation scales across cores with zero shared state.

Accounting still matches a sequential run exactly. Every query executes in
the worker under its own I/O meter, so its ``QueryStatistics.io`` delta
covers precisely that query (the replica load is not charged); the parent
folds each delta back into the serving database's shared statistics with
:meth:`~repro.storage.stats.IOStatistics.merge_snapshot`, leaving the
golden page totals identical to ``execute_text`` in a loop.

Because workers serve replicas, the service is *read-only*: mutations to
the parent database after construction are invisible to the pool. Span
trees never cross the process boundary (results come back with
``trace=None``); if the database is WAL-bound, the save performs its usual
fuzzy checkpoint.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import Future, ProcessPoolExecutor
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import REGISTRY
from repro.query.executor import QueryExecutor, QueryResult
from repro.query.options import ExecutionOptions

__all__ = ["ProcessQueryService"]

#: per-worker-process state: snapshot path + lazily loaded executor
_WORKER: dict = {}


def _init_worker(snapshot_path: str, pool_capacity: int) -> None:
    """Process-pool initializer: remember where the replica lives.

    Loading is deferred to the first chunk so pool construction stays
    cheap and a worker that never receives work never pays the load.
    """
    _WORKER.clear()
    _WORKER["path"] = snapshot_path
    _WORKER["pool_capacity"] = pool_capacity


def _worker_executor() -> QueryExecutor:
    executor = _WORKER.get("executor")
    if executor is None:
        from repro.persistence.snapshot import load_database

        database = load_database(
            _WORKER["path"], pool_capacity=_WORKER["pool_capacity"]
        )
        executor = QueryExecutor(database)
        _WORKER["executor"] = executor
    return executor


def _run_chunk(
    texts: List[str], options: Optional[ExecutionOptions]
) -> List[QueryResult]:
    """Execute one contiguous slice of the batch inside a worker process."""
    executor = _worker_executor()
    results = [executor.execute_text(text, options) for text in texts]
    for result in results:
        # Span trees hold live Tracer/IOStatistics references; they are a
        # per-process debugging aid, not part of the serving contract.
        result.trace = None
    return results


class ProcessQueryService:
    """Serve query batches from worker processes over a snapshot replica.

    ``database``
        The :class:`~repro.objects.database.Database` to replicate. It is
        saved once at construction; the service answers against that
        frozen state.
    ``max_workers``
        Number of worker processes.
    ``snapshot_path``
        Save location override; default is a private temporary directory
        removed on :meth:`shutdown`.

    The service is a context manager; leaving the block stops the pool and
    deletes the temporary replica.
    """

    def __init__(
        self,
        database,
        max_workers: int = 4,
        snapshot_path: Optional[str] = None,
    ):
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        from repro.persistence.snapshot import save_database

        self.database = database
        self.max_workers = max_workers
        self._tmpdir: Optional[str] = None
        if snapshot_path is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-procpool-")
            snapshot_path = os.path.join(self._tmpdir, "snapshot.db")
        self.snapshot_path = snapshot_path
        # Warm the planner's ANALYZE cache up front. A sequential run pays
        # this one-time scan on its first query; paying it here (a no-op
        # when already cached) keeps the parent's shared page totals
        # identical to that baseline — workers re-derive statistics on
        # their replicas, which stays replica-local like the load itself.
        try:
            for class_name, attribute in list(database._indexes):
                database.analyze(class_name, attribute, refresh=False)
            save_database(database, snapshot_path)
            pool_capacity = getattr(database.storage.pool, "capacity", 0) or 0
            self._pool = ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_init_worker,
                initargs=(snapshot_path, pool_capacity),
            )
        except BaseException:
            # No object comes back to shut down, so the replica goes here.
            if self._tmpdir is not None:
                shutil.rmtree(self._tmpdir, ignore_errors=True)
            raise
        self._closed = False
        self._m_completed = REGISTRY.counter("server.completed")
        self._m_errors = REGISTRY.counter("server.errors")
        REGISTRY.gauge("server.process_workers").set(max_workers)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def execute_many(
        self,
        queries: List[str],
        options: Optional[ExecutionOptions] = None,
    ) -> List[QueryResult]:
        """Serve a batch across the pool; results in submission order.

        The batch is split into one contiguous chunk per worker (order
        inside a chunk is preserved, chunks are concatenated in order, so
        the result list lines up with ``queries``). Each result's I/O
        delta is folded into the serving database's shared statistics, so
        totals after the call equal a sequential run's.
        """
        if self._closed:
            raise ConfigurationError("process query service is shut down")
        if not queries:
            return []
        opts = self._worker_options(options)
        chunks = self._chunk(queries)
        futures: List["Future[List[QueryResult]]"] = [
            self._pool.submit(_run_chunk, chunk, opts) for chunk in chunks
        ]
        results: List[QueryResult] = []
        error: Optional[BaseException] = None
        for future in futures:
            exc = future.exception()
            if exc is not None:
                error = error or exc
                continue
            results.extend(future.result())
        if error is not None:
            self._m_errors.inc()
            raise error
        self._fold(results)
        self._m_completed.inc(len(results))
        return results

    def execute(
        self, text: str, options: Optional[ExecutionOptions] = None
    ) -> QueryResult:
        """Serve one query through a worker process and wait for it."""
        return self.submit(text, options).result()

    def submit(
        self, text: str, options: Optional[ExecutionOptions] = None
    ) -> "Future[QueryResult]":
        """Enqueue one query; returns a future for its result.

        The worker-side chunk future is adapted so the returned future
        resolves to the single :class:`QueryResult` with its I/O delta
        already folded into the serving database's shared statistics.
        """
        if self._closed:
            raise ConfigurationError("process query service is shut down")
        inner = self._pool.submit(_run_chunk, [text], self._worker_options(options))
        outer: "Future[QueryResult]" = Future()

        def _settle(done: "Future[List[QueryResult]]") -> None:
            exc = done.exception()
            if exc is not None:
                self._m_errors.inc()
                outer.set_exception(exc)
                return
            results = done.result()
            self._fold(results)
            self._m_completed.inc(len(results))
            outer.set_result(results[0])

        inner.add_done_callback(_settle)
        return outer

    def _fold(self, results: List[QueryResult]) -> None:
        """Merge worker-metered I/O deltas into the shared statistics."""
        stats = self.database.storage.stats
        for result in results:
            if result.statistics.io is not None:
                stats.merge_snapshot(result.statistics.io)

    @staticmethod
    def _worker_options(options: Optional[ExecutionOptions]) -> ExecutionOptions:
        """Options as shipped to workers: spans cannot cross the pickle
        boundary, so they go without a trace."""
        return (options or ExecutionOptions()).evolve(trace=False, tracer=None)

    def _chunk(self, queries: List[str]) -> List[List[str]]:
        per = max(1, (len(queries) + self.max_workers - 1) // self.max_workers)
        return [
            queries[start : start + per]
            for start in range(0, len(queries), per)
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool and delete the temporary replica; idempotent."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=wait)
            REGISTRY.gauge("server.process_workers").set(0)
            if self._tmpdir is not None:
                shutil.rmtree(self._tmpdir, ignore_errors=True)

    def close(self) -> None:
        """Alias of :meth:`shutdown` (the ``QueryBackend`` spelling)."""
        self.shutdown()

    def __enter__(self) -> "ProcessQueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ProcessQueryService(workers={self.max_workers}, {state})"
        )
