"""Scatter-gather query routing over hash-partitioned shards.

:class:`ShardRouter` is a :class:`~repro.serving.QueryBackend` whose
"database" is N shard backends — in-process
:class:`~repro.server.service.QueryService` instances, snapshot-replica
process services, plain :class:`~repro.client.RemoteClient` connections,
or whole replicated fleets behind a
:class:`~repro.client.failover.FailoverClient`. Every query fans out to
all shards (the set predicates are evaluated per object, so each shard
answers for exactly its hash slice), and the router merges: rows in OID
order, statistics counters summed, per-shard :class:`IOSnapshot` deltas
added file by file. With healthy shards over a
:func:`~repro.sharding.partition_database` split, the merged rows and the
object-file page counts are bit-identical to the unsharded answers.

The robustness policy — the reason this module exists — wraps every
sub-request:

* **Deadline budget.** One ``deadline_ms`` (from the options or the
  router default) bounds the whole scatter-gather; each sub-request and
  retry ships the *remaining* budget, and a shard that cannot answer in
  time counts as missing rather than hanging the request.
* **Bounded retries with jittered backoff**, per shard, for transport-
  class failures only (a parse error is the same on every shard and
  propagates immediately).
* **Per-shard circuit breakers** with jittered cool-downs; an open
  breaker fast-fails the shard in degraded mode (strict mode still
  probes — it must either get a complete answer or fail loudly anyway).
* **Partial-result policy.** ``partial_results="strict"`` raises a typed
  :class:`~repro.errors.ShardUnavailableError` the moment a complete
  answer is impossible; ``"degraded"`` returns the merged survivors with
  ``partial=True`` and the missing-shard list — an exact *subset* of the
  complete answer (disjoint slices can under-report, never invent rows).

The retry schedule, breaker and deadline arithmetic are
:mod:`repro.resilience`'s; this module decides what is retried and what
a failure costs. Traffic feeds the ``router.*`` metrics and, when
tracing is requested, one ``router.execute`` span carrying per-shard
outcomes.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import resilience
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ConnectionLostError,
    DeadlineExceededError,
    ShardUnavailableError,
    TransientIOError,
)
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import Tracer
from repro.query.executor import QueryResult, QueryStatistics
from repro.query.options import ExecutionOptions
from repro.resilience import CircuitBreaker, RetryPolicy

__all__ = ["ShardRouter", "DEFAULT_SHARD_RETRY", "merge_results"]

#: per-shard sub-request budget: quick retries with decorrelating jitter
DEFAULT_SHARD_RETRY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.02, multiplier=2.0, jitter_seconds=0.02
)

#: failures worth retrying / routing around — transport and overload, not
#: query semantics (a parse error is identical on every shard)
_SHARD_FAULTS = resilience.TRANSPORT_ERRORS + (AdmissionError, TransientIOError)


class _ShardDown(Exception):
    """Internal: one shard stayed unavailable through its retry budget."""

    def __init__(self, cause: BaseException):
        super().__init__(str(cause))
        self.cause = cause


class _Shard(CircuitBreaker):
    """One shard backend and the router's breaker for it, whose cool-down
    doubles per failure past the threshold, six doublings at most."""

    def __init__(
        self, name: str, backend: Any, threshold: int, cooldown_seconds: float
    ):
        super().__init__(
            threshold, RetryPolicy(backoff_seconds=cooldown_seconds), max_step=7
        )
        self.name = name
        self.backend = backend


def merge_results(
    results: Sequence[QueryResult],
    *,
    missing: Sequence[str] = (),
    elapsed_seconds: float = 0.0,
) -> QueryResult:
    """Union per-shard answers into one :class:`QueryResult`.

    Rows sort by OID (disjoint hash slices — a plain merge, no dedup);
    candidate / false-drop / result counters sum exactly because the
    signature test is per object; I/O snapshots add file by file, which
    keeps the object-file page counts equal to an unsharded run (each
    qualified candidate costs one logical object-page read on whichever
    side it lives).
    """
    rows = sorted(
        (row for result in results for row in result.rows),
        key=lambda row: row[0].to_int(),
    )
    io = None
    for result in results:
        snapshot = result.statistics.io
        if snapshot is not None:
            io = snapshot if io is None else io + snapshot
    plans = sorted({result.statistics.plan for result in results})
    plan = plans[0] if len(plans) == 1 else f"mixed({', '.join(plans)})"
    statistics = QueryStatistics(
        plan=plan,
        candidates=sum(r.statistics.candidates for r in results),
        false_drops=sum(r.statistics.false_drops for r in results),
        results=sum(r.statistics.results for r in results),
        io=io,
        elapsed_seconds=elapsed_seconds,
        detail={
            "sharding": {
                "merged": len(results),
                "missing": list(missing),
            }
        },
    )
    return QueryResult(
        rows=rows,
        statistics=statistics,
        partial=bool(missing),
        missing_shards=list(missing),
    )


class ShardRouter:
    """One ``QueryBackend`` over N shard backends (scatter-gather).

    ``shards``
        The shard backends, in shard-index order (index i serves hash
        slice i). Anything with ``execute(text, options)`` /
        ``execute_many`` / ``close`` qualifies: services, remote clients,
        failover clients, nested routers.
    ``partial_results``
        ``"strict"`` (default) — a missing shard raises
        :class:`~repro.errors.ShardUnavailableError`; ``"degraded"`` —
        merged survivors come back flagged ``partial=True``.
    ``deadline_ms``
        Default per-request budget when the options carry none;
        ``None`` means unbounded.
    ``retry_policy``
        Per-shard sub-request retries (transport-class failures only).
    ``failure_threshold`` / ``breaker_cooldown_seconds``
        Consecutive sub-request failures before a shard's breaker opens,
        and the base cool-down (exponential per further failure, jittered,
        capped at 5s).
    ``owns_shards``
        Close the shard backends with the router (default); pass
        ``False`` when the caller manages their lifecycle.
    """

    def __init__(
        self,
        shards: Sequence[Any],
        *,
        partial_results: str = "strict",
        deadline_ms: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        failure_threshold: int = 3,
        breaker_cooldown_seconds: float = 0.5,
        owns_shards: bool = True,
    ):
        shards = list(shards)
        if not shards:
            raise ConfigurationError("ShardRouter needs at least one shard")
        if partial_results not in ("strict", "degraded"):
            raise ConfigurationError(
                f"partial_results must be 'strict' or 'degraded', "
                f"got {partial_results!r}"
            )
        if deadline_ms is not None and deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
        self.partial_results = partial_results
        self.deadline_ms = deadline_ms
        self.retry_policy = retry_policy or DEFAULT_SHARD_RETRY
        self._owns_shards = owns_shards
        self._shards = [
            _Shard(
                getattr(b, "url", None) or f"shard-{i}",
                b,
                failure_threshold,
                breaker_cooldown_seconds,
            )
            for i, b in enumerate(shards)
        ]
        self._closed = False
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=2 * len(shards),
            thread_name_prefix="shard-router",
        )
        self._submit_pool: Optional[ThreadPoolExecutor] = None
        self._m_requests = REGISTRY.counter("router.requests")
        self._m_sub_requests = REGISTRY.counter("router.sub_requests")
        self._m_retries = REGISTRY.counter("router.retries")
        self._m_shard_failures = REGISTRY.counter("router.shard_failures")
        self._m_partial = REGISTRY.counter("router.partial_results")
        self._m_breaker_skips = REGISTRY.counter("router.breaker_skips")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def url(self) -> str:
        """The shard map as one ``;``-joined spec (``connect`` syntax)."""
        return ";".join(state.name for state in self._shards)

    def status(self) -> List[Dict[str, Any]]:
        """One entry per shard: request counts and breaker health."""
        now = time.monotonic()
        return [
            {
                "shard": index,
                "name": shard.name,
                "requests": shard.requests,
                "failures": shard.failures,
                "consecutive_failures": shard.consecutive_failures,
                "breaker_open": shard.is_open(now),
            }
            for index, shard in enumerate(self._shards)
        ]

    @property
    def server_info(self) -> Dict[str, Any]:
        """Shell-facing identity (mirrors ``RemoteClient.server_info``)."""
        return {"server": "shard-router", "shards": self.shard_count}

    def ping(self) -> Dict[str, Any]:
        """Ping every shard that supports it; in-process shards are free."""
        reachable = 0
        for state in self._shards:
            probe = getattr(state.backend, "ping", None)
            if probe is None:
                reachable += 1  # in-process backend: nothing to reach
                continue
            probe()  # surfaces the first unreachable shard's error
            reachable += 1
        return {"shards": self.shard_count, "reachable": reachable}

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def execute(
        self, text: str, options: Optional[ExecutionOptions] = None
    ) -> QueryResult:
        """Scatter one query to every shard and merge the answers."""
        return self._scatter(
            lambda state, sub_options: state.backend.execute(text, sub_options),
            options,
            merge=merge_results,
        )

    def execute_many(
        self,
        queries: List[str],
        options: Optional[ExecutionOptions] = None,
    ) -> List[QueryResult]:
        """Scatter an ordered batch — one round trip per shard."""
        if not queries:
            return []

        def merge_batch(
            per_shard: Sequence[List[QueryResult]],
            *,
            missing: Sequence[str] = (),
            elapsed_seconds: float = 0.0,
        ) -> List[QueryResult]:
            return [
                merge_results(
                    [shard_results[i] for shard_results in per_shard],
                    missing=missing,
                    elapsed_seconds=elapsed_seconds,
                )
                for i in range(len(queries))
            ]

        return self._scatter(
            lambda state, sub_options: state.backend.execute_many(
                queries, sub_options
            ),
            options,
            merge=merge_batch,
        )

    def submit(
        self, text: str, options: Optional[ExecutionOptions] = None
    ) -> "Future[QueryResult]":
        """Enqueue one scatter-gather; resolves off-thread."""
        with self._lock:
            if self._closed:
                raise ConnectionLostError("shard router is closed")
            if self._submit_pool is None:
                self._submit_pool = ThreadPoolExecutor(
                    max_workers=max(2, len(self._shards)),
                    thread_name_prefix="router-submit",
                )
            pool = self._submit_pool
        return pool.submit(self.execute, text, options)

    # ------------------------------------------------------------------
    # Scatter-gather core
    # ------------------------------------------------------------------
    def _scatter(
        self,
        call: Callable[[_Shard, Optional[ExecutionOptions]], Any],
        options: Optional[ExecutionOptions],
        merge: Callable[..., Any],
    ):
        if self._closed:
            raise ConnectionLostError("shard router is closed")
        self._m_requests.inc()
        opts = options or ExecutionOptions()
        budget_ms = (
            opts.deadline_ms if opts.deadline_ms is not None else self.deadline_ms
        )
        deadline = resilience.deadline_at(budget_ms)
        tracer = (
            (opts.tracer or Tracer()) if opts.tracing_requested else None
        )
        started = time.perf_counter()
        strict = self.partial_results == "strict"
        now = time.monotonic()
        span = (
            tracer.span(
                "router.execute",
                shards=len(self._shards),
                mode=self.partial_results,
            )
            if tracer is not None
            else None
        )
        if span is not None:
            span.__enter__()
        try:
            futures: Dict[int, "Future[Any]"] = {}
            missing: Dict[int, BaseException] = {}
            for index, state in enumerate(self._shards):
                if not strict and state.is_open(now):
                    # Degraded mode fast-fails a tripped shard; strict
                    # mode probes anyway — it either completes the answer
                    # (half-open success) or fails loudly, which it would
                    # have done regardless.
                    self._m_breaker_skips.inc()
                    missing[index] = ConnectionLostError(
                        f"circuit breaker open for {state.name}"
                    )
                    continue
                futures[index] = self._pool.submit(
                    self._call_shard, state, call, opts, deadline
                )
            answers: Dict[int, Any] = {}
            for index, future in futures.items():
                try:
                    answers[index] = future.result(
                        timeout=resilience.remaining(deadline)
                    )
                except FutureTimeoutError:
                    # The worker thread keeps running (its own sub-request
                    # deadline will cut it short); the gather moves on.
                    future.cancel()
                    missing[index] = DeadlineExceededError(
                        f"shard {self._shards[index].name} missed the "
                        f"{budget_ms:.0f}ms deadline"
                    )
                except _ShardDown as down:
                    missing[index] = down.cause
            elapsed = time.perf_counter() - started
            missing_names = [self._shards[i].name for i in sorted(missing)]
            if span is not None:
                span.set("answered", sorted(answers))
                span.set("missing", missing_names)
                if missing:
                    span.set(
                        "missing_causes",
                        {
                            self._shards[i].name: type(exc).__name__
                            for i, exc in missing.items()
                        },
                    )
            if missing:
                self._m_shard_failures.inc(len(missing))
                if strict:
                    causes = "; ".join(
                        f"{self._shards[i].name}: {exc}"
                        for i, exc in sorted(missing.items())
                    )
                    raise ShardUnavailableError(
                        f"{len(missing)} of {len(self._shards)} shard(s) "
                        f"unavailable ({causes})",
                        missing_shards=missing_names,
                    )
                self._m_partial.inc()
            merged = merge(
                [answers[i] for i in sorted(answers)],
                missing=missing_names,
                elapsed_seconds=elapsed,
            )
            if span is not None and isinstance(merged, QueryResult):
                merged.trace = span
            return merged
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    def _call_shard(
        self,
        shard: _Shard,
        call: Callable[[_Shard, Optional[ExecutionOptions]], Any],
        options: ExecutionOptions,
        deadline: Optional[float],
    ):
        """One shard's sub-request: retries, backoff, breaker.

        Returns the backend's answer or raises :class:`_ShardDown` with
        the last transport-class cause. Non-transport errors (parse,
        planning, …) propagate as themselves — they are properties of the
        query, not of this shard's health.
        """
        policy = self.retry_policy
        last_fault: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self._m_retries.inc()
                resilience.backoff(policy, attempt - 1, deadline=deadline)
            left = resilience.remaining(deadline)
            if left is not None and left <= 0:
                raise _ShardDown(
                    last_fault
                    or DeadlineExceededError(
                        f"deadline budget exhausted before shard "
                        f"{shard.name} could be asked"
                    )
                )
            sub_options = (
                options
                if left is None
                else options.evolve(deadline_ms=left * 1000.0)
            )
            shard.record_request()
            self._m_sub_requests.inc()
            try:
                answer = call(shard, sub_options)
            except _SHARD_FAULTS as exc:
                last_fault = exc
                shard.record_failure(time.monotonic())
                continue
            except DeadlineExceededError as exc:
                # The shard (or its server) rejected an exhausted budget;
                # retrying cannot help — the budget only shrinks, and it
                # says nothing about the shard's health.
                shard.record_failure(time.monotonic(), trips=False)
                raise _ShardDown(exc)
            shard.record_success()
            return answer
        assert last_fault is not None
        raise _ShardDown(last_fault)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the router down; closes owned shards. Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            submit_pool, self._submit_pool = self._submit_pool, None
        if submit_pool is not None:
            submit_pool.shutdown(wait=True)
        self._pool.shutdown(wait=True)
        if self._owns_shards:
            for state in self._shards:
                close = getattr(state.backend, "close", None)
                if close is not None:
                    close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ShardRouter({len(self._shards)} shard(s), "
            f"{self.partial_results}, {state})"
        )
