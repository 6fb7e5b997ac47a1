"""Failover-aware client: one ``QueryBackend`` over a replicated fleet.

:class:`FailoverClient` holds a :class:`~repro.client.RemoteClient` per
endpoint and routes on the role each server reports in its ``PONG``
payload (see ``TcpQueryServer._role_payload``): writes and
read-your-writes reads go to the primary, plain reads round-robin across
healthy replicas (falling back to the primary when none are). Every
transport failure trips a per-endpoint circuit breaker and marks the
topology stale, so the next request re-probes the fleet — which is how a
promotion is discovered: the old primary stops answering, the promoted
replica starts reporting ``role: "primary"``, and writes follow it there
without the caller seeing a single transport error (as long as *some*
endpoint can take the request within the retry budget).

Consistency: replicas apply the primary's log asynchronously, so a plain
read may trail a just-acknowledged write. Callers that need
read-your-writes take an LSN token from :meth:`lsn_token` (the primary's
durable end LSN) and pass it as ``min_lsn``; the client then only uses a
replica whose reported watermark has reached the token, waiting briefly
before falling back to the primary.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import resilience, wire
from repro.errors import (
    ConfigurationError,
    ConnectionLostError,
    ReplicationError,
)
from repro.obs.metrics import REGISTRY
from repro.query.executor import QueryResult
from repro.query.options import ExecutionOptions
from repro.client import RemoteClient
from repro.resilience import TRANSPORT_ERRORS, CircuitBreaker, RetryPolicy

__all__ = ["FailoverClient", "DEFAULT_FAILOVER_RETRY"]

#: per-request budget across the whole fleet (each try may hit a
#: different endpoint, so attempts ≈ endpoints it is willing to visit)
DEFAULT_FAILOVER_RETRY = RetryPolicy(
    max_attempts=6, backoff_seconds=0.05, multiplier=2.0
)


class _Endpoint(CircuitBreaker):
    """One server: its client, last-known role and LSN, and a breaker
    whose cool-down follows the fleet's retry policy, eight steps at most."""

    def __init__(self, client: RemoteClient, threshold: int, policy: RetryPolicy):
        super().__init__(threshold, policy, max_step=8)
        self.client = client
        self.role: Optional[str] = None  # unknown until probed
        self.lsn = 0

    @property
    def url(self) -> str:
        return self.client.url


class FailoverClient:
    """Route queries across a primary and its replicas; survive failover.

    ``urls``
        The fleet: a sequence of ``sigfile://host:port`` endpoints (or one
        comma-separated string). Order is only a probe preference; roles
        are discovered, not configured — hand every client the same list
        and let each find the primary itself.
    ``prefer_replicas``
        Route plain reads to replicas when any are healthy (default).
        ``False`` sends everything to the primary (replicas are failover
        spares only).
    ``failure_threshold``
        Consecutive transport failures before an endpoint's circuit opens
        (it is skipped until a backoff-scaled cool-down elapses).
    ``retry_policy``
        Per-request budget across the fleet; each attempt may land on a
        different endpoint.
    ``read_your_writes_timeout_seconds``
        How long a ``min_lsn`` read will wait for a replica to catch up
        before falling back to the primary.
    """

    def __init__(
        self,
        urls: Union[str, Sequence[str]],
        *,
        token: Optional[str] = None,
        pool_size: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        failure_threshold: int = 3,
        prefer_replicas: bool = True,
        read_your_writes_timeout_seconds: float = 5.0,
        connect_timeout_seconds: float = 5.0,
        request_timeout_seconds: float = 60.0,
        max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES,
    ):
        if isinstance(urls, str):
            urls = [part.strip() for part in urls.split(",") if part.strip()]
        if not urls:
            raise ConfigurationError("FailoverClient needs at least one URL")
        self.retry_policy = retry_policy or DEFAULT_FAILOVER_RETRY
        self.prefer_replicas = prefer_replicas
        self.read_your_writes_timeout_seconds = read_your_writes_timeout_seconds
        self._lock = threading.Lock()
        self._rr = 0
        self._closed = False
        self._submit_pool: Optional[ThreadPoolExecutor] = None
        self._endpoints = [
            _Endpoint(
                RemoteClient.from_url(
                    url,
                    token=token,
                    pool_size=pool_size,
                    # Member clients do not retry on their own: a failed
                    # endpoint should surface here immediately so the
                    # *fleet* can rotate, not burn time re-dialing a corpse.
                    retry_policy=RetryPolicy(max_attempts=1),
                    connect_timeout_seconds=connect_timeout_seconds,
                    request_timeout_seconds=request_timeout_seconds,
                    max_frame_bytes=max_frame_bytes,
                ),
                failure_threshold,
                self.retry_policy,
            )
            for url in urls
        ]
        self._m_failovers = REGISTRY.counter("client.failovers")
        self._m_replica_reads = REGISTRY.counter("client.replica_reads")
        self._m_primary_reads = REGISTRY.counter("client.primary_reads")
        self._m_ryw_waits = REGISTRY.counter("client.read_your_writes_waits")

    @property
    def url(self) -> str:
        """The fleet as one comma-joined URL (round-trips via `connect`)."""
        return ",".join(e.url for e in self._endpoints)

    @property
    def server_info(self) -> Dict[str, Any]:
        """Handshake info from the first endpoint that completed one."""
        for endpoint in self._endpoints:
            if endpoint.client.server_info:
                return endpoint.client.server_info
        return {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _probe(self, endpoint: _Endpoint) -> bool:
        """Refresh one endpoint's role/LSN; returns liveness."""
        try:
            payload = endpoint.client.status()
        except TRANSPORT_ERRORS:
            endpoint.record_failure(time.monotonic())
            return False
        endpoint.role = payload.get("role", "standalone")
        endpoint.lsn = int(payload.get("lsn", 0))
        endpoint.record_success()
        return True

    def refresh(self) -> Dict[str, str]:
        """Re-probe every endpoint; returns ``{url: role-or-'down'}``."""
        roles = {}
        for endpoint in self._endpoints:
            roles[endpoint.url] = (
                endpoint.role or "?" if self._probe(endpoint) else "down"
            )
        return roles

    def _primary(self, refresh_on_miss: bool = True) -> _Endpoint:
        now = time.monotonic()
        for endpoint in self._endpoints:
            if endpoint.role == "primary" and not endpoint.is_open(now):
                return endpoint
        if refresh_on_miss:
            self._m_failovers.inc()
            self.refresh()
            return self._primary(refresh_on_miss=False)
        # Last resort: any live endpoint claiming writability ("standalone"
        # serves both roles), else fail loudly.
        for endpoint in self._endpoints:
            if endpoint.role == "standalone" and not endpoint.is_open(now):
                return endpoint
        raise ConnectionLostError(
            "no reachable primary among "
            + ", ".join(e.url for e in self._endpoints)
        )

    #: fallback probe order for reads: the primary trivially satisfies any
    #: LSN token, standalones are writable too, unknowns might be either
    _ROLE_PREFERENCE = {"primary": 0, "standalone": 1, None: 2}

    def _replica_barred(self, endpoint: _Endpoint, min_lsn: Optional[int]) -> bool:
        """True when routing a read here would break a guarantee: with
        ``prefer_replicas`` off replicas are failover spares, never read
        targets; under a read-your-writes token a replica known to be
        below it must not serve the read."""
        if endpoint.role != "replica":
            return False
        if not self.prefer_replicas:
            return True
        return min_lsn is not None and endpoint.lsn < min_lsn

    def _read_candidates(self, min_lsn: Optional[int]) -> List[_Endpoint]:
        """Endpoints to try for a read, in preference order."""
        now = time.monotonic()
        # An unknown role is re-probed, unless its circuit is open: a
        # cooling-down endpoint is skipped, not re-dialed on every read.
        if any(e.role is None and not e.is_open(now) for e in self._endpoints):
            self.refresh()
        replicas = [
            e
            for e in self._endpoints
            if e.role == "replica" and not e.is_open(now)
        ]
        if min_lsn is not None:
            replicas = self._await_watermark(replicas, min_lsn)
        ordered: List[_Endpoint] = []
        if self.prefer_replicas and replicas:
            with self._lock:
                self._rr += 1
                start = self._rr
            ordered.extend(
                replicas[(start + i) % len(replicas)]
                for i in range(len(replicas))
            )
        # Fall back primary-first; a barred replica never joins, so a
        # token read that outran every replica lands on the primary.
        for endpoint in sorted(
            self._endpoints,
            key=lambda e: self._ROLE_PREFERENCE.get(e.role, 3),
        ):
            if (
                endpoint not in ordered
                and not endpoint.is_open(now)
                and not self._replica_barred(endpoint, min_lsn)
            ):
                ordered.append(endpoint)
        if not ordered:
            # All circuits open (or everything filtered): try anyway —
            # except replicas that stay barred even as a last resort.
            ordered = [
                e
                for e in self._endpoints
                if not self._replica_barred(e, min_lsn)
            ]
        return ordered

    def _await_watermark(
        self, replicas: List[_Endpoint], min_lsn: int
    ) -> List[_Endpoint]:
        """Keep only replicas whose watermark reached ``min_lsn``.

        Polls briefly (replication lag is normally tiny) and gives up at
        the read-your-writes timeout — the caller then falls back to the
        primary, which trivially satisfies any token it ever issued.
        """
        ready = [e for e in replicas if e.lsn >= min_lsn]
        if ready or not replicas:
            return ready
        self._m_ryw_waits.inc()
        deadline = resilience.deadline_at(
            self.read_your_writes_timeout_seconds * 1000.0
        )
        while resilience.remaining(deadline) > 0:
            for endpoint in replicas:
                if self._probe(endpoint) and endpoint.lsn >= min_lsn:
                    ready.append(endpoint)
            if ready:
                return ready
            time.sleep(0.02)
        return ready

    def lsn_token(self) -> int:
        """The primary's durable end LSN — a read-your-writes token.

        A replica read passed this token via ``min_lsn`` observes every
        write the primary had logged when the token was taken.
        """
        endpoint = self._primary()
        if not self._probe(endpoint):
            raise ConnectionLostError(f"primary {endpoint.url} stopped answering")
        if endpoint.role not in ("primary", "standalone"):
            raise ReplicationError(
                f"{endpoint.url} is no longer the primary (role "
                f"{endpoint.role!r}); re-take the token"
            )
        return endpoint.lsn

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def execute(
        self,
        text: str,
        options: Optional[ExecutionOptions] = None,
        *,
        write: bool = False,
        min_lsn: Optional[int] = None,
    ) -> QueryResult:
        """Run one query somewhere appropriate in the fleet.

        ``write=True`` pins the request to the primary (and follows a
        promotion if the primary moved). ``min_lsn`` makes a read honor a
        read-your-writes token from :meth:`lsn_token`.
        """
        return self._with_failover(
            lambda endpoint: endpoint.client.execute(text, options),
            write=write,
            min_lsn=min_lsn,
        )

    def execute_many(
        self,
        queries: List[str],
        options: Optional[ExecutionOptions] = None,
        *,
        write: bool = False,
        min_lsn: Optional[int] = None,
    ) -> List[QueryResult]:
        """Run an ordered batch on one endpoint (single round trip)."""
        if not queries:
            return []
        return self._with_failover(
            lambda endpoint: endpoint.client.execute_many(queries, options),
            write=write,
            min_lsn=min_lsn,
        )

    def submit(
        self, text: str, options: Optional[ExecutionOptions] = None
    ) -> "Future[QueryResult]":
        """Enqueue one read; resolves off-thread with the same routing."""
        with self._lock:
            if self._closed:
                raise ConnectionLostError("client is closed")
            if self._submit_pool is None:
                self._submit_pool = ThreadPoolExecutor(
                    max_workers=max(2, len(self._endpoints)),
                    thread_name_prefix="failover-client",
                )
            pool = self._submit_pool
        return pool.submit(self.execute, text, options)

    def ping(self) -> float:
        """Latency to the first endpoint that answers."""
        last_error: Optional[BaseException] = None
        for endpoint in self._endpoints:
            try:
                return endpoint.client.ping()
            except TRANSPORT_ERRORS as exc:
                last_error = exc
        raise ConnectionLostError(
            f"no endpoint answered a ping: {last_error}"
        ) from last_error

    def status(self) -> List[Dict[str, Any]]:
        """Probe the fleet: one entry per endpoint with role/LSN/health."""
        entries = []
        for endpoint in self._endpoints:
            alive = self._probe(endpoint)
            entries.append(
                {
                    "url": endpoint.url,
                    "alive": alive,
                    "role": endpoint.role if alive else None,
                    "lsn": endpoint.lsn if alive else None,
                    "consecutive_failures": endpoint.consecutive_failures,
                }
            )
        return entries

    def _with_failover(self, call, *, write: bool, min_lsn: Optional[int]):
        policy = self.retry_policy
        last_error: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                if write:
                    candidates = [self._primary()]
                else:
                    candidates = self._read_candidates(min_lsn)
            except ConnectionLostError as exc:
                last_error = exc
                candidates = []
            for endpoint in candidates:
                try:
                    result = call(endpoint)
                except TRANSPORT_ERRORS as exc:
                    last_error = exc
                    endpoint.record_failure(time.monotonic())
                    # Whatever we knew about this endpoint is now suspect.
                    endpoint.role = None
                    continue
                endpoint.record_success()
                if not write:
                    if endpoint.role == "replica":
                        self._m_replica_reads.inc()
                    else:
                        self._m_primary_reads.inc()
                return result
            if attempt < policy.max_attempts:
                resilience.backoff(policy, attempt)
        raise ConnectionLostError(
            f"request failed on every endpoint after {policy.max_attempts} "
            f"round(s): {last_error}"
        ) from last_error

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._submit_pool = self._submit_pool, None
        for endpoint in self._endpoints:
            endpoint.client.close()
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "FailoverClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"FailoverClient({len(self._endpoints)} endpoint(s), "
            f"{state}: {', '.join(e.url for e in self._endpoints)})"
        )
