"""One serving surface: the ``QueryBackend`` protocol and its factories.

Queries are served in process by the thread-pool
:class:`~repro.server.service.QueryService`, across the network by the
:class:`~repro.client.RemoteClient`, and across shards by the
:class:`~repro.sharding.ShardRouter`. All share one structural contract,
:class:`QueryBackend`::

    execute(text, options=None)       -> QueryResult
    execute_many(queries, options=None) -> List[QueryResult]
    submit(text, options=None)        -> Future[QueryResult]
    close()                           # also a context manager

and two blessed constructors pick the right one:

:func:`connect`
    ``connect("sigfile://host:port")`` → a :class:`RemoteClient`.

:func:`make_service`
    ``make_service(db_or_url, max_workers=...)`` → any backend, worked
    out from its input: a URL is a :class:`RemoteClient`, a list of shards
    a :class:`~repro.sharding.ShardRouter`, and a database a
    :class:`QueryService`.

Direct construction of the classes keeps working; the factories are the
documented entry point.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, List, Optional, Protocol, runtime_checkable

from repro.client import RemoteClient
from repro.query.executor import QueryResult
from repro.query.options import ExecutionOptions
from repro.server.service import QueryService

__all__ = ["QueryBackend", "connect", "make_service"]


@runtime_checkable
class QueryBackend(Protocol):
    """Structural contract every serving backend satisfies.

    ``isinstance(obj, QueryBackend)`` checks the method surface at
    runtime; the conformance test suite checks the behaviour (ordering,
    context-manager semantics, error classes).
    """

    def execute(
        self, text: str, options: Optional[ExecutionOptions] = None
    ) -> QueryResult:
        """Run one query text and block for its result."""
        ...

    def execute_many(
        self,
        queries: List[str],
        options: Optional[ExecutionOptions] = None,
    ) -> List[QueryResult]:
        """Run an ordered batch; results line up with ``queries``."""
        ...

    def submit(
        self, text: str, options: Optional[ExecutionOptions] = None
    ) -> "Future[QueryResult]":
        """Enqueue one query; returns a future for its result."""
        ...

    def close(self) -> None:
        """Release the backend's resources; idempotent."""
        ...

    def __enter__(self) -> "QueryBackend":
        ...

    def __exit__(self, exc_type, exc, tb) -> bool:
        ...


#: ``connect`` keywords that configure the router, not its member clients
_ROUTER_KEYS = (
    "partial_results",
    "deadline_ms",
    "shard_retry_policy",
    "breaker_cooldown_seconds",
)


def connect(url, **kwargs: Any):
    """Open a remote backend: one URL, a replicated fleet, or a shard map.

    A single ``sigfile://host:port`` URL (scheme optional; port defaults
    to :data:`repro.wire.DEFAULT_PORT`) opens a
    :class:`~repro.client.RemoteClient`. A list/tuple of URLs — or one
    string with commas — opens a
    :class:`~repro.client.failover.FailoverClient` that discovers which
    endpoint is the primary and routes around failures. Keyword arguments
    — ``token``, ``pool_size``, ``retry_policy``, timeouts, and (fleet
    only) ``prefer_replicas`` / ``failure_threshold`` — pass through to
    the chosen client.

    A ``;``-separated string — or a list whose elements are themselves
    lists/comma-strings — is a *shard map*: each ``;`` segment is one
    shard (itself a single server or a replicated fleet), and the result
    is a :class:`~repro.sharding.ShardRouter` over per-shard clients
    built by this same function. Router policy keywords
    (``partial_results``, ``deadline_ms``, ``shard_retry_policy`` — the
    router's ``retry_policy`` — ``breaker_cooldown_seconds``) configure
    the router; everything else passes through to every member client::

        connect("s0a,s0b;s1a,s1b", partial_results="degraded")
    """
    if isinstance(url, str) and ";" in url:
        # A ';' always means sharding, even when every shard is a single
        # server ("a;b;c" is three shards, not a three-way fleet).
        segments = [part.strip() for part in url.split(";") if part.strip()]
        return _shard_router(
            segments, kwargs, lambda spec, rest: connect(spec, **rest)
        )
    if isinstance(url, (list, tuple)):
        nested = any(
            isinstance(item, (list, tuple))
            or (isinstance(item, str) and "," in item)
            for item in url
        )
        if nested:
            return _shard_router(
                url, kwargs, lambda spec, rest: connect(spec, **rest)
            )
        # A flat list of single URLs stays a replicated fleet (the PR 8
        # behaviour); only nesting or ';' introduces sharding.
        from repro.client.failover import FailoverClient

        return FailoverClient(url, **kwargs)
    if isinstance(url, str) and "," in url:
        from repro.client.failover import FailoverClient

        return FailoverClient(url, **kwargs)
    return RemoteClient.from_url(url, **kwargs)


def _shard_router(members, kwargs, build):
    """A router over ``build(member, kwargs)`` per member, router policy
    keywords taken out of ``kwargs``; built members close if one fails."""
    from repro.sharding import ShardRouter

    router_kwargs = {
        key: kwargs.pop(key) for key in _ROUTER_KEYS if key in kwargs
    }
    if "shard_retry_policy" in router_kwargs:
        router_kwargs["retry_policy"] = router_kwargs.pop("shard_retry_policy")
    shards = []
    try:
        for member in members:
            shards.append(build(member, kwargs))
    except Exception:
        for shard in shards:
            shard.close()
        raise
    return ShardRouter(shards, **router_kwargs)


def make_service(
    db_or_url,
    *,
    max_workers: Optional[int] = None,
    **kwargs: Any,
):
    """Build the right :class:`QueryBackend` for a database or URL.

    ``db_or_url``
        A :class:`~repro.objects.database.Database` (a thread-pool
        :class:`QueryService`; ``max_workers=1`` serves one query at a
        time), a ``sigfile://host:port`` string (remote), or a list of
        shard databases / backends — e.g. straight from
        :func:`repro.sharding.partition_database` — which builds a
        :class:`~repro.sharding.ShardRouter` whose members are made by
        this same factory (``max_workers`` applies per shard; router
        policy keywords — ``partial_results``, ``deadline_ms``,
        ``shard_retry_policy``, ``breaker_cooldown_seconds`` — configure
        the router).
    ``max_workers`` and remaining keywords
        Forwarded to the chosen backend's constructor (``max_workers``
        defaults to 4; it is the ``pool_size`` of a remote client), with
        ``queue_depth`` / ``admission_policy`` for thread serving and
        ``token`` / ``retry_policy`` for remote.
    """
    if isinstance(db_or_url, (list, tuple)):
        # A member that is already a backend (a service, client, or
        # nested router) is used as-is, lifecycle owned by the router.
        return _shard_router(
            db_or_url,
            kwargs,
            lambda member, rest: member
            if isinstance(member, QueryBackend)
            else make_service(member, max_workers=max_workers, **rest),
        )
    if isinstance(db_or_url, str):
        if max_workers is not None:
            kwargs.setdefault("pool_size", max_workers)
        return connect(db_or_url, **kwargs)
    return QueryService(db_or_url, max_workers=max_workers or 4, **kwargs)
