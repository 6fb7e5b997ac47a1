"""Concurrent query serving on top of the executor.

:class:`QueryService` wraps one :class:`~repro.query.executor.QueryExecutor`
in a worker pool with bounded admission, turning the single-query API into
a serving surface: ``submit`` for futures, ``execute`` for one blocking
query, ``execute_many`` for an ordered batch. See ``docs/CONCURRENCY.md``
for the latch hierarchy the service relies on.

:class:`TcpQueryServer` is the network edge: the :mod:`repro.wire`
protocol over TCP, backed by a :class:`QueryService`, with auth, per-tenant
quotas, and graceful drain (see ``docs/SERVING.md``). The service — like
the :class:`~repro.client.RemoteClient` on the other end of the wire —
satisfies the :class:`~repro.serving.QueryBackend` protocol.
"""

from repro.server.net import TcpQueryServer
from repro.server.service import QueryService

__all__ = ["QueryService", "TcpQueryServer"]
