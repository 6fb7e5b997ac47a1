"""Remote client for the TCP serving edge.

:class:`RemoteClient` speaks the :mod:`repro.wire` protocol against a
:class:`~repro.server.net.TcpQueryServer` and presents the same
``QueryBackend`` surface as the in-process services — ``execute`` /
``execute_many`` / ``submit`` / ``close`` and a context manager — so code
written against :func:`repro.serving.make_service` does not care whether
the database is in-process or across the network::

    from repro import connect

    with connect("sigfile://127.0.0.1:7731") as db:
        result = db.execute('select Student where hobbies has-subset ("Chess")')

Connections are pooled (``pool_size`` sockets, dialed lazily, reused
across requests). Transport failures — a dropped socket, a dead server, a
connection refused — are retried with fresh connections per the client's
:class:`~repro.resilience.RetryPolicy` (queries are read-only, so a
resend is always safe); when every attempt fails the caller sees
:class:`~repro.errors.ConnectionLostError`. Errors the *server* raised are
not retried: they arrive as structured frames and re-raise here as the
same exception class the server raised (stable codes in
:mod:`repro.errors`), message intact.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlparse

from repro import resilience, wire
from repro.errors import (
    ConfigurationError,
    ConnectionLostError,
    ProtocolError,
)
from repro.obs.metrics import REGISTRY
from repro.query.executor import QueryResult
from repro.query.options import ExecutionOptions
from repro.resilience import TRANSPORT_ERRORS, RetryPolicy

__all__ = ["RemoteClient", "parse_server_url"]

#: three quick attempts — ~enough to ride out one server restart
DEFAULT_CLIENT_RETRY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.05, multiplier=2.0
)


def parse_server_url(url: str) -> Tuple[str, int]:
    """``(host, port)`` from ``sigfile://host:port`` (or bare ``host:port``).

    The scheme is optional and ``sigfile`` or ``tcp``; the port defaults to
    :data:`repro.wire.DEFAULT_PORT`.
    """
    if "//" not in url:
        url = f"sigfile://{url}"
    parsed = urlparse(url)
    if parsed.scheme not in ("sigfile", "tcp"):
        raise ConfigurationError(
            f"unsupported server URL scheme {parsed.scheme!r} "
            "(use sigfile://host:port)"
        )
    if not parsed.hostname:
        raise ConfigurationError(f"server URL {url!r} has no host")
    return parsed.hostname, parsed.port or wire.DEFAULT_PORT


class _Connection:
    """One authenticated socket to the server."""

    __slots__ = ("sock",)

    def __init__(self, sock: socket.socket):
        self.sock = sock

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class RemoteClient:
    """Networked ``QueryBackend`` over a pooled wire-protocol transport.

    ``host`` / ``port`` / ``token``
        Server address and, when the server runs with auth, the tenant
        token presented in the handshake.
    ``pool_size``
        Maximum concurrent connections. Requests beyond it wait for a
        socket to come back to the pool.
    ``retry_policy``
        Reconnect-and-resend schedule for transport failures.
    ``connect_timeout_seconds`` / ``request_timeout_seconds``
        Dial timeout, and the per-response read timeout.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = wire.DEFAULT_PORT,
        *,
        token: Optional[str] = None,
        pool_size: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        connect_timeout_seconds: float = 5.0,
        request_timeout_seconds: float = 60.0,
        max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES,
    ):
        if pool_size < 1:
            raise ConfigurationError(f"pool_size must be >= 1, got {pool_size}")
        self.host = host
        self.port = port
        self.token = token
        self.pool_size = pool_size
        self.retry_policy = retry_policy or DEFAULT_CLIENT_RETRY
        self.connect_timeout_seconds = connect_timeout_seconds
        self.request_timeout_seconds = request_timeout_seconds
        self.max_frame_bytes = max_frame_bytes
        self.server_info: Dict[str, Any] = {}
        self._cond = threading.Condition()
        self._idle: List[_Connection] = []
        self._open_count = 0
        self._closed = False
        self._ids = itertools.count(1)
        self._submit_pool: Optional[ThreadPoolExecutor] = None
        self._m_requests = REGISTRY.counter("client.requests")
        self._m_retries = REGISTRY.counter("client.transport_retries")
        self._m_errors = REGISTRY.counter("client.remote_errors")
        self._m_stale = REGISTRY.counter("client.stale_connections")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_url(cls, url: str, **kwargs: Any) -> "RemoteClient":
        """Build a client from a ``sigfile://host:port`` URL."""
        host, port = parse_server_url(url)
        return cls(host, port, **kwargs)

    @property
    def url(self) -> str:
        return f"sigfile://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Pool
    # ------------------------------------------------------------------
    def _dial(self) -> _Connection:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_seconds
        )
        sock.settimeout(self.request_timeout_seconds)
        try:
            wire.write_frame(
                sock,
                wire.HELLO,
                {"protocol": wire.PROTOCOL_VERSION, "token": self.token},
                self.max_frame_bytes,
            )
            frame = wire.read_frame(sock, self.max_frame_bytes)
            if frame is None:
                raise ConnectionLostError("server closed during handshake")
            kind, payload = frame
            if kind == wire.ERROR:
                raise wire.decode_error(payload)
            if kind != wire.OK:
                raise ProtocolError(
                    f"expected OK to complete the handshake, got kind {kind}"
                )
            self.server_info = payload
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _acquire(self) -> Tuple[_Connection, bool]:
        """``(connection, pooled)`` — pooled sockets may be stale.

        A socket that sat idle across a server restart looks healthy until
        its first use; the ``pooled`` flag lets :meth:`_roundtrip` treat a
        failure on it as "discard and re-dial" rather than a real attempt.
        """
        with self._cond:
            while True:
                if self._closed:
                    raise ConnectionLostError("client is closed")
                if self._idle:
                    return self._idle.pop(), True
                if self._open_count < self.pool_size:
                    self._open_count += 1
                    break
                self._cond.wait()
        try:
            return self._dial(), False
        except BaseException:
            with self._cond:
                self._open_count -= 1
                self._cond.notify()
            raise

    def _release(self, connection: _Connection, broken: bool) -> None:
        with self._cond:
            if broken or self._closed:
                self._open_count -= 1
                connection.close()
            else:
                self._idle.append(connection)
            self._cond.notify()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _roundtrip(
        self, kind: int, payload: Dict[str, Any], expect: int
    ) -> Dict[str, Any]:
        """Send one request, retrying transport failures on new sockets.

        A failure on a *pooled* socket does not consume a retry attempt:
        an idle socket that died while pooled (server restart, idle
        timeout) says nothing about the server's health now, so it is
        discarded and the request immediately re-tried on a fresh dial.
        The pool is finite, so this drains stale sockets in bounded work.
        """
        policy = self.retry_policy
        last_error: Optional[BaseException] = None
        attempt = 1
        while attempt <= policy.max_attempts:
            pooled = False
            try:
                connection, pooled = self._acquire()
            except TRANSPORT_ERRORS as exc:
                last_error = exc
            else:
                broken = True
                try:
                    wire.write_frame(
                        connection.sock, kind, payload, self.max_frame_bytes
                    )
                    frame = wire.read_frame(connection.sock, self.max_frame_bytes)
                    if frame is None or frame[0] == wire.BYE:
                        # Server went away (drain or restart): retryable.
                        raise ConnectionLostError("server closed the connection")
                    response_kind, response = frame
                    if response_kind == wire.ERROR:
                        broken = False
                        self._m_errors.inc()
                        raise wire.decode_error(response)
                    if response_kind != expect:
                        raise ProtocolError(
                            f"expected frame kind {expect}, got {response_kind}"
                        )
                    broken = False
                    self._m_requests.inc()
                    return response
                except TRANSPORT_ERRORS as exc:
                    last_error = exc
                    if pooled:
                        self._m_stale.inc()
                finally:
                    self._release(connection, broken)
                if pooled:
                    continue  # stale idle socket: retry now, at no cost
            if attempt < policy.max_attempts:
                self._m_retries.inc()
                resilience.backoff(policy, attempt)
            attempt += 1
        raise ConnectionLostError(
            f"no response from {self.host}:{self.port} after "
            f"{policy.max_attempts} attempt(s): {last_error}"
        ) from last_error

    @staticmethod
    def _wire_options(
        options: Optional[ExecutionOptions],
    ) -> Optional[Dict[str, Any]]:
        return options.to_dict() if options is not None else None

    def execute(
        self, text: str, options: Optional[ExecutionOptions] = None
    ) -> QueryResult:
        """Run one query on the server and return its decoded result.

        The result carries the server-measured statistics — plan summary,
        candidate/false-drop counts, and the per-query page-access delta —
        bit-identical to an in-process run against the same database.
        """
        response = self._roundtrip(
            wire.QUERY,
            {
                "id": next(self._ids),
                "text": text,
                "options": self._wire_options(options),
            },
            wire.RESULT,
        )
        return wire.decode_result(response)

    def execute_many(
        self,
        queries: List[str],
        options: Optional[ExecutionOptions] = None,
    ) -> List[QueryResult]:
        """Run an ordered batch in one round trip."""
        if not queries:
            return []
        response = self._roundtrip(
            wire.BATCH,
            {
                "id": next(self._ids),
                "texts": list(queries),
                "options": self._wire_options(options),
            },
            wire.RESULTS,
        )
        return [wire.decode_result(item) for item in response.get("results", [])]

    def submit(
        self, text: str, options: Optional[ExecutionOptions] = None
    ) -> "Future[QueryResult]":
        """Enqueue one query; resolves off-thread over the pool."""
        with self._cond:
            if self._closed:
                raise ConnectionLostError("client is closed")
            if self._submit_pool is None:
                self._submit_pool = ThreadPoolExecutor(
                    max_workers=self.pool_size,
                    thread_name_prefix="remote-client",
                )
            pool = self._submit_pool
        return pool.submit(self.execute, text, options)

    def ping(self) -> float:
        """Round-trip a PING; returns the latency in seconds."""
        started = time.perf_counter()
        self._roundtrip(wire.PING, {"id": next(self._ids)}, wire.PONG)
        return time.perf_counter() - started

    def status(self) -> Dict[str, Any]:
        """The server's ``PONG`` payload: role, LSN, and replica lag.

        ``role`` is ``"primary"`` (WAL-mode, carries ``replicas`` lag
        entries), ``"replica"`` (read-only; ``lsn`` is its watermark), or
        ``"standalone"``. Failover clients route on exactly this.
        """
        return self._roundtrip(wire.PING, {"id": next(self._ids)}, wire.PONG)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Say goodbye on idle sockets and release the pool; idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._open_count -= len(idle)
            pool, self._submit_pool = self._submit_pool, None
            self._cond.notify_all()
        for connection in idle:
            try:
                wire.write_frame(
                    connection.sock, wire.GOODBYE, {}, self.max_frame_bytes
                )
            except (OSError, ProtocolError):
                pass
            connection.close()
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"RemoteClient({self.host}:{self.port}, pool={self.pool_size}, "
            f"{state})"
        )
