"""TCP serving edge: :class:`TcpQueryServer` over a :class:`QueryService`.

The in-process :class:`~repro.server.service.QueryService` proved queries
correct under concurrency; this module gives it a network edge. One
listener thread accepts connections; each connection gets a handler thread
that reads frames (see :mod:`repro.wire`), runs queries through the shared
service, and writes responses. Concurrency and overload control stay where
they already live — the service's worker pool and bounded admission — so a
saturated server sheds with a protocol-level ``admission`` error frame
instead of dropping connections.

Edge policies handled here:

* **Handshake** — the first frame must be ``HELLO`` carrying the protocol
  version and, when the server was given ``auth_tokens``, a valid token;
  the token names the connection's *tenant*.
* **Per-tenant quotas** — ``tenant_quotas`` caps each tenant's in-flight
  queries; a breach sheds that request with a ``tenant-quota`` error
  *before* it consumes a service admission slot.
* **Read timeouts** — a connection idle longer than
  ``read_timeout_seconds`` is closed (frees handler threads from dead
  peers).
* **Graceful shutdown** — :meth:`stop` with ``drain=True`` stops
  accepting, lets every in-flight request finish and deliver its
  response, sends ``BYE``, then closes.
* **Error discipline** — a malformed or oversized *incoming* frame earns
  a typed error frame (``frame-too-large`` for oversized) and a close
  (the stream cannot be resynced past unread bytes); an oversized
  *response* is caught before any byte hits the socket, so it round-trips
  as a structured ``frame-too-large`` error and the connection survives;
  a well-formed request that fails keeps the connection: the error
  round-trips as a structured frame and the client re-raises the same
  exception class (:mod:`repro.errors` codes).
* **Replication** — when the served database is a WAL-mode primary, a
  ``WAL_SUBSCRIBE`` frame turns the connection into a log-shipping
  stream: a sender thread pushes ``WAL_RECORDS`` batches from the
  subscriber's watermark (``HEARTBEAT`` frames when idle) while the
  handler keeps reading ``WAL_ACK`` lag reports. ``SYNC`` streams the
  primary's checkpoint file to a replica a checkpoint truncation left
  behind. See :mod:`repro.replication`.

Traffic feeds ``server.net.*`` metrics: connection / request counters,
auth and quota rejections, protocol errors, and client disconnects;
shipping feeds ``replication.*``.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import resilience, wire
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    ConnectionLostError,
    DeadlineExceededError,
    FrameTooLargeError,
    ProtocolError,
    ReplicationError,
    ReproError,
    StaleSubscriberError,
    TenantQuotaError,
)
from repro.obs.metrics import REGISTRY
from repro.query.options import ExecutionOptions
from repro.server.service import QueryService

__all__ = ["TcpQueryServer"]


class _Connection:
    """Per-connection bookkeeping: socket, identity, and a request lock.

    The handler holds ``lock`` while processing one request (execute +
    respond); a draining shutdown acquires it to guarantee the in-flight
    response is fully written before the socket is torn down.

    ``lock`` also serializes the socket between the handler and a
    replication sender thread, so response and stream frames never
    interleave mid-frame. ``closed`` tells the sender the handler is done.
    """

    __slots__ = ("sock", "tenant", "lock", "closed", "streamer", "cursor", "cursor_id")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.tenant: Optional[str] = None
        self.lock = threading.Lock()
        self.closed = threading.Event()
        self.streamer: Optional[threading.Thread] = None
        self.cursor = None
        self.cursor_id: Optional[int] = None


class TcpQueryServer:
    """Serve the wire protocol over TCP, backed by one `QueryService`.

    ``database`` / ``service``
        Pass a :class:`~repro.objects.database.Database` (the server builds
        and owns a :class:`QueryService` with ``max_workers`` /
        ``queue_depth``) or an existing service (shared; not shut down with
        the server). Exactly one of the two.
    ``host`` / ``port``
        Bind address. ``port=0`` picks a free port; read the bound address
        from :attr:`address` after :meth:`start`.
    ``auth_tokens``
        ``{token: tenant_name}``. When set, every connection must present
        a known token in its ``HELLO``; when ``None``, auth is off and all
        connections share the anonymous tenant.
    ``tenant_quotas``
        ``{tenant_name: max_in_flight}`` — per-tenant admission caps,
        enforced at the edge before service admission.
    ``read_timeout_seconds``
        Per-connection socket timeout; an idle peer is disconnected.
    ``max_frame_bytes``
        Upper bound on a single frame in either direction.

    The server is a context manager: entering calls :meth:`start`, leaving
    calls :meth:`stop` (draining).
    """

    def __init__(
        self,
        database=None,
        *,
        service: Optional[QueryService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 4,
        queue_depth: Optional[int] = None,
        auth_tokens: Optional[Mapping[str, str]] = None,
        tenant_quotas: Optional[Mapping[str, int]] = None,
        read_timeout_seconds: float = 30.0,
        max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES,
        heartbeat_seconds: float = 1.0,
        shard_info: Optional[Mapping[str, Any]] = None,
    ):
        if (database is None) == (service is None):
            raise ConfigurationError(
                "TcpQueryServer needs a database or a service (not both)"
            )
        if read_timeout_seconds <= 0:
            raise ConfigurationError(
                f"read_timeout_seconds must be positive, got {read_timeout_seconds}"
            )
        if heartbeat_seconds <= 0:
            raise ConfigurationError(
                f"heartbeat_seconds must be positive, got {heartbeat_seconds}"
            )
        self._owns_service = service is None
        self.service = service or QueryService(
            database, max_workers=max_workers, queue_depth=queue_depth
        )
        self.host = host
        self.port = port
        self.auth_tokens = dict(auth_tokens) if auth_tokens is not None else None
        self.tenant_quotas = dict(tenant_quotas or {})
        self.read_timeout_seconds = read_timeout_seconds
        self.max_frame_bytes = max_frame_bytes
        self.heartbeat_seconds = heartbeat_seconds
        #: ``{"index": k, "count": n}`` when this server holds shard k of
        #: an n-way partitioning (``sigfile-repro serve --shard-of k/n``);
        #: piggybacked on every PONG so clients can discover the topology.
        self.shard_info = dict(shard_info) if shard_info is not None else None
        self._replication = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: Dict[_Connection, threading.Thread] = {}
        self._state_lock = threading.Lock()
        self._stopping = threading.Event()
        self._started = False
        self._tenant_inflight: Dict[str, int] = {}
        self._m_connections = REGISTRY.counter("server.net.connections")
        self._m_requests = REGISTRY.counter("server.net.requests")
        self._m_auth_failures = REGISTRY.counter("server.net.auth_failures")
        self._m_quota_rejections = REGISTRY.counter("server.net.quota_rejections")
        self._m_protocol_errors = REGISTRY.counter("server.net.protocol_errors")
        self._m_disconnects = REGISTRY.counter("server.net.disconnects")
        self._m_drain_timeouts = REGISTRY.counter("server.net.drain_timeouts")
        self._m_deadline_rejections = REGISTRY.counter(
            "server.net.deadline_rejections"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TcpQueryServer":
        """Bind, listen, and start accepting in a background thread."""
        if self._started:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        # A blocking accept() is not reliably interrupted by close() on
        # another thread; a short timeout turns stop() into a bounded wait.
        listener.settimeout(0.2)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        self._started = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tcp-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (final port only after `start`)."""
        return (self.host, self.port)

    @property
    def url(self) -> str:
        """The ``sigfile://`` URL clients connect to."""
        return f"sigfile://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """`start` and block until :meth:`stop` is called."""
        self.start()
        assert self._accept_thread is not None
        while self._accept_thread.is_alive():
            self._accept_thread.join(timeout=0.5)

    def stop(
        self,
        drain: bool = True,
        timeout: float = 30.0,
        drain_timeout: float = 10.0,
    ) -> None:
        """Stop accepting and close connections; idempotent.

        With ``drain=True`` every in-flight request finishes and its
        response is delivered (the per-connection lock guarantees the
        write completed) before the socket closes with a ``BYE``. The wait
        is bounded: a request still wedged after ``drain_timeout`` seconds
        (shared across all connections) is abandoned — its socket is torn
        down anyway and ``server.net.drain_timeouts`` counts the firing —
        so one stuck query can never hang shutdown. With ``drain=False``
        sockets are torn down immediately.
        """
        if not self._started or self._stopping.is_set():
            # Not started, or a previous stop already ran.
            if self._owns_service and not self._stopping.is_set():
                self._stopping.set()
                self.service.shutdown()
            return
        self._stopping.set()
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        with self._state_lock:
            connections = list(self._handlers.items())
        drain_deadline = resilience.deadline_at(drain_timeout * 1000.0)
        for connection, _thread in connections:
            if drain:
                # Waits for the in-flight request (if any) to finish and
                # flush its response, then wakes the blocked frame read.
                # One shared deadline bounds the whole drain pass.
                acquired = connection.lock.acquire(
                    timeout=resilience.remaining(drain_deadline)
                )
                try:
                    if not acquired:
                        self._m_drain_timeouts.inc()
                    self._farewell(connection)
                finally:
                    if acquired:
                        connection.lock.release()
            else:
                self._farewell(connection)
        for _connection, thread in connections:
            thread.join(timeout=timeout)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
        if self._owns_service:
            self.service.shutdown(wait=drain)

    def _farewell(self, connection: _Connection) -> None:
        """Best-effort BYE, then unblock the handler's pending read.

        ``SHUT_RDWR`` (not ``SHUT_RD``): only a full shutdown generates the
        poll event that wakes a handler blocked inside ``recv``. Queued
        outbound data — the BYE, a just-written response — is still
        delivered; shutdown is not close.
        """
        with contextlib.suppress(OSError, ProtocolError):
            wire.write_frame(connection.sock, wire.BYE, {}, self.max_frame_bytes)
        with contextlib.suppress(OSError):
            connection.sock.shutdown(socket.SHUT_RDWR)

    def __enter__(self) -> "TcpQueryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def __repr__(self) -> str:
        state = (
            "stopped"
            if self._stopping.is_set()
            else ("serving" if self._started else "idle")
        )
        return f"TcpQueryServer({self.host}:{self.port}, {state}, {self.service!r})"

    # ------------------------------------------------------------------
    # Accepting
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue  # periodic stop-flag check
            except OSError:
                break  # listener closed by stop()
            if self._stopping.is_set():
                with contextlib.suppress(OSError):
                    sock.close()
                break
            connection = _Connection(sock)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="tcp-conn",
                daemon=True,
            )
            with self._state_lock:
                self._handlers[connection] = thread
            self._m_connections.inc()
            thread.start()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _serve_connection(self, connection: _Connection) -> None:
        sock = connection.sock
        sock.settimeout(self.read_timeout_seconds)
        try:
            if not self._handshake(connection):
                return
            while not self._stopping.is_set():
                try:
                    frame = wire.read_frame(sock, self.max_frame_bytes)
                except ProtocolError as exc:
                    self._m_protocol_errors.inc()
                    self._send_error(connection, exc, request_id=None)
                    return
                except socket.timeout:
                    self._m_disconnects.inc()
                    return  # idle peer
                except (ConnectionLostError, ConnectionError, OSError):
                    self._m_disconnects.inc()
                    return
                if frame is None:
                    return  # orderly close between frames
                kind, payload = frame
                # A request that was already read is served even if a
                # draining stop() races in — drain means no accepted work
                # is dropped. The loop condition ends the connection after.
                with connection.lock:
                    if not self._dispatch(connection, kind, payload):
                        return
        except (ConnectionError, BrokenPipeError, OSError):
            # Peer vanished mid-response; nothing left to tell it.
            self._m_disconnects.inc()
        finally:
            connection.closed.set()
            with contextlib.suppress(OSError):
                sock.close()
            if connection.streamer is not None:
                connection.streamer.join(timeout=2.0)
            with self._state_lock:
                self._handlers.pop(connection, None)

    def _handshake(self, connection: _Connection) -> bool:
        """Require a HELLO; authenticate when tokens are configured."""
        try:
            frame = wire.read_frame(connection.sock, self.max_frame_bytes)
        except ProtocolError as exc:
            self._m_protocol_errors.inc()
            self._send_error(connection, exc, request_id=None)
            return False
        except (socket.timeout, ConnectionLostError, ConnectionError, OSError):
            self._m_disconnects.inc()
            return False
        if frame is None:
            return False
        kind, payload = frame
        if kind != wire.HELLO:
            self._m_protocol_errors.inc()
            self._send_error(
                connection,
                ProtocolError("first frame must be HELLO"),
                request_id=None,
            )
            return False
        if self.auth_tokens is not None:
            token = payload.get("token")
            tenant = self.auth_tokens.get(token) if token is not None else None
            if tenant is None:
                self._m_auth_failures.inc()
                self._send_error(
                    connection,
                    AuthenticationError("unknown or missing auth token"),
                    request_id=None,
                )
                return False
            connection.tenant = tenant
        from repro import __version__

        self._send(
            connection,
            wire.OK,
            {
                "protocol": wire.PROTOCOL_VERSION,
                "server": f"sigfile-repro/{__version__}",
                "tenant": connection.tenant,
            },
        )
        return True

    def _dispatch(
        self, connection: _Connection, kind: int, payload: Dict[str, Any]
    ) -> bool:
        """Serve one request frame; False ends the connection."""
        request_id = payload.get("id")
        if kind == wire.PING:
            self._send(
                connection, wire.PONG, {"id": request_id, **self._role_payload()}
            )
            return True
        if kind == wire.GOODBYE:
            self._send(connection, wire.BYE, {})
            return False
        if kind == wire.WAL_SUBSCRIBE:
            return self._handle_subscribe(connection, payload)
        if kind == wire.WAL_ACK:
            if connection.cursor is not None and self._replication is not None:
                self._replication.note_ack(
                    connection.cursor, int(payload.get("lsn", 0))
                )
            return True
        if kind == wire.SYNC:
            return self._handle_sync(connection, payload)
        if kind == wire.QUERY:
            self._m_requests.inc()
            try:
                result = self._execute(payload, connection.tenant)
            except Exception as exc:  # round-trips as a structured frame
                self._note_rejection(exc)
                self._send_error(connection, exc, request_id)
                return True
            self._respond(
                connection,
                wire.RESULT,
                {"id": request_id, **wire.encode_result(result)},
                request_id,
            )
            return True
        if kind == wire.BATCH:
            texts = payload.get("texts", [])
            self._m_requests.inc(len(texts) or 1)
            try:
                results = [
                    self._execute({**payload, "text": text}, connection.tenant)
                    for text in texts
                ]
            except Exception as exc:
                self._note_rejection(exc)
                self._send_error(connection, exc, request_id)
                return True
            self._respond(
                connection,
                wire.RESULTS,
                {
                    "id": request_id,
                    "results": [wire.encode_result(r) for r in results],
                },
                request_id,
            )
            return True
        # read_frame vetted the kind, so this is a *response* kind arriving
        # on the server — a confused client.
        self._m_protocol_errors.inc()
        self._send_error(
            connection,
            ProtocolError(f"unexpected frame kind {kind} from a client"),
            request_id,
        )
        return False

    def _note_rejection(self, exc: BaseException) -> None:
        if isinstance(exc, TenantQuotaError):
            self._m_quota_rejections.inc()

    def _execute(self, payload: Dict[str, Any], tenant: Optional[str]):
        text = payload.get("text")
        if not isinstance(text, str):
            raise ProtocolError("query frame is missing its text")
        options = ExecutionOptions.from_dict(payload.get("options"))
        if options.deadline_ms is not None and options.deadline_ms <= 0:
            # The client's budget was spent before the request got here;
            # reject at the edge instead of burning a worker on an answer
            # nobody is waiting for. (The service re-checks after queueing.)
            self._m_deadline_rejections.inc()
            raise DeadlineExceededError(
                f"request arrived with its deadline budget exhausted "
                f"({options.deadline_ms:.1f}ms remaining)"
            )
        with self._tenant_slot(tenant):
            return self.service.execute(text, options)

    @contextlib.contextmanager
    def _tenant_slot(self, tenant: Optional[str]):
        """Hold one of the tenant's in-flight slots, or shed."""
        quota = self.tenant_quotas.get(tenant) if tenant is not None else None
        if quota is None:
            yield
            return
        with self._state_lock:
            inflight = self._tenant_inflight.get(tenant, 0)
            if inflight >= quota:
                raise TenantQuotaError(
                    f"tenant {tenant!r} is at its quota of {quota} "
                    f"in-flight quer{'y' if quota == 1 else 'ies'}"
                )
            self._tenant_inflight[tenant] = inflight + 1
        try:
            yield
        finally:
            with self._state_lock:
                self._tenant_inflight[tenant] -= 1

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def replication_source(self):
        """This server's :class:`~repro.replication.primary
        .ReplicationSource`, created on first use; ``None`` unless the
        served database is a WAL-mode primary."""
        database = getattr(self.service, "database", None)
        if database is None or getattr(database, "wal", None) is None:
            return None
        if getattr(database, "read_only", False):
            return None  # a replica does not cascade (yet)
        with self._state_lock:
            if self._replication is None:
                from repro.replication.primary import ReplicationSource

                self._replication = ReplicationSource(database)
            return self._replication

    def _role_payload(self) -> Dict[str, Any]:
        """Role, LSN, and replica lag — piggybacked on every ``PONG``.

        This is what :class:`~repro.client.failover.FailoverClient` uses
        to discover topology and enforce read-your-writes tokens.
        """
        payload = self._base_role_payload()
        if self.shard_info is not None:
            payload["shard"] = dict(self.shard_info)
        return payload

    def _base_role_payload(self) -> Dict[str, Any]:
        database = getattr(self.service, "database", None)
        if database is None:
            return {"role": "standalone", "lsn": 0}
        lsn = getattr(database, "wal_applied_lsn", 0)
        if getattr(database, "read_only", False):
            return {"role": "replica", "lsn": lsn}
        if getattr(database, "wal", None) is not None:
            source = self.replication_source()
            return {
                "role": "primary",
                "lsn": database.wal.end_lsn,
                "replicas": source.status() if source is not None else [],
            }
        return {"role": "standalone", "lsn": lsn}

    def _handle_subscribe(
        self, connection: _Connection, payload: Dict[str, Any]
    ) -> bool:
        source = self.replication_source()
        if source is None:
            self._send_error(
                connection,
                ReplicationError(
                    "this server does not serve a WAL-mode primary; "
                    "nothing to subscribe to"
                ),
                request_id=None,
            )
            return False
        if connection.cursor is not None:
            self._send_error(
                connection,
                ProtocolError("connection already carries a subscription"),
                request_id=None,
            )
            return False
        from_lsn = int(payload.get("from_lsn", 0))
        name = payload.get("name")
        try:
            cursor_id, cursor = source.subscribe(from_lsn, name=name)
        except (StaleSubscriberError, ReplicationError) as exc:
            # Keep the connection: a stale subscriber's next frame is a
            # SYNC on this very socket, then a fresh WAL_SUBSCRIBE.
            self._send_error(connection, exc, request_id=None)
            return True
        connection.cursor_id = cursor_id
        connection.cursor = cursor
        connection.streamer = threading.Thread(
            target=self._stream_wal,
            args=(connection, source, cursor_id, cursor),
            name=f"wal-ship:{cursor.name}",
            daemon=True,
        )
        connection.streamer.start()
        return True

    def _handle_sync(
        self, connection: _Connection, payload: Dict[str, Any]
    ) -> bool:
        source = self.replication_source()
        if source is None:
            self._send_error(
                connection,
                ReplicationError("this server is not a WAL-mode primary"),
                request_id=None,
            )
            return False
        frames = source.sync_response(
            payload, max_bytes=max(4096, self.max_frame_bytes // 2)
        )
        with contextlib.closing(frames):
            while True:
                try:  # the answer's own failure; a failed send goes up
                    frame = next(frames, None)
                except Exception as exc:
                    self._send_error(connection, exc, request_id=None)
                    return True
                # Done, or degraded to a frame-too-large error: the
                # subscriber saw a typed failure and will retry.
                if frame is None or not self._respond(
                    connection, wire.SYNC_PAGES, frame, request_id=None
                ):
                    return True

    def _stream_wal(self, connection, source, cursor_id, cursor) -> None:
        """Sender loop: push records past the cursor, heartbeat when idle.

        Budgeted below half the frame cap (base64 expands payloads 4/3,
        plus JSON overhead) so a shipped batch can never trip the frame
        limit. Ends when the peer, the handler, or the server goes away —
        or the log's base outruns the cursor (a checkpoint truncated
        records not yet shipped), which surfaces to the subscriber as a
        typed ``stale-subscriber`` error so it can install the checkpoint.
        """
        budget = max(4096, self.max_frame_bytes // 2)
        last_heartbeat = time.monotonic()
        try:
            while not self._stopping.is_set() and not connection.closed.is_set():
                try:
                    batch, end = source.records_since(cursor.shipped_lsn, budget)
                except StaleSubscriberError as exc:
                    # The stream is over but the connection survives: the
                    # subscriber's next frames are an in-band SYNC and a
                    # fresh WAL_SUBSCRIBE on this same socket. Drop the
                    # cursor *before* the error frame goes out (both under
                    # the lock), so by the time the subscriber reacts the
                    # re-subscribe is guaranteed to be accepted.
                    with connection.lock:
                        connection.cursor = None
                        connection.cursor_id = None
                        self._send_error(connection, exc, request_id=None)
                    return
                if batch:
                    with connection.lock:
                        self._send(
                            connection,
                            wire.WAL_RECORDS,
                            {
                                "from_lsn": cursor.shipped_lsn,
                                "end_lsn": end,
                                "records": batch,
                            },
                        )
                    shipped = end - cursor.shipped_lsn
                    cursor.shipped_lsn = end
                    source.note_shipped(cursor, len(batch), shipped)
                    last_heartbeat = time.monotonic()
                    continue
                source.wait_for_append(
                    cursor.shipped_lsn, min(self.heartbeat_seconds, 0.2)
                )
                now = time.monotonic()
                if now - last_heartbeat >= self.heartbeat_seconds:
                    with connection.lock:
                        self._send(
                            connection, wire.HEARTBEAT, {"lsn": source.end_lsn}
                        )
                    source.note_heartbeat()
                    last_heartbeat = now
        except (OSError, ConnectionError, ProtocolError):
            pass  # peer went away; the handler thread notices on its read
        finally:
            source.unsubscribe(cursor_id)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def _send(
        self, connection: _Connection, kind: int, payload: Dict[str, Any]
    ) -> None:
        wire.write_frame(connection.sock, kind, payload, self.max_frame_bytes)

    def _respond(
        self,
        connection: _Connection,
        kind: int,
        payload: Dict[str, Any],
        request_id: Optional[int],
    ) -> bool:
        """Send a response; an oversized one degrades to a typed error.

        ``write_frame`` raises :class:`~repro.errors.FrameTooLargeError`
        *before* any byte hits the socket, so the stream stays framed and
        the connection stays usable — the client just sees a structured
        ``frame-too-large`` failure for this one request. Returns whether
        the payload itself went out (``False`` on the degraded path).
        """
        try:
            self._send(connection, kind, payload)
        except FrameTooLargeError as exc:
            self._m_protocol_errors.inc()
            self._send_error(connection, exc, request_id)
            return False
        return True

    def _send_error(
        self,
        connection: _Connection,
        exc: BaseException,
        request_id: Optional[int],
    ) -> None:
        if not isinstance(exc, ReproError):
            self._m_errors_internal()
        payload = wire.encode_error(exc)
        payload["id"] = request_id
        with contextlib.suppress(OSError, ProtocolError, ConnectionError):
            self._send(connection, wire.ERROR, payload)

    @staticmethod
    def _m_errors_internal() -> None:
        REGISTRY.counter("server.net.internal_errors").inc()
