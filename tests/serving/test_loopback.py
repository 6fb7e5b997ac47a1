"""Loopback integration: remote serving equivalent to in-process, plus
edge policies — overload shedding, tenant quotas, auth, disconnects,
malformed frames, and graceful drain."""

from __future__ import annotations

import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import wire
from repro.client import RemoteClient
from repro.errors import (
    AdmissionError,
    AuthenticationError,
    ConnectionLostError,
    ProtocolError,
    TenantQuotaError,
)
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.obs.metrics import REGISTRY
from repro.query.executor import QueryExecutor
from repro.server.net import TcpQueryServer
from repro.server.service import QueryService
from repro.storage.faults import RetryPolicy
from tests.conftest import populate_students

#: client retries that fail fast — edge-policy tests want the first answer
FAIL_FAST = RetryPolicy(max_attempts=1, backoff_seconds=0.0)

#: admission policy that sheds immediately
SHED_FAST = RetryPolicy(max_attempts=1, backoff_seconds=0.0)

QUERY_MIX = [
    'select Student where hobbies has-subset ("Chess")',
    'select Student where hobbies has-subset ("Fishing")',
    'select Student where hobbies overlaps ("Golf", "Tennis")',
    'select Student where hobbies has-subset ("Painting", "Cooking")',
    'select Student where hobbies overlaps ("Sailing")',
    'select Student where hobbies has-subset ("Climbing")',
]


def _build_db(count: int = 80) -> Database:
    db = Database(page_size=4096, pool_capacity=0)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    db.create_bssf_index("Student", "hobbies", 128, 2)
    populate_students(db, count=count)
    return db


def _cold(db: Database) -> Database:
    """Drop the BSSF's decoded slices and OIDs.

    Inserting keeps them decoded, so without this a query finds them warm
    and never waits on the simulated device: the next query here reads
    every slice page from the device, at the latency the test sets.
    """
    bssf = db.index("Student", "hobbies", "bssf")
    bssf._decode.drop()
    bssf.oid_file._decode.drop()
    return db


def _raw_handshake(server) -> socket.socket:
    """Dial the server and complete a HELLO by hand; returns the socket."""
    sock = socket.create_connection(server.address, timeout=5)
    sock.settimeout(5)
    wire.write_frame(sock, wire.HELLO, {"protocol": wire.PROTOCOL_VERSION})
    kind, _payload = wire.read_frame(sock)
    assert kind == wire.OK
    return sock


class TestEquivalence:
    def test_concurrent_remote_clients_match_sequential_run(self):
        """Golden rows, plans, per-query I/O deltas, and merged page totals."""
        served_db = _build_db()
        reference_db = _build_db()
        texts = QUERY_MIX * 4

        executor = QueryExecutor(reference_db)
        before = reference_db.io_snapshot()
        expected = [executor.execute_text(text) for text in texts]
        sequential_delta = reference_db.io_snapshot() - before

        with TcpQueryServer(served_db, max_workers=4) as server:
            before = served_db.io_snapshot()
            clients = [
                RemoteClient(*server.address, pool_size=2) for _ in range(3)
            ]
            try:
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [
                        pool.submit(clients[i % len(clients)].execute, text)
                        for i, text in enumerate(texts)
                    ]
                    results = [f.result(timeout=60) for f in futures]
            finally:
                for client in clients:
                    client.close()
            concurrent_delta = served_db.io_snapshot() - before

        for got, want in zip(results, expected):
            assert got.oids() == want.oids()
            assert got.rows == want.rows
            assert got.statistics.plan == want.statistics.plan
            assert got.statistics.candidates == want.statistics.candidates
            assert got.statistics.false_drops == want.statistics.false_drops
            # The per-query page-access delta crosses the wire bit-identical.
            assert got.statistics.io == want.statistics.io
        # Merged totals across all concurrently served queries match the
        # sequential replay exactly (the I/O-delta merge is commutative).
        assert concurrent_delta == sequential_delta

    def test_batch_round_trip_matches_sequential(self):
        served_db = _build_db()
        executor = QueryExecutor(_build_db())
        expected = [executor.execute_text(text) for text in QUERY_MIX]
        with TcpQueryServer(served_db, max_workers=2) as server:
            with RemoteClient(*server.address) as client:
                results = client.execute_many(QUERY_MIX)
        for got, want in zip(results, expected):
            assert got.oids() == want.oids()
            assert got.statistics.io == want.statistics.io

    def test_server_ignores_an_older_clients_serving_options(self):
        """The parent version's seven option keys decode to the three that
        shape a query: serving keys are ignored and no trace comes back."""
        served_db = _build_db()
        expected = QueryExecutor(_build_db()).execute_text(QUERY_MIX[0])
        older_options = {
            "prefer_facility": None,
            "smart": True,
            "trace": True,
            "max_workers": 8,
            "execution_mode": "process",
            "remote_url": "sigfile://127.0.0.1:1",
            "deadline_ms": None,
        }
        with TcpQueryServer(served_db, max_workers=2) as server:
            sock = _raw_handshake(server)
            try:
                wire.write_frame(
                    sock,
                    wire.QUERY,
                    {"id": 1, "text": QUERY_MIX[0], "options": older_options},
                )
                kind, payload = wire.read_frame(sock)
            finally:
                sock.close()
        assert kind == wire.RESULT
        result = wire.decode_result(payload)
        assert result.trace is None
        assert result.rows == expected.rows


class TestOverload:
    def test_saturated_server_sheds_with_admission_error(self):
        db = _cold(_build_db(count=60))
        service = QueryService(
            db,
            max_workers=1,
            queue_depth=0,
            admission_policy=SHED_FAST,
            admission_timeout_seconds=0.05,
        )
        db.storage.store.read_latency_seconds = 0.005
        try:
            with TcpQueryServer(service=service) as server:
                with RemoteClient(
                    *server.address, pool_size=2, retry_policy=FAIL_FAST
                ) as client:
                    slow = client.submit(QUERY_MIX[2])
                    time.sleep(0.1)  # let the slow query occupy the one slot
                    with pytest.raises(AdmissionError):
                        client.execute(QUERY_MIX[0])
                    assert slow.result(timeout=30).oids()
        finally:
            db.storage.store.read_latency_seconds = 0.0
            service.shutdown()

    def test_connection_survives_a_shed_request(self):
        """An ERROR frame is an answer, not a disconnect."""
        db = _cold(_build_db(count=60))
        service = QueryService(
            db,
            max_workers=1,
            queue_depth=0,
            admission_policy=SHED_FAST,
            admission_timeout_seconds=0.05,
        )
        db.storage.store.read_latency_seconds = 0.005
        try:
            with TcpQueryServer(service=service) as server:
                with RemoteClient(
                    *server.address, pool_size=2, retry_policy=FAIL_FAST
                ) as client:
                    slow = client.submit(QUERY_MIX[2])
                    time.sleep(0.1)
                    with pytest.raises(AdmissionError):
                        client.execute(QUERY_MIX[0])
                    slow.result(timeout=30)
                    # Same pooled sockets, next request succeeds.
                    assert client.execute(QUERY_MIX[0]).oids()
        finally:
            db.storage.store.read_latency_seconds = 0.0
            service.shutdown()


class TestTenants:
    def _server(self, db):
        return TcpQueryServer(
            db,
            max_workers=4,
            auth_tokens={"alice-token": "alice", "bob-token": "bob"},
            tenant_quotas={"alice": 1},
        )

    def test_missing_or_unknown_token_is_rejected(self):
        db = _build_db(count=20)
        with self._server(db) as server:
            with pytest.raises(AuthenticationError):
                with RemoteClient(
                    *server.address, retry_policy=FAIL_FAST
                ) as client:
                    client.ping()
            with pytest.raises(AuthenticationError):
                with RemoteClient(
                    *server.address, token="wrong", retry_policy=FAIL_FAST
                ) as client:
                    client.ping()

    def test_tenant_quota_sheds_before_service_admission(self):
        db = _cold(_build_db(count=60))
        db.storage.store.read_latency_seconds = 0.005
        try:
            with self._server(db) as server:
                alice = RemoteClient(
                    *server.address, token="alice-token", pool_size=2,
                    retry_policy=FAIL_FAST,
                )
                bob = RemoteClient(
                    *server.address, token="bob-token", retry_policy=FAIL_FAST
                )
                try:
                    slow = alice.submit(QUERY_MIX[2])
                    time.sleep(0.1)
                    # Alice is at her quota of one in-flight query ...
                    with pytest.raises(TenantQuotaError) as excinfo:
                        alice.execute(QUERY_MIX[0])
                    # ... and the shed is catchable as an AdmissionError.
                    assert isinstance(excinfo.value, AdmissionError)
                    # Bob is unaffected: no quota configured for his tenant.
                    assert bob.execute(QUERY_MIX[0]).oids()
                    assert slow.result(timeout=30).oids()
                    # Alice's slot is free again once her query finishes.
                    assert alice.execute(QUERY_MIX[0]).oids()
                finally:
                    alice.close()
                    bob.close()
        finally:
            db.storage.store.read_latency_seconds = 0.0

    def test_handshake_reports_the_tenant(self):
        db = _build_db(count=20)
        with self._server(db) as server:
            with RemoteClient(*server.address, token="bob-token") as client:
                client.ping()
                assert client.server_info["tenant"] == "bob"


class TestEdgeDiscipline:
    def test_mid_query_disconnect_leaves_server_healthy(self):
        db = _build_db(count=60)
        db.storage.store.read_latency_seconds = 0.002
        try:
            with TcpQueryServer(db, max_workers=2) as server:
                sock = _raw_handshake(server)
                wire.write_frame(
                    sock, wire.QUERY, {"id": 1, "text": QUERY_MIX[2]}
                )
                sock.close()  # vanish while the query is in flight
                time.sleep(0.2)
                with RemoteClient(*server.address) as client:
                    assert client.execute(QUERY_MIX[0]).oids()
        finally:
            db.storage.store.read_latency_seconds = 0.0

    def test_malformed_frame_gets_protocol_error_then_close(self):
        db = _build_db(count=20)
        with TcpQueryServer(db, max_workers=2) as server:
            sock = _raw_handshake(server)
            try:
                sock.sendall(b"GARBAGE-NOT-A-FRAME" * 3)
                kind, payload = wire.read_frame(sock)
                assert kind == wire.ERROR
                assert isinstance(wire.decode_error(payload), ProtocolError)
                # The stream cannot be resynced: the server closes. With
                # unread garbage still buffered server-side the close is
                # an RST, so accept either a clean EOF or a reset.
                try:
                    assert wire.read_frame(sock) is None
                except ConnectionError:
                    pass
            finally:
                sock.close()

    @pytest.mark.parametrize(
        "options",
        [{"deadline_ms": "soon"}, {"smart": "false"}],
        ids=["deadline-string", "smart-string"],
    )
    def test_malformed_options_are_a_protocol_error(self, options):
        """A peer's wrongly typed option is refused as a protocol error,
        not counted as an internal one, and the connection stays usable."""
        internal = REGISTRY.counter("server.net.internal_errors")
        db = _build_db(count=20)
        with TcpQueryServer(db, max_workers=2) as server:
            sock = _raw_handshake(server)
            try:
                before = internal.value
                wire.write_frame(
                    sock,
                    wire.QUERY,
                    {"id": 1, "text": QUERY_MIX[0], "options": options},
                )
                kind, payload = wire.read_frame(sock)
                assert kind == wire.ERROR
                assert isinstance(wire.decode_error(payload), ProtocolError)
                assert internal.value == before
                wire.write_frame(
                    sock, wire.QUERY, {"id": 2, "text": QUERY_MIX[0]}
                )
                kind, payload = wire.read_frame(sock)
                assert kind == wire.RESULT
                assert wire.decode_result(payload).oids()
            finally:
                sock.close()

    def test_non_hello_first_frame_is_rejected(self):
        db = _build_db(count=20)
        with TcpQueryServer(db, max_workers=2) as server:
            sock = socket.create_connection(server.address, timeout=5)
            sock.settimeout(5)
            try:
                wire.write_frame(sock, wire.PING, {"id": 1})
                kind, payload = wire.read_frame(sock)
                assert kind == wire.ERROR
                assert isinstance(wire.decode_error(payload), ProtocolError)
            finally:
                sock.close()

    def test_oversized_frame_is_rejected_not_read(self):
        db = _build_db(count=20)
        with TcpQueryServer(db, max_workers=2, max_frame_bytes=4096) as server:
            sock = _raw_handshake(server)
            try:
                # Declare a payload far over the server's limit; send only
                # the header — the server must reject on the declaration.
                sock.sendall(
                    struct.pack(
                        ">2sBBI", b"SF", wire.PROTOCOL_VERSION, wire.QUERY,
                        50 * 1024 * 1024,
                    )
                )
                kind, payload = wire.read_frame(sock)
                assert kind == wire.ERROR
                restored = wire.decode_error(payload)
                assert isinstance(restored, ProtocolError)
                assert "frame limit" in str(restored)
            finally:
                sock.close()

    def test_idle_connection_times_out(self):
        db = _build_db(count=20)
        with TcpQueryServer(db, max_workers=1, read_timeout_seconds=0.2) as server:
            sock = _raw_handshake(server)
            try:
                sock.settimeout(5)
                # Server closes the idle connection without an ERROR frame.
                assert wire.read_frame(sock) is None
            finally:
                sock.close()


class TestGracefulShutdown:
    def test_drain_delivers_inflight_response_then_bye(self):
        db = _cold(_build_db(count=60))
        db.storage.store.read_latency_seconds = 0.005
        try:
            server = TcpQueryServer(db, max_workers=2).start()
            client = RemoteClient(*server.address, retry_policy=FAIL_FAST)
            expected = QueryExecutor(_build_db(count=60)).execute_text(
                QUERY_MIX[2]
            )
            inflight = client.submit(QUERY_MIX[2])
            time.sleep(0.1)  # the request is on the server's wire
            server.stop(drain=True)
            # The in-flight query completed and its response was delivered
            # before the socket closed.
            result = inflight.result(timeout=30)
            assert result.oids() == expected.oids()
            client.close()
        finally:
            db.storage.store.read_latency_seconds = 0.0

    def test_stopped_server_refuses_new_connections(self):
        db = _build_db(count=20)
        server = TcpQueryServer(db, max_workers=1).start()
        address = server.address
        server.stop()
        with pytest.raises(ConnectionLostError):
            with RemoteClient(*address, retry_policy=FAIL_FAST) as client:
                client.ping()

    def test_goodbye_round_trip(self):
        db = _build_db(count=20)
        with TcpQueryServer(db, max_workers=1) as server:
            sock = _raw_handshake(server)
            try:
                wire.write_frame(sock, wire.GOODBYE, {})
                kind, _payload = wire.read_frame(sock)
                assert kind == wire.BYE
            finally:
                sock.close()
