"""FailoverClient: routing, read-your-writes, circuit breaking, failover."""

from __future__ import annotations

import socket
import time

import pytest

from repro.client import RemoteClient
from repro.client.failover import FailoverClient
from repro.obs.metrics import REGISTRY
from repro.resilience import BREAKER_MAX_COOLDOWN_SECONDS
from repro.serving import QueryBackend, connect
from repro.server.net import TcpQueryServer
from repro.server.service import QueryService
from repro.storage.faults import RetryPolicy
from tests.wal.conftest import apply_ops, workload_ops

QUERY = 'select Student where hobbies has-subset ("Chess")'


def _dead_url() -> str:
    """A loopback URL nothing listens on."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"sigfile://127.0.0.1:{port}"


@pytest.fixture
def fleet(primary, make_replica):
    """Primary + one served replica: ``(db, primary_server, replica,
    replica_server)`` with the replica fully caught up."""
    db, server = primary
    apply_ops(db, workload_ops(inserts=10))
    replica = make_replica(server.url)
    assert replica.wait_for_lsn(db.wal.end_lsn, timeout=10)
    replica_server = TcpQueryServer(
        service=QueryService(replica.database, max_workers=2),
        heartbeat_seconds=0.1,
    ).start()
    yield db, server, replica, replica_server
    replica_server.stop(drain=False)


class TestConnectFactory:
    def test_url_list_opens_a_failover_client(self, fleet):
        db, server, replica, replica_server = fleet
        with connect([server.url, replica_server.url]) as client:
            assert isinstance(client, FailoverClient)
            assert isinstance(client, QueryBackend)

    def test_comma_string_opens_a_failover_client(self, fleet):
        db, server, replica, replica_server = fleet
        with connect(f"{server.url},{replica_server.url}") as client:
            assert isinstance(client, FailoverClient)
            assert client.url == f"{server.url},{replica_server.url}"

    def test_single_url_opens_a_remote_client(self, fleet):
        db, server, _replica, _replica_server = fleet
        with connect(server.url) as client:
            assert isinstance(client, RemoteClient)


class TestRouting:
    def test_plain_reads_prefer_replicas(self, fleet):
        db, server, replica, replica_server = fleet
        with FailoverClient([server.url, replica_server.url]) as client:
            result = client.execute(QUERY)
        local = QueryService(db, max_workers=1)
        try:
            baseline = local.execute(QUERY)
        finally:
            local.shutdown()
        assert result.rows == baseline.rows
        assert REGISTRY.counter("client.replica_reads").value >= 1
        assert REGISTRY.counter("client.primary_reads").value == 0

    def test_prefer_replicas_false_reads_from_primary(self, fleet):
        db, server, replica, replica_server = fleet
        client = FailoverClient(
            [server.url, replica_server.url], prefer_replicas=False
        )
        with client:
            client.execute(QUERY)
        assert REGISTRY.counter("client.primary_reads").value >= 1
        assert REGISTRY.counter("client.replica_reads").value == 0

    def test_prefer_replicas_false_pins_reads_despite_fleet_order(self, fleet):
        """Replicas are failover spares, never read targets — even when a
        replica is listed before the primary."""
        db, server, replica, replica_server = fleet
        client = FailoverClient(
            [replica_server.url, server.url], prefer_replicas=False
        )
        with client:
            client.execute(QUERY)
            client.execute(QUERY)
        assert REGISTRY.counter("client.primary_reads").value >= 2
        assert REGISTRY.counter("client.replica_reads").value == 0

    def test_writes_pin_to_the_primary(self, fleet):
        db, server, replica, replica_server = fleet
        with FailoverClient([server.url, replica_server.url]) as client:
            result = client.execute(QUERY, write=True)
        assert result.rows is not None

    def test_status_reports_both_roles(self, fleet):
        db, server, replica, replica_server = fleet
        with FailoverClient([server.url, replica_server.url]) as client:
            entries = {e["url"]: e for e in client.status()}
        assert entries[server.url]["role"] == "primary"
        assert entries[replica_server.url]["role"] == "replica"
        assert all(e["alive"] for e in entries.values())


class TestReadYourWrites:
    def test_token_read_observes_the_write(self, fleet):
        db, server, replica, replica_server = fleet
        with FailoverClient([server.url, replica_server.url]) as client:
            before = len(client.execute(QUERY).rows)
            db.insert("Student", {"name": "fresh", "hobbies": {"Chess"}})
            token = client.lsn_token()
            assert token == db.wal.end_lsn
            after = client.execute(QUERY, min_lsn=token)
        assert len(after.rows) == before + 1

    def test_stale_replica_falls_back_to_primary(self, primary, make_replica):
        """A token no replica has reached routes the read to the primary."""
        db, server = primary
        apply_ops(db, workload_ops(inserts=8))
        replica = make_replica(server.url)
        assert replica.wait_for_lsn(db.wal.end_lsn, timeout=10)
        replica.stop()  # freeze the watermark
        replica_server = TcpQueryServer(
            service=QueryService(replica.database, max_workers=1),
            heartbeat_seconds=0.1,
        ).start()
        try:
            client = FailoverClient(
                [server.url, replica_server.url],
                read_your_writes_timeout_seconds=0.3,
            )
            with client:
                db.insert("Student", {"name": "unseen", "hobbies": {"Chess"}})
                token = client.lsn_token()
                result = client.execute(QUERY, min_lsn=token)
            # The frozen replica cannot satisfy the token; the primary did.
            assert any("unseen" in str(row) for row in result.rows)
            assert REGISTRY.counter("client.primary_reads").value >= 1
        finally:
            replica_server.stop(drain=False)

    def test_stale_replica_listed_first_never_serves_a_token_read(
        self, primary, make_replica
    ):
        """Fleet order must not matter: with the below-token replica listed
        before the primary, the fallback still excludes it — a min_lsn read
        may never land on a replica known to be behind the token."""
        db, server = primary
        apply_ops(db, workload_ops(inserts=8))
        replica = make_replica(server.url)
        assert replica.wait_for_lsn(db.wal.end_lsn, timeout=10)
        replica.stop()  # freeze the watermark
        replica_server = TcpQueryServer(
            service=QueryService(replica.database, max_workers=1),
            heartbeat_seconds=0.1,
        ).start()
        try:
            client = FailoverClient(
                [replica_server.url, server.url],
                read_your_writes_timeout_seconds=0.3,
            )
            with client:
                db.insert("Student", {"name": "unseen", "hobbies": {"Chess"}})
                token = client.lsn_token()
                result = client.execute(QUERY, min_lsn=token)
            assert any("unseen" in str(row) for row in result.rows)
            assert REGISTRY.counter("client.replica_reads").value == 0
        finally:
            replica_server.stop(drain=False)


class TestCircuitBreaker:
    def test_dead_endpoint_trips_and_is_skipped(self, fleet):
        db, server, replica, replica_server = fleet
        dead = _dead_url()
        client = FailoverClient(
            [dead, server.url, replica_server.url],
            failure_threshold=1,
            # The first trip's cool-down is capped at
            # BREAKER_MAX_COOLDOWN_SECONDS, so the circuit stays open for
            # the whole test; no backoff is slept because a live endpoint
            # answers in the first round.
            retry_policy=RetryPolicy(
                max_attempts=3, backoff_seconds=BREAKER_MAX_COOLDOWN_SECONDS
            ),
            connect_timeout_seconds=0.5,
        )
        with client:
            result = client.execute(QUERY)
            assert result.rows is not None
            (dead_ep,) = [e for e in client._endpoints if e.url == dead]
            assert dead_ep.consecutive_failures >= 1
            assert dead_ep.open_until > time.monotonic()
            failures = dead_ep.failures
            # With the circuit open, requests keep succeeding (the dead
            # endpoint is excluded from routing while it cools down).
            client.execute(QUERY)
            assert dead_ep.open_until > time.monotonic()
            assert dead_ep.failures == failures

    def test_unknown_endpoint_is_re_probed_once_its_circuit_closes(self, fleet):
        """Skipping an open circuit must not strand the endpoint: once its
        cool-down has passed, the next read dials it again."""
        db, server, replica, replica_server = fleet
        dead = _dead_url()
        client = FailoverClient(
            [dead, server.url, replica_server.url],
            failure_threshold=1,
            retry_policy=RetryPolicy(
                max_attempts=3, backoff_seconds=BREAKER_MAX_COOLDOWN_SECONDS
            ),
            connect_timeout_seconds=0.5,
        )
        with client:
            client.execute(QUERY)
            (dead_ep,) = [e for e in client._endpoints if e.url == dead]
            assert dead_ep.role is None
            failures = dead_ep.failures
            # Let the cool-down lapse without sleeping through it.
            dead_ep.open_until = time.monotonic() - 1.0
            result = client.execute(QUERY)
            assert result.rows is not None
            assert dead_ep.failures > failures
            assert dead_ep.open_until > time.monotonic()

    def test_all_endpoints_dead_raises_cleanly(self):
        from repro.errors import ConnectionLostError

        client = FailoverClient(
            [_dead_url(), _dead_url()],
            failure_threshold=1,
            retry_policy=RetryPolicy(max_attempts=2, backoff_seconds=0.01),
            connect_timeout_seconds=0.3,
        )
        with client:
            with pytest.raises(ConnectionLostError):
                client.execute(QUERY)


class TestFailover:
    def test_batch_survives_primary_kill_and_promotion(self, fleet):
        db, server, replica, replica_server = fleet
        client = FailoverClient(
            [server.url, replica_server.url],
            retry_policy=RetryPolicy(
                max_attempts=6, backoff_seconds=0.05, multiplier=2.0
            ),
        )
        with client:
            baseline = client.execute(QUERY, write=True)

            server.stop(drain=False)  # hard kill, no drain
            replica.stop()
            replica.promote()

            # Same client object, zero transport errors surfaced: the
            # batch must discover the promoted primary and complete.
            results = client.execute_many([QUERY] * 3)
            assert len(results) == 3
            for result in results:
                assert len(result.rows) == len(baseline.rows)
            assert REGISTRY.counter("client.failovers").value >= 1

            # Writes follow the promotion too.
            promoted_write = client.execute(QUERY, write=True)
            assert len(promoted_write.rows) == len(baseline.rows)
