"""Chaos matrix: hard kills, torn frames, restarts, checkpoint races.

Each scenario ends in the same gate the recovery suite uses — byte
equivalence via :func:`tests.wal.conftest.fingerprint` — because the
replication guarantee *is* the recovery guarantee stretched over a wire:
whatever survives, the replica's state must equal a deterministic replay
of the primary's durable prefix up to the replica's watermark.
"""

from __future__ import annotations

import base64
import contextlib
import os
import random
import socket
import threading

from repro import wire
from repro.errors import StaleSubscriberError
from repro.objects.database import Database
from repro.objects.serde import encode_value
from repro.obs.metrics import REGISTRY
from repro.persistence.snapshot import load_database
from repro.replication import ReplicaDatabase
from repro.server.net import TcpQueryServer
from repro.wal.replay import replay_records
from tests.conftest import HOBBIES
from tests.reference.replay import replay_one_at_a_time
from tests.wal.conftest import apply_ops, fingerprint, workload_ops


def _caught_up(primary_db, replica, timeout=10.0):
    assert replica.wait_for_lsn(primary_db.wal.end_lsn, timeout=timeout), (
        f"replica stalled at {replica.watermark} < {primary_db.wal.end_lsn}"
        f" (last_error={replica.last_error!r})"
    )


class TestPrimaryKillMidStream:
    def test_promoted_state_equals_durable_prefix(self, primary, make_replica):
        """Kill the primary server mid-stream; the promoted replica must be
        byte-identical to a fresh replay of every primary log record whose
        frame it had fully received."""
        db, server = primary
        apply_ops(db, workload_ops(inserts=60))
        replica = make_replica(server.url)
        # Kill as soon as *something* arrived — wherever the stream was.
        assert replica.wait_for_lsn(1, timeout=10)
        server.stop(drain=False)
        replica.stop()

        promoted = replica.promote()
        watermark = promoted.wal_applied_lsn

        expected = Database(page_size=4096, pool_capacity=0)
        prefix = [r for r in db.wal.records() if r.next_lsn <= watermark]
        replay_records(expected, prefix)
        assert fingerprint(promoted) == fingerprint(expected)
        # The promoted log holds exactly the shipped prefix, byte for byte.
        assert promoted.wal.end_lsn == watermark

    def test_promote_redoes_a_shipped_but_unapplied_tail(self, primary, make_replica):
        """Records the replica logged but never applied — a run of SSF and
        BSSF updates and deletes, as a crash between append and apply
        leaves them — are redone by promote() as one batch; the result is
        the primary, a fresh replay of its log, and the record-at-a-time
        oracle's replay, byte for byte."""
        db, server = primary
        apply_ops(db, workload_ops(inserts=30))
        replica = make_replica(server.url)
        _caught_up(db, replica)
        replica.stop()
        shipped_to = db.wal.end_lsn
        rng = random.Random(4)
        live = [oid for oid, _ in db.scan("Student")]
        for step in range(24):
            oid = rng.choice(live)
            db.update(oid, {"name": f"t{step}", "hobbies": set(rng.sample(HOBBIES, 3))})
            if step % 4 == 3:
                db.delete(live.pop(rng.randrange(len(live))))
        tail = db.wal.records_from(shipped_to)
        assert len(tail) == 30
        for record in tail:
            replica.wal.append_payload(encode_value(list(record.fields)))
        assert replica.database.wal_applied_lsn == shipped_to

        promoted = replica.promote()
        assert promoted.wal_applied_lsn == db.wal.end_lsn
        fresh, oracle = Database(), Database()
        replay_records(fresh, db.wal.records())
        replay_one_at_a_time(oracle, db.wal.records())
        assert fingerprint(promoted) == fingerprint(fresh) == fingerprint(oracle)
        assert fingerprint(promoted) == fingerprint(db)


class _TearingProxy:
    """Loopback TCP proxy that cuts the *first* connection mid-frame.

    Forwards bytes both ways; once the primary→replica direction of the
    first proxied connection has relayed ``tear_after`` bytes it closes
    both sockets abruptly — the replica observes a frame torn partway
    through its body. Later connections pass through untouched.
    """

    def __init__(self, target_host: str, target_port: int, tear_after: int):
        self.target = (target_host, target_port)
        self.tear_after = tear_after
        self._torn_once = False
        self._stop = threading.Event()
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]
        self.url = f"sigfile://127.0.0.1:{self.port}"
        self._threads = [threading.Thread(target=self._accept_loop, daemon=True)]
        self._threads[0].start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                downstream, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.target, timeout=2.0)
            except OSError:
                downstream.close()
                continue
            tear = None
            if not self._torn_once:
                self._torn_once = True
                tear = self.tear_after
            for src, dst, limit in (
                (downstream, upstream, None),
                (upstream, downstream, tear),
            ):
                thread = threading.Thread(
                    target=self._pump, args=(src, dst, limit), daemon=True
                )
                thread.start()
                self._threads.append(thread)

    def _pump(self, src, dst, tear_limit) -> None:
        forwarded = 0
        try:
            while not self._stop.is_set():
                data = src.recv(4096)
                if not data:
                    break
                if tear_limit is not None and forwarded + len(data) >= tear_limit:
                    dst.sendall(data[: tear_limit - forwarded])
                    break  # tear: close both mid-frame
                dst.sendall(data)
                forwarded += len(data)
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                with contextlib.suppress(OSError):
                    sock.close()

    def close(self) -> None:
        self._stop.set()
        with contextlib.suppress(OSError):
            self._listener.close()


class TestTornFrame:
    def test_replica_recovers_from_a_frame_cut_midway(
        self, primary, make_replica
    ):
        db, server = primary
        # 701 bytes lands inside some WAL_RECORDS frame body (frames here
        # are hundreds of bytes; any non-boundary offset works).
        proxy = _TearingProxy(server.host, server.port, tear_after=701)
        try:
            apply_ops(db, workload_ops(inserts=12))
            replica = make_replica(proxy.url)
            _caught_up(db, replica)
            assert fingerprint(replica.database) == fingerprint(db)
            # Recovery path was reconnect + retransmit, never an install:
            # a torn frame is a transport fault, not divergence.
            assert REGISTRY.counter("replication.reconnects").value >= 1
            assert REGISTRY.counter("replication.resyncs").value == 0
        finally:
            proxy.close()


class TestReplicaRestartMidStream:
    def test_reopened_replica_resumes_from_its_watermark(
        self, primary, tmp_path
    ):
        from repro.replication import ReplicaDatabase

        db, server = primary
        apply_ops(db, workload_ops(inserts=40))
        wal_dir = str(tmp_path / "mid-restart")
        replica = ReplicaDatabase(
            server.url, wal_dir, name="mid-restart", stall_timeout_seconds=3.0
        )
        try:
            # Stop somewhere mid-stream — whatever had been applied stays.
            assert replica.wait_for_lsn(1, timeout=10)
        finally:
            replica.close()

        reopened = ReplicaDatabase(
            server.url, wal_dir, name="mid-restart", stall_timeout_seconds=3.0
        )
        try:
            resumed_from = reopened.watermark
            _caught_up(db, reopened)
            assert fingerprint(reopened.database) == fingerprint(db)
            assert reopened.watermark >= resumed_from
        finally:
            reopened.close()


class TestCheckpointWhileTailing:
    def test_caught_up_subscriber_rides_through_truncation(
        self, primary, make_replica
    ):
        db, server = primary
        ops = workload_ops(inserts=10)
        apply_ops(db, ops[:8])
        replica = make_replica(server.url)
        _caught_up(db, replica)
        db.checkpoint()  # truncates the primary log under the subscriber
        apply_ops(db, ops[8:])
        _caught_up(db, replica)
        assert fingerprint(replica.database) == fingerprint(db)
        assert REGISTRY.counter("replication.resyncs").value == 0


def _force_stale_once(server, db):
    """Patch the server's source so its *next* ship attempt goes stale.

    This is the exact window a checkpoint-truncation race puts a lagging
    subscriber in: the streamer's mid-stream ``records_since`` raises
    ``StaleSubscriberError``. Returns an event set when it fired; later
    calls pass through untouched.
    """
    source = server.replication_source()
    real = source.records_since
    fired = threading.Event()

    def stale_once(lsn, max_bytes):
        if not fired.is_set():
            fired.set()
            raise StaleSubscriberError(
                "forced: checkpoint truncated past this subscriber",
                base_lsn=db.wal.base_lsn,
            )
        return real(lsn, max_bytes)

    source.records_since = stale_once
    return fired


class TestStaleMidStream:
    def test_tail_survives_mid_stream_truncation(self, primary, make_replica):
        """A mid-stream stale-subscriber error must not kill the tail
        thread: the replica installs the checkpoint and keeps replicating."""
        db, server = primary
        apply_ops(db, workload_ops(inserts=20))
        replica = make_replica(server.url)
        _caught_up(db, replica)

        fired = _force_stale_once(server, db)
        assert fired.wait(timeout=5)

        db.insert("Student", {"name": "after-stale", "hobbies": {"Chess"}})
        _caught_up(db, replica)
        # A second round after the recovery completed: this write can only
        # arrive through a stream the recovered tail re-established, so a
        # thread that died (or stopped subscribing) fails here.
        db.insert("Student", {"name": "after-resync", "hobbies": {"Chess"}})
        _caught_up(db, replica)
        assert fingerprint(replica.database) == fingerprint(db)
        assert replica._thread is not None and replica._thread.is_alive()
        assert REGISTRY.counter("replication.resyncs").value == 1

    def test_in_band_sync_and_resubscribe_on_one_socket(self, primary, tmp_path):
        """After a mid-stream stale error the primary must accept the
        subscriber's SYNC and a fresh WAL_SUBSCRIBE on the *same* socket
        (it drops the dead cursor before the error frame goes out)."""
        db, server = primary
        apply_ops(db, workload_ops(inserts=12))
        sock = socket.create_connection((server.host, server.port), timeout=5)
        sock.settimeout(5.0)
        try:
            wire.write_frame(
                sock,
                wire.HELLO,
                {"protocol": wire.PROTOCOL_VERSION, "token": None},
            )
            kind, _payload = wire.read_frame(sock)
            assert kind == wire.OK
            wire.write_frame(
                sock,
                wire.WAL_SUBSCRIBE,
                {"from_lsn": db.wal.base_lsn, "name": "raw-subscriber"},
            )
            watermark = db.wal.base_lsn
            while watermark < db.wal.end_lsn:
                kind, payload = wire.read_frame(sock)
                if kind == wire.WAL_RECORDS:
                    watermark = payload["end_lsn"]
                    wire.write_frame(sock, wire.WAL_ACK, {"lsn": watermark})
                else:
                    assert kind == wire.HEARTBEAT

            fired = _force_stale_once(server, db)
            assert fired.wait(timeout=5)
            kind, payload = wire.read_frame(sock)
            while kind == wire.HEARTBEAT:
                kind, payload = wire.read_frame(sock)
            assert kind == wire.ERROR
            assert payload["code"] == "stale-subscriber"

            # Same socket: the checkpoint install (the file may span
            # several budgeted frames) ...
            wire.write_frame(sock, wire.SYNC, {"name": "raw-subscriber"})
            installed, more = bytearray(), True
            while more:
                kind, payload = wire.read_frame(sock)
                assert kind == wire.SYNC_PAGES
                assert payload["offset"] == len(installed)
                installed += base64.b64decode(payload["data"])
                more = bool(payload.get("more", False))
            shipped = tmp_path / "installed.sigdb"
            shipped.write_bytes(bytes(installed))
            lsn = load_database(str(shipped)).wal_applied_lsn
            # The primary never checkpointed, so it did on demand.
            assert lsn == db.wal.base_lsn

            # ... then an in-band re-subscribe that must be accepted and
            # must stream subsequent writes.
            wire.write_frame(
                sock,
                wire.WAL_SUBSCRIBE,
                {"from_lsn": lsn, "name": "raw-subscriber"},
            )
            db.insert("Student", {"name": "resumed", "hobbies": {"Chess"}})
            while True:
                kind, payload = wire.read_frame(sock)
                assert kind in (wire.WAL_RECORDS, wire.HEARTBEAT)
                if kind == wire.WAL_RECORDS:
                    break
        finally:
            sock.close()


class TestCheckpointInstall:
    def test_resync_installs_the_primary_checkpoint(self, primary, make_replica):
        db, server = primary
        apply_ops(db, workload_ops(inserts=40))
        replica = make_replica(server.url)
        _caught_up(db, replica)
        replica.stop()

        # While the replica is down: new writes, then a checkpoint that
        # truncates history the replica never saw -> its watermark is
        # below the primary's base and tailing alone cannot catch up.
        for i in range(6):
            db.insert("Student", {"name": f"gap{i}", "hobbies": {"Chess"}})
        db.checkpoint()
        assert replica.watermark < db.wal.base_lsn

        replica.start()
        _caught_up(db, replica)
        assert fingerprint(replica.database) == fingerprint(db)
        assert REGISTRY.counter("replication.resyncs").value == 1
        # What travelled is the checkpoint file, once.
        assert REGISTRY.counter(
            "replication.sync_bytes_shipped"
        ).value == os.path.getsize(db.checkpoint_path)

    def test_resync_larger_than_one_frame_completes(self, tmp_path):
        """A checkpoint bigger than the wire's frame cap must still sync:
        the primary splits SYNC_PAGES into budgeted frames instead of
        tripping the frame limit and retrying forever."""
        db = Database(wal_dir=str(tmp_path / "small-frame-primary"))
        # 16 KiB cap -> an 8 KiB sync budget, about 6 KiB of file per
        # frame; a multi-page checkpoint needs several frames.
        server = TcpQueryServer(
            db, heartbeat_seconds=0.1, max_frame_bytes=16384
        ).start()
        replica = None
        try:
            apply_ops(db, workload_ops(inserts=40))
            replica = ReplicaDatabase(
                server.url,
                str(tmp_path / "small-frame-replica"),
                name="small-frame",
                stall_timeout_seconds=3.0,
                max_frame_bytes=16384,
            )
            _caught_up(db, replica)
            replica.stop()
            for i in range(8):
                db.insert("Student", {"name": f"gap{i}", "hobbies": {"Chess"}})
            db.checkpoint()
            assert replica.watermark < db.wal.base_lsn

            replica.start()
            _caught_up(db, replica)
            assert fingerprint(replica.database) == fingerprint(db)
            assert REGISTRY.counter("replication.resyncs").value == 1
            # More bytes travelled than one 8 KiB-budgeted frame can carry.
            assert (
                REGISTRY.counter("replication.sync_bytes_shipped").value > 8192
            )
        finally:
            if replica is not None:
                replica.close()
            server.stop(drain=False)
            db.wal.close()
