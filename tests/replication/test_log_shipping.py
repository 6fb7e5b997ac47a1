"""Primary-side shipping: cursor validation, batching, byte-identity."""

from __future__ import annotations

import base64
import json
import os
import socket
import threading

import pytest

from repro.errors import (
    ProtocolError,
    ReplicationError,
    StaleSubscriberError,
    WalError,
)
from repro.objects.database import Database
from repro.obs.metrics import REGISTRY
from repro.replication.primary import ReplicationSource
from repro.server.net import TcpQueryServer, _Connection
from repro.wal.log import WriteAheadLog
from tests.wal.conftest import apply_ops, workload_ops


def _primary(tmp_path, small=False):
    db = Database(wal_dir=str(tmp_path / "p"))
    if small:
        from repro.objects.schema import ClassSchema

        db.define_class(
            ClassSchema.build("Student", name="scalar", hobbies="set")
        )
        db.insert("Student", {"name": "a", "hobbies": {"Chess"}})
    else:
        apply_ops(db, workload_ops(inserts=8))
    return db


class TestSubscribe:
    def test_needs_a_wal_mode_database(self):
        with pytest.raises(ReplicationError):
            ReplicationSource(Database())

    def test_subscribe_at_any_record_boundary(self, tmp_path):
        db = _primary(tmp_path)
        source = ReplicationSource(db)
        boundaries = [record.lsn for record in db.wal.records()]
        boundaries.append(db.wal.end_lsn)
        for lsn in boundaries:
            cursor_id, cursor = source.subscribe(lsn)
            assert cursor.shipped_lsn == lsn
            source.unsubscribe(cursor_id)

    def test_watermark_below_base_is_stale(self, tmp_path):
        db = _primary(tmp_path)
        db.checkpoint()  # truncates: base moves past 0
        source = ReplicationSource(db)
        with pytest.raises(StaleSubscriberError) as excinfo:
            source.subscribe(0)
        assert excinfo.value.base_lsn == db.wal.base_lsn
        assert excinfo.value.code == "stale-subscriber"

    def test_watermark_past_end_is_divergence(self, tmp_path):
        db = _primary(tmp_path)
        source = ReplicationSource(db)
        with pytest.raises(ReplicationError):
            source.subscribe(db.wal.end_lsn + 64)

    def test_non_boundary_watermark_rejected(self, tmp_path):
        db = _primary(tmp_path)
        source = ReplicationSource(db)
        first = next(iter(db.wal.records()))
        with pytest.raises(ReplicationError):
            source.subscribe(first.lsn + 1)


class TestRecordsSince:
    def test_batches_whole_log_in_order(self, tmp_path):
        db = _primary(tmp_path)
        source = ReplicationSource(db)
        shipped, at = [], db.wal.base_lsn
        while at < db.wal.end_lsn:
            batch, at = source.records_since(at, max_bytes=256)
            assert batch
            shipped.extend(batch)
        expected = [record.lsn for record in db.wal.records()]
        assert [lsn for lsn, _payload in shipped] == expected

    def test_budget_always_admits_one_record(self, tmp_path):
        db = _primary(tmp_path)
        source = ReplicationSource(db)
        batch, end = source.records_since(db.wal.base_lsn, max_bytes=1)
        assert len(batch) == 1
        assert end > db.wal.base_lsn

    def test_payloads_are_the_exact_logged_bytes(self, tmp_path):
        db = _primary(tmp_path)
        source = ReplicationSource(db)
        batch, _end = source.records_since(db.wal.base_lsn, max_bytes=1 << 20)
        mirror = WriteAheadLog(str(tmp_path / "mirror"))
        for lsn, encoded in batch:
            assert lsn == mirror.end_lsn
            mirror.append_payload(base64.b64decode(encoded))
        source_log = (tmp_path / "p" / "wal.log").read_bytes()
        mirror_log = (tmp_path / "mirror" / "wal.log").read_bytes()
        assert mirror_log == source_log
        mirror.close()

    def test_truncated_watermark_goes_stale_mid_stream(self, tmp_path):
        db = _primary(tmp_path)
        source = ReplicationSource(db)
        db.checkpoint()
        with pytest.raises(StaleSubscriberError):
            source.records_since(0, max_bytes=1024)


class TestStreamingPrimitives:
    def test_wait_for_append_wakes_on_append(self, tmp_path):
        db = _primary(tmp_path, small=True)
        lsn = db.wal.end_lsn
        woke = []

        def waiter():
            woke.append(db.wal.wait_for_append(lsn, timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        db.insert("Student", {"name": "late", "hobbies": {"Chess"}})
        thread.join(timeout=5)
        assert woke == [True]

    def test_wait_for_append_times_out(self, tmp_path):
        db = _primary(tmp_path, small=True)
        assert db.wal.wait_for_append(db.wal.end_lsn, timeout=0.05) is False

    def test_payloads_from_rejects_non_boundary(self, tmp_path):
        db = _primary(tmp_path, small=True)
        first = next(iter(db.wal.records()))
        with pytest.raises(WalError):
            db.wal.payloads_from(first.lsn + 3)

    def test_reset_moves_base_and_empties(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "w"))
        log.append(["insert", "x"])
        log.reset(4096)
        assert log.base_lsn == 4096
        assert log.end_lsn == 4096
        assert list(log.records()) == []
        lsn = log.append_payload(b"\x01\x02")
        assert lsn == 4096
        log.close()


def _reassemble(frames) -> bytes:
    """Concatenate a SYNC answer, holding every slice to its offset."""
    installed = bytearray()
    for frame in frames:
        assert frame["offset"] == len(installed), "a byte shipped twice or skipped"
        data = base64.b64decode(frame["data"])
        assert data, "a frame made no progress"
        installed += data
    return bytes(installed)


class TestSyncResponse:
    @pytest.mark.parametrize("budget", [4096, 8192])
    def test_frames_stay_within_budget(self, tmp_path, budget):
        db = _primary(tmp_path)
        db.checkpoint()
        frames = list(ReplicationSource(db).sync_response({}, max_bytes=budget))
        assert len(frames) > 1
        assert all(frame["more"] is True for frame in frames[:-1])
        assert frames[-1]["more"] is False
        for frame in frames:
            body = json.dumps(frame, separators=(",", ":"), sort_keys=True)
            assert len(body) <= budget, (
                f"frame of {len(body)} bytes blows the {budget} budget"
            )

    def test_frames_cover_every_file_byte_exactly_once(self, tmp_path):
        db = _primary(tmp_path)
        db.checkpoint()
        frames = list(ReplicationSource(db).sync_response({}, max_bytes=8192))
        size = os.path.getsize(db.checkpoint_path)
        assert len(_reassemble(frames)) == size
        assert sum(len(base64.b64decode(f["data"])) for f in frames) == size

    def test_tiny_budget_still_makes_progress(self, tmp_path):
        db = _primary(tmp_path, small=True)
        db.checkpoint()
        # Below the framing overhead: degrade to one byte per frame, never
        # to an empty frame or an unshippable one.
        frames = list(ReplicationSource(db).sync_response({}, max_bytes=1))
        assert all(len(base64.b64decode(f["data"])) == 1 for f in frames)
        assert len(frames) == os.path.getsize(db.checkpoint_path)

    def test_reassembled_bytes_equal_the_checkpoint_file(self, tmp_path):
        db = _primary(tmp_path)
        db.checkpoint()
        frames = ReplicationSource(db).sync_response({}, max_bytes=8192)
        with open(db.checkpoint_path, "rb") as stream:
            assert _reassemble(frames) == stream.read()
        assert REGISTRY.counter("replication.sync_bytes_shipped").value == (
            os.path.getsize(db.checkpoint_path)
        )

    def test_an_answer_cut_short_ships_no_bytes(self, tmp_path):
        db = _primary(tmp_path)
        db.checkpoint()
        frames = ReplicationSource(db).sync_response({}, max_bytes=4096)
        next(frames)
        frames.close()  # the server gave up on this answer
        assert REGISTRY.counter("replication.sync_bytes_shipped").value == 0

    def test_a_send_failure_is_not_an_internal_error(self, tmp_path):
        """A subscriber that hangs up mid-answer breaks the send: that goes
        to the connection handler, and is neither answered nor counted
        as the server's own fault."""
        db = _primary(tmp_path)
        db.checkpoint()
        server = TcpQueryServer(db)
        ours, theirs = socket.socketpair()
        theirs.close()
        internal = REGISTRY.counter("server.net.internal_errors")
        try:
            with pytest.raises(OSError):
                server._handle_sync(_Connection(ours), {"name": "gone"})
        finally:
            ours.close()
        assert internal.value == 0
        assert REGISTRY.counter("replication.sync_bytes_shipped").value == 0

    def test_a_concurrent_checkpoint_cannot_tear_the_file(self, tmp_path):
        db = _primary(tmp_path)
        db.checkpoint()
        with open(db.checkpoint_path, "rb") as stream:
            before = stream.read()
        frames = ReplicationSource(db).sync_response({}, max_bytes=4096)
        first = next(frames)
        # No latch is held between frames: the primary keeps writing and
        # checkpoints (renaming a new file into place) mid-answer.
        for i in range(4):
            db.insert("Student", {"name": f"mid{i}", "hobbies": {"Chess"}})
        db.checkpoint()
        assert _reassemble([first, *frames]) == before

    def test_a_primary_that_never_checkpointed_checkpoints_first(self, tmp_path):
        db = _primary(tmp_path)
        assert not os.path.exists(db.checkpoint_path)
        frames = list(ReplicationSource(db).sync_response({}))
        with open(db.checkpoint_path, "rb") as stream:
            assert _reassemble(frames) == stream.read()
        assert db.wal.base_lsn > 0  # a real checkpoint: the log truncated

    def test_a_merkle_request_of_an_earlier_build_is_refused(self, tmp_path):
        db = _primary(tmp_path)
        with pytest.raises(ProtocolError):
            next(
                ReplicationSource(db).sync_response(
                    {"name": "old", "chunk_pages": 8, "files": {}}
                )
            )


class TestLagAccounting:
    def test_status_tracks_ship_and_ack(self, tmp_path):
        db = _primary(tmp_path)
        source = ReplicationSource(db)
        cursor_id, cursor = source.subscribe(db.wal.base_lsn, name="r1")
        batch, end = source.records_since(cursor.shipped_lsn, max_bytes=1 << 20)
        cursor.shipped_lsn = end
        source.note_shipped(cursor, len(batch), end - db.wal.base_lsn)
        (entry,) = source.status()
        assert entry["name"] == "r1"
        assert entry["lag_bytes"] == end - db.wal.base_lsn
        source.note_ack(cursor, end)
        (entry,) = source.status()
        assert entry["lag_bytes"] == 0
        source.unsubscribe(cursor_id)
        assert source.status() == []

    def test_acks_are_monotone(self, tmp_path):
        db = _primary(tmp_path)
        source = ReplicationSource(db)
        _id, cursor = source.subscribe(db.wal.base_lsn)
        source.note_ack(cursor, 500)
        source.note_ack(cursor, 100)  # late, out-of-order ack
        assert cursor.acked_lsn == 500
