"""``truncate_until`` boundaries and its race with active tail readers.

A checkpoint truncates the log by atomically replacing the file
(``os.replace``); a shipping reader (``payloads_from``) takes one
consistent read of whichever image it lands on. The contract under the
race is precise:

* a reader positioned at a still-surviving boundary sees the same frame
  bytes before and after truncation (LSNs are preserved);
* a reader whose position fell below the new base gets a clean
  :class:`~repro.errors.WalError` — never garbage, never a partial batch;
* :class:`~repro.errors.WalCorruptError` is impossible: the swap is
  atomic, so no interleaving exposes a half-rewritten file.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import WalCorruptError, WalError
from repro.objects.database import Database
from repro.wal.log import WriteAheadLog
from tests.wal.conftest import apply_ops, workload_ops


def _log_with(tmp_path, count: int, payload: bytes = b"x" * 40):
    log = WriteAheadLog(str(tmp_path / "w"))
    for i in range(count):
        log.append(["noop", i, payload.decode()])
    return log


class TestBoundaries:
    def test_below_base_and_past_end_are_rejected(self, tmp_path):
        log = _log_with(tmp_path, 4)
        mid = log.records()[2].lsn
        log.truncate_until(mid)
        with pytest.raises(WalError):
            log.truncate_until(mid - 1)  # below the new base
        with pytest.raises(WalError):
            log.truncate_until(log.end_lsn + 8)  # past the end
        log.close()

    def test_non_boundary_lsn_is_rejected(self, tmp_path):
        log = _log_with(tmp_path, 4)
        first = log.records()[0]
        with pytest.raises(WalError):
            log.truncate_until(first.lsn + 1)
        log.close()

    def test_truncate_at_base_is_a_no_op(self, tmp_path):
        log = _log_with(tmp_path, 4)
        before = log.records()
        log.truncate_until(log.base_lsn)
        assert [r.lsn for r in log.records()] == [r.lsn for r in before]
        log.close()

    def test_truncate_at_end_empties_but_keeps_the_lsn_line(self, tmp_path):
        log = _log_with(tmp_path, 4)
        end = log.end_lsn
        log.truncate_until(end)
        assert log.base_lsn == end
        assert log.records() == []
        lsn = log.append(["noop", 99, "tail"])
        assert lsn == end  # appends continue the same LSN sequence
        log.close()

    def test_reader_below_new_base_gets_a_clean_error(self, tmp_path):
        log = _log_with(tmp_path, 6)
        mid = log.records()[3].lsn
        log.truncate_until(mid)
        with pytest.raises(WalError):
            log.payloads_from(0)
        with pytest.raises(WalError):
            log.payloads_from(mid - 1)
        log.close()


class TestSurvivorByteIdentity:
    def test_surviving_frames_are_bitwise_unchanged(self, tmp_path):
        log = _log_with(tmp_path, 8)
        mid = log.records()[4].lsn
        before, before_end = log.payloads_from(mid)
        log.truncate_until(mid)
        after, after_end = log.payloads_from(mid)
        assert after == before
        assert after_end == before_end
        assert log.base_lsn == mid


class TestCheckpointRacesTailReader:
    def test_log_level_race_never_corrupts_a_reader(self, tmp_path):
        """Readers tail while the writer appends and truncates: every
        batch must be consistent, every miss a clean WalError."""
        log = _log_with(tmp_path, 1)
        stop = threading.Event()
        problems = []
        seen = {}
        seen_lock = threading.Lock()

        def reader():
            at = log.base_lsn
            while not stop.is_set():
                try:
                    batch, end = log.payloads_from(at, max_bytes=256)
                except WalCorruptError as exc:  # atomic swap forbids this
                    problems.append(f"corruption surfaced: {exc}")
                    return
                except WalError:
                    at = log.base_lsn  # truncation passed us: legal
                    continue
                with seen_lock:
                    for lsn, payload in batch:
                        previous = seen.setdefault(lsn, payload)
                        if previous != payload:
                            problems.append(
                                f"lsn {lsn} read with two different payloads"
                            )
                at = max(at, end)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for i in range(120):
                log.append(["noop", i, "y" * 30])
                if i % 25 == 24:
                    records = log.records()
                    log.truncate_until(records[len(records) // 2].lsn)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert problems == []
        # Whatever survived in the final image matches what readers saw.
        final, _end = log.payloads_from(log.base_lsn)
        for lsn, payload in final:
            assert seen.get(lsn, payload) == payload
        log.close()

    def test_database_checkpoint_races_a_shipping_reader(self, tmp_path):
        """The real checkpoint path (snapshot + truncate) against a tail
        reader using the shipping read, as a replication subscriber does."""
        db = Database(wal_dir=str(tmp_path / "p"))
        stop = threading.Event()
        problems = []

        def reader():
            at = db.wal.base_lsn
            while not stop.is_set():
                try:
                    _batch, end = db.wal.payloads_from(at, max_bytes=512)
                except WalCorruptError as exc:
                    problems.append(f"corruption surfaced: {exc}")
                    return
                except WalError:
                    at = db.wal.base_lsn
                    continue
                at = max(at, end)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            ops = workload_ops(inserts=12)
            apply_ops(db, ops[:8])
            db.checkpoint()
            apply_ops(db, ops[8:])
            db.checkpoint()
        finally:
            stop.set()
            thread.join(timeout=10)
            db.wal.close()
        assert problems == []
