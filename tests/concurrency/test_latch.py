"""Unit tests for the reader-writer latch (repro.concurrency)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.concurrency import RWLatch
from repro.errors import LatchError


def _spawn(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


class TestRWLatchReadSide:
    def test_readers_share(self):
        """Many threads hold read mode at the same instant."""
        latch = RWLatch("t")
        barrier = threading.Barrier(4, timeout=5)

        def reader():
            with latch.read_scope():
                barrier.wait()  # only passes if all 4 hold read together

        threads = [_spawn(reader) for _ in range(4)]
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_read_is_reentrant(self):
        latch = RWLatch("t")
        with latch.read_scope():
            with latch.read_scope():
                assert latch.state()["readers"] == 2
        assert latch.state()["readers"] == 0

    def test_release_read_without_hold_raises(self):
        with pytest.raises(LatchError):
            RWLatch("t").release_read()


class TestRWLatchWriteSide:
    def test_writer_excludes_readers(self):
        latch = RWLatch("t")
        observed = []
        entered = threading.Event()
        release = threading.Event()

        def writer():
            with latch.write_scope():
                entered.set()
                release.wait(timeout=5)
                observed.append("writer-done")

        def reader():
            entered.wait(timeout=5)
            with latch.read_scope():
                observed.append("reader-ran")

        w = _spawn(writer)
        r = _spawn(reader)
        entered.wait(timeout=5)
        time.sleep(0.05)  # give the reader a chance to (wrongly) slip in
        assert observed == []
        release.set()
        w.join(timeout=5)
        r.join(timeout=5)
        assert observed == ["writer-done", "reader-ran"]

    def test_write_is_reentrant(self):
        latch = RWLatch("t")
        with latch.write_scope():
            with latch.write_scope():
                assert latch.state()["writer_depth"] == 2

    def test_write_holder_reads_for_free(self):
        latch = RWLatch("t")
        with latch.write_scope():
            with latch.read_scope():
                pass  # must not deadlock

    def test_writer_preference_blocks_new_readers(self):
        """A waiting writer gates first-time readers (no writer starvation)."""
        latch = RWLatch("t")
        latch.acquire_read()
        writer_waiting = threading.Event()
        reader_got_in = threading.Event()

        def writer():
            writer_waiting.set()
            with latch.write_scope():
                pass

        def late_reader():
            with latch.read_scope():
                reader_got_in.set()

        w = _spawn(writer)
        writer_waiting.wait(timeout=5)
        # Writer is blocked on our read hold; a new reader must now queue.
        while latch.state()["waiting_writers"] == 0:
            time.sleep(0.005)
        r = _spawn(late_reader)
        time.sleep(0.05)
        assert not reader_got_in.is_set()
        latch.release_read()
        w.join(timeout=5)
        r.join(timeout=5)
        assert reader_got_in.is_set()

    def test_release_write_without_hold_raises(self):
        with pytest.raises(LatchError):
            RWLatch("t").release_write()


class TestUpgrade:
    def test_single_reader_upgrades(self):
        latch = RWLatch("t")
        with latch.read_scope():
            with latch.write_scope():  # read → write upgrade
                assert latch.state()["writer_depth"] == 1
            assert latch.state()["readers"] == 1

    def test_concurrent_upgrade_raises_instead_of_deadlocking(self):
        latch = RWLatch("t")
        both_reading = threading.Barrier(2, timeout=5)
        failures = []
        upgraded = []

        def upgrader():
            with latch.read_scope():
                both_reading.wait()
                try:
                    with latch.write_scope():
                        upgraded.append(threading.get_ident())
                except LatchError:
                    failures.append(threading.get_ident())

        threads = [_spawn(upgrader) for _ in range(2)]
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive(), "upgrade deadlocked"
        # Exactly one side loses; at least one upgrade must have succeeded
        # (the loser releases its read hold on scope exit, unblocking the
        # winner).
        assert len(failures) == 1
        assert len(upgraded) == 1
