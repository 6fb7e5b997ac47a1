"""Tests for I/O statistics, snapshot arithmetic and per-thread metering."""

import sys
import threading

import pytest

from repro.obs.tracer import Tracer
from repro.storage.paged_file import StorageManager
from repro.storage.stats import FileIOCounts, IOSnapshot, IOStatistics


class TestFileIOCounts:
    def test_totals(self):
        counts = FileIOCounts(1, 2, 3, 4)
        assert counts.logical_total == 3
        assert counts.physical_total == 7

    def test_subtraction(self):
        a = FileIOCounts(5, 5, 5, 5)
        b = FileIOCounts(1, 2, 3, 4)
        assert a - b == FileIOCounts(4, 3, 2, 1)

    def test_addition(self):
        assert FileIOCounts(1, 1, 1, 1) + FileIOCounts(2, 0, 0, 2) == FileIOCounts(
            3, 1, 1, 3
        )


class TestIOStatistics:
    def test_recording(self):
        stats = IOStatistics()
        stats.record_logical_read("a", 2)
        stats.record_logical_write("a")
        stats.record_physical_read("b")
        stats.record_physical_write("b", 3)
        snap = stats.snapshot()
        assert snap.for_file("a") == FileIOCounts(2, 1, 0, 0)
        assert snap.for_file("b") == FileIOCounts(0, 0, 1, 3)

    def test_unknown_file_is_zero(self):
        assert IOStatistics().snapshot().for_file("nope") == FileIOCounts()

    def test_reset(self):
        stats = IOStatistics()
        stats.record_logical_read("a")
        stats.reset()
        assert stats.snapshot().for_file("a") == FileIOCounts()

    def test_snapshot_is_immutable_view(self):
        stats = IOStatistics()
        stats.record_logical_read("a")
        snap = stats.snapshot()
        stats.record_logical_read("a")
        assert snap.for_file("a").logical_reads == 1


class TestSnapshotArithmetic:
    def test_difference_meters_an_interval(self):
        stats = IOStatistics()
        stats.record_logical_read("a", 3)
        before = stats.snapshot()
        stats.record_logical_read("a", 2)
        stats.record_logical_write("b")
        delta = stats.snapshot() - before
        assert delta.for_file("a").logical_reads == 2
        assert delta.for_file("b").logical_writes == 1

    def test_total_sums_all_files(self):
        snap = IOSnapshot(
            {"a": FileIOCounts(1, 0, 0, 0), "b": FileIOCounts(2, 3, 0, 0)}
        )
        assert snap.total().logical_reads == 3
        assert snap.logical_total == 6
        assert snap.physical_total == 0

    def test_files_iterates_sorted(self):
        snap = IOSnapshot({"b": FileIOCounts(), "a": FileIOCounts()})
        assert [name for name, _ in snap.files()] == ["a", "b"]

    def test_difference_handles_new_files(self):
        empty = IOSnapshot({})
        later = IOSnapshot({"new": FileIOCounts(1, 0, 0, 0)})
        assert (later - empty).for_file("new").logical_reads == 1


def _nonzero(snapshot):
    return {
        name: counts
        for name, counts in snapshot.files()
        if counts.logical_total or counts.physical_total
    }


def _work(stats, tag):
    stats.record_logical_read(f"{tag}:a", 2)
    stats.record_logical_write(f"{tag}:a")
    stats.record_physical_write(f"{tag}:b", 3)
    stats.record_logical_read_many([f"{tag}:s1", f"{tag}:s2"], 4)
    stats.record_physical_read_many([f"{tag}:s1"], 5)


class TestMetering:
    def test_meter_inside_span_and_span_inside_meter_agree_with_snapshots(self):
        manager = StorageManager(page_size=256, pool_capacity=0)
        stats = manager.stats
        tracer = Tracer(io_source=manager)

        before = stats.snapshot()
        with tracer.span("outer"):
            _work(stats, "pre")
            with stats.metered() as inner_meter:
                _work(stats, "in")
        span_delta = stats.snapshot() - before
        assert _nonzero(tracer.last_root.io) == _nonzero(span_delta)
        assert set(inner_meter.delta().per_file) == {
            "in:a", "in:b", "in:s1", "in:s2"
        }

        before = stats.snapshot()
        with stats.metered() as outer_meter:
            _work(stats, "pre")
            with tracer.span("inner"):
                _work(stats, "in")
        assert _nonzero(outer_meter.delta()) == _nonzero(stats.snapshot() - before)
        # Same work inside both inner brackets, so the same delta.
        assert tracer.last_root.io.per_file == inner_meter.delta().per_file
        assert stats._local.journal is None

    def test_delta_is_sparse_and_readable_while_open(self):
        stats = IOStatistics()
        stats.record_logical_read("untouched-later", 9)
        with stats.metered() as meter:
            stats.record_logical_read("a")
            assert meter.delta().for_file("a").logical_reads == 1
            stats.record_logical_read("a")
        stats.record_logical_read("a")  # after the meter closed
        assert meter.delta().per_file == {"a": FileIOCounts(2, 0, 0, 0)}

    def test_journal_stops_when_the_outermost_meter_closes_on_error(self):
        manager = StorageManager(page_size=256, pool_capacity=0)
        stats = manager.stats
        tracer = Tracer(io_source=manager)
        with pytest.raises(RuntimeError):
            with stats.metered():
                with tracer.span("doomed"):
                    with stats.metered():
                        stats.record_logical_read("a")
                        raise RuntimeError("boom")
        assert stats._local.journal is None
        assert tracer.last_root.io.for_file("a").logical_reads == 1
        assert stats.snapshot().for_file("a").logical_reads == 1

    @pytest.mark.parametrize(
        "unbuffered, halves",
        [
            (
                lambda stats: stats.record_unbuffered_read("a", 3),
                lambda stats: (
                    stats.record_logical_read("a", 3),
                    stats.record_physical_read("a", 3),
                ),
            ),
            (
                lambda stats: stats.record_unbuffered_write("a"),
                lambda stats: (
                    stats.record_logical_write("a"),
                    stats.record_physical_write("a"),
                ),
            ),
        ],
        ids=["read", "write"],
    )
    def test_unbuffered_access_is_metered_as_its_two_halves(
        self, unbuffered, halves
    ):
        one, two = IOStatistics(), IOStatistics()
        with one.metered() as one_meter:
            unbuffered(one)
        with two.metered() as two_meter:
            halves(two)
        assert one_meter.delta().per_file == two_meter.delta().per_file
        assert one.snapshot().per_file == two.snapshot().per_file
        assert one.snapshot().for_file("a").logical_total > 0

    def test_threads_meter_only_their_own_accesses(self):
        stats = IOStatistics()
        rounds, workers = 400, 8
        barrier = threading.Barrier(workers)
        deltas = {}

        def run(tag):
            barrier.wait(timeout=10)
            with stats.metered() as meter:
                for _ in range(rounds):
                    stats.record_logical_read("shared")
                    stats.record_logical_read(tag)
            deltas[tag] = meter.delta()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(f"t{i}",))
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        for tag, delta in deltas.items():
            assert delta.per_file == {
                "shared": FileIOCounts(rounds, 0, 0, 0),
                tag: FileIOCounts(rounds, 0, 0, 0),
            }
        assert stats.snapshot().for_file("shared").logical_reads == rounds * workers
