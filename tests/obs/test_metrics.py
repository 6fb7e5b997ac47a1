"""Metrics registry: instrument arithmetic, snapshot, in-place reset."""

import pytest

from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    file_kind,
)


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_gauge_keeps_last_value(self):
        g = Gauge("g")
        g.set(3.5)
        g.set(1.0)
        assert g.value == 1.0

    def test_histogram_summary(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert sum(h.buckets) == 3

    def test_histogram_empty_is_zeroed(self):
        h = Histogram("h")
        assert h.mean == 0.0
        assert h.summary() == {
            "count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
        }

    def test_histogram_bucket_overflow(self):
        h = Histogram("h")
        h.record(1e9)  # beyond the largest bound
        assert h.buckets[-1] == 1


class TestRegistry:
    def test_instruments_are_stable_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z") is reg.histogram("z")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(7)
        reg.histogram("c").record(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"b": 7}
        assert snap["histograms"]["c"]["count"] == 1

    def test_reset_zeroes_in_place(self):
        """Components cache instrument refs; reset must not replace them."""
        reg = MetricsRegistry()
        counter = reg.counter("a")
        histogram = reg.histogram("c")
        counter.inc(9)
        histogram.record(4.0)
        reg.reset()
        assert counter.value == 0
        assert histogram.count == 0
        assert histogram.min is None
        assert reg.counter("a") is counter
        counter.inc()
        assert reg.snapshot()["counters"]["a"] == 1

    def test_process_registry_fed_by_storage(self):
        from repro.storage.paged_file import StorageManager

        before = REGISTRY.counter("storage.pool.misses").value
        manager = StorageManager(page_size=256, pool_capacity=0)
        f = manager.create_file("data")
        f.append_page()
        f.read_page(0)
        assert REGISTRY.counter("storage.pool.misses").value > before


class TestFileKind:
    @pytest.mark.parametrize("name,kind", [
        ("objects:Student", "object"),
        ("ssf:Student.hobbies:signatures", "ssf.signature"),
        ("ssf:Student.hobbies:oids", "ssf.oid"),
        ("bssf:Student.hobbies:slice:0042", "bssf.slice"),
        ("bssf:Student.hobbies:oids", "bssf.oid"),
        ("bssf:Student.hobbies:r000003:signatures", "bssf.signature"),
        ("bssf:Student.hobbies:r000004:slice:0007", "bssf.slice"),
        ("bssf:Student.hobbies:r000003:entries", "bssf.entries"),
        ("ssf:Student.hobbies:manifest:a", "ssf.manifest"),
        ("bssf:Student.hobbies:manifest:b", "bssf.manifest"),
        ("nix:Student.courses:btree", "nix"),
        ("weird", "weird"),
    ])
    def test_classification(self, name, kind):
        assert file_kind(name) == kind
