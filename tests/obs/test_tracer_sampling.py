"""Near-zero-cost tracing: lazy I/O materialization and the root ring.

The tracer's record-path work is one journal append per I/O call and one
position capture per span; the per-file delta a span reports is replayed
lazily from the journal on first ``span.io`` access. These tests pin the
laziness contract (exactness after the fact, including the many-files
record forms) and the bounded ``max_roots`` ring.
"""

from repro.obs.tracer import Tracer, activate
from repro.storage.paged_file import StorageManager


def make_manager():
    return StorageManager(page_size=256, pool_capacity=0)


def touch(manager, name, pages):
    try:
        file = manager.open_file(name)
    except Exception:
        file = manager.create_file(name)
    while file.num_pages < pages:
        file.append_page()
    for i in range(pages):
        file.read_page(i)


class TestLazyIO:
    def test_io_is_exact_after_tracer_is_done(self):
        manager = make_manager()
        tracer = Tracer(io_source=manager)
        with tracer.span("work"):
            touch(manager, "a", 2)
            touch(manager, "b", 1)
        span = tracer.last_root
        assert span.pages_by_file() == {"a": 4, "b": 2}
        assert span.io.total().logical_reads == 3
        assert span.io.total().logical_writes == 3

    def test_many_files_record_forms_replay_correctly(self):
        manager = make_manager()
        stats = manager.stats
        tracer = Tracer(io_source=manager)
        with tracer.span("bulk"):
            stats.record_logical_read_many(["s1", "s2", "s3"], 2)
            stats.record_physical_read_many(["s1"], 5)
        span = tracer.last_root
        assert span.pages_by_file() == {"s1": 2, "s2": 2, "s3": 2}
        per_file = dict(span.io.files())
        assert per_file["s1"].physical_reads == 5

    def test_nested_spans_attribute_io_to_the_right_levels(self):
        manager = make_manager()
        tracer = Tracer(io_source=manager)
        with tracer.span("outer"):
            touch(manager, "x", 1)
            with tracer.span("inner"):
                touch(manager, "y", 2)
        outer = tracer.last_root
        inner = outer.children[0]
        assert inner.pages_by_file() == {"y": 4}
        # The outer span covers both its own and the nested I/O.
        assert outer.pages_by_file() == {"x": 2, "y": 4}
        assert outer.self_logical_pages == 2

    def test_journal_does_not_grow_shared_statistics(self):
        # Tracing must not perturb accounting: totals with an active
        # tracer equal totals without one.
        traced, plain = make_manager(), make_manager()
        tracer = Tracer(io_source=traced)
        with activate(tracer):
            with tracer.span("work"):
                touch(traced, "a", 3)
        touch(plain, "a", 3)
        assert traced.snapshot().total() == plain.snapshot().total()


class TestRootRing:
    def test_ring_keeps_only_the_newest_roots(self):
        tracer = Tracer(max_roots=3)
        for i in range(7):
            with tracer.span(f"q{i}"):
                pass
        assert [s.name for s in tracer.roots] == ["q4", "q5", "q6"]
        assert tracer.last_root.name == "q6"

    def test_long_serving_sessions_stay_bounded(self):
        manager = make_manager()
        tracer = Tracer(io_source=manager, max_roots=16)
        for i in range(100):
            with tracer.span(f"q{i}"):
                touch(manager, "f", 1) if i == 0 else None
        assert len(tracer.roots) == 16
