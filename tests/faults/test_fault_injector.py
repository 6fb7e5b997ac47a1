"""Unit tests for the fault injector and the retry machinery."""

from __future__ import annotations

import zlib

import pytest

from repro.errors import (
    CorruptPageError,
    SimulatedCrashError,
    StorageError,
    TransientIOError,
)
from repro.obs.metrics import REGISTRY
from repro.storage import (
    DiskStore,
    FaultInjector,
    FaultRule,
    Page,
    RetryPolicy,
    StorageManager,
    with_retries,
)


def make_store(pages: int = 3, name: str = "f") -> DiskStore:
    store = DiskStore(page_size=128)
    store.create_file(name)
    for page_no in range(pages):
        store.allocate_page(name)
        page = Page(128)
        page.write_bytes(0, bytes([page_no + 1]) * 16)
        store.write_page(name, page_no, page)
    return store


class TestFaultRule:
    def test_validation(self):
        with pytest.raises(StorageError):
            FaultRule("munge", "transient")
        with pytest.raises(StorageError):
            FaultRule("read", "gamma-ray")
        with pytest.raises(StorageError):
            FaultRule("read", "torn")  # torn is write-only
        with pytest.raises(StorageError):
            FaultRule("read", "transient", at_call=0)
        with pytest.raises(StorageError):
            FaultRule("read", "transient", count=0)

    def test_matching(self):
        rule = FaultRule("read", "transient", file="ssf:*", page=2)
        assert rule.matches("read", "ssf:Student.hobbies:oids", 2)
        assert not rule.matches("write", "ssf:Student.hobbies:oids", 2)
        assert not rule.matches("read", "ssf:Student.hobbies:oids", 1)
        assert not rule.matches("read", "objects:Student", 2)

    def test_wildcards_default_to_any(self):
        rule = FaultRule("write", "crash")
        assert rule.matches("write", "anything", 17)


class TestDeterministicFaults:
    def test_transient_fires_on_nth_matching_call(self):
        injector = FaultInjector(
            make_store(), [FaultRule("read", "transient", at_call=2)]
        )
        injector.read_page("f", 0)  # call 1: clean
        with pytest.raises(TransientIOError):
            injector.read_page("f", 1)  # call 2: faults
        injector.read_page("f", 2)  # call 3: clean again
        assert [f.kind for f in injector.injected] == ["transient"]
        assert injector.op_counts["read"] == 3

    def test_count_spans_consecutive_matching_calls(self):
        injector = FaultInjector(
            make_store(), [FaultRule("read", "transient", count=2)]
        )
        with pytest.raises(TransientIOError):
            injector.read_page("f", 0)
        with pytest.raises(TransientIOError):
            injector.read_page("f", 0)
        injector.read_page("f", 0)  # third attempt succeeds
        assert len(injector.injected) == 2

    def test_crash_is_not_a_storage_error(self):
        injector = FaultInjector(make_store(), [FaultRule("write", "crash")])
        with pytest.raises(SimulatedCrashError) as info:
            injector.write_page("f", 0, Page(128))
        assert not isinstance(info.value, StorageError)
        # the crash preempted the device: content unchanged
        assert injector.inner.page_image("f", 0)[0] == 1

    def test_read_bitflip_surfaces_as_corrupt_page(self):
        injector = FaultInjector(
            make_store(), [FaultRule("read", "bitflip", bit=7)]
        )
        with pytest.raises(CorruptPageError):
            injector.read_page("f", 0)
        assert injector.inner.corrupt_pages("f") == [0]

    def test_write_bitflip_lands_then_corrupts(self):
        injector = FaultInjector(
            make_store(), [FaultRule("write", "bitflip", file="f", page=1)]
        )
        page = Page(128)
        page.write_bytes(0, b"\xaa" * 128)
        injector.write_page("f", 1, page)
        stored = injector.inner.page_image("f", 1)
        assert stored != page.image()  # one bit differs
        assert sum(
            bin(a ^ b).count("1") for a, b in zip(stored, page.image())
        ) == 1
        with pytest.raises(CorruptPageError):
            injector.read_page("f", 1)

    def test_torn_write_keeps_old_tail_and_intended_checksum(self):
        injector = FaultInjector(
            make_store(), [FaultRule("write", "torn", file="f", page=0)]
        )
        page = Page(128)
        page.write_bytes(0, b"\xbb" * 128)
        injector.write_page("f", 0, page)  # silent: no exception
        stored = injector.inner.page_image("f", 0)
        assert stored[:64] == b"\xbb" * 64
        assert stored[64:] == bytes(64)  # old image's tail (zero fill)
        # the sidecar recorded the intended image, so the tear is detectable
        assert injector.inner.page_checksums("f")[0] == zlib.crc32(page.image())
        with pytest.raises(CorruptPageError):
            injector.read_page("f", 0)

    def test_disarm_passes_everything_through(self):
        injector = FaultInjector(make_store(), [FaultRule("read", "transient")])
        injector.armed = False
        injector.read_page("f", 0)
        assert injector.injected == []

    def test_injected_metric(self):
        injector = FaultInjector(make_store(), [FaultRule("read", "transient")])
        with pytest.raises(TransientIOError):
            injector.read_page("f", 0)
        assert REGISTRY.counter("storage.faults.injected").value == 1

    def test_delegates_everything_else(self):
        injector = FaultInjector(make_store())
        assert injector.num_pages("f") == 3
        assert injector.exists("f")
        assert injector.page_size == 128


class TestSeededRandomFaults:
    def test_same_seed_same_fault_sequence(self):
        def run(seed):
            injector = FaultInjector(
                make_store(), seed=seed, transient_read_rate=0.5
            )
            outcomes = []
            for _ in range(40):
                try:
                    injector.read_page("f", 0)
                    outcomes.append("ok")
                except TransientIOError:
                    outcomes.append("fault")
            return outcomes

        assert run(11) == run(11)
        assert run(11) != run(12)  # astronomically unlikely to collide
        assert "fault" in run(11) and "ok" in run(11)

    def test_rate_validation(self):
        with pytest.raises(StorageError):
            FaultInjector(make_store(), transient_read_rate=1.5)


class TestRetry:
    def test_with_retries_recovers_and_counts(self):
        calls = {"n": 0}

        def operation():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientIOError("flaky")
            return "done"

        assert with_retries(operation, RetryPolicy(max_attempts=3)) == "done"
        assert calls["n"] == 3
        assert REGISTRY.counter("storage.retries").value == 2

    def test_with_retries_exhausts(self):
        def operation():
            raise TransientIOError("always")

        with pytest.raises(TransientIOError):
            with_retries(operation, RetryPolicy(max_attempts=2))
        assert REGISTRY.counter("storage.retries").value == 2

    def test_policy_validation(self):
        with pytest.raises(StorageError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(StorageError):
            RetryPolicy(backoff_seconds=-1)
        with pytest.raises(StorageError):
            RetryPolicy(jitter_seconds=-0.1)

    def test_jitter_adds_bounded_random_delay(self):
        import random

        policy = RetryPolicy(
            backoff_seconds=0.01, multiplier=1.0, jitter_seconds=0.05
        )
        delays = [
            policy.sleep_for(1, rng=random.Random(seed)) for seed in range(20)
        ]
        assert all(0.01 <= d <= 0.06 for d in delays)
        assert len(set(delays)) > 1  # the jitter actually decorrelates
        # same rng state => same delay: replayable under a fixed seed
        assert policy.sleep_for(2, rng=random.Random(7)) == policy.sleep_for(
            2, rng=random.Random(7)
        )
        # without jitter the schedule is the plain exponential backoff
        plain = RetryPolicy(backoff_seconds=0.01, multiplier=2.0)
        assert [plain.sleep_for(a) for a in (1, 2, 3)] == [0.01, 0.02, 0.04]

    def test_pool_retries_transient_reads(self):
        manager = StorageManager(page_size=128, pool_capacity=0)
        handle = manager.create_file("f")
        handle.append_page()
        injector = manager.attach_fault_injector(
            rules=[FaultRule("read", "transient", count=2)]
        )
        # default policy allows 3 attempts: two faults, then success
        handle.read_page(0)
        assert len(injector.injected) == 2
        assert REGISTRY.counter("storage.retries").value == 2

    def test_pool_gives_up_after_max_attempts(self):
        manager = StorageManager(page_size=128, pool_capacity=0)
        handle = manager.create_file("f")
        handle.append_page()
        manager.attach_fault_injector(
            rules=[FaultRule("read", "transient", count=10)]
        )
        with pytest.raises(TransientIOError):
            handle.read_page(0)


class TestAttachDetach:
    def test_attach_rewires_store_and_pool(self):
        manager = StorageManager(page_size=128)
        injector = manager.attach_fault_injector()
        assert manager.store is injector
        assert manager.pool.store is injector
        manager.detach_fault_injector()
        assert isinstance(manager.store, DiskStore)
        assert manager.pool.store is manager.store

    def test_double_attach_rejected(self):
        manager = StorageManager(page_size=128)
        manager.attach_fault_injector()
        with pytest.raises(StorageError):
            manager.attach_fault_injector()

    def test_detach_without_attach_is_noop(self):
        manager = StorageManager(page_size=128)
        manager.detach_fault_injector()
        assert isinstance(manager.store, DiskStore)

    def test_attach_takes_instance_or_kwargs_not_both(self):
        manager = StorageManager(page_size=128)
        injector = FaultInjector(manager.store)
        with pytest.raises(StorageError):
            manager.attach_fault_injector(injector, seed=1)
