"""Tests for the version-keyed decode slot."""

import pytest

from repro.errors import IndexCorruptionError
from repro.obs import tracer as trace
from repro.obs.tracer import Tracer
from repro.storage.decode_cache import DecodeSlot


class File:
    """A stand-in for a paged file: only its version matters here."""

    def __init__(self):
        self.version = 1

    def slot(self, traced: bool = False) -> DecodeSlot:
        return DecodeSlot(lambda: self.version, traced=traced)


def builds(*payloads):
    """A build function handing out ``payloads`` in turn, recording calls."""
    made = list(payloads)

    def build():
        return made.pop(0)

    return build


class TestHitMiss:
    def test_empty_slot_misses_and_builds(self):
        slot = File().slot()
        assert slot.get(builds("decoded")) == "decoded"
        assert slot.stats() == {"entries": 1, "hits": 0, "misses": 1}

    def test_same_version_hits_without_building(self):
        slot = File().slot()
        slot.get(builds("decoded"))
        assert slot.get(builds()) == "decoded"
        assert slot.stats()["hits"] == 1

    def test_version_mismatch_misses_and_evicts_stale(self):
        file = File()
        slot = file.slot()
        slot.get(builds("old"))
        file.version = 2

        def fails():
            raise RuntimeError("decode failed")

        with pytest.raises(RuntimeError):
            slot.get(fails)
        # The stale payload must be gone: the old version can never come back.
        assert slot.held() is None
        file.version = 1
        assert slot.get(builds("again")) == "again"
        assert slot.stats()["misses"] == 3

    def test_a_rebuild_replaces_the_previous_version(self):
        file = File()
        slot = file.slot()
        slot.get(builds("old"))
        file.version = 2
        assert slot.get(builds("new")) == "new"
        assert slot.held() == (2, "new")

    def test_a_traced_slot_annotates_the_span(self):
        tracer = Tracer()
        slot = File().slot(traced=True)
        with trace.activate(tracer):
            with tracer.span("miss") as miss:
                slot.get(builds("decoded"))
            with tracer.span("hit") as hit:
                slot.get(builds())
        assert miss.attributes["decode"] == "miss"
        assert hit.attributes["decode"] == "hit"

    def test_held_and_drop_are_uncounted(self):
        slot = File().slot()
        slot.get(builds("decoded"))
        assert slot.held() == (1, "decoded")
        slot.drop()
        assert slot.held() is None
        assert slot.stats() == {"entries": 0, "hits": 0, "misses": 1}


class TestFollow:
    def test_carries_the_payload_to_the_new_version_uncounted(self):
        file = File()
        slot = file.slot()
        slot.get(builds(["a"]))
        file.version = 2
        slot.follow(1, lambda payload: payload + ["b"])
        assert slot.stats()["hits"] == 0 and slot.stats()["misses"] == 1
        assert slot.get(builds()) == ["a", "b"]
        assert slot.held() == (2, ["a", "b"])

    def test_drops_a_payload_held_at_another_version(self):
        file = File()
        slot = file.slot()
        slot.get(builds("old"))
        file.version = 3
        applied = []
        slot.follow(2, applied.append)
        assert applied == [] and slot.held() is None

    def test_drops_a_payload_the_patch_gives_up_on(self):
        file = File()
        slot = file.slot()
        slot.get(builds("old"))
        file.version = 2
        slot.follow(1, lambda payload: None)
        assert slot.held() is None

    def test_nothing_held_is_a_no_op(self):
        file = File()
        slot = file.slot()
        file.version = 2
        slot.follow(1, lambda payload: 1 / 0)
        assert slot.stats() == file.slot().stats()


class TestVerify:
    def test_a_payload_that_matches_is_kept(self):
        slot = File().slot()
        slot.get(builds("decoded"))
        slot.verify(lambda payload: None)
        assert slot.held() == (1, "decoded")

    def test_a_payload_that_differs_is_dropped_and_named(self):
        slot = File().slot()
        slot.get(builds("decoded"))
        with pytest.raises(IndexCorruptionError, match="^file 'f': page 3$"):
            slot.verify(lambda payload: "file 'f': page 3")
        assert slot.held() is None
        slot.verify(lambda payload: 1 / 0)  # nothing held: nothing to check

    def test_a_stale_payload_is_not_checked(self):
        file = File()
        slot = file.slot()
        slot.get(builds("old"))
        file.version = 2
        slot.verify(lambda payload: 1 / 0)
        assert slot.held() == (1, "old")

    def test_verify_is_uncounted(self):
        slot = File().slot()
        slot.get(builds("decoded"))
        slot.verify(lambda payload: None)
        assert slot.stats() == {"entries": 1, "hits": 0, "misses": 1}
