"""Tests for the version-keyed decode cache."""

from repro.storage.decode_cache import DecodeCache


class TestHitMiss:
    def test_empty_cache_misses(self):
        cache = DecodeCache(max_entries=4)
        assert cache.get("f", 1) is None
        assert cache.stats()["misses"] == 1

    def test_put_then_get_same_version_hits(self):
        cache = DecodeCache(max_entries=4)
        cache.put("f", 1, "decoded")
        assert cache.get("f", 1) == "decoded"
        assert cache.stats()["hits"] == 1

    def test_version_mismatch_misses_and_evicts_stale(self):
        cache = DecodeCache(max_entries=4)
        cache.put("f", 1, "old")
        assert cache.get("f", 2) is None
        # The stale entry must be gone: the old version can never come back.
        assert cache.get("f", 1) is None
        assert cache.stats()["entries"] == 0

    def test_put_overwrites_previous_version(self):
        cache = DecodeCache(max_entries=4)
        cache.put("f", 1, "old")
        cache.put("f", 2, "new")
        assert cache.get("f", 2) == "new"
        assert cache.get("f", 1) is None


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        cache = DecodeCache(max_entries=2)
        cache.put("a", 1, "A")
        cache.put("b", 1, "B")
        assert cache.get("a", 1) == "A"  # refresh a
        cache.put("c", 1, "C")  # evicts b
        assert cache.get("b", 1) is None
        assert cache.get("a", 1) == "A"
        assert cache.get("c", 1) == "C"

    def test_invalidate_and_clear(self):
        cache = DecodeCache(max_entries=4)
        cache.put("a", 1, "A")
        cache.put("b", 1, "B")
        cache.invalidate("a")
        assert cache.get("a", 1) is None
        cache.clear()
        assert cache.get("b", 1) is None
        assert cache.stats()["entries"] == 0


class TestPatch:
    def test_carries_the_payload_to_the_new_version_uncounted(self):
        cache = DecodeCache(max_entries=4)
        cache.put("f", 1, ["a"])
        cache.patch("f", 1, 2, lambda payload: payload + ["b"])
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0
        assert cache.get("f", 2) == ["a", "b"]
        assert cache.get("f", 1) is None

    def test_drops_a_payload_held_at_another_version(self):
        cache = DecodeCache(max_entries=4)
        cache.put("f", 1, "old")
        applied = []
        cache.patch("f", 2, 3, applied.append)
        assert applied == [] and cache.stats()["entries"] == 0

    def test_drops_a_payload_the_patch_gives_up_on(self):
        cache = DecodeCache(max_entries=4)
        cache.put("f", 1, "old")
        cache.patch("f", 1, 2, lambda payload: None)
        assert cache.get("f", 2) is None and cache.get("f", 1) is None

    def test_nothing_cached_is_a_no_op(self):
        cache = DecodeCache(max_entries=4)
        cache.patch("f", 1, 2, lambda payload: 1 / 0)
        assert cache.stats() == DecodeCache(max_entries=4).stats()
