"""Page-checksum sidecar behaviour, plus version-group drop bookkeeping."""

from __future__ import annotations

import zlib

import pytest

from repro.errors import CorruptPageError, StorageError
from repro.storage import DiskStore, Page


def make_store() -> DiskStore:
    store = DiskStore(page_size=64)
    store.create_file("f")
    store.allocate_page("f")
    store.allocate_page("f")
    return store


class TestChecksumMaintenance:
    def test_fresh_pages_verify(self):
        store = make_store()
        assert store.verify_page("f", 0)
        assert store.corrupt_pages("f") == []
        store.read_page("f", 0)  # no raise

    def test_write_updates_sidecar(self):
        store = make_store()
        page = Page(64)
        page.write_bytes(0, b"payload")
        store.write_page("f", 0, page)
        assert store.page_checksums("f")[0] == zlib.crc32(page.image())
        assert store.verify_page("f", 0)

    def test_corruption_raises_on_read(self):
        store = make_store()
        store._apply_corruption("f", 1, b"\x01" * 64)
        with pytest.raises(CorruptPageError):
            store.read_page("f", 1)
        assert store.corrupt_pages("f") == [1]
        assert store.checksum_report()["f"] == [1]
        # the clean page still reads fine
        store.read_page("f", 0)

    def test_check_page_verifies_without_reading(self):
        """The transfer-free check refuses a corrupt page as a read would,
        and counts no device read either way."""
        from repro.obs.metrics import REGISTRY

        store = make_store()
        store._apply_corruption("f", 1, b"\x01" * 64)
        reads_before = REGISTRY.counter("storage.disk.page_reads").value
        store.check_page("f", 0)  # clean page: no raise
        with pytest.raises(CorruptPageError):
            store.check_page("f", 1)
        assert REGISTRY.counter("storage.disk.page_reads").value == reads_before

    def test_rewrite_clears_corruption(self):
        """A write re-records the CRC, so the rewritten page reads again."""
        store = make_store()
        store._apply_corruption("f", 1, b"\x01" * 64)
        page = Page(64)
        page.write_bytes(0, b"repaired")
        store.write_page("f", 1, page)
        assert store.corrupt_pages("f") == []
        assert store.read_page("f", 1).image() == page.image()

    def test_corruption_bumps_version(self):
        """Decode caches must re-read (and detect) corrupted content."""
        store = make_store()
        before = store.version("f")
        store._apply_corruption("f", 0, b"\x01" * 64)
        assert store.version("f") > before

    def test_offline_checks_touch_no_metrics(self):
        from repro.obs.metrics import REGISTRY

        store = make_store()
        reads_before = REGISTRY.counter("storage.disk.page_reads").value
        store.verify_page("f", 0)
        store.corrupt_pages("f")
        store.checksum_report()
        store.page_image("f", 0)
        assert REGISTRY.counter("storage.disk.page_reads").value == reads_before

    def test_drop_file_clears_sidecar(self):
        store = make_store()
        store.drop_file("f")
        store.create_file("f")
        assert store.page_checksums("f") == []


class TestAdoptPages:
    def test_adopt_recomputes_when_no_checksums_given(self):
        store = DiskStore(page_size=64)
        store.create_file("g")
        store.adopt_pages("g", [b"\x07" * 64])
        assert store.verify_page("g", 0)

    def test_adopt_with_external_checksums_detects_mismatch(self):
        store = DiskStore(page_size=64)
        store.create_file("g")
        good = b"\x07" * 64
        store.adopt_pages("g", [good, b"\x08" * 64],
                          checksums=[zlib.crc32(good), zlib.crc32(good)])
        assert store.corrupt_pages("g") == [1]

    def test_adopt_validates_lengths(self):
        store = DiskStore(page_size=64)
        store.create_file("g")
        with pytest.raises(StorageError):
            store.adopt_pages("g", [b"short"])
        with pytest.raises(StorageError):
            store.adopt_pages("g", [b"\x00" * 64], checksums=[1, 2])


class TestDropFileGroupBookkeeping:
    """Regression: drop_file must remove version-group membership."""

    def test_recreated_file_does_not_rejoin_old_group(self):
        store = DiskStore(page_size=64)
        store.create_file("a")
        store.create_file("b")
        store.register_version_group("grp", ["a", "b"])
        store.drop_file("a")
        after_drop = store.group_version("grp")
        store.create_file("a")  # same name, new incarnation
        store.allocate_page("a")
        store.bump_version("a")
        # the new 'a' is not a member: its bumps leave the group untouched
        assert store.group_version("grp") == after_drop
        # the surviving member still drives the group
        store.bump_version("b")
        assert store.group_version("grp") == after_drop + 1

    def test_drop_bumps_group_once(self):
        """Caches keyed on the old membership must be invalidated."""
        store = DiskStore(page_size=64)
        store.create_file("a")
        store.register_version_group("grp", ["a"])
        before = store.group_version("grp")
        store.drop_file("a")
        assert store.group_version("grp") == before + 1

    def test_file_versions_survive_drop_recreate(self):
        """(name, version) keys must never alias across incarnations."""
        store = DiskStore(page_size=64)
        store.create_file("a")
        store.allocate_page("a")
        v_old = store.version("a")
        store.drop_file("a")
        store.create_file("a")
        assert store.version("a") > v_old
