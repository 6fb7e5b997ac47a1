"""Unit tests for the dual-slot run manifest."""

import pytest

from repro.errors import StorageError
from repro.lsm import RunManifest
from repro.lsm.manifest import SLOT_SUFFIXES, manifest_slot_name
from repro.storage.paged_file import StorageManager


def make_manifest():
    storage = StorageManager(page_size=512, pool_capacity=0)
    return RunManifest(storage, "ssf:T.s"), storage


STATES = [[0, 0, "ssf", 1, 0, 0x1234ABCD]]


def test_empty_facility_loads_as_empty_run_set():
    manifest, _ = make_manifest()
    assert manifest.load() == ([], False)
    assert manifest.version == 0


def test_install_load_roundtrip():
    manifest, _ = make_manifest()
    version = manifest.install(STATES)
    assert version == 1
    states, rolled_back = manifest.load()
    assert states == STATES
    assert not rolled_back


def test_installs_alternate_slots_and_versions_advance():
    manifest, storage = make_manifest()
    manifest.install([])
    manifest.install(STATES)
    names = set(storage.store.file_names())
    for suffix in SLOT_SUFFIXES:
        assert manifest_slot_name("ssf:T.s", suffix) in names
    states, _ = manifest.load()
    assert states == STATES  # highest version wins
    assert manifest.version == 2


def test_large_payload_spans_pages():
    manifest, _ = make_manifest()  # 512-byte pages force multi-page blobs
    big = [[i, 0, "bssf", 100 + i, i, 7 * i] for i in range(40)]
    manifest.install(big)
    states, rolled_back = manifest.load()
    assert states == big
    assert not rolled_back


def test_torn_install_rolls_back_to_previous_version():
    manifest, storage = make_manifest()
    manifest.install([])          # version 1 -> slot b
    manifest.install(STATES)      # version 2 -> slot a
    # tear the newest slot's header page, as a crash mid-install would
    torn = manifest_slot_name("ssf:T.s", SLOT_SUFFIXES[manifest.version % 2])
    storage.store._apply_corruption(torn, 0, b"\xff" * 512)

    reader = RunManifest(storage, "ssf:T.s")
    states, rolled_back = reader.load()
    assert rolled_back
    assert states == []           # the previous (version-1) run set
    assert reader.version == 1


def test_both_slots_damaged_raises():
    manifest, storage = make_manifest()
    manifest.install([])
    manifest.install(STATES)
    for suffix in SLOT_SUFFIXES:
        storage.store._apply_corruption(
            manifest_slot_name("ssf:T.s", suffix), 0, b"\x00" * 512
        )
    with pytest.raises(StorageError, match="damaged"):
        RunManifest(storage, "ssf:T.s").load()


def test_single_slot_damage_with_no_fallback_raises():
    manifest, storage = make_manifest()
    manifest.install(STATES)  # version 1 lives in slot b; slot a never written
    storage.store._apply_corruption(
        manifest_slot_name("ssf:T.s", SLOT_SUFFIXES[1]), 0, b"\xee" * 512
    )
    with pytest.raises(StorageError):
        RunManifest(storage, "ssf:T.s").load()


def test_old_format_slot_fails_loudly_instead_of_loading_empty():
    """A SIGMAN01 slot (entry rows inline) must never read as "no runs"."""
    from repro.lsm.manifest import write_blob
    from repro.objects.serde import encode_value

    manifest, storage = make_manifest()
    blob = encode_value([1, [[0, 0, [[5, 0, ["a", "b"]]], []]]])
    slot = storage.create_file(manifest_slot_name("ssf:T.s", "b"))
    write_blob(slot, b"SIGMAN01", 1, blob)
    with pytest.raises(StorageError, match="damaged"):
        manifest.load()


def test_install_bytes_are_counted():
    from repro.obs.metrics import REGISTRY

    from repro.objects.serde import encode_value

    counter = REGISTRY.counter("lsm.manifest_install_bytes")
    before = counter.value
    manifest, _ = make_manifest()
    manifest.install(STATES)
    assert counter.value - before == len(encode_value([1, STATES]))
