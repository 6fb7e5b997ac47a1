"""Unit tests for immutable signature runs."""

import zlib

import pytest

from repro.access.base import query_words
from repro.errors import ConfigurationError, IndexCorruptionError
from repro.lsm import SignatureRun
from repro.lsm.run import run_prefix
from repro.objects.oid import OID
from repro.objects.serde import encode_value
from repro.storage.paged_file import StorageManager

from tests.lsm.conftest import make_scheme


def _rows(count, offset=0):
    """``(seq, oid)`` keys in seq order and their packed signature rows."""
    keys = [(offset + i, OID(1, i)) for i in range(count)]
    words = make_scheme().set_signature_words_many(
        [{f"e{i}", f"e{i + 1}"} for i in range(count)]
    )
    return keys, words


def _search(run, mode, query, **options):
    words = query_words(run.inner.scheme, mode, query, **options)
    return run.inner.search_words(mode, words)


def _build(kind="ssf", count=6, tombstones=(), level=0, run_id=0):
    storage = StorageManager(page_size=4096, pool_capacity=0)
    run = SignatureRun.build(
        storage, make_scheme(), f"{kind}:T.s", run_id, level, kind,
        *_rows(count), {OID(1, s) for s in tombstones},
    )
    return run, storage


@pytest.mark.parametrize("kind", ["ssf", "bssf"])
def test_build_search_and_contains(kind):
    run, _ = _build(kind)
    run.verify()
    assert run.entry_count == 6
    assert OID(1, 0) in run
    assert OID(1, 99) not in run
    result = _search(run, "superset", frozenset({"e2", "e3"}))
    assert OID(1, 2) in result.candidates
    assert run.seq_of(OID(1, 2)) == 2


def test_tombstones_count_as_membership():
    run, _ = _build(tombstones=[50])
    assert OID(1, 50) in run
    with pytest.raises(KeyError):
        run.seq_of(OID(1, 50))


def test_unknown_kind_and_mode_rejected():
    storage = StorageManager(page_size=4096, pool_capacity=0)
    with pytest.raises(ConfigurationError):
        SignatureRun.build(
            storage, make_scheme(), "x:T.s", 0, 0, "btree", *_rows(1), set()
        )
    run, _ = _build()
    with pytest.raises(ConfigurationError):
        _search(run, "between", frozenset({"e1"}))


@pytest.mark.parametrize("kind", ["ssf", "bssf"])
def test_attach_reopens_identical_run(kind):
    run, storage = _build(kind)
    reopened = SignatureRun.attach(
        storage, make_scheme(), f"{kind}:T.s", run.to_state()
    )
    reopened.verify()
    query = frozenset({"e1", "e2"})
    assert (
        _search(reopened, "overlap", query).candidates
        == _search(run, "overlap", query).candidates
    )


@pytest.mark.parametrize("kind", ["ssf", "bssf"])
def test_drop_files_removes_every_file(kind):
    run, storage = _build(kind)
    prefix = run_prefix(f"{kind}:T.s", 0)
    assert any(
        name.startswith(prefix) for name in storage.store.file_names()
    )
    run.drop_files(storage)
    assert not any(
        name.startswith(prefix) for name in storage.store.file_names()
    )


def test_state_roundtrip():
    run, storage = _build(tombstones=[40, 41])
    state = run.to_state()
    assert state[:5] == [0, 0, "ssf", 6, 2]
    reopened = SignatureRun.attach(storage, make_scheme(), "ssf:T.s", state)
    assert reopened.entries == run.entries
    assert reopened.tombstones == run.tombstones
    assert (reopened.words == run.words).all()
    assert reopened.to_state() == state


def test_descriptor_size_does_not_depend_on_the_entries():
    small, _ = _build(count=3)
    large, _ = _build(count=300)
    assert len(encode_value(small.to_state())) == len(
        encode_value(large.to_state())
    )


def test_entry_table_is_counted_and_dropped_with_the_run():
    run, storage = _build(count=300)
    table = f"{run_prefix('ssf:T.s', 0)}:entries"
    assert table in run.file_names()
    table_pages = storage.open_file(table).num_pages
    assert table_pages >= 2  # header + blob
    assert run.storage_pages() == (
        sum(run.inner.storage_pages().values()) + table_pages
    )


def test_verify_detects_entry_count_mismatch():
    run, _ = _build()
    run.entries[OID(1, 77)] = (99, 6)
    with pytest.raises(IndexCorruptionError):
        run.verify()


def test_attach_rejects_a_table_the_descriptor_does_not_describe():
    run, storage = _build(tombstones=[40])
    scheme = make_scheme()
    run_id, level, layout, entries, tombstones, crc = run.to_state()
    for descriptor in (
        [run_id, level, layout, entries, tombstones, crc ^ 1],
        [run_id, level, layout, entries + 1, tombstones, crc],
        [run_id, level, layout, entries, tombstones - 1, crc],
    ):
        with pytest.raises(IndexCorruptionError):
            SignatureRun.attach(storage, scheme, "ssf:T.s", descriptor)


def test_attach_rejects_a_damaged_entry_table():
    run, storage = _build()
    table = f"{run_prefix('ssf:T.s', 0)}:entries"
    storage.store._apply_corruption(table, 0, b"\xff" * 4096)
    with pytest.raises(IndexCorruptionError, match="damaged"):
        SignatureRun.attach(storage, make_scheme(), "ssf:T.s", run.to_state())


@pytest.mark.parametrize("kind", ["ssf", "bssf"])
def test_attach_gives_back_the_built_rows(kind):
    """A run's rows are its record: what attach reads back from the entry
    table is what build was handed, and what the signature file holds."""
    keys, words = _rows(40)
    run, storage = _build(kind, count=40, tombstones=[90, 91])
    assert run.entries == {oid: (seq, row) for row, (seq, oid) in enumerate(keys)}
    reopened = SignatureRun.attach(
        storage, make_scheme(), f"{kind}:T.s", run.to_state()
    )
    assert reopened.words.dtype == words.dtype
    assert (reopened.words == words).all() and reopened.words.shape == words.shape
    assert reopened.entries == run.entries
    assert (reopened.inner.decode_signatures() == words).all()
    reopened.verify_decodes()


def test_an_old_format_entry_table_attaches_as_damaged():
    """A SIGENT01 table (serde element sets) must never read as an empty run."""
    from repro.lsm.manifest import write_blob

    run, storage = _build(count=0)
    blob = encode_value([[[5, 0, ["a", "b"]]], []])
    table = storage.open_file(f"{run_prefix('ssf:T.s', 0)}:entries")
    write_blob(table, b"SIGENT01", 0, blob)
    descriptor = run.to_state()
    descriptor[3] = 1
    descriptor[5] = zlib.crc32(blob)
    with pytest.raises(IndexCorruptionError, match="damaged"):
        SignatureRun.attach(storage, make_scheme(), "ssf:T.s", descriptor)


def test_sequential_and_bit_sliced_runs_answer_identically():
    """Layout is invisible to drop tests, partial evaluation included."""
    sequential, _ = _build("ssf", count=40)
    sliced, _ = _build("bssf", count=40)
    for query in (frozenset({"e3", "e4"}), frozenset({"e7", "e8", "e20"})):
        for mode, options in (
            ("superset", {}),
            ("superset", {"use_elements": 1}),
            ("subset", {}),
            ("subset", {"slices_to_examine": 0}),
            ("subset", {"slices_to_examine": 3}),
            ("overlap", {}),
        ):
            assert (
                _search(sequential, mode, query, **options).candidates
                == _search(sliced, mode, query, **options).candidates
            )


def test_run_prefix_stays_inside_facility_namespace():
    from repro.recovery import facility_of_file

    prefix = run_prefix("ssf:Student.hobbies", 3)
    assert facility_of_file(f"{prefix}:signatures") == (
        "Student", "hobbies", "ssf"
    )
