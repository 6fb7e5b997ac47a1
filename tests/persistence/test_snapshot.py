"""Tests for database snapshots (save / load)."""

import io
import json
import struct

import pytest

from repro.cli import main
from repro.errors import CorruptPageError, StorageError
from repro.persistence.format import (
    FORMAT_VERSION,
    MAGIC,
    read_header,
    read_pages,
    write_snapshot,
)
from repro.persistence.snapshot import build_catalog, load_database, save_database
from repro.query.executor import QueryExecutor
from repro.query.options import ExecutionOptions
from repro.query.planner import CostContext

from tests.conftest import populate_students

CTX = CostContext(num_objects=120, domain_cardinality=12, target_cardinality=3)


@pytest.fixture
def full_db(student_db):
    student_db.create_ssf_index("Student", "hobbies", 64, 2, seed=3)
    student_db.create_bssf_index("Student", "hobbies", 64, 2, seed=3)
    student_db.create_nested_index("Student", "hobbies")
    populate_students(student_db)
    return student_db


QUERY = 'select Student where hobbies has-subset ("Baseball", "Fishing")'


class TestRoundtrip:
    def test_objects_survive(self, full_db, tmp_path):
        path = tmp_path / "db.sigdb"
        save_database(full_db, path)
        loaded = load_database(path)
        assert loaded.count("Student") == full_db.count("Student")
        original = dict(full_db.scan("Student"))
        for oid, values in loaded.scan("Student"):
            assert values == original[oid]

    def test_queries_survive(self, full_db, tmp_path):
        path = tmp_path / "db.sigdb"
        expected = sorted(
            QueryExecutor(full_db).execute_text(QUERY, ExecutionOptions(context=CTX)).oids()
        )
        save_database(full_db, path)
        loaded = load_database(path)
        for prefer in ("ssf", "bssf", "nix"):
            got = sorted(
                QueryExecutor(loaded)
                .execute_text(QUERY, ExecutionOptions(context=CTX, prefer_facility=prefer))
                .oids()
            )
            assert got == expected

    def test_indexes_rehydrated_structurally_sound(self, full_db, tmp_path):
        path = tmp_path / "db.sigdb"
        save_database(full_db, path)
        loaded = load_database(path)
        loaded.verify_indexes()
        assert set(loaded.indexes_on("Student", "hobbies")) == {
            "ssf", "bssf", "nix",
        }

    def test_mutations_after_load(self, full_db, tmp_path):
        """The loaded database must be fully writable, with fresh OIDs that
        do not collide with snapshotted ones."""
        path = tmp_path / "db.sigdb"
        save_database(full_db, path)
        loaded = load_database(path)
        existing = set(oid for oid, _ in loaded.scan("Student"))
        new_oid = loaded.insert(
            "Student", {"name": "post-load", "hobbies": {"Baseball", "Fishing"}}
        )
        assert new_oid not in existing
        result = QueryExecutor(loaded).execute_text(
            QUERY, ExecutionOptions(context=CTX, prefer_facility="bssf")
        )
        assert new_oid in result.oids()
        victim = next(iter(existing))
        loaded.delete(victim)
        assert not loaded.objects.exists(victim)

    def test_save_load_save_is_stable(self, full_db, tmp_path):
        first = tmp_path / "a.sigdb"
        second = tmp_path / "b.sigdb"
        save_database(full_db, first)
        save_database(load_database(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_database(self, database, tmp_path):
        path = tmp_path / "empty.sigdb"
        save_database(database, path)
        loaded = load_database(path)
        assert loaded.objects.class_names() == ()

    def test_schema_details_preserved(self, tmp_path):
        from repro.objects.database import Database
        from repro.objects.schema import ClassSchema

        db = Database()
        db.define_class(
            ClassSchema.build(
                "Student", name="scalar", courses="set:Course", hobbies="set"
            )
        )
        db.define_class(ClassSchema.build("Course", name="scalar"))
        path = tmp_path / "s.sigdb"
        save_database(db, path)
        loaded = load_database(path)
        attr = loaded.schema("Student").attribute("courses")
        assert attr.is_set and attr.ref_class == "Course"

    def test_pool_capacity_configurable_on_load(self, full_db, tmp_path):
        path = tmp_path / "db.sigdb"
        save_database(full_db, path)
        loaded = load_database(path, pool_capacity=32)
        assert loaded.storage.pool.capacity == 32

    def test_dirty_pages_flushed_by_save(self, tmp_path):
        """Saving a cache-backed database must include unflushed writes."""
        from repro.objects.database import Database
        from repro.objects.schema import ClassSchema

        db = Database(pool_capacity=64)
        db.define_class(ClassSchema.build("T", tags="set"))
        oid = db.insert("T", {"tags": {"x"}})
        path = tmp_path / "c.sigdb"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.get(oid)["tags"] == {"x"}


class TestCatalog:
    def test_catalog_lists_all_files(self, full_db):
        catalog = build_catalog(full_db)
        names = [entry["name"] for entry in catalog["files"]]
        assert "objects:Student" in names
        assert any(name.endswith(":btree") for name in names)
        assert catalog["page_size"] == 4096

    def test_catalog_indexes(self, full_db):
        catalog = build_catalog(full_db)
        kinds = sorted(ix["facility"] for ix in catalog["indexes"])
        assert kinds == ["bssf", "nix", "ssf"]
        ssf = next(ix for ix in catalog["indexes"] if ix["facility"] == "ssf")
        assert ssf["F"] == 64 and ssf["m"] == 2 and ssf["seed"] == 3


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOTADB" + b"\x00" * 32)
        with pytest.raises(StorageError, match="magic|snapshot"):
            load_database(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(StorageError):
            load_database(path)

    def test_truncated_pages(self, full_db, tmp_path):
        path = tmp_path / "db.sigdb"
        save_database(full_db, path)
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(StorageError, match="truncated"):
            load_database(path)

    def test_trailing_garbage(self, full_db, tmp_path):
        path = tmp_path / "db.sigdb"
        save_database(full_db, path)
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(StorageError, match="trailing"):
            load_database(path)

    def test_bad_version(self, full_db, tmp_path):
        path = tmp_path / "db.sigdb"
        save_database(full_db, path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version lives right after the magic
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="version"):
            load_database(path)

    def test_corrupt_catalog_json(self, full_db, tmp_path):
        path = tmp_path / "db.sigdb"
        save_database(full_db, path)
        data = bytearray(path.read_bytes())
        data[14] = 0xFF  # stomp the catalog
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            load_database(path)

    def test_write_snapshot_validates_order(self):
        catalog = {"files": [{"name": "a", "pages": 0}], "page_size": 64}
        with pytest.raises(StorageError, match="order mismatch"):
            write_snapshot(io.BytesIO(), catalog, [("b", [])])

    def test_write_snapshot_validates_page_counts(self):
        catalog = {"files": [{"name": "a", "pages": 2}], "page_size": 64}
        with pytest.raises(StorageError, match="pages"):
            write_snapshot(io.BytesIO(), catalog, [("a", [b"\x00" * 64])])

    def test_header_roundtrip(self):
        stream = io.BytesIO()
        catalog = {"files": [], "page_size": 64}
        write_snapshot(stream, catalog, [])
        stream.seek(0)
        header = read_header(stream)
        assert header.version == FORMAT_VERSION
        assert header.catalog["page_size"] == 64
        assert read_pages(stream, header) == {}


# ----------------------------------------------------------------------
# The v2 container: each page stored up to its last nonzero byte
# ----------------------------------------------------------------------
HEADER = struct.Struct("<8sHI")
KEPT = struct.Struct("<I")


def page_images(db):
    store = db.storage.store
    return {
        name: [
            store.read_page(name, page_no).image()
            for page_no in range(store.num_pages(name))
        ]
        for name in store.file_names()
    }


def page_checksums(db):
    store = db.storage.store
    return {name: store.page_checksums(name) for name in store.file_names()}


def stored_pages(raw):
    """``(file, page_no, offset, kept)`` of every page in a v2 snapshot."""
    _, version, catalog_len = HEADER.unpack_from(raw, 0)
    assert version == 2
    catalog = json.loads(raw[HEADER.size:HEADER.size + catalog_len])
    offset = HEADER.size + catalog_len
    found = []
    for entry in catalog["files"]:
        for page_no in range(entry["pages"]):
            (kept,) = KEPT.unpack_from(raw, offset)
            offset += KEPT.size
            found.append((entry["name"], page_no, offset, kept))
            offset += kept
    assert offset == len(raw)
    return found


def write_v1(path, catalog, images):
    """The version-1 container by hand: every page as its full image."""
    encoded = json.dumps(catalog, separators=(",", ":"), sort_keys=True).encode("utf-8")
    with open(path, "wb") as stream:
        stream.write(HEADER.pack(MAGIC, 1, len(encoded)) + encoded)
        for entry in catalog["files"]:
            for image in images[entry["name"]]:
                stream.write(image)


def bare_container(version, page_section):
    """A one-page, one-file snapshot around a hand-made page section."""
    catalog = json.dumps({
        "page_size": 64, "files": [{"name": "a", "pages": 1}],
        "classes": [], "next_class_id": 1, "allocator": {},
        "directory": [], "indexes": [],
    }).encode("utf-8")
    return HEADER.pack(MAGIC, version, len(catalog)) + catalog + page_section


class TestPageContainer:
    @pytest.fixture
    def mixed_db(self, full_db):
        """``full_db`` plus a file of one all-zero and one full page."""
        store = full_db.storage.store
        store.create_file("raw")
        full = bytes(range(1, 256)) * (store.page_size // 255) + b"\x01" * (
            store.page_size % 255
        )
        store.adopt_pages("raw", [bytes(store.page_size), full])
        return full_db

    def test_round_trip_restores_every_image_and_crc(self, mixed_db, tmp_path):
        path = tmp_path / "db.sigdb"
        save_database(mixed_db, path)
        loaded = load_database(path)
        assert page_images(loaded) == page_images(mixed_db)
        assert page_checksums(loaded) == page_checksums(mixed_db)
        kept = {
            (name, page_no): length
            for name, page_no, _, length in stored_pages(path.read_bytes())
        }
        page_size = mixed_db.storage.store.page_size
        assert kept[("raw", 0)] == 0
        assert kept[("raw", 1)] == page_size
        # the kinds of page a database holds, each stored short of full
        for name in (
            "bssf:Student.hobbies:slice:0003",
            "objects:Student",
            "nix:Student.hobbies:btree",
        ):
            assert 0 < kept[(name, 0)] < page_size, name

    def test_bssf_snapshot_is_smaller_than_its_pages(self, student_db, tmp_path):
        student_db.create_bssf_index("Student", "hobbies", 64, 2, seed=3)
        populate_students(student_db)
        store = student_db.storage.store
        pages = sum(store.num_pages(name) for name in store.file_names())
        path = tmp_path / "db.sigdb"
        save_database(student_db, path)
        assert path.stat().st_size < pages * store.page_size

    @pytest.mark.parametrize(
        "page_section, message",
        [
            (KEPT.pack(65) + b"x" * 65, "more than the page size"),
            (b"\x01\x00", "truncated page data"),
            (KEPT.pack(3) + b"abc" + b"!", "trailing"),
        ],
        ids=["kept-above-page-size", "length-cut-short", "trailing-bytes"],
    )
    def test_malformed_page_section_names_path(
        self, tmp_path, page_section, message
    ):
        path = tmp_path / "bad.sigdb"
        path.write_bytes(bare_container(2, page_section))
        with pytest.raises(StorageError) as info:
            load_database(path)
        assert str(path) in str(info.value)
        assert message in str(info.value)

    def test_flipped_kept_byte_is_a_corrupt_page(self, full_db, tmp_path, capsys):
        path = tmp_path / "db.sigdb"
        save_database(full_db, path)
        raw = bytearray(path.read_bytes())
        name, page_no, offset, kept = next(
            page for page in stored_pages(bytes(raw))
            if page[0] == "bssf:Student.hobbies:slice:0003"
        )
        raw[offset + kept // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptPageError) as info:
            load_database(path)
        assert str(path) in str(info.value) and repr(name) in str(info.value)
        assert main(["fsck", str(path)]) == 1
        out = capsys.readouterr().out
        assert name in out and f"page(s) [{page_no}]" in out


class TestVersionOneCompat:
    def test_v1_snapshot_loads_like_v2(self, full_db, tmp_path):
        v2 = tmp_path / "v2.sigdb"
        v1 = tmp_path / "v1.sigdb"
        save_database(full_db, v2)
        write_v1(v1, build_catalog(full_db), page_images(full_db))
        assert v1.stat().st_size > v2.stat().st_size
        from_v1, from_v2 = load_database(v1), load_database(v2)
        assert page_images(from_v1) == page_images(from_v2)
        assert page_checksums(from_v1) == page_checksums(from_v2)
        for prefer in ("ssf", "bssf", "nix"):
            options = ExecutionOptions(context=CTX, prefer_facility=prefer)
            assert sorted(
                QueryExecutor(from_v1).execute_text(QUERY, options).oids()
            ) == sorted(QueryExecutor(from_v2).execute_text(QUERY, options).oids())
        # saving what a v1 file held writes the current version
        resaved = tmp_path / "resaved.sigdb"
        save_database(from_v1, resaved)
        assert resaved.read_bytes() == v2.read_bytes()

    def test_v1_page_section_is_full_pages(self, tmp_path):
        path = tmp_path / "short.sigdb"
        path.write_bytes(bare_container(1, b"\x00" * 63))
        with pytest.raises(StorageError, match="truncated page data"):
            load_database(path)

    def test_version_three_is_unsupported(self, tmp_path):
        path = tmp_path / "v3.sigdb"
        path.write_bytes(bare_container(3, KEPT.pack(0)))
        with pytest.raises(StorageError, match="unsupported snapshot version 3"):
            load_database(path)
