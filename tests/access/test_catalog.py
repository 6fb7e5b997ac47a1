"""The facility catalog: every kind × layout keeps its kind, layout and
options through every path that re-makes or re-opens a facility.

Those paths are WAL replay (the ``create_index`` record), a snapshot load
(the catalog index entry), a rebuild or vacuum, and ``partition_database``.
The first test pins the two on-disk forms literally: they are what logs
and snapshots written by earlier builds hold, so they must not drift.
"""

from __future__ import annotations

import base64

import pytest

from repro.access import catalog
from repro.errors import AccessFacilityError, ConfigurationError, StorageError
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.persistence.snapshot import build_catalog, load_database, save_database
from repro.recovery import facility_of_file, rebuild_facility
from repro.sharding import partition_database

#: kind × layout -> (creating call, its keywords, the logged params)
CONFIGS = {
    "ssf": (
        "create_ssf_index",
        dict(signature_bits=64, bits_per_element=2, seed=5, lsm=False),
        [64, 2, 5, False, 256, 4],
    ),
    "bssf": (
        "create_bssf_index",
        dict(signature_bits=96, bits_per_element=3, seed=6,
             worst_case_insert=True, lsm=False),
        [96, 3, 6, True, False, 256, 4],
    ),
    "nix": ("create_nested_index", dict(overflow_chains=True), [True]),
    "lsm-ssf": (
        "create_ssf_index",
        dict(signature_bits=64, bits_per_element=2, seed=7, lsm=True,
             flush_threshold=9, fanout=3),
        [64, 2, 7, True, 9, 3],
    ),
    "lsm-bssf": (
        "create_bssf_index",
        dict(signature_bits=64, bits_per_element=2, seed=8, lsm=True,
             flush_threshold=11, fanout=5),
        [64, 2, 8, False, True, 11, 5],
    ),
}

#: the snapshot catalog entry of each, less ``entry_count`` and the LSM blob
ENTRIES = {
    "ssf": {"class": "Student", "attribute": "hobbies", "facility": "ssf",
            "F": 64, "m": 2, "seed": 5, "file_prefix": "ssf:Student.hobbies"},
    "bssf": {"class": "Student", "attribute": "hobbies", "facility": "bssf",
             "F": 96, "m": 3, "seed": 6, "worst_case_insert": True,
             "file_prefix": "bssf:Student.hobbies"},
    "nix": {"class": "Student", "attribute": "hobbies", "facility": "nix",
            "overflow_chains": True, "file_prefix": "nix:Student.hobbies"},
    "lsm-ssf": {"class": "Student", "attribute": "hobbies", "facility": "ssf",
                "F": 64, "m": 2, "seed": 7, "file_prefix": "ssf:Student.hobbies"},
    "lsm-bssf": {"class": "Student", "attribute": "hobbies", "facility": "bssf",
                 "F": 64, "m": 2, "seed": 8, "file_prefix": "bssf:Student.hobbies"},
}

#: the durability modes a facility is made under; "lsm" defaults to LSM
MODES = ("wal", "lsm")


def _populate(db: Database, count: int = 40) -> None:
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    for number in range(count):
        db.insert(
            "Student", {"name": f"s{number}", "hobbies": {number % 7, number % 5 + 10}}
        )


def _build(config: str, mode: str, wal_dir) -> Database:
    method, kwargs, _ = CONFIGS[config]
    db = Database(durability=mode, wal_dir=str(wal_dir))
    _populate(db)
    getattr(db, method)("Student", "hobbies", **kwargs)
    for number in range(40, 50):  # maintenance after the create, too
        db.insert("Student", {"name": f"s{number}", "hobbies": {number % 3}})
    return db


def _facility(db: Database, config: str):
    return db.index("Student", "hobbies", ENTRIES[config]["facility"])


def _signature(facility):
    """What must survive every path: class, layout entry, create params."""
    return (
        type(facility),
        catalog.layout(facility.name, facility.is_lsm),
        facility.create_params(),
    )


@pytest.mark.parametrize("config", list(CONFIGS))
def test_record_and_entry_fields_are_pinned(config, tmp_path):
    db = _build(config, "wal", tmp_path)
    facility = _facility(db, config)
    kind = ENTRIES[config]["facility"]
    logged = [r.fields for r in db.wal.records() if r.type == "create_index"]
    assert logged == [("create_index", kind, "Student", "hobbies", CONFIGS[config][2])]
    assert facility.create_params() == (kind, CONFIGS[config][2])

    [entry] = build_catalog(db)["indexes"]
    expected = dict(ENTRIES[config])
    if kind != "nix":
        expected["entry_count"] = 50
    if config.startswith("lsm"):
        expected["lsm"] = base64.b64encode(facility.state_blob()).decode("ascii")
    assert entry == expected
    db.close()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", list(CONFIGS))
def test_wal_replay_keeps_the_facility(config, mode, tmp_path):
    db = _build(config, mode, tmp_path)
    before = _signature(_facility(db, config))
    entry = build_catalog(db)["indexes"]
    db.close()
    recovered = Database.open(str(tmp_path))
    assert _signature(_facility(recovered, config)) == before
    assert build_catalog(recovered)["indexes"] == entry
    recovered.close()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", list(CONFIGS))
def test_snapshot_load_keeps_the_facility(config, mode, tmp_path):
    db = _build(config, mode, tmp_path / "wal")
    before = _signature(_facility(db, config))
    entry = build_catalog(db)["indexes"]
    save_database(db, tmp_path / "db.sigdb")
    db.close()
    loaded = load_database(tmp_path / "db.sigdb")
    assert _signature(_facility(loaded, config)) == before
    assert build_catalog(loaded)["indexes"] == entry


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", list(CONFIGS))
def test_rebuild_keeps_the_facility(config, mode, tmp_path):
    db = _build(config, mode, tmp_path)
    before = _signature(_facility(db, config))
    rebuilt = rebuild_facility(db, "Student", "hobbies", ENTRIES[config]["facility"])
    assert _signature(rebuilt) == before
    db.close()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", list(CONFIGS))
def test_vacuum_and_its_replay_keep_the_facility(config, mode, tmp_path):
    db = _build(config, mode, tmp_path)
    before = _signature(_facility(db, config))
    vacuumed = db.vacuum_index("Student", "hobbies", ENTRIES[config]["facility"])
    assert _signature(vacuumed) == before
    db.close()
    # Replay redoes the ``rebuild`` record the vacuum logged.
    recovered = Database.open(str(tmp_path))
    assert _signature(_facility(recovered, config)) == before
    recovered.close()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", list(CONFIGS))
def test_partition_keeps_the_facility(config, mode, tmp_path):
    db = _build(config, mode, tmp_path)
    before = _signature(_facility(db, config))
    for shard in partition_database(db, 2):
        assert shard.durability == "none"
        assert _signature(_facility(shard, config)) == before
    db.close()


class TestResolve:
    def test_short_lists_and_nones_take_the_defaults(self):
        assert catalog.resolve("ssf", [64, 2], False) == [64, 2, 0, False, 256, 4]
        assert catalog.resolve("ssf", [64, 2, None, None, None, None], True) == [
            64, 2, 0, True, 256, 4,
        ]
        assert catalog.resolve("nix", [], True) == [False]

    def test_options_a_layout_does_not_read_are_logged_at_default(self):
        assert catalog.resolve("ssf", [64, 2, 1, False, 9, 3], True) == [
            64, 2, 1, False, 256, 4,
        ]
        assert catalog.resolve("bssf", [64, 2, 1, True, True, 9, 3], False) == [
            64, 2, 1, False, True, 9, 3,
        ]

    @pytest.mark.parametrize("kind, params", [
        ("rtree", []),
        ("ssf", [64]),
        ("nix", [True, True]),
        ("ssf", [8, 9]),  # m > F: a bad scheme fails before it is logged
    ])
    def test_rejects(self, kind, params):
        with pytest.raises(ConfigurationError):
            catalog.resolve(kind, params, False)

    @pytest.mark.parametrize("kwargs, error", [
        (dict(signature_bits=8, bits_per_element=9), ConfigurationError),
        (dict(signature_bits=64, bits_per_element=2, lsm=True, flush_threshold=0),
         AccessFacilityError),
        (dict(signature_bits=64, bits_per_element=2, lsm=True, fanout=1),
         AccessFacilityError),
    ])
    def test_bad_options_never_reach_the_log(self, kwargs, error, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        _populate(db, count=1)
        with pytest.raises(error):
            db.create_ssf_index("Student", "hobbies", **kwargs)
        assert [r.type for r in db.wal.records()].count("create_index") == 0
        db.close()
        Database.open(str(tmp_path)).close()  # the log still replays


def test_unknown_snapshot_entry_kind_is_a_storage_error():
    with pytest.raises(StorageError, match="unknown facility kind"):
        catalog.attach(None, {"facility": "rtree", "file_prefix": "rtree:A.b"})


@pytest.mark.parametrize("name, owner", [
    ("ssf:Student.hobbies:signatures", ("Student", "hobbies", "ssf")),
    ("bssf:Student.hobbies:r000003:slice:0001", ("Student", "hobbies", "bssf")),
    ("nix:Student.hobbies:btree", ("Student", "hobbies", "nix")),
    ("Student.hobbies/bssf", ("Student", "hobbies", "bssf")),
    ("objects:Student", None),
    ("rtree:Student.hobbies:pages", None),
    ("Student.hobbies/rtree", None),
    ("database", None),
])
def test_facility_of_file(name, owner):
    assert facility_of_file(name) == owner
