"""The five ledger workloads: generated inputs and the fixtures they drive.

Inputs come from one ``random.Random(seed)``: target sets, query sets and
the churn op stream. The program under test receives only what is
generated here (value dicts, query text, OIDs), never the seed or a
workload name; a fixture is chosen by its topology and durability alone.

Data is the paper's design point at 1/8 scale (Dt=10, V=1664, F=500, m=2,
4 KiB pages, ``pool_capacity=0``). Nothing sleeps to simulate a device.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterator, List, Optional, Tuple

from repro.client import RemoteClient
from repro.objects.database import Database
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.persistence.snapshot import load_database, save_database
from repro.query.executor import QueryExecutor, QueryResult
from repro.query.options import ExecutionOptions
from repro.server.net import TcpQueryServer
from repro.serving import connect
from repro.sharding import HashPartitioner, partition_database

from oracle import HAS_SUBSET, IN_SUBSET, Model
from speed import Speed

CLASS_NAME = "Item"
ATTRIBUTE = "items"
V, DT, F, M, PAGE_SIZE = 1664, 10, 500, 2, 4096
SERVER_WORKERS = 2
SHARDS = 2

WORKLOADS = {
    "local_read": (
        "the paper's own comparison: read-only has-subset/in-subset cells "
        "forced onto SSF, BSSF and NIX in process; wire, server, wal and lsm "
        "do no work and the decode cache always fits"
    ),
    "remote_read": (
        "the serving edge: the same data behind one TcpQueryServer and two "
        "closed-loop RemoteClients; facility work is a minor share, so a "
        "kernel gain should read as no change here"
    ),
    "routed_read": (
        "sharding on top of two wire hops: partition_database(db, 2), two "
        "servers, one closed-loop caller through connect('a;b'); separates "
        "the router's cost from the wire's"
    ),
    "churn_wal": (
        "writes beside reads on in-place SSF+BSSF with a per-record-fsync "
        "WAL; every write invalidates the decode cache, so a read gain that "
        "taxes writes, or the reverse, shows here"
    ),
    "churn_lsm": (
        "the identical op stream on the LSM write path (memtable, runs, "
        "inline compaction, group commit); the other half of the pair an "
        "in-place/LSM collapse must not regress"
    ),
}

Entry = Callable[[str, Optional[ExecutionOptions]], QueryResult]


@dataclass(frozen=True)
class Sizes:
    """Everything that scales with ``--smoke``."""

    objects_read: int
    objects_churn: int
    per_cell: int  # distinct query sets per local_read shape
    mix: Tuple[int, int, int]  # distinct queries per served-read class
    churn_cycles: int  # cycles in each fixed block of a churn workload
    write_cycles: int  # write-only cycles in the one block of a read workload
    warmup_cycles: int  # churn warm-up queries = 2 per cycle
    setups: int


FULL = Sizes(4096, 2048, 16, (32, 32, 16), 96, 64, 8, 3)
SMOKE = Sizes(512, 256, 2, (4, 4, 2), 12, 12, 2, 2)


@dataclass(frozen=True)
class System:
    """What is set up: the only thing a fixture knows about its workload."""

    topology: str  # local | remote | routed
    durability: str  # none | wal | lsm
    facilities: Tuple[str, ...]
    lsm: bool = False  # LSM-structured SSF/BSSF instead of in-place

    @property
    def churns(self) -> bool:
        return self.durability != "none"


SYSTEMS = {
    "local_read": System("local", "none", ("ssf", "bssf", "nix")),
    "remote_read": System("remote", "none", ("ssf", "bssf")),
    "routed_read": System("routed", "none", ("ssf", "bssf")),
    "churn_wal": System("local", "wal", ("ssf", "bssf")),
    "churn_lsm": System("local", "lsm", ("ssf", "bssf"), lsm=True),
}


@dataclass(frozen=True)
class Query:
    text: str
    kind: str  # oracle.HAS_SUBSET | oracle.IN_SUBSET
    elements: FrozenSet[int]
    options: Optional[ExecutionOptions] = None  # forces a facility when set
    shape: str = ""  # "<kind>/<Dq>", the cell without its facility


def draw_set(rng: random.Random, cardinality: int) -> FrozenSet[int]:
    return frozenset(rng.sample(range(V), cardinality))


def make_query(
    kind: str, elements: FrozenSet[int], facility: Optional[str] = None
) -> Query:
    body = ", ".join(str(e) for e in sorted(elements))
    return Query(
        text=f"select {CLASS_NAME} where {ATTRIBUTE} {kind} ({body})",
        kind=kind,
        elements=elements,
        options=(
            ExecutionOptions(prefer_facility=facility)
            if facility is not None
            else None
        ),
        shape=f"{kind}/{len(elements)}",
    )


def local_read_epoch(rng: random.Random, per_cell: int) -> List[Query]:
    """One pass over the 19 cells × ``per_cell`` distinct queries.

    The same query sets are forced onto each facility, so the cells of one
    shape differ only in the facility that answers. NIX gets no in-subset
    above Dq=30: one such query costs tens of milliseconds and would turn
    the workload's throughput into a NIX-only number.
    """
    shapes = [(HAS_SUBSET, dq) for dq in (1, 2, 3, 5)]
    shapes += [(IN_SUBSET, dq) for dq in (30, 100, 300)]
    draws = {
        shape: [draw_set(rng, shape[1]) for _ in range(per_cell)]
        for shape in shapes
    }
    cells = [
        (facility, kind, dq)
        for facility in ("ssf", "bssf", "nix")
        for kind, dq in shapes
        if not (facility == "nix" and kind == IN_SUBSET and dq > 30)
    ]
    return [
        make_query(kind, draws[(kind, dq)][j], facility)
        for j in range(per_cell)
        for facility, kind, dq in cells
    ]


def served_read_epoch(
    rng: random.Random, mix: Tuple[int, int, int]
) -> List[Query]:
    """40 % has-subset Dq=1, 40 % has-subset Dq=3, 20 % in-subset Dq=100.

    Dq=1 answers carry about 25 rows, Dq=3 almost none, and Dq=100 has a
    long request text; the planner chooses the facility.
    """
    heavy = [make_query(HAS_SUBSET, draw_set(rng, 1)) for _ in range(mix[0])]
    empty = [make_query(HAS_SUBSET, draw_set(rng, 3)) for _ in range(mix[1])]
    long_ = [make_query(IN_SUBSET, draw_set(rng, 100)) for _ in range(mix[2])]
    epoch: List[Query] = []
    for j, tail in enumerate(long_):
        epoch += [heavy[2 * j], empty[2 * j], heavy[2 * j + 1], empty[2 * j + 1]]
        epoch.append(tail)
    return epoch


def churn_queries(
    rng: random.Random, anchor: Callable[[], FrozenSet[int]]
) -> Iterator[Query]:
    """The two queries of a churn cycle, each built around a stored set.

    ``has-subset`` of two of its elements, then ``in-subset`` of the set
    plus 20 random elements: each has at least one row for the oracle.
    """
    yield make_query(HAS_SUBSET, frozenset(rng.sample(sorted(anchor()), 2)))
    yield make_query(IN_SUBSET, anchor() | draw_set(rng, 20))


def churn_warmup(rng: random.Random, sets, cycles: int) -> List[Query]:
    """Warm-up queries of the two churn shapes, built around loaded sets."""
    return [
        query
        for _ in range(cycles)
        for query in churn_queries(rng, lambda: sets[rng.randrange(len(sets))])
    ]


class ChurnStream:
    """The seeded 10-op cycle: 6 updates, 1 insert, 1 delete, 2 queries.

    Every draw is made against the model's live state, so the caller
    applies each op to the database and the model before asking for the
    next.
    """

    WRITES_PER_CYCLE = 8

    def __init__(self, rng: random.Random, model: Model):
        self.rng = rng
        self.model = model

    def write(self, position: int) -> Tuple[str, Optional[int], Optional[set]]:
        """``(op, oid, elements)`` for write ``position`` (0–7) of a cycle."""
        if position < 6:
            return "update", self.model.pick(self.rng), set(draw_set(self.rng, DT))
        if position == 6:
            return "insert", None, set(draw_set(self.rng, DT))
        return "delete", self.model.pick(self.rng), None

    def queries(self) -> Iterator[Query]:
        return churn_queries(
            self.rng, lambda: self.model.sets[self.model.pick(self.rng)]
        )


class Fixture:
    """One set-up system: database(s), servers, clients, and how to restart.

    ``entries`` holds one query entry point per closed-loop load thread.
    ``dbs`` are the databases behind them (the two shards when routed);
    writes go to the owner's facade, as the wire protocol has no write
    path.
    """

    def __init__(self, scratch_dir: str):
        self.scratch_dir = scratch_dir
        self.dbs: List[Database] = []
        self.servers: List[TcpQueryServer] = []
        self.clients: list = []
        self.entries: List[Entry] = []
        self.oids: List[int] = []
        self.wal_dir: Optional[str] = None
        self.partitioner: Optional[HashPartitioner] = None
        self.next_serial = 0
        self.warmup_results: List[QueryResult] = []

    # -- writes ---------------------------------------------------------
    def owner(self, oid: OID) -> Database:
        if self.partitioner is None:
            return self.dbs[0]
        return self.dbs[self.partitioner.shard_of(CLASS_NAME, oid)]

    def insert(self, elements: set) -> OID:
        values = {ATTRIBUTE: elements}
        if self.partitioner is None:
            return self.dbs[0].insert(CLASS_NAME, values)
        # A shard would mint a serial another shard already holds.
        class_id = self.dbs[0].objects.class_ids()[CLASS_NAME]
        oid = OID(class_id, self.next_serial)
        self.next_serial += 1
        return self.owner(oid).insert_with_oid(CLASS_NAME, oid, values)

    def update(self, oid: OID, elements: set) -> None:
        self.owner(oid).update(oid, {ATTRIBUTE: elements})

    def delete(self, oid: OID) -> None:
        self.owner(oid).delete(oid)

    def get(self, oid: OID) -> dict:
        return self.owner(oid).get(oid)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        for client in self.clients:
            client.close()
        for server in self.servers:
            server.stop()
        for db in self.dbs:
            db.close()
        self.clients, self.servers, self.entries, self.dbs = [], [], [], []

    def persist(self) -> None:
        """Make the state restartable the way the durability mode does."""
        if self.wal_dir is None:
            for index, db in enumerate(self.dbs):
                save_database(db, self._snapshot_path(index))

    def restart(self) -> None:
        """Close every database and bring it back from what is on disk."""
        count = len(self.dbs)
        self.close()
        if self.wal_dir is not None:
            self.dbs = [Database.open(self.wal_dir, page_size=PAGE_SIZE)]
        else:
            self.dbs = [
                load_database(self._snapshot_path(index))
                for index in range(count)
            ]

    def _snapshot_path(self, index: int) -> str:
        return os.path.join(self.scratch_dir, f"shard{index}.sigdb")

    def disk_bytes(self) -> int:
        """WAL and checkpoint bytes on disk (0 without a WAL directory)."""
        if self.wal_dir is None:
            return 0
        return sum(
            os.path.getsize(os.path.join(self.wal_dir, name))
            for name in os.listdir(self.wal_dir)
        )


def _load(db: Database, sets: List[FrozenSet[int]]) -> List[int]:
    db.define_class(ClassSchema.build(CLASS_NAME, **{ATTRIBUTE: "set"}))
    return [
        db.insert(CLASS_NAME, {ATTRIBUTE: set(elements)}).to_int()
        for elements in sets
    ]


def _index(db: Database, system: System) -> None:
    if "ssf" in system.facilities:
        db.create_ssf_index(CLASS_NAME, ATTRIBUTE, F, M, lsm=system.lsm)
    if "bssf" in system.facilities:
        db.create_bssf_index(CLASS_NAME, ATTRIBUTE, F, M, lsm=system.lsm)
    if "nix" in system.facilities:
        db.create_nested_index(CLASS_NAME, ATTRIBUTE)


def _serve(fixture: Fixture, db: Database) -> TcpQueryServer:
    server = TcpQueryServer(db, max_workers=SERVER_WORKERS).start()
    fixture.servers.append(server)
    return server


def _connect(fixture: Fixture, system: System) -> None:
    """Start the servers and clients of the topology; fills ``entries``."""
    if system.topology == "local":
        fixture.entries = [QueryExecutor(fixture.dbs[0]).execute_text]
    elif system.topology == "remote":
        server = _serve(fixture, fixture.dbs[0])
        for _ in range(2):
            client = RemoteClient.from_url(server.url, pool_size=1)
            fixture.clients.append(client)
            fixture.entries.append(client.execute)
    else:
        urls = [_serve(fixture, shard).url for shard in fixture.dbs]
        router = connect(";".join(urls))
        fixture.clients.append(router)
        fixture.entries = [router.execute]


def build(
    system: System,
    sets: List[FrozenSet[int]],
    warmup: List[Query],
    scratch_dir: str,
    speed: Speed,
) -> Tuple[Fixture, float]:
    """Set one system up and warm it; returns it with the seconds it took.

    Timed, each step at the speed probed around it: load, partitioning,
    index creation (after the objects are in place, which takes the
    bulk-load path on every topology), checkpoint, server and client
    start, and one pass over ``warmup`` whose answers stay on the fixture
    for checking.
    """
    if system.topology not in ("local", "remote", "routed"):
        raise ValueError(f"unknown topology {system.topology!r}")
    os.makedirs(scratch_dir)
    fixture = Fixture(scratch_dir)
    took = 0.0

    def step(call: Callable[[], object]) -> object:
        nonlocal took
        result, seconds = speed.timed(call)
        took += seconds
        return result

    if system.durability == "none":
        db = Database(page_size=PAGE_SIZE, pool_capacity=0, durability="none")
    else:
        fixture.wal_dir = os.path.join(scratch_dir, "wal")
        db = Database(
            page_size=PAGE_SIZE,
            pool_capacity=0,
            durability=system.durability,
            wal_dir=fixture.wal_dir,
        )
    fixture.oids = step(lambda: _load(db, sets))
    fixture.next_serial = len(sets)
    if system.topology == "routed":
        fixture.partitioner = HashPartitioner(SHARDS)
        fixture.dbs = step(
            lambda: partition_database(db, SHARDS, partitioner=fixture.partitioner)
        )
    else:
        fixture.dbs = [db]
    for member in fixture.dbs:
        step(lambda: _index(member, system))
    if fixture.wal_dir is not None:
        step(db.checkpoint)
    step(lambda: _connect(fixture, system))
    lanes = len(fixture.entries)
    first = time.perf_counter()
    answering = 0.0
    for position, query in enumerate(warmup):
        started = time.perf_counter()
        fixture.warmup_results.append(
            fixture.entries[position % lanes](query.text, query.options)
        )
        answering += time.perf_counter() - started
        if position % 4 == 3:
            speed.probe()
    last = time.perf_counter()
    speed.burst()
    took += answering / speed.slowdown(first, last)
    return fixture, took
