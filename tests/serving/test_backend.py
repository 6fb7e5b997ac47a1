"""QueryBackend conformance: one contract, four implementations.

The same behavioural suite runs against ``QueryService`` (one worker
and a pool), ``RemoteClient`` over a loopback ``TcpQueryServer``,
``ShardRouter`` over each of those kinds of shard and over a mix of
them, and ``FailoverClient`` over a replicated primary — all built
through the blessed factories — so the unified serving surface cannot
drift apart per backend. Scatter-gather must be answer-for-answer indistinguishable
from unsharded serving.
"""

from __future__ import annotations

import contextlib
import warnings
from concurrent.futures import Future

import pytest

from repro.client import RemoteClient
from repro.errors import AdmissionError, ConfigurationError, ParseError
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.query.executor import QueryExecutor
from repro.server.net import TcpQueryServer
from repro.server.service import QueryService
from repro.serving import QueryBackend, connect, make_service
from repro.sharding import ShardRouter, partition_database
from tests.conftest import populate_students

QUERIES = [
    'select Student where hobbies has-subset ("Chess")',
    'select Student where hobbies has-subset ("Fishing")',
    'select Student where hobbies overlaps ("Golf", "Tennis")',
]


def _build_db(*, lsm: bool = False, wal_dir=None) -> Database:
    kwargs = dict(page_size=4096, pool_capacity=0)
    if wal_dir is not None:
        kwargs["wal_dir"] = str(wal_dir)
        kwargs["durability"] = "lsm" if lsm else "wal"
    db = Database(**kwargs)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    if lsm:
        # small threshold so the 60-object load crosses several flushes —
        # served answers must be identical to the in-place golden anyway
        db.create_bssf_index(
            "Student", "hobbies", 128, 2, lsm=True,
            flush_threshold=16, fanout=2,
        )
    else:
        db.create_bssf_index("Student", "hobbies", 128, 2)
    populate_students(db, count=60)
    return db


@pytest.fixture(scope="module")
def golden():
    """Sequential reference answers for the shared query mix."""
    executor = QueryExecutor(_build_db())
    return {text: executor.execute_text(text).oids() for text in QUERIES}


#: ``make_service`` arguments per backend id: "serial" is one worker
_MODES = {
    "serial": dict(max_workers=1),
    "thread": dict(max_workers=2),
}

_SHARDS = 3


@pytest.fixture(
    params=[
        "serial",
        "thread",
        "remote",
        "router-serial",
        "router-thread",
        "router-remote",
        "router-mixed",
        "lsm-serial",
        "lsm-thread",
        "lsm-remote",
        "lsm-router-serial",
        "lsm-router-thread",
        "lsm-replicated",
    ]
)
def backend(request, tmp_path):
    """A thread-pool service (one worker and two), a remote client, and a
    ShardRouter over each of those kinds of shard. ``router-mixed`` hands
    ``make_service`` a prebuilt service, a remote client and a bare shard
    database as its three members: backends are used as they are and the
    database is served by a service the factory builds.

    The ``lsm-*`` members run the identical conformance suite against
    databases whose index is an LSM facility (local service, TCP server,
    scatter-gather router over LSM shards, and a failover client over a
    replicated LSM primary) — the serving layer must be unable to tell
    the two write paths apart.
    """
    if request.param == "lsm-replicated":
        from repro.replication import ReplicaDatabase

        db = _build_db(lsm=True, wal_dir=tmp_path / "primary")
        with contextlib.ExitStack() as stack:
            server = stack.enter_context(
                TcpQueryServer(db, max_workers=2, heartbeat_seconds=0.1)
            )
            replica = ReplicaDatabase(
                server.url, str(tmp_path / "replica"),
                stall_timeout_seconds=3.0,
            )
            stack.callback(replica.close)
            replica.wait_for_lsn(db.wal.end_lsn, timeout=10)
            replica_server = stack.enter_context(
                TcpQueryServer(
                    service=QueryService(replica.database, max_workers=2),
                    heartbeat_seconds=0.1,
                )
            )
            with connect([server.url, replica_server.url]) as client:
                yield client
        db.close()
        return
    if request.param == "router-mixed":
        shards = partition_database(_build_db(), _SHARDS)
        with TcpQueryServer(shards[1], max_workers=2) as server:
            members = [
                QueryService(shards[0], max_workers=2),
                connect(server.url),
                shards[2],
            ]
            with make_service(members, max_workers=2) as router:
                yield router
        return
    lsm = request.param.startswith("lsm-")
    mode = request.param.split("-", 1)[1] if lsm else request.param
    db = _build_db(lsm=lsm)
    if mode == "remote":
        with TcpQueryServer(db, max_workers=2) as server:
            with make_service(server.url) as built:
                yield built
        return
    if mode.startswith("router-"):
        kind = mode.split("-", 1)[1]
        shards = partition_database(db, _SHARDS)
        if kind == "remote":
            with contextlib.ExitStack() as stack:
                servers = [
                    stack.enter_context(TcpQueryServer(s, max_workers=2))
                    for s in shards
                ]
                spec = ";".join(server.url for server in servers)
                with connect(spec) as router:
                    yield router
            return
        with make_service(shards, **_MODES[kind]) as router:
            yield router
        return
    with make_service(db, **_MODES[mode]) as built:
        yield built


def test_lsm_build_is_not_vacuous():
    """Guard: the lsm-* members must serve a multi-run facility."""
    db = _build_db(lsm=True)
    facility = db.index("Student", "hobbies", "bssf")
    assert getattr(facility, "is_lsm", False)
    assert facility.run_count >= 2


class TestConformance:
    def test_satisfies_the_protocol(self, backend):
        assert isinstance(backend, QueryBackend)

    def test_execute(self, backend, golden):
        for text in QUERIES:
            assert backend.execute(text).oids() == golden[text]

    def test_execute_many_preserves_order(self, backend, golden):
        results = backend.execute_many(QUERIES * 2)
        assert len(results) == len(QUERIES) * 2
        for text, result in zip(QUERIES * 2, results):
            assert result.oids() == golden[text]

    def test_execute_many_empty_batch(self, backend):
        assert backend.execute_many([]) == []

    def test_submit_returns_a_future(self, backend, golden):
        future = backend.submit(QUERIES[0])
        assert isinstance(future, Future)
        assert future.result(timeout=30).oids() == golden[QUERIES[0]]

    def test_query_errors_surface_as_the_same_class(self, backend):
        with pytest.raises(ParseError):
            backend.execute("selectt nonsense")

    def test_close_is_idempotent(self, backend):
        backend.close()
        backend.close()


class TestFactories:
    def test_database_defaults_to_thread_service(self):
        with make_service(_build_db()) as service:
            assert isinstance(service, QueryService)
            assert service.max_workers == 4

    def test_one_worker_is_serial_serving(self):
        with make_service(_build_db(), max_workers=1) as service:
            assert isinstance(service, QueryService)
            assert service.max_workers == 1

    def test_mode_is_not_an_option(self):
        with pytest.raises(TypeError, match="mode"):
            make_service(_build_db(), mode="thread")

    def test_url_max_workers_is_the_client_pool_size(self):
        client = make_service("sigfile://127.0.0.1:7731", max_workers=3)
        assert isinstance(client, RemoteClient)
        assert client.pool_size == 3
        client.close()

    def test_url_returns_remote_client(self):
        client = make_service("sigfile://127.0.0.1:7731")
        assert isinstance(client, RemoteClient)
        assert client.url == "sigfile://127.0.0.1:7731"
        client.close()

    def test_connect_parses_url_forms(self):
        for url in ("sigfile://h:9", "tcp://h:9", "h:9"):
            client = connect(url)
            assert (client.host, client.port) == ("h", 9)
            client.close()
        bare = connect("somehost")
        assert (bare.host, bare.port) == ("somehost", 7731)
        bare.close()

    def test_connect_rejects_bad_scheme(self):
        with pytest.raises(ConfigurationError, match="scheme"):
            connect("http://h:9")


class TestShardedEquivalence:
    """Router answers and accounting must match unsharded serving."""

    def test_factory_builds_router_from_shard_list(self):
        shards = partition_database(_build_db(), _SHARDS)
        with make_service(shards, max_workers=1) as router:
            assert isinstance(router, ShardRouter)
            assert router.shard_count == _SHARDS

    def test_max_workers_applies_per_shard(self):
        shards = partition_database(_build_db(), _SHARDS)
        with make_service(shards, max_workers=3) as router:
            members = [state.backend for state in router._shards]
        assert all(isinstance(m, QueryService) for m in members)
        assert [m.max_workers for m in members] == [3] * _SHARDS

    def test_router_closes_the_backend_members_it_was_given(self):
        shards = partition_database(_build_db(), 2)
        given = QueryService(shards[0], max_workers=1)
        with make_service([given, shards[1]], max_workers=1) as router:
            assert router._shards[0].backend is given
            assert given.execute(QUERIES[0]).oids()
        with pytest.raises(AdmissionError):
            given.submit(QUERIES[0])

    def test_connect_semicolon_spec_builds_router(self):
        db = _build_db()
        shards = partition_database(db, 2)
        with contextlib.ExitStack() as stack:
            servers = [
                stack.enter_context(TcpQueryServer(s, max_workers=2))
                for s in shards
            ]
            spec = ";".join(server.url for server in servers)
            with connect(spec) as router:
                assert isinstance(router, ShardRouter)
                assert router.shard_count == 2

    def test_rows_and_io_accounting_match_unsharded(self):
        db = _build_db()
        executor = QueryExecutor(db)
        golden = {text: executor.execute_text(text) for text in QUERIES}
        shards = partition_database(db, _SHARDS)
        with make_service(shards, max_workers=1) as router:
            for text in QUERIES:
                merged = router.execute(text)
                reference = golden[text]
                assert merged.rows == reference.rows
                assert not merged.partial
                stats, ref = merged.statistics, reference.statistics
                assert stats.results == ref.results
                assert stats.candidates == ref.candidates
                assert stats.false_drops == ref.false_drops
                # Candidate fetches decompose exactly — one logical page
                # read per candidate, charged to the owner shard — so the
                # object file's merged counts are bit-identical. (Index
                # page counts are NOT asserted: each shard packs its own
                # slices, so their page counts legitimately differ.)
                assert stats.io.for_file("objects:Student") == ref.io.for_file(
                    "objects:Student"
                )


class TestLegacyShims:
    def test_explicit_arguments_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with make_service(_build_db(), max_workers=2) as service:
                assert service.max_workers == 2
