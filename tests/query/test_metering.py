"""The query path meters through the thread's I/O journal, never densely.

A bit-sliced store holds one file per signature bit, so anything on the
query path that walks *every* file (a dense ``IOStatistics.snapshot()``)
costs more than the query itself, and shipping a dense delta puts a line
per slice file on the wire. These tests pin that every entry point meters
with :meth:`IOStatistics.metered` alone and that what it reports — and
ships — names touched files only.
"""

from __future__ import annotations

import socket

import pytest

from repro import wire
from repro.client import RemoteClient
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.query.executor import QueryExecutor
from repro.query.options import ExecutionOptions
from repro.server.net import TcpQueryServer
from repro.server.service import QueryService
from repro.storage.stats import IOStatistics
from tests.conftest import HOBBIES, populate_students

SLICES = 500
HIT = 'select Student where hobbies has-subset ("Chess")'
#: nobody has eight hobbies, so the slice AND dies out and no row comes back
MISS = "select Student where hobbies has-subset ({})".format(
    ", ".join(f'"{hobby}"' for hobby in HOBBIES[:8])
)


@pytest.fixture(scope="module")
def bssf_db() -> Database:
    db = Database(page_size=4096, pool_capacity=0)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    populate_students(db)
    # Built after the data, so the bulk load leaves a counter on every slice.
    db.create_bssf_index("Student", "hobbies", SLICES, 2)
    QueryExecutor(db).execute_text(HIT)  # planner statistics, once
    return db


@pytest.fixture
def no_dense_snapshots(monkeypatch):
    def refuse(self):
        raise AssertionError("dense IOStatistics.snapshot() on the query path")

    monkeypatch.setattr(IOStatistics, "snapshot", refuse)


def test_store_really_has_one_file_per_slice(bssf_db):
    assert sum(1 for _ in bssf_db.io_snapshot().files()) > SLICES


class TestNoDenseSnapshotOnTheQueryPath:
    def test_execute_text(self, bssf_db, no_dense_snapshots):
        result = QueryExecutor(bssf_db).execute_text(HIT)
        assert result.rows and result.statistics.page_accesses > 0

    def test_traced_execute(self, bssf_db, no_dense_snapshots):
        result = QueryExecutor(bssf_db).execute_text(
            HIT, ExecutionOptions(trace=True)
        )
        assert result.trace.logical_pages == result.statistics.page_accesses
        assert result.trace.pages_by_file()

    def test_query_service(self, bssf_db, no_dense_snapshots):
        with QueryService(bssf_db, max_workers=2) as service:
            result = service.execute(HIT)
        assert result.rows and result.statistics.page_accesses > 0

    def test_loopback_remote_client(self, bssf_db, no_dense_snapshots):
        with TcpQueryServer(bssf_db, max_workers=2) as server:
            with RemoteClient(*server.address) as client:
                result = client.execute(HIT)
        assert result.rows and result.statistics.page_accesses > 0


class TestSparseResults:
    def test_statistics_io_lists_touched_files_only(self, bssf_db):
        io = QueryExecutor(bssf_db).execute_text(MISS).statistics.io
        assert 0 < len(io.per_file) < 50
        assert all(
            counts.logical_total or counts.physical_total
            for _, counts in io.files()
        )

    def test_empty_result_frame_is_under_one_kib(self, bssf_db):
        result = QueryExecutor(bssf_db).execute_text(MISS)
        assert result.rows == []
        ours, theirs = socket.socketpair()
        with ours, theirs:
            wire.write_frame(ours, wire.RESULT, wire.encode_result(result))
            ours.shutdown(socket.SHUT_WR)
            frame = b"".join(iter(lambda: theirs.recv(65536), b""))
        assert len(frame) < 1024
        shipped = wire.encode_result(result)["statistics"]["io"]
        assert shipped and all(any(counts) for counts in shipped.values())
