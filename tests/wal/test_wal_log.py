"""Unit tests for the WAL file format: framing, scanning, truncation."""

from __future__ import annotations

import os
import struct

import pytest

from repro.errors import WalCorruptError, WalError
from repro.objects.database import Database
from repro.objects.oid import OID
from repro.objects.schema import ClassSchema
from repro.obs.metrics import REGISTRY
from repro.wal.log import (
    WAL_FILE_NAME,
    WriteAheadLog,
    encode_record,
    scan_wal,
    truncate_wal,
)


def wal_path(directory) -> str:
    return os.path.join(directory, WAL_FILE_NAME)


class TestAppendAndScan:
    def test_records_roundtrip_with_monotonic_lsns(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        lsns = [
            wal.append(["insert", "Student", 7, b"\x01\x02"]),
            wal.append(["delete", 9]),
            wal.append(["checkpoint_begin"]),
        ]
        scan = scan_wal(wal.path)
        assert [r.lsn for r in scan.records] == lsns
        assert lsns == sorted(lsns) and lsns[0] == 0
        assert [r.type for r in scan.records] == [
            "insert", "delete", "checkpoint_begin",
        ]
        assert scan.records[0].fields == ("insert", "Student", 7, b"\x01\x02")
        assert scan.records[0].next_lsn == lsns[1]
        assert scan.end_lsn == wal.end_lsn
        assert scan.torn_bytes == 0
        wal.close()

    def test_payloads_keep_rich_types(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        oid = OID(1, 42)
        wal.append(
            ["facility_insert", "Student", "hobbies", "nix",
             oid.to_int(), frozenset({"Chess", "Golf"})]
        )
        (record,) = wal.records()
        assert record.fields[4] == oid.to_int()
        assert frozenset(record.fields[5]) == frozenset({"Chess", "Golf"})
        wal.close()

    def test_reopen_resumes_lsn_sequence(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(["delete", 1])
        end = wal.end_lsn
        wal.close()
        again = WriteAheadLog(str(tmp_path))
        assert (again.base_lsn, again.end_lsn) == (0, end)
        assert again.append(["delete", 2]) == end
        again.close()

    def test_appends_and_fsyncs_metered(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(["delete", 1])
        wal.append(["delete", 2])
        assert REGISTRY.counter("wal.appends").value == 2
        assert REGISTRY.counter("wal.fsyncs").value == 2
        wal.close()

    def test_group_commit_fsyncs_once_per_interval(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.fsync_interval = 2
        for number in range(3):
            wal.append(["delete", number])
        assert REGISTRY.counter("wal.appends").value == 3
        assert REGISTRY.counter("wal.fsyncs").value == 1
        wal.sync()  # the third append's fsync is owed until now
        assert REGISTRY.counter("wal.fsyncs").value == 2
        wal.close()


class TestTailHandling:
    def _write_then_tear(self, directory, keep_fraction: float) -> int:
        """Append two records, then chop the final frame; returns lsn 2."""
        wal = WriteAheadLog(str(directory))
        wal.append(["delete", 1])
        second = wal.append(["insert", "Student", 5, b"\x00" * 40])
        wal.close()
        path = wal_path(directory)
        size = os.path.getsize(path)
        frame_len = size - (struct.calcsize("<8sQ") + (second - 0))
        cut = size - frame_len + max(1, int(frame_len * keep_fraction))
        with open(path, "r+b") as stream:
            stream.truncate(cut)
        return second

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        second = self._write_then_tear(tmp_path, keep_fraction=0.5)
        wal = WriteAheadLog(str(tmp_path))
        assert wal.end_lsn == second  # the half-written record is gone
        assert [r.type for r in wal.records()] == ["delete"]
        assert REGISTRY.counter("wal.torn_tails_truncated").value == 1
        wal.close()

    def test_corrupt_final_record_of_full_length_is_torn(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(["delete", 1])
        second = wal.append(["delete", 2])
        wal.close()
        path = wal_path(tmp_path)
        with open(path, "r+b") as stream:
            stream.seek(-1, os.SEEK_END)
            last = stream.read(1)
            stream.seek(-1, os.SEEK_END)
            stream.write(bytes([last[0] ^ 0xFF]))
        scan = scan_wal(path)
        assert [r.lsn for r in scan.records] == [0]
        assert scan.end_lsn == second
        assert scan.torn_bytes > 0

    def test_interior_corruption_raises_naming_the_lsn(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(["delete", 1])
        second = wal.append(["delete", 2])
        wal.append(["delete", 3])
        wal.close()
        path = wal_path(tmp_path)
        header = struct.calcsize("<8sQ")
        frame = struct.calcsize("<II")
        with open(path, "r+b") as stream:
            stream.seek(header + second + frame)  # first payload byte of #2
            byte = stream.read(1)
            stream.seek(header + second + frame)
            stream.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptError) as err:
            scan_wal(path)
        assert err.value.lsn == second
        # opening the log hits the same wall — the log must not be trusted
        with pytest.raises(WalCorruptError):
            WriteAheadLog(str(tmp_path))

    def test_bad_magic_raises_wal_error(self, tmp_path):
        path = wal_path(tmp_path)
        with open(path, "wb") as stream:
            stream.write(b"NOTAWAL0" + b"\x00" * 8)
        with pytest.raises(WalError):
            scan_wal(path)


class TestTruncation:
    def test_truncate_until_drops_prefix_and_keeps_lsns(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(["delete", 1])
        second = wal.append(["delete", 2])
        end = wal.end_lsn
        wal.truncate_until(second)
        assert (wal.base_lsn, wal.end_lsn) == (second, end)
        (survivor,) = wal.records()
        assert (survivor.lsn, survivor.fields) == (second, ("delete", 2))
        # appends continue the same sequence
        assert wal.append(["delete", 3]) == end
        wal.close()

    def test_truncate_until_rejects_non_boundary(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(["delete", 1])
        with pytest.raises(WalError):
            wal.truncate_until(3)
        with pytest.raises(WalError):
            wal.truncate_until(wal.end_lsn + 10)
        wal.close()

    def test_truncate_from_drops_the_tail(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(["delete", 1])
        second = wal.append(["delete", 2])
        wal.append(["delete", 3])
        assert wal.truncate_from(second) == 2
        assert wal.end_lsn == second
        assert [r.fields for r in wal.records()] == [("delete", 1)]
        wal.append(["delete", 9])  # stream still usable after truncation
        assert [r.fields[1] for r in wal.records()] == [1, 9]
        wal.close()

    def test_offline_truncate_repairs_interior_corruption(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(["delete", 1])
        second = wal.append(["delete", 2])
        wal.append(["delete", 3])
        wal.close()
        path = wal_path(tmp_path)
        header = struct.calcsize("<8sQ")
        frame = struct.calcsize("<II")
        with open(path, "r+b") as stream:
            stream.seek(header + second + frame)
            byte = stream.read(1)
            stream.seek(header + second + frame)
            stream.write(bytes([byte[0] ^ 0xFF]))
        dropped, end = truncate_wal(path, second)
        assert dropped == 2 and end == second
        scan = scan_wal(path)  # readable again
        assert [r.fields for r in scan.records] == [("delete", 1)]

    def test_offline_truncate_rejects_non_boundary(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(["delete", 1])
        wal.close()
        with pytest.raises(WalError):
            truncate_wal(wal_path(tmp_path), 1)


class TestGating:
    def test_suspended_blocks_all_records(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert wal.accepts_logical_records
        with wal.suspended():
            assert not wal.accepts_logical_records
        assert wal.accepts_logical_records
        wal.close()

    def test_logical_op_suppresses_nested_records(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        with wal.logical_op():
            assert not wal.accepts_logical_records  # no nested logical records
        assert wal.accepts_logical_records
        wal.close()

    def test_a_vacuum_logs_one_rebuild_record_and_no_create_index(self, tmp_path):
        # the rebuild's inner create_index runs inside its logical op
        db = Database(wal_dir=str(tmp_path))
        db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
        db.insert("Student", {"name": "a", "hobbies": {"h01"}})
        db.create_bssf_index("Student", "hobbies", 32, 2)
        before = len(db.wal.records())
        db.vacuum_index("Student", "hobbies", "bssf")
        assert [r.type for r in db.wal.records()[before:]] == ["rebuild"]
        db.close()

    def test_encode_record_is_deterministic(self):
        fields = ["insert", "Student", 3, b"\x00\x01"]
        assert encode_record(fields) == encode_record(list(fields))
