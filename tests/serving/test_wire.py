"""Unit tests for the wire protocol: framing, codecs, options serde."""

from __future__ import annotations

import json
import socket
import struct
import threading

import pytest

from repro import wire
from repro.errors import ConnectionLostError, ProtocolError
from repro.objects.oid import OID
from repro.query.options import ExecutionOptions
from tests.conftest import populate_students


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip_every_kind(self, pair):
        a, b = pair
        kinds = [
            wire.HELLO, wire.QUERY, wire.BATCH, wire.PING, wire.GOODBYE,
            wire.OK, wire.RESULT, wire.RESULTS, wire.ERROR, wire.PONG,
            wire.BYE,
        ]
        for kind in kinds:
            wire.write_frame(a, kind, {"kind": kind, "nested": {"x": [1, 2]}})
            got_kind, payload = wire.read_frame(b)
            assert got_kind == kind
            assert payload == {"kind": kind, "nested": {"x": [1, 2]}}

    def test_clean_eof_between_frames_is_none(self, pair):
        a, b = pair
        a.close()
        assert wire.read_frame(b) is None

    def test_close_mid_frame_raises_connection_lost(self, pair):
        a, b = pair
        # A valid header promising 100 bytes, then nothing.
        a.sendall(struct.pack(">2sBBI", b"SF", wire.PROTOCOL_VERSION, wire.PING, 100))
        a.close()
        with pytest.raises(ConnectionLostError):
            wire.read_frame(b)

    def test_partial_header_raises_connection_lost(self, pair):
        a, b = pair
        a.sendall(b"SF\x01")
        a.close()
        with pytest.raises(ConnectionLostError):
            wire.read_frame(b)

    def test_bad_magic_rejected(self, pair):
        a, b = pair
        a.sendall(struct.pack(">2sBBI", b"XX", wire.PROTOCOL_VERSION, wire.PING, 0))
        with pytest.raises(ProtocolError, match="magic"):
            wire.read_frame(b)

    def test_version_skew_rejected(self, pair):
        a, b = pair
        a.sendall(struct.pack(">2sBBI", b"SF", 99, wire.PING, 0))
        with pytest.raises(ProtocolError, match="version"):
            wire.read_frame(b)

    def test_unknown_kind_rejected(self, pair):
        a, b = pair
        a.sendall(struct.pack(">2sBBI", b"SF", wire.PROTOCOL_VERSION, 200, 2) + b"{}")
        with pytest.raises(ProtocolError, match="kind"):
            wire.read_frame(b)

    def test_oversized_declared_length_rejected_before_read(self, pair):
        a, b = pair
        a.sendall(
            struct.pack(
                ">2sBBI", b"SF", wire.PROTOCOL_VERSION, wire.PING, 1 << 30
            )
        )
        with pytest.raises(ProtocolError, match="frame limit"):
            wire.read_frame(b, max_frame_bytes=4096)

    def test_oversized_outgoing_frame_rejected(self, pair):
        a, _b = pair
        with pytest.raises(ProtocolError, match="frame limit"):
            wire.write_frame(
                a, wire.QUERY, {"text": "x" * 10000}, max_frame_bytes=1024
            )

    def test_non_json_payload_rejected(self, pair):
        a, b = pair
        body = b"\xff\xfe\x00garbage"
        a.sendall(
            struct.pack(
                ">2sBBI", b"SF", wire.PROTOCOL_VERSION, wire.PING, len(body)
            )
            + body
        )
        with pytest.raises(ProtocolError, match="JSON"):
            wire.read_frame(b)

    def test_non_object_payload_rejected(self, pair):
        a, b = pair
        body = json.dumps([1, 2, 3]).encode()
        a.sendall(
            struct.pack(
                ">2sBBI", b"SF", wire.PROTOCOL_VERSION, wire.PING, len(body)
            )
            + body
        )
        with pytest.raises(ProtocolError, match="JSON object"):
            wire.read_frame(b)

    def test_unknown_payload_keys_are_preserved_not_fatal(self, pair):
        """Forward compatibility: a newer peer may add fields freely."""
        a, b = pair
        wire.write_frame(a, wire.PING, {"id": 1, "from_the_future": True})
        _kind, payload = wire.read_frame(b)
        assert payload["id"] == 1

    def test_concurrent_writers_do_not_interleave_frames(self, pair):
        """write_frame sends header+body in one sendall per frame."""
        a, b = pair
        n = 50

        def writer(tag):
            for i in range(n):
                wire.write_frame(a, wire.PING, {"tag": tag, "i": i})

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seen = 0
        b.settimeout(5)
        for _ in range(4 * n):
            kind, payload = wire.read_frame(b)
            assert kind == wire.PING
            assert 0 <= payload["i"] < n
            seen += 1
        assert seen == 4 * n


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            0,
            -17,
            3.25,
            "text",
            [1, "two", None],
            {"plain": {"nested": [1, 2]}},
            (1, 2, "three"),
            {"a", "b", "c"},
            frozenset({1, 2}),
            OID(3, 99),
            {"$looks_like_a_tag": 1},
            {"$oid": "fake"},
            {OID(1, 2): "oid-keyed"},
            {"mixed": [{1, 2}, (3, 4), OID(5, 6)]},
        ],
    )
    def test_round_trip(self, value):
        encoded = wire.encode_value(value)
        json.dumps(encoded)  # must be pure JSON
        decoded = wire.decode_value(encoded)
        if isinstance(value, frozenset):
            assert decoded == set(value)
        else:
            assert decoded == value
            assert type(decoded) is type(value) or isinstance(value, bool)

    def test_unserializable_type_rejected(self):
        with pytest.raises(ProtocolError, match="serialize"):
            wire.encode_value(object())


class TestResultCodec:
    def _result(self, student_db):
        from repro.query.executor import QueryExecutor

        student_db.create_bssf_index("Student", "hobbies", 128, 2)
        populate_students(student_db, count=50)
        return QueryExecutor(student_db).execute_text(
            'select Student where hobbies has-subset ("Chess")'
        )

    def test_round_trip_is_bit_identical(self, student_db):
        result = self._result(student_db)
        decoded = wire.decode_result(
            json.loads(json.dumps(wire.encode_result(result)))
        )
        assert decoded.oids() == result.oids()
        assert decoded.rows == result.rows
        assert decoded.statistics.plan == result.statistics.plan
        assert decoded.statistics.candidates == result.statistics.candidates
        assert decoded.statistics.false_drops == result.statistics.false_drops
        assert decoded.statistics.results == result.statistics.results
        assert decoded.statistics.detail == result.statistics.detail
        # The dense per-file I/O delta survives exactly — including files
        # the query never touched (zero rows), so remote statistics
        # compare equal to a local IOSnapshot subtraction.
        assert decoded.statistics.io == result.statistics.io
        assert decoded.trace is None

    def test_decoder_tolerates_missing_and_unknown_fields(self):
        decoded = wire.decode_result({"future_field": 1})
        assert decoded.rows == []
        assert decoded.statistics.io is None
        assert decoded.statistics.plan == ""


class TestOptionsSerde:
    def test_round_trip(self):
        options = ExecutionOptions(
            prefer_facility="bssf", smart=False, deadline_ms=250.0
        )
        assert ExecutionOptions.from_dict(options.to_dict()) == options

    def test_to_dict_carries_only_what_shapes_a_query(self):
        assert set(ExecutionOptions().to_dict()) == {
            "prefer_facility",
            "smart",
            "deadline_ms",
        }

    def test_from_dict_ignores_unknown_fields(self):
        restored = ExecutionOptions.from_dict(
            {"smart": False, "from_the_future": {"x": 1}}
        )
        assert restored.smart is False

    def test_from_dict_ignores_an_older_clients_batch_size(self):
        # Clients from before the batch path was removed still send the key.
        payload = dict(ExecutionOptions(prefer_facility="bssf").to_dict())
        payload["batch_size"] = 16
        restored = ExecutionOptions.from_dict(payload)
        assert restored == ExecutionOptions(prefer_facility="bssf")
        assert "batch_size" not in restored.to_dict()

    def test_from_dict_ignores_an_older_clients_serving_options(self):
        # Clients from before the serving backend left the options send
        # seven keys; the serving ones and ``trace`` change nothing.
        options = ExecutionOptions(prefer_facility="bssf", deadline_ms=50)
        payload = dict(options.to_dict())
        payload.update(
            max_workers=8,
            execution_mode="process",
            remote_url="sigfile://h:1",
            trace=True,
        )
        assert len(payload) == 7
        assert ExecutionOptions.from_dict(payload) == options

    @pytest.mark.parametrize(
        "payload",
        [
            {"deadline_ms": "soon"},
            {"deadline_ms": True},
            {"smart": "false"},
            {"smart": 1},
            {"prefer_facility": 3},
            ["not", "an", "object"],
        ],
    )
    def test_from_dict_rejects_malformed_values(self, payload):
        with pytest.raises(ProtocolError):
            ExecutionOptions.from_dict(payload)

    def test_from_dict_accepts_every_well_typed_value(self):
        for payload in (
            {"prefer_facility": "nix", "smart": False, "deadline_ms": 5},
            {"prefer_facility": None, "smart": True, "deadline_ms": 0.5},
            {"deadline_ms": None},
        ):
            restored = ExecutionOptions.from_dict(payload)
            for key, value in payload.items():
                assert getattr(restored, key) == value

    def test_from_dict_of_none_is_defaults(self):
        restored = ExecutionOptions.from_dict(None)
        assert restored == ExecutionOptions()

    def test_to_dict_is_json_safe_and_excludes_live_objects(self):
        payload = ExecutionOptions(trace=True).to_dict()
        json.dumps(payload)
        assert "tracer" not in payload
        assert "context" not in payload
