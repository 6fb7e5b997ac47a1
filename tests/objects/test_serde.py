"""Tests for the tagged binary serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObjectStoreError
from repro.objects.oid import OID
from repro.objects.serde import (
    decode_object,
    decode_value,
    encode_object,
    encode_value,
)


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -1, 2**62, -(2**62), 0.0, -3.75, "", "héllo",
         b"", b"\x00\xff", OID(5, 42)],
    )
    def test_roundtrip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_int_overflow_rejected(self):
        with pytest.raises(ObjectStoreError):
            encode_value(2**63)

    def test_bool_is_not_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert encode_value(True) != encode_value(1)


class TestContainers:
    @pytest.mark.parametrize(
        "value",
        [
            [],
            [1, "two", 3.0],
            (1, (2, 3)),
            set(),
            {1, 2, 3},
            frozenset({"a", "b"}),
            [{1, 2}, (3,), ["nested"]],
        ],
    )
    def test_roundtrip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_set_encoding_deterministic(self):
        """Equal sets must encode identically regardless of insertion order."""
        a = set()
        for element in ["z", "a", "m"]:
            a.add(element)
        b = set(["m", "z", "a"])
        assert encode_value(a) == encode_value(b)

    def test_mixed_type_set_roundtrips(self):
        value = {1, "one", 2.5}
        assert decode_value(encode_value(value)) == value

    def test_set_of_oids(self):
        value = frozenset({OID(1, 1), OID(1, 2)})
        assert decode_value(encode_value(value)) == value

    def test_unsupported_type_rejected(self):
        with pytest.raises(ObjectStoreError):
            encode_value(object())

    def test_dict_value_rejected(self):
        with pytest.raises(ObjectStoreError):
            encode_value({"k": 1})


class TestErrors:
    def test_trailing_bytes_rejected(self):
        with pytest.raises(ObjectStoreError):
            decode_value(encode_value(1) + b"\x00")

    def test_truncated_value_rejected(self):
        data = encode_value("hello")
        with pytest.raises(ObjectStoreError):
            decode_value(data[:-1])

    def test_empty_input_rejected(self):
        with pytest.raises(ObjectStoreError):
            decode_value(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ObjectStoreError):
            decode_value(b"\xee")


class TestObjects:
    def test_roundtrip(self):
        obj = {
            "name": "Jeff",
            "hobbies": {"Baseball", "Fishing"},
            "courses": frozenset({OID(2, 1), OID(2, 3)}),
            "year": 3,
        }
        assert decode_object(encode_object(obj)) == obj

    def test_empty_object(self):
        assert decode_object(encode_object({})) == {}

    def test_attribute_order_normalized(self):
        a = encode_object({"a": 1, "b": 2})
        b = encode_object({"b": 2, "a": 1})
        assert a == b

    def test_truncated_header_rejected(self):
        with pytest.raises(ObjectStoreError):
            decode_object(b"\x01")

    def test_version_checked(self):
        data = bytearray(encode_object({"a": 1}))
        data[0] = 99
        with pytest.raises(ObjectStoreError):
            decode_object(bytes(data))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ObjectStoreError):
            decode_object(encode_object({"a": 1}) + b"!")

    def test_long_attribute_name_rejected(self):
        with pytest.raises(ObjectStoreError):
            encode_object({"x" * 300: 1})


_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
    st.builds(OID, st.integers(0, 0xFFFF), st.integers(0, 2**48 - 1)),
)
_value = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.frozensets(
            st.one_of(st.text(max_size=8), st.integers(-50, 50)), max_size=5
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=120)
@given(value=_value)
def test_property_value_roundtrip(value):
    assert decode_value(encode_value(value)) == value


@settings(max_examples=60)
@given(
    obj=st.dictionaries(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=10,
        ),
        _value,
        max_size=5,
    )
)
def test_property_object_roundtrip(obj):
    assert decode_object(encode_object(obj)) == obj


def _reference_encode_value(value):
    """``encode_value`` as it stood before set members were encoded once.

    Kept verbatim (members encoded in the sort key and again in the body)
    as the byte-for-byte reference for the single-encoding version.
    """
    import struct

    if value is None:
        return bytes([0x00])
    if value is False:
        return bytes([0x01])
    if value is True:
        return bytes([0x02])
    if isinstance(value, OID):
        return bytes([0x07]) + value.to_bytes()
    if isinstance(value, int):
        return bytes([0x03]) + struct.pack("<q", value)
    if isinstance(value, float):
        return bytes([0x04]) + struct.pack("<d", value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return bytes([0x05]) + struct.pack("<I", len(payload)) + payload
    if isinstance(value, bytes):
        return bytes([0x06]) + struct.pack("<I", len(value)) + value
    tag = {list: 0x08, tuple: 0x09, set: 0x0A, frozenset: 0x0B}[type(value)]
    if isinstance(value, (set, frozenset)):
        items = sorted(
            value,
            key=lambda item: (type(item).__name__, _reference_encode_value(item)),
        )
    else:
        items = list(value)
    body = b"".join(_reference_encode_value(item) for item in items)
    return bytes([tag]) + struct.pack("<I", len(items)) + body


_hashable = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(children, max_size=5),
    ),
    max_leaves=16,
)
_any_value = st.one_of(_hashable, st.lists(_hashable, max_size=4))


@settings(max_examples=300)
@given(value=_any_value)
def test_property_encoding_is_byte_identical_to_the_double_encoding_one(value):
    assert encode_value(value) == _reference_encode_value(value)
