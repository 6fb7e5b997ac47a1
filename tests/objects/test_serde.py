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


def _reference_decode_value(data, offset=0):
    """``_decode_value`` one member at a time, as it stood before a
    container of tagged ints was unpacked in one call."""
    import struct

    def span(length):
        if offset + length > len(data):
            raise ObjectStoreError("truncated value payload")

    if offset >= len(data):
        raise ObjectStoreError("truncated value: missing tag byte")
    tag = data[offset]
    offset += 1
    if tag in (0x00, 0x01, 0x02):
        return (None, False, True)[tag], offset
    if tag == 0x07:
        span(8)
        return OID.from_bytes(data[offset : offset + 8]), offset + 8
    if tag in (0x03, 0x04):
        span(8)
        code = "<q" if tag == 0x03 else "<d"
        return struct.unpack_from(code, data, offset)[0], offset + 8
    if tag in (0x05, 0x06):
        span(4)
        length = struct.unpack_from("<I", data, offset)[0]
        offset += 4
        span(length)
        payload = bytes(data[offset : offset + length])
        return (payload.decode("utf-8") if tag == 0x05 else payload), offset + length
    if tag in (0x08, 0x09, 0x0A, 0x0B):
        span(4)
        count = struct.unpack_from("<I", data, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _reference_decode_value(data, offset)
            items.append(item)
        return {0x08: list, 0x09: tuple, 0x0A: set, 0x0B: frozenset}[tag](items), offset
    raise ObjectStoreError(f"unknown serialization tag: 0x{tag:02x}")


def _outcome(decode, data):
    """What ``decode`` makes of ``data``: its value with every container's
    type, or the message of the library error it raised."""

    def typed(value):
        name = type(value).__name__
        if isinstance(value, (set, frozenset)):
            return (name, sorted((typed(item) for item in value), key=repr))
        if isinstance(value, (list, tuple)):
            return (name, [typed(item) for item in value])
        return (name, repr(value))  # repr: a damaged float may be a NaN

    try:
        value, end = decode(data, 0)
    except ObjectStoreError as exc:
        return ("error", str(exc))
    return (typed(value), end)


_int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_int_containers = st.one_of(
    st.lists(_int64, max_size=40),
    st.lists(_int64, max_size=40).map(tuple),
    st.sets(_int64, max_size=40),
    st.frozensets(_int64, max_size=40),
    # not all ints: one odd member anywhere keeps the container on the loop
    st.sets(st.one_of(_int64, st.booleans(), st.text(max_size=3)), max_size=12),
    st.lists(st.one_of(_int64, st.booleans(), st.none()), max_size=12),
    st.lists(st.frozensets(_int64, max_size=5), max_size=4),
)


class TestIntContainerFastPath:
    """A container of tagged ints is unpacked in one call; everything about
    the answer — value, container type, bytes consumed, error — is the
    member-at-a-time loop's."""

    @settings(max_examples=300)
    @given(value=_int_containers)
    def test_decodes_what_the_loop_decodes(self, value):
        from repro.objects.serde import _decode_value

        data = encode_value(value)
        assert _outcome(_decode_value, data) == _outcome(
            _reference_decode_value, data
        )
        decoded = decode_value(data)
        assert decoded == value and type(decoded) is type(value)
        assert decode_value(bytearray(data)) == value  # a page slice decodes too

    @settings(max_examples=300)
    @given(
        value=_int_containers,
        cut=st.integers(0, 400),
        damage=st.lists(
            st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=3
        ),
    )
    def test_truncated_or_damaged_payloads_fail_the_same_way(
        self, value, cut, damage
    ):
        from repro.objects.serde import _decode_value

        data = bytearray(encode_value(value))
        for position, byte in damage:
            if position < len(data):
                data[position] = byte
        # A damaged count can claim 2**32 members: the loop notices at the
        # first missing byte, and so must the fast path (never by trying
        # to unpack what is not there).
        data = bytes(data[: max(1, len(data) - cut % (len(data) + 1))])
        try:
            expected = _outcome(_reference_decode_value, data)
        except (UnicodeDecodeError, RecursionError):
            return  # damage outside this test's subject
        assert _outcome(_decode_value, data) == expected

    def test_bools_are_not_ints(self):
        value = [True, False, 1, 0]
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert [type(item) for item in decoded] == [bool, bool, int, int]

    def test_empty_set(self):
        assert decode_value(encode_value(set())) == set()
        assert decode_value(encode_value(frozenset())) == frozenset()

    def test_count_larger_than_the_payload(self):
        import struct

        data = bytearray(encode_value({1, 2, 3}))
        struct.pack_into("<I", data, 1, 4096)  # more members than a page holds
        with pytest.raises(ObjectStoreError, match="missing tag byte"):
            decode_value(bytes(data))
        struct.pack_into("<I", data, 1, 2)  # fewer: the third is left over
        with pytest.raises(ObjectStoreError, match="trailing bytes"):
            decode_value(bytes(data))

    def test_object_holding_an_int_set(self):
        obj = {"items": set(range(-5, 300, 7)), "name": "x", "year": 3}
        assert decode_object(encode_object(obj)) == obj
        assert decode_object(bytearray(encode_object(obj))) == obj
        with pytest.raises(ObjectStoreError):
            decode_object(encode_object(obj)[:-4])
