import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdds import serde
from streamdds.msgdef import Arity, TypeRegistry, flatten, parse_msg_file
from streamdds.serde import (
    VIEW_MIN_BYTES,
    DeserializationError,
    Frame,
    SerializationError,
    conforms_to,
    deserialize,
    deserialize_segments,
    serialize,
    serialize_segments,
)

from support import (
    count_joined,
    mutate_value,
    random_registry,
    random_value,
    reference_frame,
)


def plan_for(src: str, name: str = "t/M"):
    reg = TypeRegistry()
    reg.register(parse_msg_file(src, name))
    return reg.resolve(), flatten(reg, name)


class TestSerialize:
    def test_int32_little_endian(self):
        _, plan = plan_for("int32 v")
        assert bytes(serialize({"v": 1}, plan).payload) == b"\x01\x00\x00\x00"

    def test_empty_message_empty_payload(self):
        _, plan = plan_for("")
        assert len(serialize({}, plan).payload) == 0

    def test_point_is_three_f64_concatenated(self, geometry_registry):
        plan = flatten(geometry_registry, "geometry_msgs/Point")
        value = {"x": 1.0, "y": 2.0, "z": 3.0}
        expected = b"".join(struct.pack("<d", v) for v in (1.0, 2.0, 3.0))
        assert bytes(serialize(value, plan).payload) == expected

    def test_padding_to_word_boundary(self):
        _, plan = plan_for("int8 a\nint8 b\nint8 c")
        frame = serialize({"a": 1, "b": 2, "c": 3}, plan)
        assert len(frame.payload) == 4
        assert bytes(frame.payload) == b"\x01\x02\x03\x00"

    def test_dynamic_count_prefix(self):
        _, plan = plan_for("uint16[] v")
        frame = serialize({"v": [5, 6]}, plan)
        assert bytes(frame.payload) == b"\x02\x00\x00\x00\x05\x00\x06\x00"

    def test_string_utf8_with_byte_length_prefix(self):
        _, plan = plan_for("string s")
        frame = serialize({"s": "hé"}, plan)
        assert bytes(frame.payload) == b"\x03\x00\x00\x00h\xc3\xa9\x00"

    def test_uint8_array_accepts_bytes(self):
        _, plan = plan_for("uint8[] data")
        frame = serialize({"data": b"\x01\x02"}, plan)
        assert bytes(frame.payload) == b"\x02\x00\x00\x00\x01\x02\x00\x00"

    def test_bool_single_byte(self):
        _, plan = plan_for("bool a\nbool b")
        assert bytes(serialize({"a": True, "b": False}, plan).payload) == b"\x01\x00\x00\x00"

    def test_missing_field_reports_path(self, geometry_registry):
        plan = flatten(geometry_registry, "geometry_msgs/Pose")
        with pytest.raises(SerializationError) as err:
            serialize({"position": {"x": 1.0, "y": 2.0}, "orientation": [0.0] * 4}, plan)
        assert err.value.path == "position.z"

    def test_missing_field_in_group_element_reports_full_path(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("float32 x\nint16 y", "t/P"))
        reg.register(parse_msg_file("P[<=3] more", "t/M"))
        plan = flatten(reg.resolve(), "t/M")
        with pytest.raises(SerializationError, match="missing field") as err:
            serialize({"more": [{"x": 1.0, "y": 1}, {"y": 2}]}, plan)
        assert err.value.path == "more[1].x"
        with pytest.raises(SerializationError, match="int16") as err:
            serialize({"more": [{"x": 1.0, "y": 1}, {"x": 2.0, "y": "s"}]}, plan)
        assert err.value.path == "more[1].y"
        with pytest.raises(SerializationError, match="expected nested value") as err:
            serialize({"more": [{"x": 1.0, "y": 1}, 5]}, plan)
        assert err.value.path == "more[1]"

    def test_scalar_slot_rejects_list(self):
        _, plan = plan_for("int16 v")
        with pytest.raises(SerializationError, match="int16") as err:
            serialize({"v": [1, 0]}, plan)
        assert err.value.path == "v"

    def test_bool_slot_rejects_list(self):
        _, plan = plan_for("bool a\nbool b")
        with pytest.raises(SerializationError, match="bool") as err:
            serialize({"a": True, "b": [1, 0]}, plan)
        assert err.value.path == "b"

    @pytest.mark.parametrize("src, value", [
        ("bool[3] a\nfloat32[2] f", {"a": ["x", [], None], "f": [1.0, 2.0]}),
        ("bool[] a", {"a": [{"k": 1}, 0.0]}),
        ("bool[<=4] a", {"a": [True, None]}),
        ("bool[2] a", {"a": "no"}),
    ])
    def test_bool_array_rejects_non_integer_elements(self, src, value):
        _, plan = plan_for(src)
        with pytest.raises(SerializationError, match="bool") as err:
            serialize(value, plan)
        assert err.value.path == "a"

    def test_bool_array_accepts_integer_like_elements(self):
        _, plan = plan_for("bool[3] a\nbool[] b")
        frame = serialize({"a": [True, 0, 1], "b": [False, 2]}, plan)
        assert bytes(frame.payload) == b"\x01\x00\x01\x02\x00\x00\x00\x00\x01\x00\x00\x00"

    @pytest.mark.parametrize("n", [1, 3])
    def test_fixed_nested_array_length_enforced(self, n):
        reg = TypeRegistry()
        reg.register(parse_msg_file("int16 a\nfloat32 b", "t/P"))
        reg.register(parse_msg_file("P[2] pts\nint8 tail", "t/M"))
        plan = flatten(reg.resolve(), "t/M")
        with pytest.raises(SerializationError, match="exactly 2") as err:
            serialize({"pts": [{"a": 1, "b": 0.5}] * n, "tail": 0}, plan)
        assert err.value.path == "pts"

    @pytest.mark.parametrize("src, value", [
        ("float32 v", {"v": 1e40}),
        ("float32[2] v", {"v": [0.0, -1e40]}),
        ("float32[] v", {"v": [1e40]}),
    ])
    def test_out_of_range_float(self, src, value):
        _, plan = plan_for(src)
        with pytest.raises(SerializationError, match="float32") as err:
            serialize(value, plan)
        assert err.value.path == "v"

    @pytest.mark.parametrize("bad, path, message", [
        ({"label": 5, "id": 3, "vals": []}, "items[1].label", "items[1].label: expected str"),
        ({"label": "x", "id": 70000, "vals": []}, "items[1].id",
         "items[1].id: value not encodable as uint16 "
         "(ushort format requires 0 <= number <= 65535)"),
        ({"label": "x", "id": 1, "vals": [1, 2, 3]}, "items[1].vals",
         "items[1].vals: bounded array allows at most 2 elements, got 3"),
    ])
    def test_error_in_second_group_element(self, bad, path, message):
        plan = _items_plan()
        with pytest.raises(SerializationError) as err:
            serialize({"items": [{"label": "car", "id": 3, "vals": [1]}, bad]}, plan)
        assert (err.value.path, str(err.value)) == (path, message)

    @pytest.mark.parametrize("names, fixed, path", [
        (["a", "b", 3], ["", "", ""], "names[2]"),
        ([], ["", "", b"x"], "fixed[2]"),
    ])
    def test_string_array_error_names_element(self, names, fixed, path):
        _, plan = plan_for("string[] names\nstring[3] fixed")
        with pytest.raises(SerializationError, match="expected str") as err:
            serialize({"names": names, "fixed": fixed}, plan)
        assert err.value.path == path

    @pytest.mark.parametrize("src, value, path", [
        ("string s", {"s": "a\ud800"}, "s"),
        ("string[] s", {"s": ["ok", "\udfff"]}, "s[1]"),
    ])
    def test_string_not_encodable_as_utf8(self, src, value, path):
        _, plan = plan_for(src)
        with pytest.raises(SerializationError, match="utf-8") as err:
            serialize(value, plan)
        assert err.value.path == path

    @pytest.mark.parametrize("field", ["g", "s", "w", "p"])
    def test_sized_value_that_does_not_iterate(self, field):
        class Sized:
            def __len__(self):
                return 2

        reg = TypeRegistry()
        reg.register(parse_msg_file("int32 v", "t/I"))
        reg.register(parse_msg_file("int8 a\nI[] g\nstring[] s\nint16[] w\nI[2] p", "t/M"))
        plan = flatten(reg.resolve(), "t/M")
        value = {"a": 1, "g": [], "s": [], "w": [], "p": [{"v": 1}] * 2, field: Sized()}
        with pytest.raises(SerializationError, match="expected a sequence") as err:
            serialize(value, plan)
        assert err.value.path == field

    def test_bounded_overflow(self):
        _, plan = plan_for("int32[<=2] v")
        with pytest.raises(SerializationError, match="at most 2"):
            serialize({"v": [1, 2, 3]}, plan)

    def test_fixed_length_enforced(self):
        _, plan = plan_for("int32[2] v")
        with pytest.raises(SerializationError, match="exactly 2"):
            serialize({"v": [1]}, plan)

    def test_out_of_range_int(self):
        _, plan = plan_for("int8 v")
        with pytest.raises(SerializationError, match="int8"):
            serialize({"v": 1000}, plan)

    def test_determinism(self, geometry_registry):
        plan = flatten(geometry_registry, "geometry_msgs/Pose")
        value = {
            "position": {"x": 0.5, "y": -2.0, "z": 3.25},
            "orientation": [0.0, 0.0, 0.0, 1.0],
        }
        assert bytes(serialize(value, plan).payload) == bytes(serialize(value, plan).payload)

    def test_nested_group_serialization(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("int32 v", "t/Inner"))
        reg.register(parse_msg_file("Inner[] items\nuint8 tail", "t/Outer"))
        plan = flatten(reg.resolve(), "t/Outer")
        frame = serialize({"items": [{"v": 1}, {"v": 2}], "tail": 9}, plan)
        assert bytes(frame.payload) == (
            b"\x02\x00\x00\x00" + b"\x01\x00\x00\x00" + b"\x02\x00\x00\x00" + b"\x09\x00\x00\x00"
        )


GOLDEN_TYPES = {
    "g/Header": "uint64 stamp\nstring frame_id",
    "g/Detection": "float64 x\nfloat64 y\nfloat64 z\nfloat32 score\nuint16 class_id\nstring label",
    "g/Tracks": "Header header\nuint32 sensor_id\nDetection[<=4] detections\nfloat32[9] covariance",
    "g/Pt": "int16 a\nfloat32 b",
    "g/Path": "uint8 tag\nPt[2] pts\nint8 tail",
    "g/Blob": "uint8[] data\nuint8[3] fixed\nuint8[<=8] small",
    "g/Flags": "bool a\nbool b\nbool c\nbool[3] more\nuint8 n",
    "g/Nest": "Path[] paths\nstring[] names\nint64[<=3] ids",
    "g/LabelFirst": "string label\nuint16 id\nfloat32 w",
    "g/TwoLabels": "string a\nint32 n\nstring b",
    "g/LabelsOnly": "string first\nstring last",
    "g/Cell": "int8 v\nstring s",
    "g/Row": "uint16 k\nCell[] cells\nbool done",
    "g/FlagWhy": "bool on\nstring why",
    "g/NameVals": "string name\nuint16[<=4] vals",
    "g/Steps": (
        "LabelFirst[] first\nTwoLabels[<=3] two\nLabelsOnly[] only\nRow[] rows\n"
        "FlagWhy[] flags\nNameVals[] named"
    ),
}

# (value, its frame as hex): pinned from the slot-by-slot reference encoder
GOLDEN_FRAMES = {
    "g/Tracks": (
        {
            "header": {"stamp": 1234567890123, "frame_id": "lidar_0/tracks"},
            "sensor_id": 7,
            "detections": [
                {"x": 1.5, "y": -2.25, "z": 0.125, "score": 0.75, "class_id": 3, "label": "car-12"},
                {"x": -30.0, "y": 4.0, "z": 1.0, "score": 0.5, "class_id": 65535,
                 "label": "pedestrian-é"},
            ],
            "covariance": [1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, -0.5],
        },
        "cb04fb711f0100000e0000006c696461725f302f747261636b7307000000020000000000"
        "00000000f83f00000000000002c0000000000000c03f0000403f0300060000006361722d"
        "31320000000000003ec00000000000001040000000000000f03f0000003fffff0d000000"
        "7065646573747269616e2dc3a90000803f00000000000000000000000000000040000000"
        "000000000000000000000000bf000000",
    ),
    "g/Path": (
        {"tag": 9, "pts": [{"a": -1, "b": 1.5}, {"a": 300, "b": -0.25}], "tail": -3},
        "09ffff0000c03f2c01000080befd0000",
    ),
    "g/Blob": (
        {"data": b"\x01\x02\x03\x04\x05", "fixed": b"abc", "small": b"\xff\x00"},
        "05000000010203040561626302000000ff000000",
    ),
    "g/Flags": (
        {"a": True, "b": False, "c": True, "more": [False, True, True], "n": 200},
        "010001000101c800",
    ),
    "g/Nest": (
        {
            "paths": [
                {"tag": 1, "pts": [{"a": 2, "b": 3.0}, {"a": 4, "b": 5.0}], "tail": 6},
                {"tag": 7, "pts": [{"a": 8, "b": 9.0}, {"a": 10, "b": 11.0}], "tail": 12},
            ],
            "names": ["", "xy", "世"],
            "ids": [-(2**63), 2**63 - 1],
        },
        "020000000102000000404004000000a04006070800000010410a00000030410c0300000000"
        "00000002000000787903000000e4b896020000000000000000000080ffffffffffffff7f"
        "000000",
    ),
    # group elements: a string first, two strings, strings only, a group
    # inside an element, a bool next to a string, a bounded uint16[] after a
    # string
    "g/Steps": (
        {
            "first": [{"label": "", "id": 1, "w": 0.5}, {"label": "é", "id": 65535, "w": -2.0}],
            "two": [{"a": "x", "n": -1, "b": "yz"}, {"a": "", "n": 7, "b": ""}],
            "only": [{"first": "ab", "last": "c"}, {"first": "世", "last": ""}],
            "rows": [
                {"k": 3, "cells": [{"v": -1, "s": "p"}, {"v": 2, "s": ""}], "done": True},
                {"k": 4, "cells": [], "done": False},
                {"k": 5, "cells": [{"v": 127, "s": "qrs"}], "done": True},
            ],
            "flags": [{"on": True, "why": "go"}, {"on": False, "why": ""}],
            "named": [
                {"name": "a", "vals": [1, 2, 3, 4]},
                {"name": "bcd", "vals": []},
                {"name": "", "vals": [65535]},
            ],
        },
        "020000000000000001000000003f02000000c3a9ffff000000c0020000000100000078ff"
        "ffffff02000000797a000000000700000000000000020000000200000061620100000063"
        "03000000e4b8960000000003000000030002000000ff0100000070020000000001040000"
        "000000000500010000007f0300000071727301020000000102000000676f000000000003"
        "000000010000006104000000010002000300040003000000626364000000000000000001"
        "000000ffff000000",
    ),
}


def _items_plan():
    reg = TypeRegistry()
    reg.register(parse_msg_file("string label\nuint16 id\nuint16[<=2] vals", "t/E"))
    reg.register(parse_msg_file("E[] items", "t/M"))
    return flatten(reg.resolve(), "t/M")


class TestGoldenFrames:
    @pytest.fixture(scope="class")
    def registry(self):
        reg = TypeRegistry()
        for name, src in GOLDEN_TYPES.items():
            reg.register(parse_msg_file(src, name))
        return reg.resolve()

    @pytest.mark.parametrize("type_name", sorted(GOLDEN_FRAMES))
    def test_bytes_and_round_trip(self, registry, type_name):
        plan = flatten(registry, type_name)
        value, golden = GOLDEN_FRAMES[type_name]
        frame = serialize(value, plan)
        assert bytes(frame.payload).hex() == golden
        assert deserialize(frame, plan) == value


class TestDeserialize:
    def test_int32_identity(self):
        _, plan = plan_for("int32 v")
        assert deserialize(Frame(b"\x01\x00\x00\x00"), plan) == {"v": 1}

    def test_truncated_frame(self):
        _, plan = plan_for("int32 v\nint64 w")
        with pytest.raises(DeserializationError, match="truncated"):
            deserialize(Frame(b"\x01\x00\x00\x00"), plan)

    def test_count_exceeding_bound(self):
        _, plan = plan_for("int32[<=2] v")
        bad = b"\x03\x00\x00\x00" + b"\x00" * 12
        with pytest.raises(DeserializationError, match="bound"):
            deserialize(Frame(bad), plan)

    def test_error_in_group_element_names_full_path(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("uint32 v", "t/Inner"))
        reg.register(parse_msg_file("string s\nInner[] inner", "t/Mid"))
        reg.register(parse_msg_file("Inner[] items\nMid[] mids", "t/M"))
        plan = flatten(reg.resolve(), "t/M")
        frame = bytes(serialize({"items": [{"v": 1}, {"v": 2}], "mids": []}, plan).payload)
        with pytest.raises(DeserializationError) as err:
            deserialize(Frame(frame[:8]), plan)
        assert str(err.value) == "truncated frame: needed 4 bytes for items[1].v, 0 left"
        assert err.value.path == "items[1].v"
        value = {"items": [], "mids": [{"s": "a", "inner": []}, {"s": "b", "inner": [{"v": 3}]}]}
        frame = bytes(serialize(value, plan).payload)
        with pytest.raises(DeserializationError, match=r"mids\[1\]\.inner count"):
            deserialize(Frame(frame[:24]), plan)
        with pytest.raises(DeserializationError, match=r"for mids\[1\]\.inner\[0\]\.v,"):
            deserialize(Frame(frame[:28]), plan)

    def test_error_in_second_group_element(self):
        plan = _items_plan()
        value = {"items": [{"label": "car", "id": 3, "vals": [1]},
                           {"label": "truck", "id": 4, "vals": [5, 6]}]}
        frame = bytes(serialize(value, plan).payload)
        label = frame.index(b"truck")
        bad_utf8 = frame[:label] + b"\xff" + frame[label + 1 :]
        over_bound = frame[: label + 7] + b"\x03" + frame[label + 8 :]
        for data, path, message in [
            (frame[:24], "items[1].label",
             "truncated frame: needed 5 bytes for items[1].label, 1 left"),
            (frame[:28], "items[1].id", "truncated frame: needed 2 bytes for items[1].id, 0 left"),
            (bad_utf8, "items[1].label",
             "items[1].label: invalid utf-8 payload ('utf-8' codec can't decode byte 0xff "
             "in position 0: invalid start byte)"),
            (over_bound, "items[1].vals", "items[1].vals: count 3 exceeds bound 2"),
        ]:
            with pytest.raises(DeserializationError) as err:
                deserialize(Frame(data), plan)
            assert (err.value.path, str(err.value)) == (path, message)

    def test_string_array_error_names_element(self):
        _, plan = plan_for("string[] names\nstring[3] fixed")
        value = {"names": ["a", "b", "cdefg"], "fixed": ["x", "y", "zz"]}
        frame = bytes(serialize(value, plan).payload)
        bad_utf8 = frame.replace(b"cdefg", b"\xffdefg")
        for data, message in [
            (frame[:20], "truncated frame: needed 5 bytes for names[2], 2 left"),
            (frame[:24], "truncated frame: needed 4 bytes for fixed[0] length, 1 left"),
            (bad_utf8, "names[2]: invalid utf-8 payload ('utf-8' codec can't decode byte 0xff "
             "in position 0: invalid start byte)"),
        ]:
            with pytest.raises(DeserializationError) as err:
                deserialize(Frame(data), plan)
            assert str(err.value) == message

    def test_count_exceeding_remaining_bytes(self):
        _, plan = plan_for("uint8[] v")
        with pytest.raises(DeserializationError, match="truncated"):
            deserialize(Frame(b"\xff\x00\x00\x00"), plan)

    def test_trailing_garbage_rejected(self):
        _, plan = plan_for("int8 v")
        with pytest.raises(DeserializationError, match="padding"):
            deserialize(Frame(b"\x01\x00\x00\x09"), plan)

    @pytest.mark.parametrize("frame", [b"\x01\x00\x00\x09", b"\x01\x00\x09\x00"])
    def test_padding_error_text_is_the_same_on_every_path(self, frame):
        _, plan = plan_for("int8 v")
        message = "3 trailing bytes after last slot are not word padding"
        for decode, arg in [
            (deserialize, Frame(frame)),
            (deserialize_segments, [frame]),
            (deserialize_segments, [bytearray(frame)]),
            (deserialize_segments, [memoryview(frame)]),
            (deserialize_segments, [frame, b""]),  # joined first
        ]:
            with pytest.raises(DeserializationError) as err:
                decode(arg, plan)
            assert str(err.value) == message

    def test_whole_extra_word_rejected(self):
        _, plan = plan_for("int32 v")
        with pytest.raises(DeserializationError):
            deserialize(Frame(b"\x01\x00\x00\x00\x00\x00\x00\x00"), plan)

    def test_nan_round_trips(self):
        _, plan = plan_for("float64 v\nfloat32 w")
        out = deserialize(serialize({"v": math.nan, "w": math.inf}, plan), plan)
        assert math.isnan(out["v"]) and out["w"] == math.inf


class TestSegments:
    SRC = "string name\nuint8[] data\nuint16 tail"

    @pytest.mark.parametrize("name", ["", "a", "ab", "abc"])
    def test_bytes_payload_is_a_view_between_copied_edges(self, name):
        registry, plan = plan_for(self.SRC)
        data = bytes(range(256)) * (VIEW_MIN_BYTES // 256) + b"xyz"
        value = {"name": name, "data": data, "tail": 7}
        segments = serialize_segments(value, plan)
        views = [s for s in segments if isinstance(s, memoryview)]
        assert len(views) == 1 and views[0].obj is data
        assert all(len(s) % 4 == 0 and len(s) > 0 for s in segments)
        joined = b"".join(segments)
        assert joined == bytes(serialize(value, plan).payload)
        assert joined == reference_frame(registry, "t/M", value)
        assert deserialize(Frame(joined), plan) == value

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_mutable_payload_is_copied(self, kind):
        _, plan = plan_for(self.SRC)
        data = kind(bytes(VIEW_MIN_BYTES))
        segments = serialize_segments({"name": "", "data": data, "tail": 0}, plan)
        assert not any(isinstance(s, memoryview) for s in segments)

    def test_small_bytes_payload_is_copied(self):
        _, plan = plan_for(self.SRC)
        segments = serialize_segments({"name": "", "data": bytes(4096), "tail": 0}, plan)
        assert len(segments) == 1 and not isinstance(segments[0], memoryview)

    def test_empty_frame_is_one_empty_segment(self):
        _, plan = plan_for("")
        assert [bytes(s) for s in serialize_segments({}, plan)] == [b""]


class TestFrame:
    def test_word_alignment_enforced(self):
        with pytest.raises(ValueError):
            Frame(b"\x01\x02\x03")

    def test_hexdump_one_word_per_line(self):
        frame = Frame(bytes(range(8)))
        assert frame.hexdump() == "00010203\n04050607"


class TestRoundTrip:
    def test_seeded_sweep(self):
        rng = random.Random(20240817)
        for _ in range(200):
            registry, root = random_registry(rng)
            plan = flatten(registry, root)
            value = random_value(rng, registry, root)
            assert deserialize(serialize(value, plan), plan) == value

    @pytest.mark.parametrize("n", range(11))
    def test_flat_level_of_every_width(self, n):
        # dicts of up to eight fields are built one way, larger ones another:
        # cover both, at the top level, in a group element, and nested as a
        # scalar and as a fixed array
        fields = "".join(f"int16 f{k}\n" for k in range(n))
        reg = TypeRegistry()
        reg.register(parse_msg_file(fields, "t/E"))
        reg.register(parse_msg_file(fields + "E[] items", "t/M"))
        reg.register(parse_msg_file(fields + "E[] items\nE one\nE[2] two", "t/N"))
        reg = reg.resolve()
        element = {f"f{k}": k - 5 for k in range(n)}
        value = {**element, "items": [element, {**element}]}
        nested = {**value, "one": {**element}, "two": [{**element}, element]}
        for root, v in [("t/M", value), ("t/N", nested)]:
            plan = flatten(reg, root)
            frame = serialize(v, plan)
            assert bytes(frame.payload) == reference_frame(reg, root, v)
            decoded = deserialize(frame, plan)
            assert decoded == v
            assert list(decoded) == list(v)
            inner = decoded["items"] + ([decoded["one"], *decoded["two"]] if v is nested else [])
            assert all(list(item) == list(element) for item in inner)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_property_round_trip(self, seed):
        rng = random.Random(seed)
        registry, root = random_registry(rng)
        plan = flatten(registry, root)
        value = random_value(rng, registry, root)
        assert deserialize(serialize(value, plan), plan) == value

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_reference_encoder(self, seed):
        rng = random.Random(seed)
        registry, root = random_registry(rng)
        value = random_value(rng, registry, root)
        frame = serialize(value, flatten(registry, root))
        assert bytes(frame.payload) == reference_frame(registry, root, value)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_fixed_size_law(self, seed):
        rng = random.Random(seed)
        registry, root = random_registry(rng)
        plan = flatten(registry, root)
        if plan.fixed_size_bytes is None:
            return
        value = random_value(rng, registry, root)
        frame = serialize(value, plan)
        assert len(frame.payload) == (plan.fixed_size_bytes + 3) // 4 * 4


class TestEmptyNestedType:
    """A nested type with no fields has no slots, but its fields stay in the value."""

    @pytest.fixture(scope="class")
    def registry(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("", "t/Empty"))
        reg.register(parse_msg_file("int32 a\nEmpty e\nEmpty[2] f\nEmpty[<=3] g", "t/M"))
        reg.register(parse_msg_file("M[] items\nuint8 tail", "t/G"))
        return reg.resolve()

    @staticmethod
    def value(root: str) -> dict:
        m = {"a": 1, "e": {}, "f": [{}, {}], "g": [{}, {}, {}]}
        return m if root == "t/M" else {"items": [{**m, "g": []}, m], "tail": 7}

    # each of M's fields of the empty type, at the top level and in a group element
    WHERE = pytest.mark.parametrize(
        "root, prefix", [("t/M", ""), ("t/G", "items[1].")], ids=["top", "in-group"]
    )

    @WHERE
    def test_round_trip(self, registry, root, prefix):
        plan = flatten(registry, root)
        value = self.value(root)
        frame = serialize(value, plan)
        assert bytes(frame.payload) == reference_frame(registry, root, value)
        assert deserialize(frame, plan) == value
        assert deserialize_segments(serialize_segments(value, plan), plan) == value

    @WHERE
    @pytest.mark.parametrize("key, mistyped", [
        ("e", "expected nested value"), ("f", "expected a sequence"), ("g", "expected a sequence"),
    ], ids=["scalar", "fixed", "bounded"])
    def test_missing_or_mistyped_field(self, registry, root, prefix, key, mistyped):
        plan = flatten(registry, root)
        for change, reason in [(None, "missing field"), (5, mistyped)]:
            value = self.value(root)
            where = value["items"][1] if prefix else value
            if change is None:
                del where[key]
            else:
                where[key] = change
            with pytest.raises(SerializationError) as err:
                serialize(value, plan)
            assert str(err.value) == f"{prefix}{key}: {reason}"
            assert conforms_to(value, registry.get(root), registry) == (False, prefix + key)

    def test_unbounded_group_count_is_bounded(self, registry):
        # nothing else limits how many values a frame's count makes
        for declared, n in [("Empty[] g", 65536), ("Empty[<=70000] g", 70000)]:
            reg = TypeRegistry([registry.get("t/Empty"), parse_msg_file(declared, "t/U")])
            plan = flatten(reg.resolve(), "t/U")
            with pytest.raises(DeserializationError, match="^g: count 131072 exceeds bound 65535$"):
                deserialize(Frame(struct.pack("<I", 1 << 17)), plan)
            with pytest.raises(SerializationError, match=f"at most 65535 elements, got {n}"):
                serialize({"g": [{}] * n}, plan)
            assert conforms_to({"g": [{}] * n}, reg.get("t/U"), reg) == (False, "g")
            value = {"g": [{}] * 65535}
            assert deserialize(serialize(value, plan), plan) == value
            assert conforms_to(value, reg.get("t/U"), reg) == (True, None)


# Views from 7 bytes, the least ``append_view`` takes, so that the short
# arrays of random values travel as views too.
SMALL_VIEWS = 7


def widen_bytes(rng: random.Random, registry, type_name: str, value: dict) -> dict:
    """``value`` with every unbounded ``uint8`` array given 0-40 random bytes."""
    for f in registry.get(type_name).fields:
        if f.type_name == "uint8" and f.arity.kind == Arity.UNBOUNDED:
            value[f.name] = rng.randbytes(rng.randint(0, 40))
        elif not f.is_primitive:
            v = value[f.name]
            for element in [v] if f.arity.kind == Arity.SCALAR else v:
                widen_bytes(rng, registry, f.type_name, element)
    return value


def split_words(rng: random.Random, segments) -> list:
    """``segments`` as memoryviews, each cut at up to two random word boundaries."""
    pieces = []
    for segment in segments:
        mv = memoryview(segment)
        cuts = sorted(rng.sample(range(4, len(mv), 4), min(2, max(0, len(mv) // 4 - 1))))
        for a, b in zip([0, *cuts], [*cuts, len(mv)]):
            pieces.append(mv[a:b])
    return pieces


def cut_segments(segments, n: int) -> list:
    """The first ``n`` bytes of the frame ``segments`` make, as segments."""
    out = []
    for segment in segments:
        if n <= 0:
            break
        out.append(segment[:n])
        n -= len(segment)
    return out


def outcome(decode, *args):
    """``decode``'s value (as its repr, so NaNs compare), or its error text."""
    try:
        return repr(decode(*args))
    except DeserializationError as e:
        return f"DeserializationError: {e}"


class TestDeserializeSegments:
    """``deserialize_segments`` decodes as ``deserialize`` does the joined frame."""

    @staticmethod
    def case(seed: int):
        rng = random.Random(seed)
        registry, root = random_registry(rng)
        value = widen_bytes(rng, registry, root, random_value(rng, registry, root))
        return rng, flatten(registry, root), value

    def check_round_trip(self, seed: int) -> int:
        """Check one random value; return how many of its segments are views."""
        rng, plan, value = self.case(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serde, "VIEW_MIN_BYTES", SMALL_VIEWS)
            segments = serialize_segments(value, plan)
            expected = deserialize(serialize(value, plan), plan)
            assert deserialize_segments(segments, plan) == expected
            # as a channel hands them over: whole, or in smaller pieces
            assert deserialize_segments([memoryview(s) for s in segments], plan) == expected
            assert deserialize_segments(split_words(rng, segments), plan) == expected
        return sum(isinstance(s, memoryview) for s in segments)

    def check_errors(self, seed: int) -> None:
        """Check that cut or corrupted segments fail as the joined frame does."""
        rng, plan, value = self.case(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serde, "VIEW_MIN_BYTES", SMALL_VIEWS)
            segments = serialize_segments(value, plan)
            frame = b"".join(segments)
            for n in range(0, len(frame), 4):
                got = outcome(deserialize_segments, cut_segments(segments, n), plan)
                assert got == outcome(deserialize, Frame(frame[:n]), plan)
                assert got.startswith("DeserializationError")
            # a view's bytes are raw uint8 data: corrupt the encoded rest
            plain = [bytearray(s) if not isinstance(s, memoryview) else s for s in segments]
            targets = [s for s in plain if isinstance(s, bytearray) and s]
            for _ in range(3 if targets else 0):
                for _ in range(rng.randint(1, 4)):
                    target = rng.choice(targets)
                    target[rng.randrange(len(target))] = rng.randrange(256)
                got = outcome(deserialize_segments, plain, plan)
                assert got == outcome(deserialize, Frame(b"".join(plain)), plan)

    def test_seeded_sweep_with_views(self):
        with_views = [seed for seed in range(1000) if self.check_round_trip(seed)]
        assert len(with_views) >= 30
        for seed in with_views:
            self.check_errors(seed)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_property_matches_joined_frame(self, seed):
        self.check_round_trip(seed)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_cut_or_corrupted_segments_fail_as_the_joined_frame(self, seed):
        self.check_errors(seed)

    @pytest.mark.parametrize(
        "rest",
        [struct.pack("<II", 7, VIEW_MIN_BYTES), struct.pack("<II", 7, 4) + b"abcd"],
        ids=["stepped-over-then-spanned", "never-spanned"],
    )
    def test_view_that_lines_up_with_no_array_is_decoded_joined(self, rest):
        # The frame's first VIEW_MIN_BYTES bytes come as one bytes object, as
        # a write_chunk producer may send them.  Without that piece, the
        # rest decodes on its own: the view never lines up with an array.
        _, plan = plan_for("uint32 x\nuint8[] data")
        value = {"x": 5, "data": bytes(VIEW_MIN_BYTES - 8) + rest}
        frame = bytes(serialize(value, plan).payload)
        assert frame[VIEW_MIN_BYTES:] == rest
        pieces = [memoryview(frame[:VIEW_MIN_BYTES]), memoryview(frame[VIEW_MIN_BYTES:])]
        assert deserialize_segments(pieces, plan) == value

    def test_whole_aligned_view_is_the_callers_object(self):
        _, plan = plan_for("uint32 seq\nuint8[] data")
        data = bytes(range(256)) * (VIEW_MIN_BYTES // 256)
        segments = serialize_segments({"seq": 1, "data": data}, plan)
        assert len(segments) == 2
        assert deserialize_segments(segments, plan)["data"] is data
        pieces = [memoryview(s) for s in segments]  # as a channel hands them over
        assert deserialize_segments(pieces, plan) == {"seq": 1, "data": data}
        assert deserialize_segments(pieces, plan)["data"] is data
        # cut into slices, the same bytes are joined into a new object
        head, view = pieces
        got = deserialize_segments([head, view[:4096], view[4096:]], plan)
        assert got == {"seq": 1, "data": data} and got["data"] is not data

    @pytest.mark.parametrize("name", ["", "abc"])
    @pytest.mark.parametrize("cuts", [(8,), (4096, 4100, VIEW_MIN_BYTES // 2)])
    def test_consecutive_slices_of_a_view_line_up_with_its_array(self, name, cuts, monkeypatch):
        joined = count_joined(monkeypatch)
        _, plan = plan_for(TestSegments.SRC)
        data = random.Random(1).randbytes(VIEW_MIN_BYTES + len(name))
        value = {"name": name, "data": data, "tail": 9}
        head, view, tail = serialize_segments(value, plan)
        slices = [view[a:b] for a, b in zip([0, *cuts], [*cuts, len(view)])]
        got = deserialize_segments([head, *slices, tail], plan)
        assert joined == [] and got["data"] is not data  # before deserialize runs here
        assert got == deserialize(serialize(value, plan), plan) == value

    @pytest.mark.parametrize(
        "pieces", [[bytes(5)], [bytearray(6)], [memoryview(bytes(7))], [bytes(4), bytes(2)]]
    )
    def test_pieces_of_no_whole_words_are_refused_as_a_frame_is(self, pieces):
        _, plan = plan_for("uint8[] data")
        with pytest.raises(ValueError) as frame_error:
            Frame(b"".join(pieces))
        with pytest.raises(ValueError) as err:
            deserialize_segments(pieces, plan)
        assert str(err.value) == str(frame_error.value)
        assert str(err.value) == "frame payload must be a whole number of 32-bit words"

    def test_one_piece_around_the_views_is_decoded_in_place(self, monkeypatch):
        # As a parked port hands over a frame whose head it read from the
        # channel: the reassembly buffer's bytes, then slices of the payload.
        _, plan = plan_for("uint32 seq\nuint8[] data")
        data = random.Random(3).randbytes(VIEW_MIN_BYTES)
        value = {"seq": 7, "data": data}
        head, view = serialize_segments(value, plan)
        prefix = bytearray(head) + view[:4096]
        decoded = []  # the object each decode reads
        decode = serde._deserialize
        monkeypatch.setattr(
            serde, "_deserialize",
            lambda codec, buf, views: decoded.append(buf.obj) or decode(codec, buf, views),
        )
        got = deserialize_segments([prefix, view[4096:8192], view[8192:]], plan)
        assert len(decoded) == 1 and decoded[0] is prefix  # neither joined nor copied
        prefix[:] = bytes(len(prefix))  # the buffer takes the next frame
        assert got == deserialize(serialize(value, plan), plan) == value
        assert got["data"] is not data

    def test_slices_split_by_a_copied_piece_are_decoded_joined(self, monkeypatch):
        # The middle piece holds payload bytes but is no view, so the slices
        # after it do not sit where the ones before it do: lining them all up
        # with the array would put the middle bytes after them.
        joined = count_joined(monkeypatch)
        _, plan = plan_for(TestSegments.SRC)
        data = random.Random(2).randbytes(VIEW_MIN_BYTES + 3)
        value = {"name": "ab", "data": data, "tail": 9}
        head, view, tail = serialize_segments(value, plan)
        a, b, c = 4096, 8192, 12288
        pieces = [head, view[:a], view[a:b], bytes(view[b:c]), view[c:], tail]
        assert deserialize_segments(pieces, plan) == value
        assert joined == [len(b"".join(pieces))]


class TestErrorContract:
    """Bad values and bad frames fail only with the codec's own errors."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_mutated_value_raises_serialization_error(self, seed):
        rng = random.Random(seed)
        registry, root = random_registry(rng)
        value = random_value(rng, registry, root)
        mutated, kind = mutate_value(rng, registry, root, value)
        try:
            serialize(mutated, flatten(registry, root))
        except SerializationError as e:
            assert e.path
            return
        # the one mutation that encodes: a bool given an int, which is
        # integer-like as a bool must be
        changed = [f for f in registry.get(root).fields if mutated.get(f.name) != value[f.name]]
        assert kind == "retype" and [(f.type_name, f.arity.kind) for f in changed] == [
            ("bool", "scalar")
        ]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_cut_or_corrupted_frame_raises_deserialization_error(self, seed):
        rng = random.Random(seed)
        registry, root = random_registry(rng)
        plan = flatten(registry, root)
        frame = bytes(serialize(random_value(rng, registry, root), plan).payload)
        for cut in range(0, len(frame), 4):
            with pytest.raises(DeserializationError):
                deserialize(Frame(frame[:cut]), plan)
        for _ in range(3 if frame else 0):
            corrupted = bytearray(frame)
            for _ in range(rng.randint(1, 4)):
                corrupted[rng.randrange(len(frame))] = rng.randrange(256)
            try:
                deserialize(Frame(bytes(corrupted)), plan)
            except DeserializationError:
                pass


class TestConformance:
    def test_simple_match(self):
        reg, _ = plan_for("int32 x")
        ok, path = conforms_to({"x": 1}, reg.get("t/M"), reg)
        assert ok and path is None

    def test_wrong_scalar_type(self):
        reg, _ = plan_for("int32 x")
        ok, path = conforms_to({"x": "s"}, reg.get("t/M"), reg)
        assert not ok and path == "x"

    def test_nested_violation_path(self, geometry_registry):
        value = {"position": {"x": 1.0, "y": 2.0, "z": "bad"}, "orientation": [0.0] * 4}
        ok, path = conforms_to(value, geometry_registry.get("geometry_msgs/Pose"), geometry_registry)
        assert not ok and path == "position.z"

    def test_extra_field_detected(self):
        reg, _ = plan_for("int32 x")
        ok, path = conforms_to({"x": 1, "y": 2}, reg.get("t/M"), reg)
        assert not ok and path == "y"

    def test_bool_is_not_int(self):
        reg, _ = plan_for("int32 x")
        ok, _ = conforms_to({"x": True}, reg.get("t/M"), reg)
        assert not ok

    def test_bytes_only_for_uint8(self):
        reg, _ = plan_for("int8[] v")
        ok, path = conforms_to({"v": b"\x01"}, reg.get("t/M"), reg)
        assert not ok and path == "v"

    def test_mutation_oracle(self):
        rng = random.Random(99)
        found = set()
        for _ in range(300):
            registry, root = random_registry(rng)
            value = random_value(rng, registry, root)
            ok, _ = conforms_to(value, registry.get(root), registry)
            assert ok
            mutated, kind = mutate_value(rng, registry, root, value)
            ok, path = conforms_to(mutated, registry.get(root), registry)
            assert not ok, f"undetected {kind} mutation"
            assert path
            found.add(kind)
        assert found == {"drop", "rename", "retype"}
