import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdds.msgdef import (
    NO_BYTES_BOUND,
    Arity,
    FieldDef,
    GroupSlot,
    MessageTypeDef,
    MsgParseError,
    PlanSlot,
    TypeRegistry,
    TypeResolutionError,
    flatten,
    load_msg_tree,
    parse_msg_file,
)

from support import count_slots_oracle, random_registry


class TestParse:
    def test_single_field(self):
        mtd = parse_msg_file("int32 x", "demo/M")
        assert [(f.name, f.type_name, f.arity.kind) for f in mtd.fields] == [
            ("x", "int32", Arity.SCALAR)
        ]

    def test_empty_file_is_legal(self):
        assert parse_msg_file("", "demo/Empty").fields == ()

    def test_point_matches_reference_layout(self):
        mtd = parse_msg_file("float64 x\nfloat64 y\nfloat64 z", "geometry_msgs/Point")
        assert [f.name for f in mtd.fields] == ["x", "y", "z"]
        assert all(f.type_name == "float64" for f in mtd.fields)

    def test_comments_and_blank_lines(self):
        src = "# leading comment\n\nint8 a  # trailing\n   \nuint16 b\n"
        mtd = parse_msg_file(src, "demo/M")
        assert [f.name for f in mtd.fields] == ["a", "b"]

    def test_array_suffixes(self):
        mtd = parse_msg_file("int32[] a\nint32[3] b\nint32[<=7] c", "demo/M")
        kinds = {f.name: (f.arity.kind, f.arity.size) for f in mtd.fields}
        assert kinds == {
            "a": (Arity.UNBOUNDED, None),
            "b": (Arity.FIXED, 3),
            "c": (Arity.BOUNDED, 7),
        }

    def test_nested_reference_namespaced_into_package(self):
        mtd = parse_msg_file("Point p\nother_pkg/Odo o", "geometry_msgs/Pose")
        assert mtd.fields[0].type_name == "geometry_msgs/Point"
        assert mtd.fields[1].type_name == "other_pkg/Odo"

    def test_constants_parsed_but_not_fields(self):
        mtd = parse_msg_file("int32 FOO=42\nstring NAME=hello\nint32 x", "demo/M")
        assert [c.name for c in mtd.constants] == ["FOO", "NAME"]
        assert mtd.constants[0].value == 42
        assert mtd.constants[1].value == "hello"
        assert [f.name for f in mtd.fields] == ["x"]

    def test_duplicate_field_name(self):
        with pytest.raises(MsgParseError, match="line 2.*duplicate"):
            parse_msg_file("int32 x\nint8 x", "demo/M")

    def test_unknown_primitive_like_word(self):
        with pytest.raises(MsgParseError, match="unknown primitive.*int128"):
            parse_msg_file("int128 x", "demo/M")

    def test_syntax_error_reports_line(self):
        with pytest.raises(MsgParseError, match="line 3"):
            parse_msg_file("int32 a\nint32 b\n%%%", "demo/M")

    def test_bad_array_length(self):
        with pytest.raises(MsgParseError):
            parse_msg_file("int32[0] a", "demo/M")

    def test_constant_requires_primitive_type(self):
        with pytest.raises(MsgParseError, match="primitive"):
            parse_msg_file("Point ORIGIN=0", "demo/M")


class TestLoadTree(object):
    def test_loads_package_tree(self, tmp_path):
        pkg = tmp_path / "geometry_msgs" / "msg"
        pkg.mkdir(parents=True)
        (pkg / "Point.msg").write_text("float64 x\nfloat64 y\nfloat64 z\n")
        (pkg / "Pose.msg").write_text("Point position\nfloat64[4] orientation\n")
        reg = load_msg_tree(tmp_path)
        assert "geometry_msgs/Point" in reg
        assert "geometry_msgs/Pose" in reg
        reg.resolve()
        assert flatten(reg, "geometry_msgs/Pose").fixed_size_bytes == 56


class TestResolve:
    def test_valid_chain(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("B b", "p/A"))
        reg.register(parse_msg_file("int32 x", "p/B"))
        assert reg.resolve().resolved

    def test_unresolved_reference(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("Missing m", "p/A"))
        with pytest.raises(TypeResolutionError, match="p/Missing"):
            reg.resolve()

    def test_self_cycle(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("A again", "p/A"))
        with pytest.raises(TypeResolutionError, match="p/A -> p/A"):
            reg.resolve()

    def test_three_cycle_reports_path(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("B b", "p/A"))
        reg.register(parse_msg_file("C c", "p/B"))
        reg.register(parse_msg_file("A a", "p/C"))
        with pytest.raises(TypeResolutionError, match="p/A -> p/B -> p/C -> p/A"):
            reg.resolve()


class TestFlatten:
    def test_point_plan(self, geometry_registry):
        plan = flatten(geometry_registry, "geometry_msgs/Point")
        assert [s.path for s in plan.slots] == ["x", "y", "z"]
        assert plan.fixed_size_bytes == 24

    def test_pose_plan_width(self, geometry_registry):
        plan = flatten(geometry_registry, "geometry_msgs/Pose")
        assert plan.fixed_size_bytes == 56
        assert [s.path for s in plan.slots] == [
            "position.x",
            "position.y",
            "position.z",
            "orientation",
        ]
        assert plan.slots[-1].arity == Arity.fixed(4)

    def test_unbounded_array_drops_fixed_size(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("uint8[] data", "p/Blob"))
        plan = flatten(reg.resolve(), "p/Blob")
        assert plan.fixed_size_bytes is None
        assert len(plan.slots) == 1

    def test_string_is_dynamic(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("string s", "p/S"))
        plan = flatten(reg.resolve(), "p/S")
        assert plan.fixed_size_bytes is None

    def test_fixed_nested_array_unrolls(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("int16 v", "p/Inner"))
        reg.register(parse_msg_file("Inner[3] items\nbool flag", "p/Outer"))
        plan = flatten(reg.resolve(), "p/Outer")
        assert [s.path for s in plan.slots] == [
            "items[0].v",
            "items[1].v",
            "items[2].v",
            "flag",
        ]
        assert plan.fixed_size_bytes == 3 * 2 + 1

    def test_dynamic_nested_array_becomes_group(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("int32 v\nstring tag", "p/Inner"))
        reg.register(parse_msg_file("Inner[<=4] items", "p/Outer"))
        plan = flatten(reg.resolve(), "p/Outer")
        (group,) = plan.slots
        assert isinstance(group, GroupSlot)
        assert group.arity == Arity.bounded(4)
        assert [s.path for s in group.element_slots] == ["v", "tag"]
        assert plan.fixed_size_bytes is None

    def test_array_of_a_type_with_no_bytes_is_bounded(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("", "p/Empty"))
        reg.register(parse_msg_file("Empty e\nEmpty[2] f", "p/NoBytes"))
        reg.register(parse_msg_file(
            "Empty[<=3] g\nNoBytes[] h\nEmpty[1] i\nEmpty[<=70000] j\nNoBytes[<=65535] k", "p/M"
        ))
        plan = flatten(reg.resolve(), "p/M")
        assert [(s.path, s.arity, s.element_type) for s in plan.slots] == [
            ("g", Arity.bounded(3), "p/Empty"),
            ("h", Arity.bounded(NO_BYTES_BOUND), "p/NoBytes"),
            ("j", Arity.bounded(NO_BYTES_BOUND), "p/Empty"),
            ("k", Arity.bounded(NO_BYTES_BOUND), "p/NoBytes"),
        ]

    def test_requires_resolved_registry(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("int32 x", "p/M"))
        with pytest.raises(TypeResolutionError, match="resolved"):
            flatten(reg, "p/M")

    def test_plan_json_shape(self, geometry_registry):
        doc = flatten(geometry_registry, "geometry_msgs/Point").to_json()
        assert doc["type_name"] == "geometry_msgs/Point"
        assert doc["fixed_size_bytes"] == 24
        assert doc["slots"][0] == {
            "path": "x",
            "primitive": "float64",
            "arity": {"kind": "scalar", "size": None},
        }


class TestFlattenProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_slot_count_matches_oracle(self, seed):
        rng = random.Random(seed)
        registry, root = random_registry(rng)
        plan = flatten(registry, root)
        assert len(plan.slots) == count_slots_oracle(registry, root)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_declaration_order_preserved(self, seed):
        rng = random.Random(seed)
        registry, root = random_registry(rng)
        plan = flatten(registry, root)
        field_order = [f.name for f in registry.get(root).fields]

        def head(path: str) -> str:
            return path.split(".", 1)[0].split("[", 1)[0]

        positions = [field_order.index(head(s.path)) for s in plan.slots]
        assert positions == sorted(positions)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_flatten_idempotent_on_primitive_plans(self, seed):
        rng = random.Random(seed)
        registry, root = random_registry(rng)
        plan = flatten(registry, root)
        if any(isinstance(s, GroupSlot) for s in plan.slots):
            return
        rebuilt_fields = tuple(
            FieldDef(f"s{i}", s.primitive, s.arity) for i, s in enumerate(plan.slots)
        )
        rereg = TypeRegistry([MessageTypeDef("re/Flat", rebuilt_fields)])
        replan = flatten(rereg.resolve(), "re/Flat")
        assert [(s.primitive, s.arity) for s in replan.slots] == [
            (s.primitive, s.arity) for s in plan.slots
        ]
        assert replan.fixed_size_bytes == plan.fixed_size_bytes
