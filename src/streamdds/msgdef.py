"""Message definition parsing and flattening.

Message types are declared in ROS 2-style ``.msg`` text files: one
``<type> <name>`` field per line, ``#`` comments, ``<TYPE> NAME=value``
constants, and ``[]`` / ``[n]`` / ``[<=n]`` array suffixes.  Types may nest;
a registry of parsed types is resolved (references checked, nesting verified
acyclic) and then flattened into a serialization plan: the ordered list of
primitive slots that a codec walks when writing or reading a wire frame.
Fixed-length nested arrays unroll into consecutive copies of the element's
slots; dynamically sized nested arrays become a count-prefixed group of
sub-slots, which names its element type.  The plan's codec is compiled from
the slots and the type definitions: a slot's path only names it in errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Union

if TYPE_CHECKING:
    from .serde import Codec

PRIMITIVE_WIDTHS: dict[str, int] = {
    "bool": 1,
    "int8": 1,
    "uint8": 1,
    "int16": 2,
    "uint16": 2,
    "int32": 4,
    "uint32": 4,
    "int64": 8,
    "uint64": 8,
    "float32": 4,
    "float64": 8,
    "string": 0,  # dynamic: 32-bit byte-length prefix + utf-8 payload
}

PRIMITIVES = frozenset(PRIMITIVE_WIDTHS)

# The largest count of an array of a type whose values have no bytes on the
# wire.  A frame's length limits any other group's count, but nothing limits
# this one's: a 4-byte count could decode into billions of dicts.
NO_BYTES_BOUND = 0xFFFF

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# Nested type references are CamelCase, optionally package-qualified.
_NESTED_RE = re.compile(r"^(?:[A-Za-z_][A-Za-z0-9_]*/)?[A-Z][A-Za-z0-9_]*$")
# A bare lowercase word that is not a known primitive is treated as a
# reserved-word collision (e.g. "int128"), not as a nested type.
_PRIMITIVE_LIKE_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_FIELD_RE = re.compile(
    r"^(?P<type>[A-Za-z_][A-Za-z0-9_/]*)(?P<suffix>\[[^\]]*\])?\s+(?P<name>\S+)$"
)
_CONST_RE = re.compile(
    r"^(?P<type>[A-Za-z_][A-Za-z0-9_/]*)\s+(?P<name>[A-Z][A-Z0-9_]*)\s*=\s*(?P<value>.+)$"
)


class MessageDefinitionError(Exception):
    """Base error for message definition handling."""


class MsgParseError(MessageDefinitionError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TypeResolutionError(MessageDefinitionError):
    pass


@dataclass(frozen=True)
class Arity:
    """Multiplicity of a field: scalar, fixed[n], bounded[<=n] or unbounded[]."""

    kind: str  # "scalar" | "fixed" | "bounded" | "unbounded"
    size: int | None = None

    SCALAR = "scalar"
    FIXED = "fixed"
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"

    @classmethod
    def scalar(cls) -> "Arity":
        return cls(cls.SCALAR)

    @classmethod
    def fixed(cls, n: int) -> "Arity":
        return cls(cls.FIXED, n)

    @classmethod
    def bounded(cls, n_max: int) -> "Arity":
        return cls(cls.BOUNDED, n_max)

    @classmethod
    def unbounded(cls) -> "Arity":
        return cls(cls.UNBOUNDED)

    @property
    def is_dynamic(self) -> bool:
        return self.kind in (self.BOUNDED, self.UNBOUNDED)

    def to_json(self) -> dict:
        return {"kind": self.kind, "size": self.size}


@dataclass(frozen=True)
class FieldDef:
    name: str
    type_name: str  # primitive name or (possibly package-qualified) nested type
    arity: Arity

    @property
    def is_primitive(self) -> bool:
        return self.type_name in PRIMITIVES


@dataclass(frozen=True)
class Constant:
    name: str
    primitive: str
    value: object


@dataclass(frozen=True)
class MessageTypeDef:
    """A parsed message type: ordered fields plus constants.

    Field order equals declaration order in the source text; constants are
    kept for fidelity but never serialized.
    """

    type_name: str
    fields: tuple[FieldDef, ...]
    constants: tuple[Constant, ...] = ()

    def field_map(self) -> dict[str, FieldDef]:
        return {f.name: f for f in self.fields}


class TypeRegistry:
    """Mapping of type name to definition with reference/cycle validation."""

    def __init__(self, types: Iterable[MessageTypeDef] = ()):
        self._types: dict[str, MessageTypeDef] = {}
        self._resolved = False
        for t in types:
            self.register(t)

    def register(self, mtd: MessageTypeDef) -> None:
        if mtd.type_name in self._types:
            raise MessageDefinitionError(f"type {mtd.type_name!r} already registered")
        self._types[mtd.type_name] = mtd
        self._resolved = False

    def get(self, type_name: str) -> MessageTypeDef:
        try:
            return self._types[type_name]
        except KeyError:
            raise TypeResolutionError(f"unknown type {type_name!r}") from None

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._types

    def __iter__(self):
        return iter(self._types.values())

    @property
    def resolved(self) -> bool:
        return self._resolved

    def resolve(self) -> "TypeRegistry":
        """Check that every nested reference resolves and nesting is acyclic.

        Returns the registry itself, marked resolved.  Raises
        TypeResolutionError naming the missing reference or the cycle path.
        """
        for mtd in self._types.values():
            for f in mtd.fields:
                if not f.is_primitive and f.type_name not in self._types:
                    raise TypeResolutionError(
                        f"{mtd.type_name}.{f.name} references unknown type "
                        f"{f.type_name!r}"
                    )
        # Depth-first search for cycles in the nesting graph.
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._types}
        stack: list[str] = []

        def visit(name: str) -> None:
            color[name] = GREY
            stack.append(name)
            for f in self._types[name].fields:
                if f.is_primitive:
                    continue
                if color[f.type_name] == GREY:
                    cycle = stack[stack.index(f.type_name):] + [f.type_name]
                    raise TypeResolutionError(
                        "cyclic nesting: " + " -> ".join(cycle)
                    )
                if color[f.type_name] == WHITE:
                    visit(f.type_name)
            stack.pop()
            color[name] = BLACK

        for name in self._types:
            if color[name] == WHITE:
                visit(name)
        self._resolved = True
        return self


def resolve(registry: TypeRegistry) -> TypeRegistry:
    """Functional alias for TypeRegistry.resolve()."""
    return registry.resolve()


def _package_of(type_name: str) -> str | None:
    return type_name.rsplit("/", 1)[0] if "/" in type_name else None


def _parse_suffix(suffix: str | None, line_no: int) -> Arity:
    if suffix is None:
        return Arity.scalar()
    inner = suffix[1:-1]
    if inner == "":
        return Arity.unbounded()
    bounded = inner.startswith("<=")
    digits = inner[2:] if bounded else inner
    if not digits.isdigit():
        raise MsgParseError(f"bad array suffix {suffix!r}", line_no)
    n = int(digits)
    if n < 1:
        raise MsgParseError(f"array length must be >= 1, got {suffix!r}", line_no)
    return Arity.bounded(n) if bounded else Arity.fixed(n)


def _parse_constant_value(primitive: str, raw: str, line_no: int):
    raw = raw.strip()
    try:
        if primitive == "bool":
            lowered = raw.lower()
            if lowered in ("true", "1"):
                return True
            if lowered in ("false", "0"):
                return False
            raise ValueError(raw)
        if primitive in ("float32", "float64"):
            return float(raw)
        if primitive == "string":
            if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
                return raw[1:-1]
            return raw
        return int(raw, 0)
    except ValueError:
        raise MsgParseError(
            f"bad {primitive} constant value {raw!r}", line_no
        ) from None


def parse_msg_file(source_text: str, type_name: str) -> MessageTypeDef:
    """Parse one .msg source into a MessageTypeDef named ``type_name``.

    Unqualified nested type references are namespaced into ``type_name``'s
    package.  Raises MsgParseError with a line number on bad syntax,
    duplicate field names, or primitive-looking unknown type words.
    """
    package = _package_of(type_name)
    fields: list[FieldDef] = []
    constants: list[Constant] = []
    seen_fields: set[str] = set()
    seen_consts: set[str] = set()

    for line_no, raw_line in enumerate(source_text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue

        m = _CONST_RE.match(line)
        if m:
            ctype = m.group("type")
            if ctype not in PRIMITIVES:
                raise MsgParseError(
                    f"constant {m.group('name')!r} must have a primitive type, "
                    f"got {ctype!r}",
                    line_no,
                )
            cname = m.group("name")
            if cname in seen_consts:
                raise MsgParseError(f"duplicate constant name {cname!r}", line_no)
            seen_consts.add(cname)
            constants.append(
                Constant(cname, ctype, _parse_constant_value(ctype, m.group("value"), line_no))
            )
            continue

        m = _FIELD_RE.match(line)
        if not m:
            raise MsgParseError(f"cannot parse declaration {line!r}", line_no)
        name = m.group("name")
        if not _IDENT_RE.match(name):
            raise MsgParseError(f"bad field name {name!r}", line_no)
        if name in seen_fields:
            raise MsgParseError(f"duplicate field name {name!r}", line_no)

        ftype = m.group("type")
        arity = _parse_suffix(m.group("suffix"), line_no)
        if ftype not in PRIMITIVES:
            if _PRIMITIVE_LIKE_RE.match(ftype):
                raise MsgParseError(
                    f"unknown primitive type {ftype!r}", line_no
                )
            if not _NESTED_RE.match(ftype):
                raise MsgParseError(f"bad type reference {ftype!r}", line_no)
            if "/" not in ftype and package is not None:
                ftype = f"{package}/{ftype}"

        seen_fields.add(name)
        fields.append(FieldDef(name, ftype, arity))

    return MessageTypeDef(type_name, tuple(fields), tuple(constants))


def load_msg_tree(root: str | Path) -> TypeRegistry:
    """Load all ``<pkg>/msg/<Name>.msg`` files under ``root`` into a registry.

    ``root`` may itself be a single package directory containing ``msg/``.
    """
    root = Path(root)
    registry = TypeRegistry()
    package_dirs = [root] if (root / "msg").is_dir() else sorted(
        p for p in root.iterdir() if (p / "msg").is_dir()
    )
    for pkg_dir in package_dirs:
        for msg_file in sorted((pkg_dir / "msg").glob("*.msg")):
            type_name = f"{pkg_dir.name}/{msg_file.stem}"
            registry.register(parse_msg_file(msg_file.read_text(), type_name))
    return registry


# --- flattening ---------------------------------------------------------


@dataclass(frozen=True)
class PlanSlot:
    """One primitive wire slot: dotted path, primitive type, multiplicity."""

    path: str
    primitive: str
    arity: Arity

    @property
    def is_dynamic(self) -> bool:
        # string payloads are length-prefixed, hence dynamic even as scalars
        return self.arity.is_dynamic or self.primitive == "string"

    def fixed_width_bytes(self) -> int | None:
        if self.is_dynamic:
            return None
        width = PRIMITIVE_WIDTHS[self.primitive]
        n = self.arity.size if self.arity.kind == Arity.FIXED else 1
        return width * n

    def to_json(self) -> dict:
        return {"path": self.path, "primitive": self.primitive, "arity": self.arity.to_json()}


@dataclass(frozen=True)
class GroupSlot:
    """A dynamically repeated run of sub-slots (array of a nested type).

    On the wire: a uint32 element count followed by that many repetitions of
    ``element_slots``, the slots of the nested type ``element_type``.
    Sub-slot paths are relative to one element.
    """

    path: str
    arity: Arity  # bounded or unbounded
    element_slots: tuple[Union[PlanSlot, "GroupSlot"], ...]
    element_type: str

    @property
    def is_dynamic(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "arity": self.arity.to_json(),
            "group": [s.to_json() for s in self.element_slots],
        }


Slot = Union[PlanSlot, GroupSlot]


@dataclass(frozen=True)
class SerializationPlan:
    """Flattened wire layout of a message type.

    ``fixed_size_bytes`` is present only when no slot is dynamic, and then
    equals the sum of all slot widths (pre-padding).  ``codec`` is the
    plan compiled for ``serde.serialize`` and ``serde.deserialize``.
    """

    type_name: str
    slots: tuple[Slot, ...]
    fixed_size_bytes: int | None
    codec: Codec = field(compare=False, repr=False)

    @property
    def is_fixed_size(self) -> bool:
        return self.fixed_size_bytes is not None

    def padded_size_bytes(self) -> int | None:
        """Frame payload size after zero-padding to a 32-bit word boundary."""
        if self.fixed_size_bytes is None:
            return None
        return (self.fixed_size_bytes + 3) // 4 * 4

    def word_count(self) -> int | None:
        padded = self.padded_size_bytes()
        return None if padded is None else padded // 4

    def to_json(self) -> dict:
        doc = {"type_name": self.type_name, "slots": [s.to_json() for s in self.slots]}
        if self.fixed_size_bytes is not None:
            doc["fixed_size_bytes"] = self.fixed_size_bytes
        return doc


def _expand(registry: TypeRegistry, type_name: str, prefix: str) -> list[Slot]:
    slots: list[Slot] = []
    for f in registry.get(type_name).fields:
        path = prefix + f.name
        if f.is_primitive:
            slots.append(PlanSlot(path, f.type_name, f.arity))
        elif f.arity.kind == Arity.SCALAR:
            slots.extend(_expand(registry, f.type_name, path + "."))
        elif f.arity.kind == Arity.FIXED:
            for i in range(f.arity.size):
                slots.extend(_expand(registry, f.type_name, f"{path}[{i}]."))
        else:
            element = tuple(_expand(registry, f.type_name, ""))
            slots.append(GroupSlot(path, array_arity(registry, f), element, f.type_name))
    return slots


def array_arity(registry: TypeRegistry, f: FieldDef) -> Arity:
    """The arity a value of field ``f`` is held to.

    That is ``f.arity``, except for a dynamic array of a type with no bytes
    on the wire: only a bound limits its count, so it is bounded at
    ``NO_BYTES_BOUND``, or at its own bound if that is lower.
    """
    if f.is_primitive or not f.arity.is_dynamic or _has_bytes(registry, f.type_name):
        return f.arity
    return Arity.bounded(min(f.arity.size or NO_BYTES_BOUND, NO_BYTES_BOUND))


def _has_bytes(registry: TypeRegistry, type_name: str) -> bool:
    return any(
        f.is_primitive or f.arity.is_dynamic or _has_bytes(registry, f.type_name)
        for f in registry.get(type_name).fields
    )


def flatten(registry: TypeRegistry, type_name: str) -> SerializationPlan:
    """Expand a registered type depth-first into its compiled serialization plan."""
    if not registry.resolved:
        raise TypeResolutionError("registry must be resolved before flattening")
    slots = tuple(_expand(registry, type_name, ""))
    fixed: int | None = 0
    for slot in slots:
        width = None if slot.is_dynamic else slot.fixed_width_bytes()
        if width is None:
            fixed = None
            break
        fixed += width
    return SerializationPlan(type_name, slots, fixed, _serde.Codec(registry, type_name, slots))


# serde imports the names above, so it is imported last; flatten looks its
# Codec up when called
from . import serde as _serde  # noqa: E402
