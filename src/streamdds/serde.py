"""Framed message codec, compiled once per serialization plan.

A message value is a plain dict tree mirroring its type definition.  On the
wire it is the plan's slots in order: little-endian primitives, packed (no
inter-field alignment), dynamic slots prefixed with a uint32 element count,
strings as utf-8 bytes behind a uint32 byte-length prefix.  The payload is
zero-padded to a 32-bit word boundary and wrapped in a Frame; one frame
carries exactly one message, so the frame boundary is the end-of-message
marker.

The encoder emits a frame as word-aligned segments
(``serialize_segments``), which the runtime streams without joining them.
A ``bytes`` value of a ``uint8`` array of at least ``VIEW_MIN_BYTES`` is
published by reference: its segment is a view of the caller's immutable
object, and only its unaligned first and last bytes are copied, into the
neighbouring encoded bytes.  ``bytearray`` and ``memoryview`` values are
copied, because a publish can return before the subscriber has read the
frame and the caller may then change them.  ``serialize`` joins the
segments into one contiguous frame.

``flatten`` compiles every plan it makes into a ``Codec``, so the work is
done once, when a topology is built; ``serialize`` and ``deserialize`` only
run it.  Each level of a plan (its top level, and the element of each group
slot) compiles into:

- a reader of the level's slot values and a builder of its dict tree.  A
  level whose slots are all fields of one dict reads them with one
  ``operator.itemgetter`` and builds the dict with ``dict(zip(...))``; a
  level with nested scalar types or fixed arrays of them uses a shape tree
  nested once from the slot paths;
- ops over those slot values in wire order.  A run of consecutive
  fixed-width slots (scalars other than string, and fixed arrays of numbers
  other than ``uint8``) packs and unpacks with one pre-built
  ``struct.Struct``; strings, ``uint8`` arrays, dynamic arrays and groups
  each get an op of their own.

The ops leave to ``struct`` the checks it makes anyway.  Only after an
exception does the codec look for the slot to blame, so a
``SerializationError`` still names the failing slot by its full path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from operator import index, itemgetter

from .msgdef import (
    PRIMITIVE_WIDTHS,
    Arity,
    GroupSlot,
    MessageTypeDef,
    PlanSlot,
    SerializationPlan,
    TypeRegistry,
)

_STRUCT_CODE = {
    "bool": "?",
    "int8": "b",
    "uint8": "B",
    "int16": "h",
    "uint16": "H",
    "int32": "i",
    "uint32": "I",
    "int64": "q",
    "uint64": "Q",
    "float32": "f",
    "float64": "d",
}

_COUNT = struct.Struct("<I")
_BYTES = (bytes, bytearray, memoryview)
_PAD = bytes(3)
_PACK_ERRORS = (struct.error, TypeError, OverflowError)

# Smallest ``bytes`` value published by reference.  Below it a copy costs
# less than what a view adds to the transfer: each segment a view splits off
# costs a channel hand-off, and the subscriber's reassembly reads the
# caller's object from colder cache than a copy made just before.  On the
# transfer ladder (tests/test_acceptance.py, c5), views from 64 KiB made the
# 196k and 786k transfers 40-55% slower, and the 3146k one 5-8%.
VIEW_MIN_BYTES = 1 << 20

MessageValue = dict


class CodecError(Exception):
    pass


class SerializationError(CodecError):
    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.reason = message
        self.path = path

    def within(self, prefix: str) -> SerializationError:
        """The same error for a value nested at path ``prefix``."""
        return SerializationError(self.reason, _join(prefix, self.path) if self.path else prefix)


class DeserializationError(CodecError):
    """A frame that does not decode; ``path`` names the slot it failed at.

    The message is ``before + path + after``.
    """

    def __init__(self, before: str, path: str = "", after: str = ""):
        super().__init__(before + path + after)
        self.path = path
        self._parts = (before, after)

    def within(self, prefix: str) -> DeserializationError:
        """The same error for a slot nested at path ``prefix``."""
        before, after = self._parts
        return DeserializationError(before, _join(prefix, self.path), after)


@dataclass(frozen=True)
class Frame:
    """One serialized message: a word-aligned byte payload.

    ``payload`` may be any bytes-like object (treat it as read-only);
    avoiding a forced ``bytes`` conversion keeps multi-megabyte frames from
    paying an extra copy.
    """

    payload: bytes | bytearray | memoryview

    def __post_init__(self):
        if len(self.payload) % 4 != 0:
            raise ValueError("frame payload must be a whole number of 32-bit words")

    @property
    def word_count(self) -> int:
        return len(self.payload) // 4

    def hexdump(self) -> str:
        """Lowercase hex, one 4-byte word per line (golden-test format)."""
        mv = memoryview(self.payload)
        return "\n".join(mv[i : i + 4].hex() for i in range(0, len(mv), 4))


def serialize(value: MessageValue, plan: SerializationPlan) -> Frame:
    """Encode ``value`` against ``plan`` into a word-aligned frame."""
    segments = serialize_segments(value, plan)
    return Frame(segments[0] if len(segments) == 1 else b"".join(segments))


def serialize_segments(value: MessageValue, plan: SerializationPlan) -> list:
    """Encode ``value`` against ``plan`` into the segments of its frame.

    Each segment is a whole number of words and at least one word long,
    except the one segment of an empty frame; joined in order they are the
    frame ``serialize`` returns.  A ``bytes`` value of a ``uint8`` array of
    at least ``VIEW_MIN_BYTES`` is a view of the caller's object; every
    other segment is new.
    """
    out = _Out()
    out.segments = segments = []
    plan.codec.encode(value, out)
    out += _PAD[: (-len(out)) % 4]
    if out or not segments:
        segments.append(out)
    del out.segments  # no cycle through the list that now holds ``out``
    return segments


def deserialize(frame: Frame, plan: SerializationPlan) -> MessageValue:
    """Decode a frame produced for the same plan back into a value tree."""
    buf = memoryview(frame.payload)
    value, pos = plan.codec.decode(buf, 0)
    tail = len(buf) - pos
    if tail >= 4 or buf[pos:] != b"\x00" * tail:
        raise DeserializationError(
            f"{tail} trailing bytes after last slot are not word padding"
        )
    return value


class Codec:
    """A plan's compiled encoder and decoder.

    ``encode(value, out)`` appends the unpadded wire bytes of ``value`` to
    ``out``, an ``_Out``; ``decode(buf, pos)`` reads one value from ``buf``
    at ``pos`` and returns it with the position after it.
    """

    __slots__ = ("encode", "decode")

    def __init__(self, slots: tuple):
        self.encode, self.decode = _compile_level(slots)


class _Out(bytearray):
    """Encoder output: the open segment's bytes, appended to in place.

    ``segments`` holds the segments finished before the open one.
    """

    __slots__ = ("segments",)

    def append_view(self, data: bytes) -> None:
        """Append ``data`` (at least 7 bytes) as a view, not a copy.

        The view covers whole words of the frame: the bytes up to the next
        word boundary close the open segment, and the bytes after the
        view's last whole word open the next one.
        """
        head = (-len(self)) % 4
        end = head + (len(data) - head) // 4 * 4
        self += data[:head]
        if self:
            self.segments.append(bytes(self))
            self.clear()
        self.segments.append(memoryview(data)[head:end])
        self += data[end:]


# --- compiling one level ---------------------------------------------------
#
# Compiled pieces are module functions bound to their constants with
# ``functools.partial``: a plan compiles into few objects, and a set-up that
# compiles plans leaves little for the garbage collector.


def _compile_level(slots: tuple):
    """(encode, decode) for the slots of one level; see ``Codec``."""
    encoders, decoders = [], []
    # the open run of fixed-width slots, from slots[start]: its struct codes,
    # and per slot 0 for a scalar, -1 for a bool scalar, n for a fixed array
    codes, shape = ["<"], []
    start = 0
    keys = []
    nested = False
    for i, slot in enumerate((*slots, None)):
        if slot is not None:
            keys.append(slot.path)
            nested = nested or "." in slot.path
        if slot.__class__ is PlanSlot and slot.primitive != "string":
            kind = slot.arity.kind
            if kind == Arity.SCALAR:
                codes.append(_STRUCT_CODE[slot.primitive])
                shape.append(-(slot.primitive == "bool"))
                continue
            if kind == Arity.FIXED and slot.primitive != "uint8":
                codes.append(f"{slot.arity.size}{_STRUCT_CODE[slot.primitive]}")
                shape.append(slot.arity.size)
                continue
        if shape:  # close the run of slots[start:i] under one Struct
            packer = struct.Struct("".join(codes))
            run = slots[start:i]
            if any(shape):
                shape = tuple(shape)
                enc = partial(_enc_mixed_run, packer, start, i, shape, run)
                encoders.append(_check_bool_arrays(enc, start, run))
                decoders.append(partial(_dec_mixed_run, packer, shape, run))
            else:
                encoders.append(partial(_enc_run, packer, start, i, run))
                decoders.append(partial(_dec_run, packer, run))
            codes, shape = ["<"], []
        start = i + 1
        if slot is None:
            break
        if slot.__class__ is GroupSlot:
            enc_one, dec_one = _compile_level(slot.element_slots)
            encoders.append(partial(_enc_group, slot, i, enc_one))
            decoders.append(partial(_dec_group, slot, dec_one))
        elif slot.arity.kind == Arity.SCALAR:
            encoders.append(partial(_enc_string, slot.path, i))
            decoders.append(partial(_dec_string, slot.path))
        else:
            encoders.append(_check_bool_arrays(partial(_enc_array, slot, i), i, (slot,)))
            decoders.append(partial(_dec_array, slot))
    if nested:
        flat, build = _tree_codec(_shape(slots))
        return (
            partial(_encode_level, flat, encoders, slots),
            partial(_decode_level, build, decoders),
        )
    return (
        partial(_encode_level, _getter(keys), encoders, slots),
        partial(_decode_flat_level, keys, decoders),
    )


def _check_bool_arrays(enc, start: int, slots: tuple):
    """``enc`` for ``slots`` (from ``start`` in their level), bool arrays checked.

    ``struct`` packs any object as a bool by its truth, so each element of a
    bool array must first pass ``operator.index``, as a bool scalar does.
    Ops without bool arrays are returned as they are and pay nothing.
    """
    checks = tuple(
        (start + k, slot)
        for k, slot in enumerate(slots)
        if slot.primitive == "bool" and slot.arity.kind != Arity.SCALAR
    )
    return partial(_enc_bool_arrays, checks, enc) if checks else enc


def _encode_level(flat, encoders, slots, value, out: bytearray) -> None:
    try:
        leaves = flat(value)
    except (KeyError, TypeError, IndexError):
        err = _shape_error(_shape(slots), value, "")
        if err is None:
            raise
        raise err from None
    for enc in encoders:
        enc(leaves, out)


def _decode_level(build, decoders, buf: memoryview, pos: int):
    leaves = []
    for dec in decoders:
        pos = dec(buf, pos, leaves)
    return build(leaves), pos


def _decode_flat_level(keys, decoders, buf: memoryview, pos: int):
    leaves = []
    for dec in decoders:
        pos = dec(buf, pos, leaves)
    return dict(zip(keys, leaves)), pos


def _shape(slots: tuple) -> dict:
    """Nest one level's slots by their dotted paths.

    A dict maps each field name to its slot or to a nested dict; a fixed
    array of a nested type becomes a list of such dicts, one per element.
    Slots are inserted in plan order, so every dict iterates in wire order.
    """
    tree: dict = {}
    for slot in slots:
        node = tree
        *outer, last = slot.path.split(".")
        for part in outer:
            name, bracket, idx = part.partition("[")
            if bracket:
                elements = node.setdefault(name, [])
                if int(idx[:-1]) == len(elements):
                    elements.append({})
                node = elements[-1]
            else:
                node = node.setdefault(name, {})
        node[last] = slot
    return tree


def _getter(keys: list):
    """A function from a dict to the tuple of its values at ``keys``."""
    if len(keys) == 1:
        return partial(_get_one, keys[0])
    return itemgetter(*keys) if keys else _get_none


def _get_one(key, value) -> tuple:
    return (value[key],)


def _get_none(value) -> tuple:
    return ()


def _tree_codec(tree: dict):
    """(flat, build) for a shape tree.

    ``flat(value)`` returns the value's slot values in plan order; it raises
    KeyError, TypeError or IndexError where ``value`` does not have the
    tree's shape.  ``build(values)`` makes a value back from slot values,
    taking from an iterator only as many as the tree has slots.
    """
    keys = list(tree)
    get = _getter(keys)
    flats, parts = [], []
    for key, sub in tree.items():
        if sub.__class__ is dict:
            flat, build = _tree_codec(sub)
        elif sub.__class__ is list:
            flat, build = _fixed_array_codec(sub)
        else:
            flat, build = None, next
        flats.append(flat)
        parts.append((key, build))
    if not any(flats):
        return get, partial(_build_flat, keys)
    return partial(_flat_nested, get, flats), partial(_build_nested, parts)


def _build_flat(keys, it) -> dict:
    return dict(zip(keys, it))


def _flat_nested(get, flats, value) -> list:
    leaves = []
    for sub, v in zip(flats, get(value)):
        if sub is None:
            leaves.append(v)
        else:
            leaves += sub(v)
    return leaves


def _build_nested(parts, values) -> dict:
    it = iter(values)
    return {key: part(it) for key, part in parts}


def _fixed_array_codec(elements: list):
    flat_one, build_one = _tree_codec(elements[0])
    n = len(elements)
    return partial(_flat_fixed, n, flat_one), partial(_build_fixed, n, build_one)


def _flat_fixed(n, flat_one, seq) -> list:
    if len(seq) != n:
        raise IndexError(n)
    leaves = []
    for element in seq:
        leaves += flat_one(element)
    return leaves


def _build_fixed(n, build_one, it) -> list:
    return [build_one(it) for _ in range(n)]


# --- ops ------------------------------------------------------------------
#
# Each op is a pair (enc, dec) for the slot values at one index (or, for a
# run, a range of indices) of its level: ``enc(leaves, out)`` appends their
# wire bytes to ``out``; ``dec(buf, pos, leaves)`` appends their decoded
# values to ``leaves`` and returns the position after them.


def _enc_run(packer, i, j, slots, leaves, out) -> None:
    try:
        out += packer.pack(*leaves[i:j])
    except _PACK_ERRORS:
        raise _blame(slots, leaves[i:j]) from None


def _dec_run(packer, slots, buf, pos, leaves) -> int:
    try:
        leaves += packer.unpack_from(buf, pos)
    except struct.error:
        raise _truncated_run(slots, buf, pos) from None
    return pos + packer.size


def _enc_mixed_run(packer, i, j, shape, slots, leaves, out) -> None:
    """A run with fixed arrays or bools in it."""
    values = leaves[i:j]
    args = []
    try:
        for v, n in zip(values, shape):
            if n > 0:
                if isinstance(v, _BYTES) or len(v) != n:
                    raise _blame(slots, values)
                args += v
            else:
                if n:
                    index(v)  # '?' would pack any object by its truth
                args.append(v)
        out += packer.pack(*args)
    except _PACK_ERRORS:
        raise _blame(slots, values) from None


def _dec_mixed_run(packer, shape, slots, buf, pos, leaves) -> int:
    try:
        values = packer.unpack_from(buf, pos)
    except struct.error:
        raise _truncated_run(slots, buf, pos) from None
    k = 0
    for n in shape:
        if n > 0:
            leaves.append(list(values[k : k + n]))
            k += n
        else:
            leaves.append(values[k])
            k += 1
    return pos + packer.size


def _enc_bool_arrays(checks, enc, leaves, out) -> None:
    for i, slot in checks:
        try:
            for x in leaves[i]:
                index(x)
        except TypeError:
            raise _blame((slot,), (leaves[i],)) from None
    enc(leaves, out)


def _enc_string(path, i, leaves, out) -> None:
    value = leaves[i]
    if not isinstance(value, str):
        raise SerializationError("expected str", path)
    data = value.encode()
    out += _COUNT.pack(len(data))
    out += data


def _dec_string(path, buf, pos, leaves) -> int:
    try:
        n = _COUNT.unpack_from(buf, pos)[0]
    except struct.error:
        raise _truncated(4, path, buf, pos, " length") from None
    pos += 4
    end = pos + n
    if end > len(buf):
        raise _truncated(n, path, buf, pos)
    try:
        leaves.append(str(buf[pos:end], "utf-8"))
    except UnicodeDecodeError as e:
        raise DeserializationError("", path, f": invalid utf-8 payload ({e})") from None
    return end


def _enc_array(slot: PlanSlot, i, leaves, out) -> None:
    """A fixed array of strings or ``uint8``, or any dynamic array."""
    v = leaves[i]
    path, arity, primitive = slot.path, slot.arity, slot.primitive
    try:
        n = len(v)
    except TypeError:
        raise SerializationError("expected a sequence", path) from None
    if arity.kind == Arity.FIXED:
        if n != arity.size:
            raise _count_error(arity, n, path)
    else:
        if arity.kind == Arity.BOUNDED and n > arity.size:
            raise _count_error(arity, n, path)
        out += _COUNT.pack(n)
    if primitive == "string":
        for k in range(n):
            _enc_string(f"{path}[{k}]", k, v, out)
    elif isinstance(v, _BYTES):
        if primitive != "uint8":
            raise SerializationError("bytes value only valid for uint8 arrays", path)
        if v.__class__ is bytes and n >= VIEW_MIN_BYTES:
            out.append_view(v)
        else:
            out += v
    else:
        try:
            out += struct.pack(f"<{n}{_STRUCT_CODE[primitive]}", *v)
        except _PACK_ERRORS:
            raise _blame((slot,), (v,)) from None


def _dec_array(slot: PlanSlot, buf, pos, leaves) -> int:
    path, arity, primitive = slot.path, slot.arity, slot.primitive
    if arity.kind == Arity.FIXED:
        n = arity.size
    else:
        n = _read_count(slot, buf, pos)
        pos += 4
    if primitive == "string":
        items = []
        for k in range(n):
            pos = _dec_string(f"{path}[{k}]", buf, pos, items)
        leaves.append(items)
        return pos
    end = pos + n * PRIMITIVE_WIDTHS[primitive]
    if end > len(buf):
        raise _truncated(end - pos, path, buf, pos)
    if primitive == "uint8":
        leaves.append(bytes(buf[pos:end]))
    else:
        leaves.append(list(struct.unpack_from(f"<{n}{_STRUCT_CODE[primitive]}", buf, pos)))
    return end


def _enc_group(slot: GroupSlot, i, enc_one, leaves, out) -> None:
    elements = leaves[i]
    try:
        n = len(elements)
    except TypeError:
        raise SerializationError("expected a sequence", slot.path) from None
    if slot.arity.kind == Arity.BOUNDED and n > slot.arity.size:
        raise _count_error(slot.arity, n, slot.path)
    out += _COUNT.pack(n)
    for k, element in enumerate(elements):
        try:
            enc_one(element, out)
        except SerializationError as e:
            raise e.within(f"{slot.path}[{k}]") from None


def _dec_group(slot: GroupSlot, dec_one, buf, pos, leaves) -> int:
    n = _read_count(slot, buf, pos)
    pos += 4
    elements = []
    try:
        for _ in range(n):
            element, pos = dec_one(buf, pos)
            elements.append(element)
    except DeserializationError as e:
        raise e.within(f"{slot.path}[{len(elements)}]") from None
    leaves.append(elements)
    return pos


# --- shared pieces and the error paths --------------------------------------


def _read_count(slot, buf: memoryview, pos: int) -> int:
    """The element count of a dynamic slot, checked against its bound."""
    try:
        n = _COUNT.unpack_from(buf, pos)[0]
    except struct.error:
        raise _truncated(4, slot.path, buf, pos, " count") from None
    if slot.arity.kind == Arity.BOUNDED and n > slot.arity.size:
        raise DeserializationError(
            "", slot.path, f": count {n} exceeds bound {slot.arity.size}"
        )
    return n


def _truncated(
    n: int, path: str, buf: memoryview, pos: int, what: str = ""
) -> DeserializationError:
    """``n`` bytes of ``what`` at slot ``path`` run past the frame's end."""
    left = max(len(buf) - pos, 0)
    return DeserializationError(
        f"truncated frame: needed {n} bytes for ", path, f"{what}, {left} left"
    )


def _truncated_run(slots: tuple, buf: memoryview, pos: int) -> DeserializationError:
    """The truncation error for the first of a run's slots past the end."""
    for slot in slots[:-1]:
        width = slot.fixed_width_bytes()
        if pos + width > len(buf):
            return _truncated(width, slot.path, buf, pos)
        pos += width
    return _truncated(slots[-1].fixed_width_bytes(), slots[-1].path, buf, pos)


def _count_error(arity: Arity, n: int, path: str) -> SerializationError | None:
    if arity.kind == Arity.FIXED and n != arity.size:
        return SerializationError(
            f"fixed array needs exactly {arity.size} elements, got {n}", path
        )
    if arity.kind == Arity.BOUNDED and n > arity.size:
        return SerializationError(
            f"bounded array allows at most {arity.size} elements, got {n}", path
        )
    return None


def _blame(slots: tuple, values) -> SerializationError:
    """The error for the first of ``slots`` whose value does not pack."""
    for slot, v in zip(slots, values):
        primitive, path = slot.primitive, slot.path
        if slot.arity.kind == Arity.SCALAR:
            items = (v,)
        elif isinstance(v, _BYTES) and primitive != "uint8":
            return SerializationError("bytes value only valid for uint8 arrays", path)
        else:
            try:
                items = list(v)
            except TypeError:
                return SerializationError("expected a sequence", path)
            err = _count_error(slot.arity, len(items), path)
            if err is not None:
                return err
        if primitive == "bool":
            try:
                for x in items:
                    index(x)
            except TypeError:
                return SerializationError("value not encodable as bool", path)
        try:
            struct.pack(f"<{len(items)}{_STRUCT_CODE[primitive]}", *items)
        except _PACK_ERRORS as e:
            return SerializationError(f"value not encodable as {primitive} ({e})", path)
    return SerializationError("values not encodable", slots[0].path)


def _shape_error(tree: dict, value, path: str) -> SerializationError | None:
    """The error for the first place ``value`` departs from ``tree``'s shape."""
    if not isinstance(value, dict):
        return SerializationError("expected nested value", path)
    for key, sub in tree.items():
        where = _join(path, key)
        if key not in value:
            return SerializationError("missing field", where)
        v = value[key]
        if isinstance(sub, dict):
            err = _shape_error(sub, v, where)
            if err is not None:
                return err
        elif isinstance(sub, list):
            try:
                n = len(v)
            except TypeError:
                return SerializationError("expected a sequence", where)
            err = _count_error(Arity.fixed(len(sub)), n, where)
            if err is not None:
                return err
            for k, element in enumerate(v):
                err = _shape_error(sub[0], element, f"{where}[{k}]")
                if err is not None:
                    return err
    return None


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


# --- shape conformance ---------------------------------------------------


def _scalar_conforms(primitive: str, v) -> bool:
    if primitive == "bool":
        return isinstance(v, bool)
    if primitive == "string":
        return isinstance(v, str)
    if primitive in ("float32", "float64"):
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    return isinstance(v, int) and not isinstance(v, bool)


def _check_length(arity: Arity, n: int) -> bool:
    if arity.kind == Arity.FIXED:
        return n == arity.size
    if arity.kind == Arity.BOUNDED:
        return n <= arity.size
    return True


def conforms_to(
    value: MessageValue, mtd: MessageTypeDef, registry: TypeRegistry
) -> tuple[bool, str | None]:
    """Check that ``value`` shape-matches ``mtd`` recursively.

    Returns (True, None) on conformance, else (False, first violation path).
    """

    def walk(v, t: MessageTypeDef, path: str) -> str | None:
        if not isinstance(v, dict):
            return path or t.type_name
        names = {f.name for f in t.fields}
        for extra in v.keys() - names:
            return _join(path, extra)
        for f in t.fields:
            fpath = _join(path, f.name)
            if f.name not in v:
                return fpath
            fv = v[f.name]
            if f.arity.kind == Arity.SCALAR:
                if f.is_primitive:
                    if not _scalar_conforms(f.type_name, fv):
                        return fpath
                else:
                    bad = walk(fv, registry.get(f.type_name), fpath)
                    if bad is not None:
                        return bad
                continue
            # arrays
            if isinstance(fv, (bytes, bytearray)):
                if f.type_name != "uint8":
                    return fpath
                n = len(fv)
            elif isinstance(fv, (list, tuple)):
                n = len(fv)
            else:
                return fpath
            if not _check_length(f.arity, n):
                return fpath
            if isinstance(fv, (bytes, bytearray)):
                continue
            for i, item in enumerate(fv):
                ipath = f"{fpath}[{i}]"
                if f.is_primitive:
                    if not _scalar_conforms(f.type_name, item):
                        return ipath
                else:
                    bad = walk(item, registry.get(f.type_name), ipath)
                    if bad is not None:
                        return bad
        return None

    violation = walk(value, mtd, "")
    return (violation is None, violation)
