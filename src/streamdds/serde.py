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

``deserialize_segments`` is the inverse, and runs the same decoder.  It
decodes a one-segment frame in place.  Segments that view a ``bytes``
object of at least ``VIEW_MIN_BYTES`` (the view ``serialize_segments``
emits, or slices of it, as a bounded channel cuts them) and follow one
another with no other segment between them become the value of the
``uint8`` array they line up with: the array's bytes before, among and
after them, joined in one copy; when the segments around the views are one
piece, those bytes are read from it in place.  Only one view that covers
the whole object and the whole array returns the caller's object itself.
Any other layout, and any frame that does not decode, is decoded joined,
so its errors read exactly as ``deserialize``'s.

``flatten`` compiles every plan it makes into a ``Codec``, so the work is
done once, when a topology is built; ``serialize`` and ``deserialize`` only
run it.  Each level of a plan (its top level, and the element of each group
slot) compiles into its own ``Codec``:

- a reader of the level's slot values and a builder of its dict, from the
  type definitions.  Every dict, at the top, nested or in a group element,
  reads its fields with one ``operator.itemgetter`` and is built with a
  dict display if it has at most eight fields, else with ``dict(zip(...))``;
  the slot values of a nested scalar or fixed array take its field's place;
- steps over those slot values in wire order.  Each step has one pre-built
  ``struct.Struct`` for a run of consecutive fixed-width slots (scalars
  other than string, and fixed arrays of numbers other than ``uint8``) and
  the uint32 count of the variable-size slot that follows them: a string's
  byte length, or a dynamic array's or a group's element count.  The step
  then writes or reads that slot's body: the string's bytes, the array's
  data, or the group's elements, all of them in one loop over the
  element's own steps.

The steps leave to ``struct`` the checks it makes anyway.  Only after an
exception does the codec look for the slot to blame, so a
``SerializationError`` or ``DeserializationError`` still names the failing
slot by its full path.

``flatten`` also compiles a ``copier`` per message type, which copies a
decoded value for another owner: every dict and list in it is new, and the
leaves, strings, numbers and ``bytes``, which nothing can change, are
shared.  The runtime decodes a frame broadcast to several subscribers once,
keeps the value on the frame's metadata until its last subscriber took it,
and gives each subscriber such a copy, at a small fraction of a decode's
cost.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from operator import index, itemgetter
from typing import Callable

from .msgdef import (
    PRIMITIVE_WIDTHS,
    Arity,
    GroupSlot,
    MessageTypeDef,
    PlanSlot,
    SerializationPlan,
    TypeRegistry,
    array_arity,
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
_NOT_WORDS = "frame payload must be a whole number of 32-bit words"

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
            raise ValueError(_NOT_WORDS)

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
    _encode(plan.codec, (value,), out, None)
    out += _PAD[: (-len(out)) % 4]
    if out or not segments:
        segments.append(out)
    del out.segments  # no cycle through the list that now holds ``out``
    return segments


def deserialize(frame: Frame, plan: SerializationPlan) -> MessageValue:
    """Decode a frame produced for the same plan back into a value tree."""
    return _deserialize(plan.codec, memoryview(frame.payload), None)


def deserialize_segments(segments, plan: SerializationPlan) -> MessageValue:
    """Decode a frame given as its segments, the inverse of ``serialize_segments``.

    Each segment must be a whole number of words.  The segments are only
    read, and a decoded ``uint8`` array may be the object a view segment
    shows (see the module docstring).  A lone segment is decoded in place,
    and so are the bytes around the views when they are one segment;
    any other frame is joined first.
    """
    if len(segments) == 1:
        frame = segments[0]
    else:
        views, rest, size = [], [], 0
        for segment in segments:
            if _is_view(segment):
                views.append((size, segment))  # where it sits among the rest
            else:
                rest.append(segment)
                size += len(segment)
        if views and size % 4 == 0:
            views.reverse()  # the next one to line up with an array is last
            around = rest[0] if len(rest) == 1 else b"".join(rest)
            try:
                value = _deserialize(plan.codec, memoryview(around), views)
                if not views:  # each lined up with its array
                    return value
            except DeserializationError:
                pass
        frame = b"".join(segments)
    if len(frame) % 4 != 0:
        raise ValueError(_NOT_WORDS)
    buf = frame if frame.__class__ is memoryview else memoryview(frame)
    return _deserialize(plan.codec, buf, None)


def _is_view(segment) -> bool:
    """Whether ``segment`` may be part of a ``bytes`` value published by reference.

    That is, a whole number of words viewing a ``bytes`` object of at least
    ``VIEW_MIN_BYTES``: a view ``_Out.append_view`` made, or any slice of
    one, as a bounded channel cuts it.
    """
    if segment.__class__ is not memoryview:
        return False
    obj = segment.obj
    return obj.__class__ is bytes and len(obj) >= VIEW_MIN_BYTES and len(segment) % 4 == 0


def _deserialize(codec: Codec, buf: memoryview, views) -> MessageValue:
    """Decode one message from ``buf``; ``views`` are as for ``_decode``."""
    values, pos = _decode(codec, 1, buf, 0, None, views)
    tail = len(buf) - pos
    if tail and (tail >= 4 or buf[pos:] != _PAD[:tail]):
        raise DeserializationError(
            f"{tail} trailing bytes after last slot are not word padding"
        )
    return values[0]


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

# A step's kind: what follows its run of fixed-width slots
_END, _STRING, _GROUP, _ARRAY = range(4)
_NO_BOUND = 0xFFFFFFFF  # the largest uint32 count


class Codec:
    """One level of a plan compiled: a message's top level, or a group's element.

    ``fields`` reads the level's slot values from a value of its type, and
    builds a value back from them (see ``_Fields``).  ``steps`` encode and
    decode the slot values (see ``_step``).  ``slots`` are the level's plan
    slots.
    """

    __slots__ = ("fields", "steps", "slots")

    def __init__(self, registry: TypeRegistry, type_name: str, slots: tuple):
        self.slots = slots
        steps = []
        codes, shape, bools = ["<"], [], []  # the open run, from slots[start]
        start = 0
        for i, slot in enumerate(slots):
            if slot.__class__ is PlanSlot and slot.primitive != "string":
                arity = slot.arity.kind
                if arity == Arity.SCALAR or (arity == Arity.FIXED and slot.primitive != "uint8"):
                    n = 0 if arity == Arity.SCALAR else slot.arity.size
                    codes.append(f"{n or ''}{_STRUCT_CODE[slot.primitive]}")
                    shape.append(n)
                    if slot.primitive == "bool":
                        bools.append(i - start)
                    continue
            if slot.__class__ is GroupSlot:
                kind, sub = _GROUP, Codec(registry, slot.element_type, slot.element_slots)
            else:
                kind, sub = (_STRING if slot.arity.kind == Arity.SCALAR else _ARRAY), None
            if slot.arity.kind != Arity.FIXED:
                codes.append("I")  # the slot's count or byte length
            bound = _NO_BOUND if slot.arity.size is None else slot.arity.size
            steps.append(_step(kind, codes, shape, bools, start, i, bound, sub))
            codes, shape, bools = ["<"], [], []
            start = i + 1
        if shape:
            steps.append(_step(_END, codes, shape, bools, start, len(slots), _NO_BOUND, None))
        self.steps = tuple(steps)
        self.fields = _Fields(registry, type_name)


class _Fields:
    """The dicts of one message type, read into slot values and built back.

    ``get(value)`` returns a dict's slot values in plan order, as a tuple,
    and ``build(values)`` makes the dict back from them.  A field has one
    slot value, except a field of a nested type that is a scalar or a fixed
    array: the slot values of its dicts stand in its place, in order.
    ``take`` reads a dict's fields with one ``_getter``, and ``make`` builds
    it from its fields' values with one of ``_DICTS``; a type without such a
    nested field has them as its ``get`` and ``build``.
    """

    __slots__ = ("keys", "parts", "size", "take", "make", "get", "build")

    def __init__(self, registry: TypeRegistry, type_name: str):
        fields = registry.get(type_name).fields
        self.keys = keys = tuple([f.name for f in fields])
        self.take = self.get = _getter(keys)
        self.make = self.build = partial(_DICTS[min(len(keys), len(_DICTS) - 1)], keys)
        # per field (sub, n, at): a nested field's ``_Fields``, its length (0
        # for a scalar) and the slices of its dicts' slot values; else
        # (None, 0, the index of its slot value)
        parts, k = [], 0
        for f in fields:
            if f.is_primitive or f.arity.is_dynamic:
                parts.append((None, 0, k))
                k += 1
                continue
            sub, n = _Fields(registry, f.type_name), f.arity.size or 0
            at = [slice(k + i * sub.size, k + (i + 1) * sub.size) for i in range(n or 1)]
            parts.append((sub, n, tuple(at) if n else at[0]))
            k += sub.size * (n or 1)
            self.get, self.build = self._get_nested, self._build_nested
        self.parts, self.size = tuple(parts), k

    def _get_nested(self, value) -> tuple:
        values = []
        for v, (sub, n, _) in zip(self.take(value), self.parts):
            if sub is None:
                values.append(v)
            elif not n:
                values += sub.get(v)
            elif len(v) != n:
                raise IndexError(n)
            else:
                for element in v:
                    values += sub.get(element)
        return tuple(values)

    def _build_nested(self, values) -> dict:
        return self.make([
            values[at] if sub is None
            else [sub.build(values[s]) for s in at] if n
            else sub.build(values[at])
            for sub, n, at in self.parts
        ])


# Builders of a dict from its keys and its fields' values, by field count.
# A dict display builds a six-field dict in a little over half the time of
# ``dict(zip(keys, values))``, which is most of what decoding saves on a
# group of many small elements.
_DICTS = (
    lambda k, v: {},
    lambda k, v: {k[0]: v[0]},
    lambda k, v: {k[0]: v[0], k[1]: v[1]},
    lambda k, v: {k[0]: v[0], k[1]: v[1], k[2]: v[2]},
    lambda k, v: {k[0]: v[0], k[1]: v[1], k[2]: v[2], k[3]: v[3]},
    lambda k, v: {k[0]: v[0], k[1]: v[1], k[2]: v[2], k[3]: v[3], k[4]: v[4]},
    lambda k, v: {k[0]: v[0], k[1]: v[1], k[2]: v[2], k[3]: v[3], k[4]: v[4], k[5]: v[5]},
    lambda k, v: {k[0]: v[0], k[1]: v[1], k[2]: v[2], k[3]: v[3], k[4]: v[4], k[5]: v[5],
                  k[6]: v[6]},
    lambda k, v: {k[0]: v[0], k[1]: v[1], k[2]: v[2], k[3]: v[3], k[4]: v[4], k[5]: v[5],
                  k[6]: v[6], k[7]: v[7]},
    lambda k, v: dict(zip(k, v)),  # nine fields or more
)


def _step(kind, codes, shape, bools, i, j, bound, sub) -> tuple:
    """One step: slots ``i..j-1`` of a level, fixed-width, and then slot ``j``.

    ``(kind, packer, run, j, mixed, bound, sub)``: ``run`` is
    ``slice(i, j)`` (a stored slice saves building one per value), and
    ``packer`` is one ``struct.Struct`` for the run and, when slot ``j`` has
    one, its uint32 count (a string's byte length, an array's or a group's
    element count).  ``kind`` says what slot ``j`` is: ``_STRING`` (its
    bytes follow the length), ``_GROUP`` (``sub``, the element's ``Codec``,
    encodes and decodes its elements in one loop), ``_ARRAY``, or ``_END``
    when the run ends the level.  ``mixed`` is None for a run of plain
    scalars; for a run with fixed arrays or bools it is ``(shape, bools)``:
    per slot 0 for a scalar or the length of an array, and the bool slots'
    places in the run.  A fixed array with no run before it has nothing to
    pack: its ``packer`` is None and ``mixed`` is ``()``.  ``bound`` is slot
    ``j``'s element count if it is a fixed array, else its largest count.
    """
    if len(codes) == 1:
        return (kind, None, slice(i, j), j, (), bound, sub)
    mixed = (tuple(shape), tuple(bools)) if any(shape) or bools else None
    return (kind, struct.Struct("".join(codes)), slice(i, j), j, mixed, bound, sub)


def _getter(keys: list):
    """A function from a dict to the tuple of its values at ``keys``."""
    if len(keys) == 1:
        return partial(_get_one, keys[0])
    return itemgetter(*keys) if keys else _get_none


def _get_one(key, value) -> tuple:
    return (value[key],)


def _get_none(value) -> tuple:
    if not isinstance(value, dict):  # as ``itemgetter`` fails on one
        raise TypeError("expected a dict")
    return ()


# --- running the steps ------------------------------------------------------
#
# ``_encode`` and ``_decode`` run a level's steps over each of its values in
# one loop: once for a message's top level, and once per group for all of
# the group's elements.  They raise where a value or a frame is bad, and only
# then look for the slot to blame.

_utf8 = str.encode  # raises TypeError for anything but a str
_ENCODE_ERRORS = (struct.error, TypeError, ValueError, OverflowError, KeyError, IndexError)


def _encode(codec: Codec, values, out: _Out, path: str | None) -> None:
    """Append the wire bytes of each of ``values``, values of ``codec``'s level.

    ``path`` is the group slot whose elements ``values`` are, or None for a
    message's top level; an error names its slot by the path from there.
    """
    get, steps, slots = codec.fields.get, codec.steps, codec.slots
    k = -1
    try:
        for k, value in enumerate(values):
            leaves = get(value)
            for kind, packer, run, j, mixed, bound, sub in steps:
                if mixed is None:
                    args = leaves[run]
                elif mixed:
                    args = _run_args(mixed, leaves[run])
                else:
                    args = ()
                if kind == _STRING:
                    data = _utf8(leaves[j])
                    out += packer.pack(*(args + (len(data),)))
                    out += data
                elif kind == _END:
                    out += packer.pack(*args)
                elif kind == _GROUP:
                    elements = leaves[j]
                    n = len(elements)
                    out += packer.pack(*(args + (n,)))
                    if n > bound:
                        raise ValueError(n)
                    _encode(sub, elements, out, slots[j].path)
                else:
                    _enc_array(slots[j], packer, args, bound, leaves[j], out)
        return
    except SerializationError as e:  # from a group in this level, located there
        err = e
    except _ENCODE_ERRORS:
        if k < 0:  # ``values`` does not iterate: the caller names its slot
            raise
        err = _value_error(codec, value)
        if err is None:
            raise
    if path is not None:
        err = err.within(f"{path}[{k}]")
    raise err from None


def _run_args(mixed, values) -> tuple:
    """The ``Struct`` arguments of a run's values: arrays spread, bools checked."""
    shape, bools = mixed
    for k in bools:
        for x in values[k] if shape[k] else (values[k],):
            index(x)  # '?' would pack any object by its truth
    args = []
    for v, n in zip(values, shape):
        if not n:
            args.append(v)
        elif isinstance(v, _BYTES) or len(v) != n:
            raise ValueError(n)
        else:
            args += v
    return tuple(args)


def _enc_array(slot: PlanSlot, packer, args, bound: int, v, out: _Out) -> None:
    """Pack a step's run and array slot: strings, ``uint8``, or a dynamic array."""
    primitive = slot.primitive
    n = len(v)
    if slot.arity.kind == Arity.FIXED:
        if n != bound:
            raise ValueError(n)
        if args:
            out += packer.pack(*args)
    else:
        if n > bound:
            raise ValueError(n)
        out += packer.pack(*(args + (n,)))
    if primitive == "string":
        for s in v:
            data = _utf8(s)
            out += _COUNT.pack(len(data))
            out += data
    elif isinstance(v, _BYTES):
        if primitive != "uint8":
            raise ValueError(primitive)
        if v.__class__ is bytes and n >= VIEW_MIN_BYTES:
            out.append_view(v)
        else:
            out += v
    else:
        if primitive == "bool":
            for x in v:
                index(x)
        out += struct.pack(f"<{n}{_STRUCT_CODE[primitive]}", *v)


def _decode(codec: Codec, n: int, buf: memoryview, pos: int, path: str | None, views):
    """``n`` values of ``codec``'s level read from ``buf`` at ``pos``.

    Returns them in a list, with the position after them.  ``path`` is as
    for ``_encode``.

    ``views``, when given, are view segments cut out of the frame, in
    reverse frame order, each with the position in ``buf`` it was cut from.
    A ``uint8`` array whose bytes span the last of them takes it, and the
    views cut from the same position after it that still fit (see
    ``_dec_array``).  Positions only grow, so a view that some other read
    steps over is never taken.  If ``views`` is empty afterwards, every read
    saw the bytes the joined frame has there; if not, the result is wrong
    and the joined frame must be decoded instead.
    """
    steps, build, slots = codec.steps, codec.fields.build, codec.slots
    end = len(buf)
    values = []
    try:
        for _ in range(n):
            leaves = []
            for kind, packer, run, j, mixed, bound, sub in steps:
                if mixed is None:
                    leaves += packer.unpack_from(buf, pos)
                    pos += packer.size
                elif mixed:
                    leaves += _regroup(mixed[0], packer.unpack_from(buf, pos))
                    pos += packer.size
                if kind == _STRING:
                    stop = pos + leaves[-1]
                    if stop > end:
                        raise _truncated(stop - pos, slots[j].path, buf, pos)
                    leaves[-1] = str(buf[pos:stop], "utf-8")
                    pos = stop
                elif kind == _GROUP:
                    count = leaves[-1]
                    if count > bound:
                        raise _bound_error(slots[j], count)
                    leaves[-1], pos = _decode(sub, count, buf, pos, slots[j].path, views)
                elif kind == _ARRAY:
                    pos = _dec_array(slots[j], bound, buf, pos, leaves, views)
            values.append(build(leaves))
        return values, pos
    except DeserializationError as e:
        err = e
    except struct.error:  # the step's run or count runs past the end
        err = _truncated_run(slots, run, j, kind, buf, pos)
    except UnicodeDecodeError as e:
        err = DeserializationError("", slots[j].path, f": invalid utf-8 payload ({e})")
    if path is not None:
        err = err.within(f"{path}[{len(values)}]")
    raise err from None


def _regroup(shape, values) -> list:
    """A run's unpacked values with each fixed array's elements in a list."""
    out = []
    k = 0
    for n in shape:
        if n:
            out.append(list(values[k : k + n]))
            k += n
        else:
            out.append(values[k])
            k += 1
    out += values[k:]  # the count of the step's last slot, if it has one
    return out


def _dec_array(slot: PlanSlot, bound: int, buf: memoryview, pos: int, leaves, views) -> int:
    """Decode an array slot; a dynamic array's count is ``leaves[-1]``.

    A ``uint8`` array spanning the next of ``views`` takes it, and every
    further view cut from the same position that still fits in the array:
    in frame order they are its middle, and only the bytes before and after
    them come from ``buf``.  The value joins those pieces in one copy, or is
    the viewed object itself when a single view covers both that whole
    object and the whole array.
    """
    path, primitive = slot.path, slot.primitive
    if slot.arity.kind == Arity.FIXED:
        n = bound
    else:
        n = leaves.pop()
        if n > bound:
            raise _bound_error(slot, n)
    if primitive == "string":
        items = []
        end = len(buf)
        try:
            for _ in range(n):
                length = _COUNT.unpack_from(buf, pos)[0]
                pos += 4
                stop = pos + length
                if stop > end:
                    raise _truncated(length, f"{path}[{len(items)}]", buf, pos)
                items.append(str(buf[pos:stop], "utf-8"))
                pos = stop
        except struct.error:
            raise _truncated(4, f"{path}[{len(items)}]", buf, pos, " length") from None
        except UnicodeDecodeError as e:
            where = f"{path}[{len(items)}]"
            raise DeserializationError("", where, f": invalid utf-8 payload ({e})") from None
        leaves.append(items)
        return pos
    stop = pos + n * PRIMITIVE_WIDTHS[primitive]
    taken = ()
    if views and primitive == "uint8":
        at, taken = views[-1][0], []
        while views and views[-1][0] == at and pos <= at <= stop - len(views[-1][1]):
            taken.append(views.pop()[1])
            stop -= len(taken[-1])
    if stop > len(buf):
        raise _truncated(stop - pos, path, buf, pos)
    if taken:
        view = taken[0]
        whole = stop == pos and len(taken) == 1 and len(view) == len(view.obj)
        leaves.append(view.obj if whole else b"".join((buf[pos:at], *taken, buf[at:stop])))
    elif primitive == "uint8":
        leaves.append(bytes(buf[pos:stop]))
    else:
        leaves.append(list(struct.unpack_from(f"<{n}{_STRUCT_CODE[primitive]}", buf, pos)))
    return stop


# --- copying a decoded value -------------------------------------------------


def copier(registry: TypeRegistry, type_name: str) -> Callable[[dict], dict]:
    """A function that copies a decoded value of ``type_name``.

    The copy is equal to the value and shares no dict or list with it: its
    dicts at every level, nested or in an array, and the lists of its
    primitive arrays are new.  Its leaves are the value's own: strings,
    numbers and ``bytes`` (``uint8`` arrays, possibly the publisher's object
    itself), none of which can change.  A type whose fields are all leaves
    is copied by ``dict.copy`` alone.
    """
    deep = []  # (field, its copier) for the fields that hold a dict or a list
    for f in registry.get(type_name).fields:
        if f.is_primitive:
            if f.arity.kind != Arity.SCALAR and f.type_name != "uint8":
                deep.append((f.name, list.copy))
        else:
            sub = copier(registry, f.type_name)
            deep.append((f.name, sub if f.arity.kind == Arity.SCALAR else partial(_copy_each, sub)))
    return partial(_copy_deep, tuple(deep)) if deep else dict.copy


def _copy_deep(deep: tuple, value: dict) -> dict:
    out = value.copy()
    for key, copy in deep:
        out[key] = copy(out[key])
    return out


def _copy_each(copy, values: list) -> list:
    return list(map(copy, values))


# --- the error paths ---------------------------------------------------------


def _truncated(
    n: int, path: str, buf: memoryview, pos: int, what: str = ""
) -> DeserializationError:
    """``n`` bytes of ``what`` at slot ``path`` run past the frame's end."""
    left = max(len(buf) - pos, 0)
    return DeserializationError(
        f"truncated frame: needed {n} bytes for ", path, f"{what}, {left} left"
    )


def _truncated_run(
    slots: tuple, run: slice, j: int, kind: int, buf: memoryview, pos: int
) -> DeserializationError:
    """The truncation error for a step of a level, read from ``pos``.

    It names the first of the slots in ``run`` past the frame's end or,
    when the whole run fits, the count of slot ``j``.
    """
    for slot in slots[run]:
        width = slot.fixed_width_bytes()
        if pos + width > len(buf):
            return _truncated(width, slot.path, buf, pos)
        pos += width
    return _truncated(4, slots[j].path, buf, pos, " length" if kind == _STRING else " count")


def _bound_error(slot, n: int) -> DeserializationError:
    return DeserializationError("", slot.path, f": count {n} exceeds bound {slot.arity.size}")


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


def _value_error(codec: Codec, value) -> SerializationError | None:
    """The error for the first slot of ``value`` that does not encode.

    ``value`` is a value of ``codec``'s level; its slots are checked in wire
    order, except the elements of its groups, whose errors are raised where
    they are encoded.  None if every slot encodes.
    """
    err = _shape_error(codec.fields, value, "")
    if err is not None:
        return err
    leaves, slots = codec.fields.get(value), codec.slots
    for kind, _, run, j, *_ in codec.steps:
        err = _blame(slots[run], leaves[run])
        if err is None and kind != _END:
            err = _tail_error(slots[j], leaves[j])
        if err is not None:
            return err
    return None


def _tail_error(slot, v) -> SerializationError | None:
    """The error for the string, array or group slot ``slot`` given ``v``."""
    path = slot.path
    if slot.__class__ is PlanSlot and slot.arity.kind == Arity.SCALAR:
        return _string_error(v, path)
    try:
        n = len(v)
        iter(v)
    except TypeError:
        return SerializationError("expected a sequence", path)
    err = _count_error(slot.arity, n, path)
    if err is not None or slot.__class__ is GroupSlot:
        return err
    if slot.primitive != "string":
        return _blame((slot,), (v,))
    for k, s in enumerate(v):
        err = _string_error(s, f"{path}[{k}]")
        if err is not None:
            return err
    return None


def _string_error(v, path: str) -> SerializationError | None:
    if not isinstance(v, str):
        return SerializationError("expected str", path)
    try:
        v.encode()
    except UnicodeEncodeError as e:
        return SerializationError(f"value not encodable as utf-8 ({e})", path)
    return None


def _blame(slots: tuple, values) -> SerializationError | None:
    """The error for the first of ``slots`` whose value does not pack, if any."""
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
    return None


def _shape_error(fields: _Fields, value, path: str) -> SerializationError | None:
    """The error for the first place ``value`` departs from the shape of ``fields``' dicts."""
    if not isinstance(value, dict):
        return SerializationError("expected nested value", path)
    for key, (sub, n, _) in zip(fields.keys, fields.parts):
        where = _join(path, key)
        if key not in value:
            return SerializationError("missing field", where)
        v = value[key]
        if sub is None:
            continue
        if not n:
            err = _shape_error(sub, v, where)
        else:
            try:
                count = len(v)
                iter(v)
            except TypeError:
                return SerializationError("expected a sequence", where)
            err = _count_error(Arity.fixed(n), count, where)
            for k, element in enumerate(v):
                err = err or _shape_error(sub, element, f"{where}[{k}]")
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
            if _count_error(array_arity(registry, f), n, fpath) is not None:
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
