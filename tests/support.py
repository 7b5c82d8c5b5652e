"""Shared test helpers: random type/value generation and independent oracles."""

from __future__ import annotations

import random
import struct

from streamdds import serde
from streamdds.msgdef import (
    PRIMITIVE_WIDTHS,
    Arity,
    FieldDef,
    MessageTypeDef,
    TypeRegistry,
)

PRIMS = [p for p in PRIMITIVE_WIDTHS if p != "string"]

INT_RANGES = {
    "int8": (-(2**7), 2**7 - 1),
    "uint8": (0, 2**8 - 1),
    "int16": (-(2**15), 2**15 - 1),
    "uint16": (0, 2**16 - 1),
    "int32": (-(2**31), 2**31 - 1),
    "uint32": (0, 2**32 - 1),
    "int64": (-(2**63), 2**63 - 1),
    "uint64": (0, 2**64 - 1),
}

_F32 = struct.Struct("<f")


def quantize_f32(x: float) -> float:
    return _F32.unpack(_F32.pack(x))[0]


def random_scalar(rng: random.Random, prim: str):
    if prim == "bool":
        return rng.random() < 0.5
    if prim == "string":
        alphabet = "abc é世\U0001f600xyz_09"
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
    if prim == "float32":
        return quantize_f32(rng.uniform(-1e6, 1e6))
    if prim == "float64":
        return rng.uniform(-1e12, 1e12)
    lo, hi = INT_RANGES[prim]
    return rng.randint(lo, hi)


def _random_arity(rng: random.Random) -> Arity:
    roll = rng.random()
    if roll < 0.55:
        return Arity.scalar()
    if roll < 0.70:
        return Arity.fixed(rng.randint(1, 5))
    if roll < 0.85:
        return Arity.bounded(rng.randint(1, 5))
    return Arity.unbounded()


def random_registry(
    rng: random.Random,
    max_types: int = 5,
    max_fields: int = 6,
    package: str = "gen",
) -> tuple[TypeRegistry, str]:
    """Random acyclic registry; returns (registry, root type name).

    Type i only references types with larger indices, so nesting depth is
    bounded by the type count (<= 6).  Sometimes the last type has no
    fields: its values leave no trace on the wire, but they are still fields
    of the values of the types that reference it.  Every other type's first
    field is primitive, so that each of their values leaves a trace on the
    wire and a mutation of the root's value has a field to break.
    """
    n_types = rng.randint(1, max_types)
    names = [f"{package}/T{i}" for i in range(n_types)]
    if rng.random() < 0.3:
        names.append(f"{package}/Empty")
        registry = TypeRegistry([MessageTypeDef(names[-1], ())])
    else:
        registry = TypeRegistry()
    for i, name in enumerate(names[:n_types]):
        fields = []
        n_fields = rng.randint(1, max_fields)
        for j in range(n_fields):
            arity = _random_arity(rng)
            deeper = names[i + 1 :]
            if j > 0 and deeper and rng.random() < 0.35:
                fields.append(FieldDef(f"f{j}", rng.choice(deeper), arity))
            elif rng.random() < 0.15:
                fields.append(FieldDef(f"f{j}", "string", arity))
            else:
                fields.append(FieldDef(f"f{j}", rng.choice(PRIMS), arity))
        registry.register(MessageTypeDef(name, tuple(fields)))
    registry.resolve()
    return registry, names[0]


def random_value(rng: random.Random, registry: TypeRegistry, type_name: str) -> dict:
    """A conforming value for a registered type (uint8 arrays as bytes)."""

    def field_value(f: FieldDef):
        def one():
            if f.is_primitive:
                return random_scalar(rng, f.type_name)
            return random_value(rng, registry, f.type_name)

        kind = f.arity.kind
        if kind == Arity.SCALAR:
            return one()
        if kind == Arity.FIXED:
            n = f.arity.size
        elif kind == Arity.BOUNDED:
            n = rng.randint(0, f.arity.size)
        else:
            n = rng.randint(0, 5)
        if f.type_name == "uint8":
            return rng.randbytes(n)
        return [one() for _ in range(n)]

    return {f.name: field_value(f) for f in registry.get(type_name).fields}


def mutate_value(rng: random.Random, registry: TypeRegistry, type_name: str, value: dict):
    """Break one field of a conforming value; returns (mutated copy, how)."""
    import copy

    mutated = copy.deepcopy(value)
    mtd = registry.get(type_name)
    f = rng.choice(mtd.fields)
    kind = rng.choice(["drop", "rename", "retype"])
    if kind == "drop":
        del mutated[f.name]
    elif kind == "rename":
        mutated[f.name + "_zz"] = mutated.pop(f.name)
    else:
        if f.arity.kind == Arity.SCALAR and f.is_primitive:
            wrong = {"bool": 7, "string": 3}.get(f.type_name, "not-a-number")
            mutated[f.name] = wrong
        elif f.arity.kind == Arity.SCALAR:
            mutated[f.name] = 42
        elif f.arity.kind == Arity.FIXED:
            base = mutated[f.name]
            mutated[f.name] = (
                base + b"\x00" if isinstance(base, bytes) else list(base) + [base[0] if base else 0]
            )
        else:
            mutated[f.name] = object()
    return mutated, kind


# -- independent oracles ----------------------------------------------------


def count_slots_oracle(registry: TypeRegistry, type_name: str) -> int:
    """Top-level slot count by direct recursion over the type definitions."""
    total = 0
    for f in registry.get(type_name).fields:
        if f.is_primitive:
            total += 1
        elif f.arity.kind == Arity.SCALAR:
            total += count_slots_oracle(registry, f.type_name)
        elif f.arity.kind == Arity.FIXED:
            total += f.arity.size * count_slots_oracle(registry, f.type_name)
        else:
            total += 1  # one dynamic group
    return total


_WIRE_CODES = {
    "bool": "?", "int8": "b", "uint8": "B", "int16": "h", "uint16": "H", "int32": "i",
    "uint32": "I", "int64": "q", "uint64": "Q", "float32": "f", "float64": "d",
}


def reference_frame(registry: TypeRegistry, type_name: str, value: dict) -> bytes:
    """Wire bytes of ``value`` by direct recursion over the type definitions.

    One field and one element at a time, without serialization plans:
    little-endian, packed, uint32 counts before dynamic arrays, utf-8
    strings behind a uint32 byte length, zero padding to a word.
    """
    out = bytearray()

    def one(type_name: str, v) -> None:
        nonlocal out
        if type_name == "string":
            data = v.encode("utf-8")
            out += struct.pack("<I", len(data)) + data
        elif type_name in _WIRE_CODES:
            out += struct.pack("<" + _WIRE_CODES[type_name], v)
        else:
            for f in registry.get(type_name).fields:
                fv = v[f.name]
                if f.arity.kind == Arity.SCALAR:
                    one(f.type_name, fv)
                    continue
                if f.arity.is_dynamic:
                    out += struct.pack("<I", len(fv))
                for item in fv:  # bytes iterate as ints, packed as uint8
                    one(f.type_name, item)

    one(type_name, value)
    return bytes(out + bytes(-len(out) % 4))


def two_pass_stats(samples):
    """Reference mean / population sigma via numpy."""
    import numpy as np

    a = np.asarray(samples, dtype=np.float64)
    return float(a.mean()), float(a.std())


def count_joined(monkeypatch) -> list:
    """Record the length of each frame decoded joined or from one piece.

    Both decode one buffer with no view segments to line up, the path that
    ``deserialize`` takes as well.
    """
    sizes = []
    decode = serde._deserialize

    def counted(codec, buf, views):
        if views is None:
            sizes.append(len(buf))
        return decode(codec, buf, views)

    monkeypatch.setattr(serde, "_deserialize", counted)
    return sizes
