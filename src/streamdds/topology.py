"""Static per-topic communication graph compiler.

An application config declares nodes and their publisher/subscriber ports.
Compilation groups ports by topic and picks each topic's wiring from the
publisher/subscriber counts: a direct link for 1:1, an arbiter merging
multiple publishers, a broadcaster replicating to multiple subscribers, or
both in series.  Subscriber-side FIFOs are optional and sized per port.
The delivered quality of service is fixed: keep-all history, reliable
delivery (producers block instead of dropping), infinite lifespan and lease.

Config grammar (line oriented, ``#`` comments)::

    node <name>
      pub <topic> <msg_type>
      sub <topic> <msg_type> [fifo=<depth>]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .msgdef import SerializationPlan, TypeRegistry, flatten

PUB = "pub"
SUB = "sub"

STRUCTURE_DIRECT = "direct"
STRUCTURE_ARBITER = "arbiter_only"
STRUCTURE_BROADCAST = "broadcast_only"
STRUCTURE_ARBITER_BROADCAST = "arbiter_then_broadcast"


class ConfigParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TopologyError(Exception):
    pass


@dataclass(frozen=True)
class PortSpec:
    direction: str  # PUB or SUB
    topic: str
    msg_type: str
    fifo_depth: int | None = None  # messages; subscribers only

    @property
    def name(self) -> str:
        return f"{self.direction}_{self.topic}"


@dataclass(frozen=True)
class NodeSpec:
    name: str
    kernel_id: str
    ports: tuple[PortSpec, ...]


@dataclass(frozen=True)
class AppSpec:
    nodes: tuple[NodeSpec, ...]

    def node(self, name: str) -> NodeSpec:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)


@dataclass(frozen=True)
class PortRef:
    """A (node, port) endpoint within a topic plan."""

    node: str
    port: str
    msg_type: str
    fifo_depth: int | None = None


@dataclass(frozen=True)
class TopicPlan:
    topic: str
    msg_type: str
    publishers: tuple[PortRef, ...]
    subscribers: tuple[PortRef, ...]
    structure: str

    @property
    def has_arbiter(self) -> bool:
        return len(self.publishers) > 1

    @property
    def has_broadcaster(self) -> bool:
        return len(self.subscribers) > 1


@dataclass(frozen=True)
class QosProfile:
    """Fixed delivery contract of the static streaming network."""

    history: str = "keep_all"
    reliability: str = "reliable"
    lifespan: str = "infinite"
    lease: str = "infinite"


QOS_STATIC = QosProfile()


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    topic: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: topic {self.topic!r}: {self.message}"


@dataclass(frozen=True)
class TopologyGraph:
    topics: tuple[TopicPlan, ...]
    plans: dict[str, SerializationPlan] = field(hash=False)
    nodes: tuple[NodeSpec, ...] = ()
    qos: QosProfile = QOS_STATIC

    def node(self, name: str) -> NodeSpec:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    def topic(self, name: str) -> TopicPlan:
        for t in self.topics:
            if t.topic == name:
                return t
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "topics": [
                {
                    "name": t.topic,
                    "type": t.msg_type,
                    "structure": t.structure,
                    "publishers": [
                        {"node": p.node, "port": p.port} for p in t.publishers
                    ],
                    "subscribers": [
                        {"node": s.node, "port": s.port, "fifo": s.fifo_depth}
                        for s in t.subscribers
                    ],
                }
                for t in self.topics
            ]
        }


def parse_config(config_text: str) -> AppSpec:
    """Parse the node/port block grammar into an AppSpec."""
    nodes: list[NodeSpec] = []
    seen_nodes: set[str] = set()
    current_name: str | None = None
    current_ports: list[PortSpec] = []

    def close_current():
        if current_name is not None:
            nodes.append(NodeSpec(current_name, current_name, tuple(current_ports)))

    for line_no, raw in enumerate(config_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]

        if keyword == "node":
            if len(tokens) != 2:
                raise ConfigParseError("expected: node <name>", line_no)
            close_current()
            name = tokens[1]
            if name in seen_nodes:
                raise ConfigParseError(f"duplicate node {name!r}", line_no)
            seen_nodes.add(name)
            current_name = name
            current_ports = []
            continue

        if keyword in (PUB, SUB):
            if current_name is None:
                raise ConfigParseError(f"{keyword!r} outside a node block", line_no)
            fifo: int | None = None
            rest = tokens[1:]
            if keyword == PUB and any(t.startswith("fifo=") for t in rest):
                raise ConfigParseError("fifo is only valid on subscriber ports", line_no)
            if keyword == SUB and rest and rest[-1].startswith("fifo="):
                depth = rest[-1][5:]
                if not depth.isdigit() or int(depth) < 1:
                    raise ConfigParseError(f"bad fifo depth {rest[-1]!r}", line_no)
                fifo = int(depth)
                rest = rest[:-1]
            if len(rest) != 2:
                raise ConfigParseError(
                    f"expected: {keyword} <topic> <msg_type>"
                    + (" [fifo=<depth>]" if keyword == SUB else ""),
                    line_no,
                )
            port = PortSpec(keyword, rest[0], rest[1], fifo)
            if any(p.name == port.name for p in current_ports):
                raise ConfigParseError(
                    f"node {current_name!r} already has port {port.name!r}", line_no
                )
            current_ports.append(port)
            continue

        raise ConfigParseError(f"unknown directive {keyword!r}", line_no)

    close_current()
    return AppSpec(tuple(nodes))


def structure_for(n_pubs: int, n_subs: int) -> str:
    """Topic wiring as a total function of the port counts."""
    if n_pubs > 1 and n_subs > 1:
        return STRUCTURE_ARBITER_BROADCAST
    if n_pubs > 1:
        return STRUCTURE_ARBITER
    if n_subs > 1:
        return STRUCTURE_BROADCAST
    return STRUCTURE_DIRECT


def build_topology(
    spec: AppSpec, registry: TypeRegistry, *, strict: bool = True
) -> TopologyGraph:
    """Group ports per topic and attach each topic's serialization plan.

    Each message type is flattened, and its codec compiled, once; topics of
    the same type share that plan.

    With ``strict`` (default), a message-type mismatch among a topic's ports
    raises TopologyError; with ``strict=False`` the graph is still built (the
    first publisher's type wins) so ``validate`` can report the mismatch.
    """
    if not registry.resolved:
        registry.resolve()

    order: list[str] = []
    pubs: dict[str, list[PortRef]] = {}
    subs: dict[str, list[PortRef]] = {}
    for node in spec.nodes:
        for port in node.ports:
            ref = PortRef(node.name, port.name, port.msg_type, port.fifo_depth)
            if port.topic not in pubs:
                order.append(port.topic)
                pubs[port.topic] = []
                subs[port.topic] = []
            (pubs if port.direction == PUB else subs)[port.topic].append(ref)

    topics: list[TopicPlan] = []
    plans: dict[str, SerializationPlan] = {}
    by_type: dict[str, SerializationPlan] = {}
    for name in order:
        refs = pubs[name] + subs[name]
        types = {r.msg_type for r in refs}
        if len(types) > 1 and strict:
            raise TopologyError(
                f"topic {name!r} has conflicting message types: "
                + ", ".join(sorted(types))
            )
        msg_type = refs[0].msg_type
        if msg_type not in registry:
            raise TopologyError(
                f"topic {name!r}: message type {msg_type!r} is not registered"
            )
        topics.append(
            TopicPlan(
                topic=name,
                msg_type=msg_type,
                publishers=tuple(pubs[name]),
                subscribers=tuple(subs[name]),
                structure=structure_for(len(pubs[name]), len(subs[name])),
            )
        )
        if msg_type not in by_type:
            by_type[msg_type] = flatten(registry, msg_type)
        plans[name] = by_type[msg_type]

    return TopologyGraph(tuple(topics), plans, spec.nodes)


def validate(graph: TopologyGraph) -> list[Diagnostic]:
    """Report type mismatches and orphan topics; empty list means clean."""
    out: list[Diagnostic] = []
    for t in graph.topics:
        types = sorted({r.msg_type for r in t.publishers + t.subscribers})
        if len(types) > 1:
            out.append(
                Diagnostic(
                    "error",
                    "type-mismatch",
                    t.topic,
                    "ports disagree on message type: " + ", ".join(types),
                )
            )
        if t.publishers and not t.subscribers:
            out.append(
                Diagnostic(
                    "warning",
                    "no-subscribers",
                    t.topic,
                    "has publishers but no subscribers; reliable publishers "
                    "on this topic will block forever",
                )
            )
        if t.subscribers and not t.publishers:
            out.append(
                Diagnostic(
                    "warning",
                    "no-publishers",
                    t.topic,
                    "has subscribers but no publishers; subscribers can never "
                    "receive a message",
                )
            )
    return out


def _port_label(ref: PortRef) -> str:
    label = f"{ref.node}.{ref.port}"
    if ref.fifo_depth is not None:
        label += f" [fifo={ref.fifo_depth}]"
    return label


def explain(graph: TopologyGraph) -> str:
    """Deterministic text rendering of each topic's wiring."""
    lines: list[str] = []
    for t in graph.topics:
        if t.structure == STRUCTURE_DIRECT and t.publishers and t.subscribers:
            lines.append(
                f"{t.topic}: direct {_port_label(t.publishers[0])}"
                f" -> {_port_label(t.subscribers[0])}"
            )
            continue
        lines.append(f"{t.topic}: {t.structure} ({t.msg_type})")
        if t.has_arbiter:
            for p in t.publishers:
                lines.append(f"  {_port_label(p)} -> arbiter")
            source = "arbiter"
        elif t.publishers:
            source = _port_label(t.publishers[0])
        else:
            source = "(no publisher)"
        if t.has_broadcaster:
            lines.append(f"  {source} -> broadcast x{len(t.subscribers)}")
            for s in t.subscribers:
                lines.append(f"  broadcast -> {_port_label(s)}")
        elif t.subscribers:
            lines.append(f"  {source} -> {_port_label(t.subscribers[0])}")
        else:
            lines.append(f"  {source} -> (no subscriber)")
    return "\n".join(lines)
