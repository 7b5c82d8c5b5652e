"""streamdds: statically compiled streaming publish/subscribe middleware.

A topology compiler turns a declarative node/port config into a static
per-topic network (direct links, arbiters, broadcasters, optional
subscriber FIFOs); a message-definition flattener and framed codec handle
the wire format; a threaded runtime executes the network with keep-all /
reliable backpressure semantics, choosing its execution contexts from the
graph's shape when it is built: a chain of sequential nodes runs in its
first node's thread, each fused node called inside its publisher's
publish, unless that could make the thread wait on its own later writes;
a chain fed by an external publisher runs inside the caller's publish
where every link it writes holds a whole frame;
other kernel-driven nodes get a thread each, and arbiters and
broadcasters run in the publishing thread; and a benchmark harness
compares it against a double-copy baseline middleware emulation.
"""

from .msgdef import (
    Arity,
    FieldDef,
    MessageTypeDef,
    SerializationPlan,
    TypeRegistry,
    flatten,
    load_msg_tree,
    parse_msg_file,
)
from .serde import Frame, conforms_to, deserialize, serialize
from .topology import (
    AppSpec,
    NodeSpec,
    PortSpec,
    TopologyGraph,
    build_topology,
    explain,
    parse_config,
    validate,
)
from .runtime import (
    DATAFLOW,
    EXTERNAL,
    SEQUENTIAL,
    NodeKernel,
    PortHandle,
    RuntimeConfig,
    RuntimeInstance,
    ShutdownError,
    StreamChannel,
    instantiate,
)
from .bench import (
    BenchReport,
    Measurement,
    bench_chain,
    bench_fanout,
    bench_transfer,
    emit_report,
    stats,
)

__all__ = [
    "Arity",
    "FieldDef",
    "MessageTypeDef",
    "SerializationPlan",
    "TypeRegistry",
    "flatten",
    "load_msg_tree",
    "parse_msg_file",
    "Frame",
    "conforms_to",
    "deserialize",
    "serialize",
    "AppSpec",
    "NodeSpec",
    "PortSpec",
    "TopologyGraph",
    "build_topology",
    "explain",
    "parse_config",
    "validate",
    "DATAFLOW",
    "EXTERNAL",
    "SEQUENTIAL",
    "NodeKernel",
    "PortHandle",
    "RuntimeConfig",
    "RuntimeInstance",
    "ShutdownError",
    "StreamChannel",
    "instantiate",
    "BenchReport",
    "Measurement",
    "bench_chain",
    "bench_fanout",
    "bench_transfer",
    "emit_report",
    "stats",
]

__version__ = "0.1.0"
