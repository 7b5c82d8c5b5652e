"""Benchmark harness: transfer time, fan-out sensitivity, and chain latency.

Scenarios compare the streaming runtime against the double-copy baseline at
desk scale:

* ``bench_transfer``: one publisher, one subscriber, a ladder of message
  sizes.  Per message, the transport duration runs from the first word
  entering the network to the last word received (codec excluded); the
  codec-inclusive duration is reported alongside in the row extras.
* ``bench_fanout``: one publisher, k subscribers, each drained by its own
  thread for the rig's life, and one barrier per rig ending each rep.  The
  duration ends when the last subscriber's take has returned the decoded
  message, read on the subscriber's own thread for both subjects, so each
  side pays its reader's wake-up and decode.  A software broadcaster pays a
  per-subscriber copy, so only bounded growth is expected of the streaming
  subject, while the baseline grows with per-reader stack work.
* ``bench_chain``: the five-stage lane pipeline; duration runs from the
  first node's receipt of the camera frame to the last node's completed
  command publish.  Both subjects run the stage bodies of
  ``kernels.chain_kernels``.

Harness conventions: one loop (``_repeat``) runs every scenario.  It builds
the scenario's rigs, one per subject and message size or subscriber count,
and runs each repetition on every rig in turn, so baseline and streaming
repetitions interleave in time and their ratio is immune to host throughput
drift.  The garbage collector is paused throughout, every rig is closed,
also on failure, and the first 5% of each rig's repetitions are discarded
as warm-up.  The transfer rigs drive both ports from the harness thread
over full-frame-capacity links (publish returns after enqueue; the take
immediately after measures the receive-side movement), which keeps
scheduler wake latency out of the size ladder.  In the sequential chain
scenario the streaming runtime runs all five stages in one static context,
the first stage's thread, which calls each later stage inside its
publisher's publish, while the baseline keeps a thread per node; its jitter
comparison is about exactly that difference in scheduling.
"""

from __future__ import annotations

import gc
import math
import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial

from .baseline import BaselineTopic
from .kernels import (
    BLOB_TYPE,
    CHAIN_NODES,
    CHAIN_TOPICS,
    CENTER_TYPE,
    COMMAND_TYPE,
    IMAGE_TYPE,
    bench_registry,
    chain_kernels,
    make_image,
)
from .msgdef import flatten
from .runtime import DATAFLOW, EXTERNAL, SEQUENTIAL, RuntimeConfig, instantiate
from .topology import PUB, SUB, AppSpec, NodeSpec, PortSpec, build_topology

WARMUP_FRACTION = 0.05


def stats(samples) -> tuple[float, float]:
    """Exact mean and population standard deviation (n divisor)."""
    n = len(samples)
    if n == 0:
        raise ValueError("stats of an empty sample set")
    mean = math.fsum(samples) / n
    var = math.fsum((x - mean) ** 2 for x in samples) / n
    return mean, math.sqrt(var)


@dataclass(frozen=True)
class Measurement:
    """Duration samples (ns) with their mean and population sigma."""

    label: str
    samples_ns: tuple[int, ...]
    t_avg_ns: float
    sigma_ns: float

    @property
    def n(self) -> int:
        return len(self.samples_ns)

    @classmethod
    def from_samples(cls, label: str, samples_ns) -> "Measurement":
        mean, sigma = stats(samples_ns)
        return cls(label, tuple(samples_ns), mean, sigma)


@dataclass
class BenchRow:
    label: str
    measurements: dict[str, Measurement]
    speedup: float | None = None
    extras: dict[str, float] = field(default_factory=dict)


@dataclass
class BenchReport:
    scenario: str
    subjects: list[str]
    rows: list[BenchRow]


BASELINE = "baseline"
STREAMING = "streaming"
BOTH = "both"


def _subjects(subject: str) -> list[str]:
    if subject == BOTH:
        return [BASELINE, STREAMING]
    if subject in (BASELINE, STREAMING):
        return [subject]
    raise ValueError(f"unknown subject {subject!r}")


def _warmup_cut(reps: int) -> int:
    return int(reps * WARMUP_FRACTION)


# Samples beyond this multiple of the median are host preemption artifacts
# (multi-millisecond scheduler steals), not properties of either subject;
# they are discarded symmetrically and counted in the row extras.
OUTLIER_MEDIAN_FACTOR = 20


def _reject_outliers(samples: list[int]) -> tuple[list[int], int]:
    if len(samples) < 8:
        return samples, 0
    ordered = sorted(samples)
    cutoff = ordered[len(ordered) // 2] * OUTLIER_MEDIAN_FACTOR
    kept = [x for x in samples if x <= cutoff]
    return kept, len(samples) - len(kept)


def _measure(row: BenchRow, subject: str, label: str, samples: list[int]) -> Measurement:
    """Add ``subject``'s Measurement of ``samples`` to ``row``.

    The warm-up is cut first; the outliers dropped are counted in the extras.
    """
    kept, dropped = _reject_outliers(samples[_warmup_cut(len(samples)) :])
    if dropped:
        row.extras[f"{subject}_outliers_discarded"] = float(dropped)
    m = row.measurements[subject] = Measurement.from_samples(label, kept)
    return m


def _finish_row(label: str, per_subject: dict[str, list[int]]) -> BenchRow:
    row = BenchRow(label, {})
    for s, samples in per_subject.items():
        _measure(row, s, label, samples)
    if len(row.measurements) == 2:
        row.speedup = row.measurements[BASELINE].t_avg_ns / row.measurements[STREAMING].t_avg_ns
    return row


def format_size(size: int) -> str:
    return f"{size // 1024}k" if size % 1024 == 0 and size >= 1024 else f"{size}B"


def parse_size(token: str) -> int:
    """Parse a byte count with an optional k (=1024) suffix."""
    token = token.strip().lower()
    if token.endswith("k"):
        return int(token[:-1]) * 1024
    return int(token)


# -- repetitions ---------------------------------------------------------------


class _Rig:
    """One subject's fixture: ``rep`` runs one repetition, ``close`` releases it."""

    def samples(self, returned: list) -> list:
        """The run's samples, from what each ``rep`` returned."""
        return returned

    def close(self) -> None:
        pass


def _repeat(builds: dict, reps: int) -> dict:
    """Build every rig, run each repetition on every rig in turn, close them all.

    ``builds`` maps a key to the function that makes its rig; the result
    maps each key to that rig's samples.  The garbage collector is paused
    throughout, and every rig built is closed, also when a build or a
    repetition fails.
    """
    with ExitStack() as stack:
        if gc.isenabled():
            gc.disable()
            stack.callback(gc.enable)  # last, once every rig is closed
        rigs = {}
        for key, build in builds.items():
            rigs[key] = rig = build()
            stack.callback(rig.close)
        returned = {key: [] for key in rigs}
        for _ in range(reps):
            for key, rig in rigs.items():
                returned[key].append(rig.rep())
        return {key: rig.samples(returned[key]) for key, rig in rigs.items()}


# -- transfer ---------------------------------------------------------------


def _two_node_spec(msg_type: str) -> AppSpec:
    return AppSpec(
        (
            NodeSpec("src", "src", (PortSpec(PUB, "data", msg_type),)),
            NodeSpec("dst", "dst", (PortSpec(SUB, "data", msg_type),)),
        )
    )


def _blob(seq: int, data: bytes) -> dict:
    return {"seq": seq, "data": data}


def _blob_payload(size: int, seed: int) -> bytes:
    # frame layout: 4B seq + 4B count prefix + data, so the wire frame
    # matches the nominal size for sizes >= 8
    return make_image(max(0, size - 8), seed)


def _blob_instance(spec: AppSpec, size: int):
    """A started instance of ``spec`` over ``bench/Blob`` messages of ``size`` bytes.

    The caller drives every port, and each link holds one whole frame.
    """
    graph = build_topology(spec, bench_registry(4))
    config = RuntimeConfig(default_capacity_words=(size + 8 + 3) // 4 + 8)
    kernels = {node.name: EXTERNAL for node in spec.nodes}
    return instantiate(graph, kernels, config).start()


def _blob_topic() -> BaselineTopic:
    return BaselineTopic("data", flatten(bench_registry(4), BLOB_TYPE))


class _StreamTransferRig(_Rig):
    """One-size streaming transfer fixture driven rep by rep."""

    def __init__(self, size: int, seed: int):
        self._inst = _blob_instance(_two_node_spec(BLOB_TYPE), size)
        self._value = _blob(0, _blob_payload(size, seed))
        self._clock = self._inst.config.clock
        self._pub = self._inst.publisher("src", "data")
        self._sub = self._inst.subscriber("dst", "data")
        self.received = 0

    def rep(self) -> tuple[int, int]:
        clock = self._clock
        t0 = clock()
        self._pub.publish_blocking(self._value)
        v = self._sub.take_blocking()
        t1 = clock()
        if len(v["data"]) != len(self._value["data"]):
            raise AssertionError("transfer corrupted a message")
        self.received += 1
        ft = self._sub.last_times
        return (ft.t_last_recv - ft.t_first_sent, t1 - t0)

    def close(self) -> None:
        self._inst.shutdown()


class _BaselineTransferRig(_Rig):
    """One-size baseline transfer fixture driven rep by rep."""

    def __init__(self, size: int, seed: int):
        self._topic = _blob_topic()
        self._writer = self._topic.create_writer("src")
        self._reader = self._topic.create_reader("dst")
        self._value = _blob(0, _blob_payload(size, seed))
        self._clock = self._topic.clock
        self.received = 0

    def rep(self) -> tuple[int, int]:
        clock = self._clock
        t0 = clock()
        self._writer.publish(self._value)
        v = self._reader.take(block=False)
        t1 = clock()
        if v is None or len(v["data"]) != len(self._value["data"]):
            raise AssertionError("baseline transfer lost a message")
        self.received += 1
        bt = self._reader.last_times
        return (bt.t_last_recv - bt.t_first_sent, t1 - t0)

    def samples(self, returned: list) -> list:
        if self._topic.copies_in != self.received or self._topic.copies_out != self.received:
            raise AssertionError("baseline copy accounting broke")
        return returned


_TRANSFER_RIGS = {BASELINE: _BaselineTransferRig, STREAMING: _StreamTransferRig}


def bench_transfer(
    sizes: list[int], reps: int, subject: str = BOTH, seed: int = 0
) -> BenchReport:
    """Transfer time over a size ladder for a 1-publisher/1-subscriber topic.

    All (size, subject) combinations alternate within one repetition loop,
    so every reported ratio and every cross-size comparison is taken from
    the same time window and host throughput drift cancels out.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    for size in sizes:
        if size < 4:
            raise ValueError("sizes must be at least 4 bytes")
    subjects = _subjects(subject)
    samples = _repeat(
        {(size, s): partial(_TRANSFER_RIGS[s], size, seed) for size in sizes for s in subjects},
        reps,
    )
    cut = _warmup_cut(reps)
    rows = []
    for size in sizes:
        per_subject = {s: samples[(size, s)] for s in subjects}
        row = _finish_row(
            format_size(size), {s: [t for t, _ in per_subject[s]] for s in subjects}
        )
        codec_means = {s: stats([c for _, c in per_subject[s][cut:]])[0] for s in subjects}
        for s, mean in codec_means.items():
            row.extras[f"{s}_with_codec_ms"] = mean / 1e6
        if len(codec_means) == 2:
            row.extras["speedup_with_codec"] = codec_means[BASELINE] / codec_means[STREAMING]
        rows.append(row)
    return BenchReport("transfer", subjects, rows)


# -- fan-out ----------------------------------------------------------------


def _fanout_spec(k: int, msg_type: str) -> AppSpec:
    nodes = [NodeSpec("src", "src", (PortSpec(PUB, "data", msg_type),))]
    for i in range(k):
        nodes.append(
            NodeSpec(f"dst{i}", f"dst{i}", (PortSpec(SUB, "data", msg_type),))
        )
    return AppSpec(tuple(nodes))


class _FanoutRig(_Rig):
    """One publisher and k subscribers, each drained by its own thread.

    The drain threads live as long as the rig, and one barrier ends each rep
    once every subscriber's take has returned.  A rep's duration runs from
    the transport start (``_publish``) to the last subscriber's return, a
    clock read on that subscriber's thread (``_take``).  A streaming
    subscriber's ``t_last_recv`` would not do: when it waits parked in
    ``take_blocking``, the publishing thread stamps it before the subscriber
    wakes, while a baseline reader stamps its own after waking.  On close
    ``_release`` returns every take still waiting, so the threads end.
    """

    def __init__(self, k: int, reps: int, size: int, seed: int):
        self._reps = reps
        self._data = _blob_payload(size, seed)
        self._seq = 0
        self._returned = [0] * k
        self._errors: list[BaseException] = []
        self._barrier = threading.Barrier(k + 1)
        self._threads = [
            threading.Thread(target=self._drain, args=(idx,), name=f"drain{idx}", daemon=True)
            for idx in range(k)
        ]
        for t in self._threads:
            t.start()

    def _drain(self, idx: int) -> None:
        try:
            for i in range(self._reps):
                self._returned[idx] = self._take(idx, i)
                self._barrier.wait()
        except BaseException as e:  # noqa: BLE001 - reported by rep
            self._errors.append(e)
            self._barrier.abort()

    def rep(self) -> int:
        t_first_sent = self._publish(_blob(self._seq, self._data))
        self._seq += 1
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            if self._errors:
                error = self._errors[0]
                raise AssertionError(f"fanout consumer failed: {error!r}") from error
            raise
        return max(self._returned) - t_first_sent

    def close(self) -> None:
        self._barrier.abort()
        self._release()
        for t in self._threads:
            t.join(timeout=10.0)


class _StreamFanoutRig(_FanoutRig):
    def __init__(self, k: int, reps: int, size: int, seed: int):
        self._inst = _blob_instance(_fanout_spec(k, BLOB_TYPE), size)
        self._clock = self._inst.config.clock
        self._pub = self._inst.publisher("src", "data")
        self._subs = [self._inst.subscriber(f"dst{i}", "data") for i in range(k)]
        super().__init__(k, reps, size, seed)

    def _publish(self, value: dict) -> int:
        self._pub.publish_blocking(value)
        return self._pub.last_times.t_first_sent

    def _take(self, idx: int, i: int) -> int:
        self._subs[idx].take_blocking()
        return self._clock()

    def _release(self) -> None:
        self._inst.shutdown()  # a parked take raises ShutdownError


class _BaselineFanoutRig(_FanoutRig):
    def __init__(self, k: int, reps: int, size: int, seed: int):
        self._topic = _blob_topic()
        self._writer = self._topic.create_writer("src")
        self._readers = [self._topic.create_reader(f"dst{i}") for i in range(k)]
        super().__init__(k, reps, size, seed)

    def _publish(self, value: dict) -> int:
        return self._writer.publish(value).t_first_sent

    def _take(self, idx: int, i: int) -> int:
        v = self._readers[idx].take(block=True)
        t_returned = self._topic.clock()
        if v["seq"] != i:
            raise AssertionError("baseline fanout lost a message")
        return t_returned

    def _release(self) -> None:
        if self._seq < self._reps:  # a reader may wait for a message never sent
            self._writer.publish(_blob(self._seq, b""))


_FANOUT_RIGS = {BASELINE: _BaselineFanoutRig, STREAMING: _StreamFanoutRig}


def bench_fanout(
    n_subs: list[int], size: int, reps: int, subject: str = BOTH, seed: int = 0
) -> BenchReport:
    """Publish-to-last-take time as the subscriber count grows."""
    if any(k < 1 for k in n_subs):
        raise ValueError("subscriber counts must be >= 1")
    subjects = _subjects(subject)
    samples = _repeat(
        {(k, s): partial(_FANOUT_RIGS[s], k, reps, size, seed) for k in n_subs for s in subjects},
        reps,
    )
    rows = [_finish_row(f"k={k}", {s: samples[(k, s)] for s in subjects}) for k in n_subs]
    return BenchReport("fanout", subjects, rows)


# -- five-stage chain --------------------------------------------------------

_CHAIN_TYPES = dict(zip(CHAIN_TOPICS, [IMAGE_TYPE] * 4 + [CENTER_TYPE, COMMAND_TYPE]))


def chain_spec() -> AppSpec:
    """Camera -> five pipeline nodes -> command monitor, all 1:1 topics."""
    t, types = CHAIN_TOPICS, _CHAIN_TYPES
    nodes = [NodeSpec("camera", "camera", (PortSpec(PUB, t[0], types[t[0]]),))]
    for i, name in enumerate(CHAIN_NODES):
        ports = (PortSpec(SUB, t[i], types[t[i]]), PortSpec(PUB, t[i + 1], types[t[i + 1]]))
        nodes.append(NodeSpec(name, name, ports))
    nodes.append(NodeSpec("monitor", "monitor", (PortSpec(SUB, t[5], types[t[5]]),)))
    return AppSpec(tuple(nodes))


class _StreamChainRig(_Rig):
    """Five-stage pipeline in one static context, one image per rep.

    In sequential mode every link holds a whole frame, so the runtime runs
    all five stages inside the camera's publish in the harness thread, and
    starts no node thread; dataflow stages keep a thread each.

    Chain duration runs from the first node's completed receipt of the
    camera frame to the last node's completed command publish, read from
    the trace after all repetitions.  A stage fused into the camera
    receives the frame when the publish hands it over, so in sequential
    mode no thread wake-up falls inside that window.
    """

    def __init__(self, mode: str, image_elems: int, passes: int, chunk_words: int, seed: int):
        registry = bench_registry(image_elems)
        graph = build_topology(chain_spec(), registry)
        frame_words = image_elems // 4 + 4
        capacity = chunk_words * 2 if mode == DATAFLOW else frame_words
        config = RuntimeConfig(default_capacity_words=capacity, trace=True)
        kernels = dict(chain_kernels(mode, passes, chunk_words))
        kernels["camera"] = EXTERNAL
        kernels["monitor"] = EXTERNAL
        self._image = make_image(image_elems, seed)
        self._inst = instantiate(graph, kernels, config).start()
        self._cam = self._inst.publisher("camera", CHAIN_TOPICS[0])
        self._mon = self._inst.subscriber("monitor", CHAIN_TOPICS[5])
        self._reps = 0

    def rep(self) -> None:
        self._cam.publish_blocking({"pixels": self._image})
        self._mon.take_blocking()
        self._reps += 1

    def samples(self, returned: list) -> list[int]:
        if self._inst.faults:
            raise AssertionError(f"chain kernels faulted: {self._inst.faults}")
        start_by_seq: dict[int, int] = {}
        end_by_seq: dict[int, int] = {}
        for e in self._inst.trace.events():
            if e.topic == CHAIN_TOPICS[0]:
                start_by_seq[e.seq] = e.t_last_recv
            elif e.topic == CHAIN_TOPICS[5]:
                end_by_seq[e.seq] = e.t_last_sent
        if len(start_by_seq) != self._reps or len(end_by_seq) != self._reps:
            raise AssertionError("chain lost messages")
        return [end_by_seq[i] - start_by_seq[i] for i in range(self._reps)]

    def close(self) -> None:
        self._inst.shutdown()


class _BaselineNode(threading.Thread):
    """Sequential take/compute/publish loop over baseline topics.

    ``body`` is a sequential kernel body, called as the runtime calls it:
    with the value taken, keyed by its topic; it returns the value to
    publish keyed by the writer's topic.
    """

    def __init__(self, name, reader, writer, body, reps):
        super().__init__(name=f"bl-node-{name}", daemon=True)
        self.reader = reader
        self.writer = writer
        self.body = body
        self.reps = reps
        self.take_done_ns: list[int] = []
        self.publish_done_ns: list[int] = []
        self.error: BaseException | None = None

    def run(self):
        try:
            clock = self.reader.topic.clock
            t_in, t_out = self.reader.topic.name, self.writer.topic.name
            for _ in range(self.reps):
                value = self.reader.take(block=True)
                self.take_done_ns.append(self.reader.last_times.t_last_recv)
                out = self.body({t_in: value})[t_out]
                self.writer.publish(out)
                self.publish_done_ns.append(clock())
        except BaseException as e:  # noqa: BLE001 - surfaced by the harness
            self.error = e


class _BaselineChainRig(_Rig):
    """Five-stage pipeline over baseline topics, one image per rep.

    Each stage is a thread that takes from its input topic, runs the
    stage's body from ``chain_kernels(SEQUENTIAL, passes)``, the code the
    streaming subject runs, and publishes the result.
    """

    def __init__(self, reps: int, image_elems: int, passes: int, seed: int):
        registry = bench_registry(image_elems)
        topics = {
            name: BaselineTopic(name, flatten(registry, msg_type))
            for name, msg_type in _CHAIN_TYPES.items()
        }
        kernels = chain_kernels(SEQUENTIAL, passes)
        t = CHAIN_TOPICS
        self._nodes = [
            _BaselineNode(
                name,
                topics[t[i]].create_reader(name),
                topics[t[i + 1]].create_writer(name),
                kernels[name].body,
                reps,
            )
            for i, name in enumerate(CHAIN_NODES)
        ]
        self._camera = topics[t[0]].create_writer("camera")
        self._monitor = topics[t[5]].create_reader("monitor")
        self._image = make_image(image_elems, seed)
        self._reps = 0
        for node in self._nodes:
            node.start()

    def rep(self) -> None:
        self._camera.publish({"pixels": self._image})
        self._monitor.take(block=True)
        self._reps += 1

    def samples(self, returned: list) -> list[int]:
        for node in self._nodes:
            node.join()
            if node.error is not None:
                raise AssertionError(f"baseline chain node failed: {node.error!r}")
        first, last = self._nodes[0], self._nodes[-1]
        return [
            last.publish_done_ns[i] - first.take_done_ns[i] for i in range(self._reps)
        ]


def bench_chain(
    mode: str = SEQUENTIAL,
    subject: str = BOTH,
    reps: int = 1000,
    image_elems: int = 6000,
    passes: int = 1,
    chunk_words: int = 4096,
    seed: int = 0,
) -> BenchReport:
    """Five-stage pipeline latency: first node's receipt to last node's publish.

    ``image_elems`` scales the camera-image analog down from the full
    1000x600; the pipeline math is fixed per-element arithmetic.  The
    baseline subject always runs its phases sequentially: its pool
    transport hands over whole messages, so there is nothing to overlap.
    """
    subjects = _subjects(subject)
    builds = {
        BASELINE: partial(_BaselineChainRig, reps, image_elems, passes, seed),
        STREAMING: partial(_StreamChainRig, mode, image_elems, passes, chunk_words, seed),
    }
    samples = _repeat({s: builds[s] for s in subjects}, reps)
    rows = []
    ref: Measurement | None = None
    for s in subjects:
        row = BenchRow(f"{s} ({mode})" if s == STREAMING else f"{s} (sequential)", {})
        m = _measure(row, s, s, samples[s])
        if ref is None:
            ref = m
        row.speedup = ref.t_avg_ns / m.t_avg_ns
        rows.append(row)
    return BenchReport("chain", subjects, rows)


# -- n-stage overlap pipeline (execution-mode comparison) --------------------


def line_spec(n_stages: int, msg_type: str = IMAGE_TYPE) -> AppSpec:
    # the sink port buffers one whole message so a single harness thread can
    # drive the pipeline end to end without deadlocking on narrow links
    nodes = [NodeSpec("src", "src", (PortSpec(PUB, "t0", msg_type),))]
    for i in range(n_stages):
        nodes.append(
            NodeSpec(
                f"s{i}",
                f"s{i}",
                (PortSpec(SUB, f"t{i}", msg_type), PortSpec(PUB, f"t{i + 1}", msg_type)),
            )
        )
    nodes.append(
        NodeSpec("sink", "sink", (PortSpec(SUB, f"t{n_stages}", msg_type, fifo_depth=1),))
    )
    return AppSpec(tuple(nodes))


def pipeline_latency(
    n_stages: int,
    mode: str,
    image_elems: int,
    passes: int,
    reps: int,
    chunk_words: int = 16384,
    stage_fn=None,
    seed: int = 0,
) -> tuple[list[int], "object"]:
    """End-to-end latency samples of an n-stage image pipeline.

    Returns (durations_ns, trace).  Duration runs from the source's first
    word sent to the sink's last word received.
    """
    from .kernels import project
    from .runtime import NodeKernel
    from .kernels import image_stage_dataflow, image_stage_sequential

    fn = stage_fn or project
    registry = bench_registry(image_elems)
    graph = build_topology(line_spec(n_stages), registry)
    frame_words = image_elems // 4 + 4
    capacity = chunk_words * 2 if mode == DATAFLOW else frame_words
    config = RuntimeConfig(default_capacity_words=capacity, trace=True)
    kernels = {"src": EXTERNAL, "sink": EXTERNAL}
    for i in range(n_stages):
        if mode == DATAFLOW:
            body = image_stage_dataflow(fn, f"t{i}", f"t{i + 1}", passes, chunk_words)
        else:
            body = image_stage_sequential(fn, f"t{i}", f"t{i + 1}", passes)
        kernels[f"s{i}"] = NodeKernel(f"s{i}", mode, body)
    image = make_image(image_elems, seed)
    durations = []

    inst = instantiate(graph, kernels, config).start()
    try:
        pub = inst.publisher("src", "t0")
        sub = inst.subscriber("sink", f"t{n_stages}")
        for _ in range(reps):
            pub.publish_blocking({"pixels": image})
            t_start = pub.last_times.t_first_sent
            sub.take_blocking()
            durations.append(sub.last_times.t_last_recv - t_start)
        if inst.faults:
            raise AssertionError(f"pipeline kernels faulted: {inst.faults}")
        trace = inst.trace
    finally:
        inst.shutdown()
    return durations, trace


# -- report rendering ---------------------------------------------------------


def _fmt_ms(m: Measurement) -> str:
    return f"{m.t_avg_ns / 1e6:.3f} ({m.sigma_ns / 1e6:.3f})"


def emit_report(report: BenchReport, format: str) -> str:
    """Render a report as csv, json, or a markdown table."""
    if format == "markdown":
        cols = [report.scenario] + [f"{s} t_avg (sigma) [ms]" for s in report.subjects]
        cols.append("speedup")
        lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
        for row in report.rows:
            cells = [row.label]
            for s in report.subjects:
                m = row.measurements.get(s)
                cells.append(_fmt_ms(m) if m else "-")
            cells.append(f"{row.speedup:.2f}" if row.speedup is not None else "-")
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"

    if format == "csv":
        extra_keys = sorted({k for row in report.rows for k in row.extras})
        header = ["label"]
        for s in report.subjects:
            header += [f"{s}_t_avg_ms", f"{s}_sigma_ms", f"{s}_n"]
        header.append("speedup")
        header += extra_keys
        lines = [",".join(header)]
        for row in report.rows:
            cells = [row.label]
            for s in report.subjects:
                m = row.measurements.get(s)
                if m:
                    cells += [f"{m.t_avg_ns / 1e6:.6f}", f"{m.sigma_ns / 1e6:.6f}", str(m.n)]
                else:
                    cells += ["", "", ""]
            cells.append(f"{row.speedup:.6f}" if row.speedup is not None else "")
            cells += [
                f"{row.extras[k]:.6f}" if k in row.extras else "" for k in extra_keys
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    if format == "json":
        import json

        doc = {
            "scenario": report.scenario,
            "subjects": report.subjects,
            "rows": [
                {
                    "label": row.label,
                    "measurements": {
                        s: {
                            "t_avg_ns": m.t_avg_ns,
                            "sigma_ns": m.sigma_ns,
                            "n": m.n,
                        }
                        for s, m in row.measurements.items()
                    },
                    "speedup": row.speedup,
                    "extras": row.extras,
                }
                for row in report.rows
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    raise ValueError(f"unknown report format {format!r}")
