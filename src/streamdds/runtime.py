"""Threaded execution of a compiled topology.

Every topic becomes one bounded word-stream channel per subscriber port,
and its publisher ports write straight into them.  The compiled arbiter and
broadcaster run in the publishing thread: a publisher on a topic with
several subscribers offers its frame to every subscriber channel in turn,
each taking what fits, and returns once all of them have taken it whole
(the broadcaster, paced per frame by its slowest consumer; within a frame
a channel with room is not held back by a full one), and the publishers
of a topic with several publishers share a frame token,
held from a frame's first word to its end-of-message marker (the arbiter:
whole frames, round-robin under contention).  A topic with publishers but
no subscriber keeps one unread channel, so reliable publishers block once it
fills.  Frames travel as chunks of 32-bit words with an end-of-message
marker on the final chunk; a frame's identity and send timestamps ride
along as sideband metadata with that marker.

A published frame is streamed as the segments the codec emits, so a
``bytes`` payload of a ``uint8`` array (from ``serde.VIEW_MIN_BYTES``, 1 MiB)
reaches the subscriber channels as a view of the caller's object, never
copied on the publishing side; ``bytearray`` and ``memoryview`` payloads
are copied by the codec, because a publish returns once the channels
accept the words, before the subscriber reads them.  Every other segment
is a new encoder buffer that nobody writes after the publish, so channels
and subscribers hold segments by reference.

A ``take_blocking`` that finds its channel empty parks its port on the
channel.  The writer then hands the port each piece it writes, by
reference, under the channel lock and past the channel's capacity, until
the frame's marker; the reader wakes once for the frame, and stamps,
traces and decodes it in its own thread with
``serde.deserialize_segments``.  A fused subscriber gets a frame's
segments the same way, by call.  So a ``bytes`` payload from
``VIEW_MIN_BYTES`` reaches such a subscriber uncopied: the decoded value is
the publisher's object, or that object joined with its unaligned edge
bytes in one copy.  A port's frame in progress is the bytes copied into
its reassembly buffer followed by pieces kept by reference: once a piece of
a frame was handed to the parked port, every later one is kept too, also
one read from the channel.  A frame read from the channel from its first
word, by a subscriber that found it holding something or by ``take_try``,
is copied into the buffer, and the codec copies byte arrays out of it; a
``bytes`` payload of a frame that started there and finished parked is
joined in one copy.  At most one frame per park bypasses the channel;
after it, the channel's capacity and backpressure apply as before.

A frame that fans out to several subscribers, through channels or by call,
is decoded once.  Its ``FrameMeta``, which they all share, says so, and the
first subscriber to finish the frame leaves the decoded value there, where
it lives until the frame's last subscriber took it.  Every subscriber, that
first one included, gets a copy of its own (``serde.copier``): new dicts
and lists over the same strings, numbers and ``bytes``, so none sees what
another changes in its value.  The value never views a port's reassembly
buffer, since the codec copies every string and byte array out of the
frame.  A frame for a single subscriber is decoded for it and handed over
uncopied.

Delivery follows keep-all/reliable semantics throughout: a full buffer
blocks the writer and nothing is dropped.  Blocking operations park on a
per-context ``Waker``, a bare lock, rather than spinning; shutdown closes
every channel and token, which wakes and fails all parked operations and
discards partial frames.

Execution contexts are chosen when the instance is built, from the graph's
shape alone.  Nodes run in one of two modes: ``sequential`` (take whole
messages, compute, publish) or ``dataflow`` (the body streams chunks
through the node, overlapping receive, compute, and send).  Nodes mapped to
the EXTERNAL kernel get no thread; their ports are driven by the caller.
A sequential node runs inside its publisher's context when its one
subscription has no FIFO depth and its topic's only publisher is another
sequential kernel node or an EXTERNAL node, unless following publishers
upward leads back to it.  Such a fused edge has no channel: the publisher
serializes once, writes any threaded subscribers' channels (a topic whose
subscribers are all fused is written to no channel, and its frame is
stamped sent once), then hands the frame to each fused subscriber by call,
which stamps, decodes, runs the node's body and its own publishes before
the publish returns.  A ``write_chunk`` frame is handed over, as the pieces
it was written in, by the call that ends it.  A full downstream channel
therefore blocks the whole fused chain, as keep-all requires.  A publish
calls its fused subscribers shortest fused chain first.  Because a context
makes its writes one after another, a node stays in a thread of its own
where fusing it could make its context wait on itself: where paths leaving
a context meet again at one node, all but one of that node's subscriptions
on them need a ``fifo=`` depth, and the context must write the remaining
one last (``_plan_contexts``).  Every other kernel-driven node gets one
thread.  ``contexts()`` reports the result.

A chain fused into an EXTERNAL publisher runs in the caller's thread,
inside its publish, and starts no thread; ``contexts()`` names it
``caller:<node>``.  Such a chain holds no frame of its own, so it is fused
only where every channel it writes holds a whole frame of its topic: a
fixed-size type, and a plain link or ``fifo=`` depth at least one frame
large.  Otherwise the nodes the caller feeds keep their threads.  What the
caller gives up is running ahead: on links of one frame, a single thread
that publishes k frames into an external -> sequential -> external line
before taking any gets all k back for k up to 3 with a thread for the
node, and only for k = 1 with the node in its publish.  The kernels also no
longer overlap with the caller on a second CPU.  Kernels never run before
``start()`` or after ``shutdown()``: a publish into a caller chain before
``start()`` writes its channels, then waits in the chain until ``start()``
runs it or ``shutdown()`` fails it with ShutdownError.  A fault in a caller
chain is recorded under its node, stops the instance, and fails the
caller's publish with ShutdownError; after a node there raises
``StopKernel``, the caller's next publish into it parks until shutdown.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .msgdef import SerializationPlan
from .serde import MessageValue, deserialize_segments, serialize_segments
from .topology import PUB, SUB, TopologyGraph

Clock = Callable[[], int]


class ShutdownError(RuntimeError):
    """Raised by any port or channel operation after the runtime shut down."""


class RuntimeBuildError(Exception):
    pass


class StopKernel(Exception):
    """A kernel body raises this to stop its own node cleanly."""


class Waker:
    """Parking spot for one blocked execution context.

    Exactly one thread may wait on a Waker; any number may ``set`` it.  The
    lost-wakeup-safe pattern is: check state, ``clear``, re-check state,
    ``wait``.  The Waker is a bare lock, held while it is clear: ``set``
    releases it and ``wait`` blocks acquiring it, which costs far less than
    an ``Event``'s condition variable.  ``wait`` returns with the Waker
    clear again.  A Waker starts clear.
    """

    __slots__ = ("_lock",)

    def __init__(self):
        self._lock = threading.Lock()
        self._lock.acquire()

    def set(self) -> None:
        lock = self._lock
        if lock.locked():
            try:
                lock.release()
            except RuntimeError:  # a concurrent set() released it first
                pass

    def clear(self) -> None:
        self._lock.acquire(False)

    def wait(self) -> None:
        self._lock.acquire()


class GrowBuffer:
    """A persistent, grow-only byte buffer written through a memoryview.

    Slice assignment through the cached view copies at memcpy speed and
    never resizes the underlying allocation, so steady-state reuse stays in
    warm memory no matter what the allocator does in between.
    """

    __slots__ = ("buf", "view")

    def __init__(self, initial: int = 0):
        self.buf = bytearray(initial)
        self.view = memoryview(self.buf)

    def ensure(self, n: int) -> None:
        if len(self.buf) < n:
            try:
                self.view.release()
                self.buf.extend(bytes(n - len(self.buf)))
            except BufferError:  # a stale export pinned the buffer: move to a new one
                old, self.buf = self.buf, bytearray(n)
                self.buf[: len(old)] = old
            self.view = memoryview(self.buf)

    def write(self, pos: int, data) -> int:
        """Copy ``data`` to ``pos``, growing as needed; returns the end offset."""
        end = pos + len(data)
        self.ensure(end)
        self.view[pos:end] = data
        return end


@dataclass(slots=True)
class FrameMeta:
    """Sideband frame identity travelling with the end-of-message marker.

    Every channel and fused subscriber of a frame shares its meta.
    ``fanout`` says the frame goes to more than one of them, and ``value``
    then holds the frame once decoded (``_value_of``).
    """

    topic: str
    publisher: str
    seq: int
    t_first_sent: int | None = None
    t_last_sent: int | None = None
    fanout: bool = False
    value: MessageValue | None = None


class FrameTimes(NamedTuple):
    """A frame's endpoint timestamps (nanoseconds, monotonic clock); immutable.

    ``t_first_sent`` and ``t_last_sent`` are when a channel accepted the
    frame's first and last words; for a frame written to no channel, as
    on a topic whose subscribers are all fused, both are when the
    publisher handed it on (a ``write_chunk`` frame's first and last
    calls).  ``t_first_recv`` and ``t_last_recv`` are
    when the subscriber port added the frame's first and last chunks to its
    frame in progress, each read from the channel or handed over by a
    writer while the port was parked; a parked reader wakes after
    ``t_last_recv``.  For a fused subscriber, both are when the publisher
    handed it the frame's segments.
    """

    topic: str
    publisher: str
    seq: int
    t_first_sent: int | None
    t_last_sent: int | None
    t_first_recv: int | None = None
    t_last_recv: int | None = None


class StreamChannel:
    """Bounded SPSC stream of 32-bit words with end-of-message markers.

    Single producer: a topic's publishers may share the channel, but its
    FrameToken lets only one of them write at a time.

    Capacity is counted in words; a frame's marker is sideband and consumes
    no capacity, so zero-word (empty-message) frames always fit.  ``close``
    makes every subsequent operation raise ShutdownError and discards any
    buffered words.

    A reader that finds the channel empty may ``park`` its port as the
    ``receiver``.  While one is parked, ``write_some`` enqueues nothing: it
    hands each piece straight to the receiver, with no capacity limit, and
    once a piece completes the receiver's frame it unparks the receiver and
    sets its waker.  The receiver keeps the frame; ``unpark`` only stops
    the delivery.  ``write_some`` is the only way in, so a parked receiver
    is handed every frame, whichever publish sent it.
    """

    __slots__ = (
        "capacity_words",
        "name",
        "receiver",
        "_lock",
        "_chunks",
        "_words",
        "_frames",
        "_closed",
        "reader_waker",
        "writer_waker",
        "_clock",
    )

    def __init__(self, capacity_words: int, name: str = "", clock: Clock = time.perf_counter_ns):
        if capacity_words < 1:
            raise ValueError("channel capacity must be at least one word")
        self.capacity_words = capacity_words
        self.name = name
        self.receiver: PortHandle | None = None
        self._lock = threading.Lock()
        self._chunks: deque = deque()  # (data, last: bool, meta: FrameMeta|None)
        self._words = 0
        self._frames = 0
        self._closed = False
        self.reader_waker: Waker | None = None
        self.writer_waker: Waker | None = None
        self._clock = clock

    # -- producer side ----------------------------------------------------

    def free_words(self) -> int:
        with self._lock:
            if self._closed:
                raise ShutdownError(f"channel {self.name} is closed")
            return self.capacity_words - self._words

    def write_some(self, data, last: bool, meta: FrameMeta | None = None) -> int:
        """Enqueue as much of ``data`` as fits; return words accepted.

        ``data`` must be a whole number of words.  ``last`` marks that
        ``data`` ends a frame; the marker (and ``meta``) attach only when
        the final word is accepted.  Send timestamps are stamped into
        ``meta`` under the channel lock, each only while unset: the
        channels of a broadcast share one ``FrameMeta``, and its times are
        those of the first channel to accept the frame's first and last
        words.  Returns 0 without side effects when full (except that a
        zero-word marker is always accepted).  With a receiver parked, all
        of ``data`` goes straight to it instead.

        Either way the channel keeps a reference to ``data``, not a copy,
        and so may the reader: a piece, queued or handed to a parked
        receiver, may be kept until the frame it belongs to is decoded.
        The caller must not change ``data`` meanwhile.
        """
        nbytes = len(data)
        with self._lock:
            if self._closed:
                raise ShutdownError(f"channel {self.name} is closed")
            receiver = self.receiver
            if receiver is None:
                take = min(self.capacity_words - self._words, nbytes // 4)
            else:
                take = nbytes // 4
            final = last and take * 4 == nbytes
            if take == 0 and not final:
                return 0
            if meta is not None:
                if meta.t_first_sent is None:
                    meta.t_first_sent = self._clock()
                if final and meta.t_last_sent is None:
                    meta.t_last_sent = self._clock()
            if receiver is not None:
                if receiver._add(data, final, meta, True):
                    self.receiver = None
                    receiver.waker.set()
                return take
            piece = data if take * 4 == nbytes else data[: take * 4]
            self._chunks.append((piece, final, meta if final else None))
            self._words += take
            if final:
                self._frames += 1
            if self.reader_waker is not None:
                self.reader_waker.set()
            return take

    # -- consumer side ----------------------------------------------------

    def frames_buffered(self) -> int:
        with self._lock:
            return self._frames

    def buffered_words(self) -> int:
        with self._lock:
            return self._words

    def read_some(self, max_words: int | None = None):
        """Dequeue up to ``max_words`` from the head chunk, or None if empty.

        Returns (data, last, meta).  A zero-word marker chunk is returned
        even when ``max_words`` is 0.  Splitting a chunk keeps the marker on
        its final piece.
        """
        if max_words is not None and max_words < 0:
            raise ValueError(f"max_words must not be negative, got {max_words}")
        with self._lock:
            if self._closed:
                raise ShutdownError(f"channel {self.name} is closed")
            if not self._chunks:
                return None
            data, last, meta = self._chunks[0]
            words = len(data) // 4
            if max_words is not None and words > max_words:
                if max_words == 0:
                    return None
                head = data[: max_words * 4]
                self._chunks[0] = (data[max_words * 4 :], last, meta)
                self._words -= max_words
                if self.writer_waker is not None:
                    self.writer_waker.set()
                return (head, False, None)
            self._chunks.popleft()
            self._words -= words
            if last:
                self._frames -= 1
            if self.writer_waker is not None:
                self.writer_waker.set()
            return (data, last, meta)

    def park(self, port: "PortHandle") -> bool:
        """Make ``port`` the receiver if the channel is empty; False if not."""
        with self._lock:
            if self._closed:
                raise ShutdownError(f"channel {self.name} is closed")
            if self._chunks:
                return False
            self.receiver = port
            return True

    def unpark(self, port: "PortHandle") -> None:
        """Stop delivering to ``port``; a frame it completed meanwhile stays with it."""
        with self._lock:
            self.receiver = None

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._chunks.clear()
            self._words = 0
            self._frames = 0
            if self.reader_waker is not None:
                self.reader_waker.set()
            if self.writer_waker is not None:
                self.writer_waker.set()


class FrameToken:
    """The arbiter of a topic with several publishers.

    A publisher holds the token from a frame's first word to its
    end-of-message marker, so frames never interleave.  ``release`` hands
    the token straight to the longest-waiting publisher, which gives
    round-robin service under contention.  ``close`` fails every waiting
    and later ``acquire`` with ShutdownError.
    """

    __slots__ = ("name", "_lock", "_holder", "_waiters", "_closed")

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.Lock()
        self._holder: Waker | None = None
        self._waiters: deque[Waker] = deque()
        self._closed = False

    def acquire(self, waker: Waker) -> None:
        """Take the token, parking on ``waker`` while another publisher holds it."""
        with self._lock:
            if self._closed:
                raise ShutdownError(f"topic {self.name} is shut down")
            if self._holder is None:
                self._holder = waker
                return
            waker.clear()
            self._waiters.append(waker)
        while True:
            waker.wait()
            with self._lock:
                if self._holder is waker:
                    return
                if self._closed:
                    raise ShutdownError(f"topic {self.name} is shut down")
                waker.clear()

    def release(self) -> None:
        with self._lock:
            self._holder = self._waiters.popleft() if self._waiters else None
            if self._holder is not None:
                self._holder.set()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for waker in self._waiters:
                waker.set()


class TraceLog:
    """Thread-safe collector of per-frame delivery events.

    One record per frame a subscriber port completes, made in the
    subscriber's thread.  The receive times are when the frame's first and
    last words reached the port (see ``FrameTimes``): for a frame a writer
    handed to a parked reader by reference, when its first and last pieces
    were handed over, so the record is made after ``t_last_recv``.
    """

    CSV_HEADER = (
        "topic,publisher,frame_seq,t_first_sent,t_last_sent,t_first_recv,t_last_recv"
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list[FrameTimes] = []

    def record(self, times: FrameTimes) -> None:
        with self._lock:
            self._events.append(times)

    def events(self) -> list[FrameTimes]:
        with self._lock:
            return list(self._events)

    def to_csv(self) -> str:
        rows = [self.CSV_HEADER]
        for e in self.events():
            rows.append(
                f"{e.topic},{e.publisher},{e.seq},{e.t_first_sent},"
                f"{e.t_last_sent},{e.t_first_recv},{e.t_last_recv}"
            )
        return "\n".join(rows) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_csv())


class PortHandle:
    """A node's endpoint on one topic.

    Publisher handles only write, subscriber handles only read; a handle
    belongs to exactly one execution context at a time (transferable, never
    shared concurrently).  Value-level operations (publish/take) frame whole
    messages through the codec; chunk-level operations (write_chunk /
    read_chunk) expose the word stream for dataflow kernels.  A whole-message
    publish while a ``write_chunk`` frame is open raises ValueError.
    ``last_times`` holds the timestamps of the most recently completed frame
    on this port.

    A ``take_blocking`` that finds its channel empty parks the port as the
    channel's receiver and waits.  The writer then hands the port each piece
    of the frame by reference and wakes it once, when the frame is
    complete; the port stamps, traces and decodes it from those pieces in
    its own thread.  A wake-up before then unparks the port, and the rest
    of the frame, read from the channel or handed over in a later park, is
    held as well (``_add``).  A frame finished while a wait unwinds is kept
    for the next take.  ``take_try`` and ``read_chunk`` never park.

    A frame a publisher sends to more than one channel or fused subscriber
    is decoded by the first subscriber to finish it, and each gets its own
    copy of that value, which stays on the frame's meta until the last one
    took it (``_value_of``).

    Publishing hands ``bytes`` to the channels by reference (a ``uint8``
    array value from ``serde.VIEW_MIN_BYTES``, or a word-aligned
    ``write_chunk``); other buffers are copied, since the caller may change
    them once the call returns.  Both publishing calls write through one
    loop over ``channels`` (``_write``): within a frame a channel with room
    is not held back by a full sibling, and a call returns once every
    channel has taken all it was given.  A blocked port parks on its
    ``waker``, a bare lock.

    ``channels`` are the channels the port moves words through: a
    subscriber's own FIFO, or every threaded subscriber FIFO of a
    publisher's topic.  ``channel`` is the first of them, or None.
    ``token`` is the topic's FrameToken when it has several publishers.

    A publisher's ``fused`` are the subscriber ports whose nodes run inside
    its context, which for an EXTERNAL node is the caller's thread.
    ``publish_blocking`` hands each frame to their ``deliver`` call, and
    ``write_chunk`` hands them the frame's pieces, by reference, with its
    ``last`` chunk.  Such a subscriber has no channel, and ``fused_into``
    names the context that runs it: ``node:<root>`` or ``caller:<node>``.
    """

    def __init__(
        self,
        direction: str,
        topic: str,
        node: str,
        port_name: str,
        plan: SerializationPlan,
        channels: list[StreamChannel],
        clock: Clock,
        trace: TraceLog | None,
        token: FrameToken | None = None,
    ):
        self.direction = direction
        self.topic = topic
        self.node = node
        self.port_name = port_name
        self.plan = plan
        self.channels = tuple(channels)
        self.channel = self.channels[0] if self.channels else None
        self._from_start = tuple((ch, 0) for ch in self.channels)  # _write's first pass
        self._token = token
        self._clock = clock
        self._trace = trace
        self.waker = Waker()
        self.fused: tuple[PortHandle, ...] = ()
        self.fused_into: str | None = None
        self.deliver: Callable[[list, FrameMeta], None] | None = None
        if direction == SUB:
            if self.channel is not None:
                self.channel.reader_waker = self.waker
        elif token is None:
            for ch in self.channels:
                ch.writer_waker = self.waker
        self._seq = 0
        self.last_times: FrameTimes | None = None
        # subscriber frame in progress (``_add``): the warm buffer's first
        # ``_rx_len`` bytes, then the pieces ``_held`` by reference; a writer
        # updates it under the channel lock while the port is parked
        self._rx = GrowBuffer()
        self._rx_len = 0
        self._rx_first_t: int | None = None
        self._held: list | None = None
        self._rx_done: tuple | None = None  # a complete frame, not yet taken
        # publisher chunk-stream state
        self._tx_meta: FrameMeta | None = None
        self._tx_tail = b""
        self._tx_pieces: list | None = None  # the open frame's pieces, for fused subscribers

    def _require(self, direction: str) -> None:
        if self.direction != direction:
            op = "write" if direction == PUB else "read"
            raise ValueError(f"port {self.node}.{self.port_name} cannot {op}")
        if self.fused_into is not None:
            raise ValueError(
                f"port {self.node}.{self.port_name} has no channel: node {self.node!r} "
                f"runs inside context {self.fused_into!r}, which hands it each frame"
            )

    # -- publisher --------------------------------------------------------

    def _new_meta(self) -> FrameMeta:
        fanout = len(self.channels) + len(self.fused) > 1
        meta = FrameMeta(self.topic, self.node, self._seq, fanout=fanout)
        self._seq += 1
        return meta

    def _take_token(self) -> None:
        """Hold the topic's token; as the only writer, take its channels' wake-ups."""
        self._token.acquire(self.waker)
        for ch in self.channels:
            ch.writer_waker = self.waker

    def _push(self, segments, last: bool, meta: FrameMeta) -> None:
        """Blocking write of ``segments`` in order.

        With ``last`` the final segment also pushes the marker, and the
        frame becomes ``last_times``.  A port with no channel, on a topic
        whose subscribers are all fused, stamps the frame sent instead: its
        first send time on the frame's first call, its last on the ``last``.
        """
        if not self.channels:
            t = self._clock()
            if meta.t_first_sent is None:
                meta.t_first_sent = t
            if last:
                meta.t_last_sent = t
        else:
            if len(segments) > 1:
                for segment in segments[:-1]:
                    self._write(segment, False, meta)
            self._write(segments[-1], last, meta)
        if last:
            self.last_times = FrameTimes(
                meta.topic, meta.publisher, meta.seq, meta.t_first_sent, meta.t_last_sent
            )

    def _write(self, payload, last: bool, meta: FrameMeta) -> None:
        """Blocking write of ``payload`` to every channel.

        A topic whose subscribers are all fused has none, and ``_push``
        does not call this.  Each pass offers each channel what it has not
        taken yet: it takes what fits, a parked reader all of it, and a
        zero-word marker always.  Only channels left short go on to the
        next pass, so a pass in which all take everything builds nothing.
        The port waits only after a pass that moved no word on any channel,
        so a channel with room is never held back by a full sibling, and
        the call returns once every channel has taken the whole payload.
        """
        mv = memoryview(payload)
        total = len(mv)
        todo = self._from_start
        cleared = False  # the waker was cleared before this pass
        while True:
            moved, left = 0, ()
            for ch, offset in todo:
                took = ch.write_some(mv[offset:] if offset else mv, last, meta)
                moved += took
                offset += 4 * took
                if offset < total:
                    left += ((ch, offset),)
            if not left:
                return
            todo = left
            if moved:
                cleared = False
            elif cleared:
                self.waker.wait()
                cleared = False
            else:
                self.waker.clear()
                cleared = True

    def publish_blocking(self, value: MessageValue) -> None:
        """Send one message; returns after every channel accepted its last word.

        Then each fused subscriber receives the frame by call, and its node
        runs, publishes included, before this returns.  A topic whose
        subscribers are all fused has no channel: the frame is stamped sent
        once and handed straight to them.
        """
        self._require(PUB)
        if self._tx_meta is not None:
            raise ValueError(f"port {self.node}.{self.port_name} has a write_chunk frame open")
        segments = serialize_segments(value, self.plan)
        meta = self._new_meta()
        if self._token is None:
            self._push(segments, True, meta)
        else:
            self._take_token()
            try:
                self._push(segments, True, meta)
            finally:
                self._token.release()
        for sub in self.fused:
            sub.deliver(segments, meta)

    def write_chunk(self, data, last: bool = False) -> None:
        """Stream raw frame bytes; ``last`` closes the frame.

        Bytes are carried at word granularity: a sub-word tail is held back
        until more data arrives, and the final chunk is zero-padded to a
        word boundary.  A whole number of words given as ``bytes`` while no
        tail is held goes to the channels by reference; anything else is
        copied once.  The port holds the topic's frame token from the
        frame's first call to its ``last`` one.  Fused subscribers get the
        frame's pieces, by reference, from the ``last`` call, and their nodes
        run before it returns.
        """
        self._require(PUB)
        if self._tx_meta is None:
            if self._token is not None:
                self._take_token()
            self._tx_meta = self._new_meta()
            if self.fused:
                self._tx_pieces = []
        held = self._tx_tail
        if not held and data.__class__ is bytes and len(data) % 4 == 0:
            payload = data
        else:
            n = len(held) + len(data)
            pad = (-n) % 4 if last else 0
            whole = b"".join((held, data, bytes(pad)))
            send = n + pad if last else n - n % 4
            self._tx_tail = whole[send:]
            if not send and not last:
                return
            payload = memoryview(whole)[:send]
        meta = self._tx_meta
        if last:
            self._tx_meta = None
        try:
            self._push((payload,), last, meta)
        except BaseException:
            self._tx_meta = None  # the frame is abandoned, with its held-back tail
            self._tx_tail = b""
            self._tx_pieces = None
            if self._token is not None:
                self._token.release()
            raise
        if last and self._token is not None:
            self._token.release()
        if self.fused:
            self._tx_pieces.append(payload)
            if last:
                pieces, self._tx_pieces = self._tx_pieces, None
                for sub in self.fused:
                    sub.deliver(pieces, meta)

    # -- subscriber -------------------------------------------------------

    def _read_some_blocking(self, max_words: int | None = None):
        while True:
            res = self.channel.read_some(max_words)
            if res is not None:
                return res
            self.waker.clear()
            res = self.channel.read_some(max_words)
            if res is not None:
                return res
            self.waker.wait()

    def _finish_frame(self, meta: FrameMeta | None, t_first: int, t_last: int) -> None:
        if meta is not None:
            times = FrameTimes(
                meta.topic, meta.publisher, meta.seq, meta.t_first_sent, meta.t_last_sent,
                t_first, t_last,
            )
        else:  # untraceable frame (chunk-level producer outside port API)
            times = FrameTimes(self.topic, "?", -1, None, None, t_first, t_last)
        self.last_times = times
        if self._trace is not None:
            self._trace.record(times)

    def _add(self, data, last: bool, meta: FrameMeta | None, by_ref: bool) -> bool:
        """Add a chunk to the frame in progress; True once it is complete.

        A chunk ``by_ref``, one a writer hands this parked port, is kept by
        reference, and so is every later chunk of its frame; any other is
        copied into the reassembly buffer.  The complete frame is stored as
        ``_rx_done``, (pieces, meta, t_first_recv, t_last_recv): the
        buffer's bytes, if any, followed by the kept pieces.
        """
        if self._rx_first_t is None:
            self._rx_first_t = self._clock()
        held = self._held
        if held is not None:
            held.append(data)
        elif by_ref:
            held = self._held = [data]
        else:
            self._rx_len = self._rx.write(self._rx_len, data)
        if not last:
            return False
        if held is None:
            pieces = (self._rx.view[: self._rx_len],)
        elif self._rx_len:
            pieces = (self._rx.view[: self._rx_len], *held)
        else:
            pieces = held
        self._rx_done = (pieces, meta, self._rx_first_t, self._clock())
        self._rx_len = 0
        self._rx_first_t = None
        self._held = None
        return True

    def _take(self, blocking: bool) -> MessageValue | None:
        channel = self.channel
        while True:
            done = self._rx_done
            if done is not None:
                self._rx_done = None
                return self._complete(*done)
            res = channel.read_some()
            if res is not None:
                self._add(*res, False)
            elif not blocking:
                return None
            else:
                self.waker.clear()
                if channel.park(self):
                    try:
                        self.waker.wait()
                    finally:  # also when the wait raises, e.g. KeyboardInterrupt
                        channel.unpark(self)

    def _complete(self, pieces, meta: FrameMeta, first_t: int, last_t: int) -> MessageValue:
        """Stamp a whole frame and return its value, decoded from its ``pieces``."""
        self._finish_frame(meta, first_t, last_t)
        return _value_of(pieces, meta, self.plan)

    def take_blocking(self) -> MessageValue:
        """Receive the oldest complete message, waiting as long as needed."""
        self._require(SUB)
        return self._take(blocking=True)

    def take_try(self) -> MessageValue | None:
        """Return a complete buffered message, or None without blocking.

        Words of a partially arrived frame are added to the port's frame in
        progress; the frame is surfaced only once its marker arrives.
        """
        self._require(SUB)
        return self._take(blocking=False)

    def read_chunk(self, max_words: int | None = None) -> tuple[bytes, bool]:
        """Blocking chunk-level read of the current frame for dataflow bodies.

        Returns at most ``max_words`` words, which must be at least 1.
        """
        self._require(SUB)
        if max_words is not None and max_words < 1:
            raise ValueError(f"max_words must be at least 1, got {max_words}")
        data, last, meta = self._read_some_blocking(max_words)
        if self._rx_first_t is None:
            self._rx_first_t = self._clock()
        if last:
            first_t = self._rx_first_t
            self._rx_first_t = None
            self._finish_frame(meta, first_t, self._clock())
        return (bytes(data), last)


SEQUENTIAL = "sequential"
DATAFLOW = "dataflow"
EXTERNAL_MODE = "external"


@dataclass(frozen=True)
class NodeKernel:
    """A node's computation plus its execution mode.

    sequential: ``body(inputs: dict[topic, value]) -> dict[topic, value]``.
    The runtime takes one message from every subscription, calls the body,
    then publishes the returned values (a topic may be omitted to skip
    publishing that iteration).

    dataflow: ``body(ports: NodePorts) -> None``, called once per frame; the
    body reads and writes chunks itself so receive, compute, and send
    overlap.
    """

    kernel_id: str
    mode: str = SEQUENTIAL
    body: Optional[Callable] = None


EXTERNAL = NodeKernel(kernel_id="<external>", mode=EXTERNAL_MODE)


class NodePorts:
    """A node's ports, addressable by topic."""

    def __init__(self, subs: dict[str, PortHandle], pubs: dict[str, PortHandle]):
        self._subs = subs
        self._pubs = pubs

    def sub(self, topic: str) -> PortHandle:
        return self._subs[topic]

    def pub(self, topic: str) -> PortHandle:
        return self._pubs[topic]

    @property
    def sub_topics(self) -> list[str]:
        return list(self._subs)

    @property
    def pub_topics(self) -> list[str]:
        return list(self._pubs)


@dataclass
class RuntimeConfig:
    """Sizing and instrumentation knobs for one runtime instance.

    ``default_capacity_words`` is the skid buffering of a plain link (one
    word by default: a near-rendezvous wire).  Subscriber FIFOs are sized in
    messages and converted to words via the topic's fixed frame size;
    dynamically sized message types need ``max_message_bytes`` for that
    conversion.
    """

    default_capacity_words: int = 1
    max_message_bytes: int | None = None
    trace: bool = False
    clock: Clock = time.perf_counter_ns


@dataclass
class KernelFault:
    node: str
    error: BaseException


class RuntimeInstance:
    """A startable set of execution contexts over a topology's channels.

    Each context runs a chain of nodes: a root node and the sequential
    nodes fused into it, which run by call inside its publishes (see the
    module docstring).  A kernel-driven root gets a thread of its own,
    ``node:<root>``, which ``start()`` starts.  The chain fused into an
    EXTERNAL node, ``caller:<node>``, runs in whichever thread calls that
    node's publish, and lists only the fused nodes.  Arbiters and
    broadcasters run in the publishing thread.  ``contexts()`` lists each
    context with the nodes it runs.
    """

    def __init__(self, graph: TopologyGraph, config: RuntimeConfig):
        self.graph = graph
        self.config = config
        self.trace: TraceLog | None = TraceLog() if config.trace else None
        self.faults: list[KernelFault] = []
        self._ports: dict[tuple[str, str], PortHandle] = {}
        self._channels: list[StreamChannel] = []
        self._tokens: list[FrameToken] = []
        # (context name, nodes in call order, thread target or None for a caller's)
        self._contexts: list[tuple[str, tuple[str, ...], Callable[[], None] | None]] = []
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        # held until shutdown; a stopped fused node parks its caller on it
        self._parked = threading.Lock()
        self._parked.acquire()
        # held until start() or shutdown; a caller chain waits on it before start()
        self._unstarted = threading.Lock()
        self._unstarted.acquire()

    # -- wiring helpers -----------------------------------------------------

    def _new_channel(self, capacity: int, name: str) -> StreamChannel:
        ch = StreamChannel(capacity, name, self.config.clock)
        self._channels.append(ch)
        return ch

    # -- public API ---------------------------------------------------------

    def port(self, node: str, port_name: str) -> PortHandle:
        return self._ports[(node, port_name)]

    def publisher(self, node: str, topic: str) -> PortHandle:
        return self.port(node, f"{PUB}_{topic}")

    def subscriber(self, node: str, topic: str) -> PortHandle:
        return self.port(node, f"{SUB}_{topic}")

    def channels(self) -> list[StreamChannel]:
        return list(self._channels)

    def contexts(self) -> dict[str, list[str]]:
        """Each context's name with the nodes it runs, in call order."""
        return {name: list(nodes) for name, nodes, _ in self._contexts}

    def start(self) -> "RuntimeInstance":
        with self._lock:
            if self._started or self._closed:
                return self
            self._started = True
            self._unstarted.release()
            for name, _, target in self._contexts:
                if target is None:
                    continue
                t = threading.Thread(target=target, name=name, daemon=True)
                self._threads.append(t)
                t.start()
        return self

    def shutdown(self) -> None:
        """Close all channels and tokens, fail every parked operation, join contexts.

        Idempotent; partial frames in flight are discarded, never delivered.
        The joins share one 10 s deadline.
        """
        self._abort()
        deadline = time.monotonic() + 10.0
        for t in self._threads:
            if t is not threading.current_thread():
                t.join(timeout=max(0.0, deadline - time.monotonic()))

    def _abort(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self._started:
                self._unstarted.release()
        self._parked.release()
        for ch in self._channels:
            ch.close()
        for token in self._tokens:
            token.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "RuntimeInstance":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _record_fault(self, node: str, error: BaseException) -> None:
        self.faults.append(KernelFault(node, error))
        self._abort()

    # -- context bodies -------------------------------------------------------

    def _node_loop(self, node: str, kernel: NodeKernel, ports: NodePorts) -> None:
        try:
            if kernel.mode == SEQUENTIAL:
                subs = {t: ports.sub(t) for t in ports.sub_topics}
                pubs = {t: ports.pub(t) for t in ports.pub_topics}
                while True:
                    _run_body(kernel, {t: p.take_blocking() for t, p in subs.items()}, pubs)
            else:
                while True:
                    kernel.body(ports)
        except (ShutdownError, StopKernel):
            pass
        except BaseException as e:  # noqa: BLE001 - kernel faults stop the instance
            self._record_fault(node, e)

    def _fused_delivery(
        self, node: str, kernel: NodeKernel, sub: PortHandle, pubs: dict[str, PortHandle]
    ) -> Callable[[list, FrameMeta], None]:
        """The call that runs fused ``node`` on each frame its publisher sends.

        A fault is recorded under ``node`` and unwinds the host thread as a
        ShutdownError; a KeyboardInterrupt or SystemExit stops the instance
        the same way but unwinds as itself.  After ``StopKernel`` the node takes no more frames:
        the next one parks its publisher until shutdown, as a stopped
        thread's full channel would.  A frame handed over before ``start()``,
        which only a caller can do, waits for ``start()`` or shutdown.
        """
        topic, plan, clock = sub.topic, sub.plan, sub._clock
        stopped = False

        def deliver(segments, meta: FrameMeta) -> None:
            nonlocal stopped
            if not self._started:
                with self._unstarted:  # until start() or shutdown releases it
                    pass
            if stopped:
                with self._parked:  # until shutdown releases it
                    pass
            if self._closed:
                raise ShutdownError(f"node {node}: the runtime is shut down")
            try:
                t = clock()
                sub._finish_frame(meta, t, t)
                _run_body(kernel, {topic: _value_of(segments, meta, plan)}, pubs)
            except ShutdownError:
                raise
            except StopKernel:
                stopped = True
            except BaseException as e:  # noqa: BLE001 - kernel faults stop the instance
                self._record_fault(node, e)
                if not isinstance(e, Exception):  # e.g. KeyboardInterrupt in a caller
                    raise
                raise ShutdownError(f"node {node} faulted") from e

        return deliver


def _value_of(pieces, meta: FrameMeta | None, plan: SerializationPlan) -> MessageValue:
    """One subscriber's value of a frame, decoded from its ``pieces``.

    A frame that fans out (``meta.fanout``) is decoded once: the first
    subscriber to get here leaves the value on the frame's meta, and every
    subscriber, that one included, gets a copy of it with dicts and lists of
    its own (``plan.copy``).  Two that race both decode, which is harmless;
    a frame that does not decode is not kept, so each subscriber raises its
    own error.  Any other frame is decoded and handed out as it is.
    """
    if meta is None or not meta.fanout:
        return deserialize_segments(pieces, plan)
    value = meta.value
    if value is None:
        value = meta.value = deserialize_segments(pieces, plan)
    return plan.copy(value)


def _run_body(kernel: NodeKernel, inputs: dict, pubs: dict[str, PortHandle]) -> None:
    """One iteration of a sequential node: call the body, publish its outputs."""
    outputs = kernel.body(inputs)
    if not outputs:
        return
    if not outputs.keys() <= pubs.keys():
        raise ValueError(
            f"kernel {kernel.kernel_id!r} returned values for "
            f"topics it does not publish: {sorted(outputs.keys() - pubs.keys())}"
        )
    for t, p in pubs.items():
        if t in outputs:
            p.publish_blocking(outputs[t])


def _fifo_capacity_words(
    plan: SerializationPlan, depth: int, config: RuntimeConfig, topic: str
) -> int:
    words = plan.word_count()
    if words is None:
        if config.max_message_bytes is None:
            raise RuntimeBuildError(
                f"topic {topic!r} carries a dynamically sized type; subscriber "
                f"FIFOs need RuntimeConfig.max_message_bytes"
            )
        words = (config.max_message_bytes + 3) // 4
    return max(1, depth * words)


def _plan_contexts(
    graph: TopologyGraph, kernels: dict[str, NodeKernel], capacity_words: int
) -> dict[str, list[str]]:
    """Each context's root with the nodes its context runs, in call order.

    A root is a kernel-driven node with a thread of its own, or an EXTERNAL
    node that nodes are fused into.  A sequential node is fused into its
    publisher's context when its one subscription has no FIFO depth and its
    topic's only publisher is another sequential node or an EXTERNAL one,
    unless following publishers upward leads back to it: the members of a
    ring of such nodes each keep a thread.  A publish calls its fused
    subscribers shortest fused chain first.

    A chain fused into an EXTERNAL node holds no frame of its own, so every
    channel its fused nodes write must hold a whole frame of its topic
    (plain links hold ``capacity_words``).  Where one does not, the nodes
    that node feeds keep their own threads.

    A context writes its channels one after another, so it must not wait on
    a node that first wants a later write of the same context.  Where paths
    leaving a context meet again at one node, all but one of that node's
    subscriptions on those paths need a FIFO depth, and the context must
    write the paths to that one after all the others.  Fused nodes that
    write onto the paths of a meeting that breaks this keep their own
    threads, and the contexts are planned again.
    """
    subscribers = {tp.topic: tp.subscribers for tp in graph.topics}
    pub_topics: dict[str, list[str]] = {node.name: [] for node in graph.nodes}
    for tp in graph.topics:
        for ref in tp.publishers:
            pub_topics[ref.node].append(tp.topic)
    parent: dict[str, str] = {}
    for node in graph.nodes:
        if kernels[node.name].mode != SEQUENTIAL:
            continue
        subs = [p for p in node.ports if p.direction == SUB]
        if len(subs) != 1:
            continue
        publishers = graph.topic(subs[0].topic).publishers
        if subs[0].fifo_depth is not None or len(publishers) != 1:
            continue
        pub = publishers[0].node
        if pub != node.name and kernels[pub].mode != DATAFLOW:
            parent[node.name] = pub
    ring = set()
    for node in parent:
        pub, seen = parent[node], set()
        while pub in parent and pub != node and pub not in seen:
            seen.add(pub)
            pub = parent[pub]
        if pub == node:
            ring.add(node)
    for node in ring:
        del parent[node]
    while True:
        size = dict.fromkeys(parent, 1)  # a fused node with the chain below it
        for node in parent:
            up = parent[node]
            while up in parent:
                size[up] += 1
                up = parent[up]
        children = {}  # (publisher, topic) -> fused subscribers in call order
        for tp in graph.topics:
            fused = [r.node for r in tp.subscribers if r.node in parent]
            if fused:
                children[(parent[fused[0]], tp.topic)] = sorted(fused, key=size.__getitem__)
        plans, unfuse, hosts = {}, set(), set(parent.values())
        for node in graph.nodes:
            root = node.name
            caller = kernels[root].mode == EXTERNAL_MODE
            if root in parent or (caller and root not in hosts):
                continue
            plan, exits = [], []
            _walk(root, children, pub_topics, subscribers, plan, exits)
            plans[root] = plan
            if len(plan) > 1:
                unfuse |= _blocking_writers(set(plan), exits, subscribers, pub_topics)
            if caller and not all(
                _holds_a_frame(graph.plans[topic], ref, capacity_words)
                for writer, topic, refs in exits
                if writer != root
                for ref in (refs if subscribers[topic] else (None,))  # None: the sink
            ):
                unfuse |= {n for n in plan if parent.get(n) == root}
        unfuse &= parent.keys()
        if not unfuse:
            return plans
        for node in unfuse:
            del parent[node]


def _holds_a_frame(plan: SerializationPlan, ref, capacity_words: int) -> bool:
    """Whether the channel of subscription ``ref`` (None: a plain link) holds a whole frame."""
    words = plan.word_count()
    if words is None:
        return False
    if ref is not None and ref.fifo_depth is not None:
        return max(1, ref.fifo_depth * words) >= words
    return capacity_words >= words


def _walk(node, children, pub_topics, subscribers, plan: list, exits: list) -> None:
    """Append ``node`` and the fused nodes it calls to ``plan``, its writes to ``exits``."""
    plan.append(node)
    for topic in pub_topics[node]:
        fused = children.get((node, topic), [])
        exits.append((node, topic, [r for r in subscribers[topic] if r.node not in fused]))
        for sub in fused:
            _walk(sub, children, pub_topics, subscribers, plan, exits)


def _blocking_writers(context: set, exits: list, subscribers: dict, pub_topics: dict) -> set:
    """The context's nodes that write onto paths meeting against its write order.

    ``exits`` lists the context's channel writes in call order, each as
    (writing node, topic, subscriber refs).  Of the writes that reach a
    subscription, a plain one counts at the earliest, a buffered one at
    the latest.
    """
    reach: dict[tuple[str, str], tuple] = {}  # (node, topic) -> (ref, write positions)
    for pos, (_, topic, refs) in enumerate(exits):
        todo, seen = [(topic, refs)], set()
        while todo:
            topic, refs = todo.pop()
            for ref in refs:
                if ref.node in context:
                    continue
                reach.setdefault((ref.node, topic), (ref, set()))[1].add(pos)
                if ref.node not in seen:
                    seen.add(ref.node)
                    todo += [(t, subscribers[t]) for t in pub_topics[ref.node]]
    meetings: dict[str, list] = {}
    for (node, _), entry in reach.items():
        meetings.setdefault(node, []).append(entry)
    writers = set()
    for entries in meetings.values():
        if len(entries) < 2:
            continue
        plain = [pos for ref, pos in entries if ref.fifo_depth is None]
        buffered = [max(pos) for ref, pos in entries if ref.fifo_depth is not None]
        if not plain or (len(plain) == 1 and min(plain[0]) > max(buffered)):
            continue
        writers |= {exits[p][0] for _, pos in entries for p in pos}
    return writers


def instantiate(
    graph: TopologyGraph,
    kernels: dict[str, NodeKernel],
    config: RuntimeConfig | None = None,
) -> RuntimeInstance:
    """Allocate channels, ports, and contexts for a compiled topology.

    ``kernels`` maps kernel ids to NodeKernel; map a node's kernel id to
    EXTERNAL to drive its ports from the caller instead of a thread.
    Contexts are chosen from the graph's shape (see the module docstring),
    created but not started; call ``start()`` or use the instance as a
    context manager.
    """
    config = config or RuntimeConfig()
    inst = RuntimeInstance(graph, config)
    node_kernels: dict[str, NodeKernel] = {}
    for node in graph.nodes:
        kernel = kernels.get(node.kernel_id)
        if kernel is None:
            raise RuntimeBuildError(
                f"node {node.name!r} needs kernel {node.kernel_id!r}, "
                f"which is not in the kernel map"
            )
        if kernel.mode not in (SEQUENTIAL, DATAFLOW, EXTERNAL_MODE):
            raise RuntimeBuildError(f"node {node.name!r}: unknown kernel mode {kernel.mode!r}")
        if kernel.mode != EXTERNAL_MODE and kernel.body is None:
            raise RuntimeBuildError(f"node {node.name!r}: kernel {kernel.kernel_id!r} has no body")
        node_kernels[node.name] = kernel
    plans = _plan_contexts(graph, node_kernels, config.default_capacity_words)
    call_rank = {node: k for plan in plans.values() for k, node in enumerate(plan)}
    fused_nodes = {node for plan in plans.values() for node in plan[1:]}
    node_ports: dict[str, tuple[dict, dict]] = {}

    def make_port(ref, direction, topic, plan, channels, token=None):
        port = PortHandle(
            direction, topic, ref.node, f"{direction}_{topic}", plan, channels,
            config.clock, inst.trace, token,
        )
        inst._ports[(ref.node, port.port_name)] = port
        subs, pubs = node_ports.setdefault(ref.node, ({}, {}))
        (subs if direction == SUB else pubs)[topic] = port
        return port

    for tp in graph.topics:
        plan = graph.plans[tp.topic]
        channels = []
        fused = []  # subscriber ports fed by call, without a channel
        for ref in tp.subscribers:
            if ref.node in fused_nodes:
                fused.append(make_port(ref, SUB, tp.topic, plan, []))
                continue
            words = (
                _fifo_capacity_words(plan, ref.fifo_depth, config, tp.topic)
                if ref.fifo_depth is not None
                else config.default_capacity_words
            )
            ch = inst._new_channel(words, f"{tp.topic}->{ref.node}")
            channels.append(ch)
            make_port(ref, SUB, tp.topic, plan, [ch])
        fused.sort(key=lambda p: call_rank[p.node])
        if not tp.publishers:
            continue
        if not tp.subscribers:  # unread: reliable publishers block once it fills
            channels.append(inst._new_channel(config.default_capacity_words, f"{tp.topic}.sink"))
        token = None
        if len(tp.publishers) > 1:
            token = FrameToken(tp.topic)
            inst._tokens.append(token)
        for ref in tp.publishers:
            make_port(ref, PUB, tp.topic, plan, channels, token).fused = tuple(fused)

    for root, order in plans.items():
        caller = node_kernels[root].mode == EXTERNAL_MODE
        name = f"caller:{root}" if caller else f"node:{root}"
        for fused_node in order[1:]:
            subs, pubs = node_ports[fused_node]
            (sub,) = subs.values()
            sub.fused_into = name
            sub.deliver = inst._fused_delivery(fused_node, node_kernels[fused_node], sub, pubs)
        if caller:
            inst._contexts.append((name, tuple(order[1:]), None))
            continue
        ports = NodePorts(*node_ports.get(root, ({}, {})))
        kernel = node_kernels[root]
        inst._contexts.append(
            (name, tuple(order), lambda n=root, k=kernel, p=ports: inst._node_loop(n, k, p))
        )
    return inst
