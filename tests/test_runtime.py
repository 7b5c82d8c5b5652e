import itertools
import random
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from streamdds import serde
from streamdds.msgdef import TypeRegistry, load_msg_tree, parse_msg_file
from streamdds.serde import VIEW_MIN_BYTES, serialize, serialize_segments
from streamdds.runtime import (
    DATAFLOW,
    EXTERNAL,
    SEQUENTIAL,
    FrameMeta,
    FrameTimes,
    GrowBuffer,
    NodeKernel,
    PortHandle,
    RuntimeBuildError,
    RuntimeConfig,
    ShutdownError,
    StopKernel,
    StreamChannel,
    TraceLog,
    Waker,
    instantiate,
)
from streamdds.topology import AppSpec, NodeSpec, PortSpec, build_topology, parse_config

from support import count_joined, reference_frame


def build(cfg: str, registry, kernels, **config_kw):
    graph = build_topology(parse_config(cfg), registry)
    return instantiate(graph, kernels, RuntimeConfig(**config_kw))


@pytest.fixture
def registry():
    reg = TypeRegistry()
    reg.register(parse_msg_file("uint8[16] data", "demo/Img"))
    reg.register(parse_msg_file("uint8[] data", "demo/Blob"))
    return reg.resolve()


def img(tag: int, seq: int = 0) -> dict:
    return {"data": bytes([tag, seq % 256]) + bytes(14)}


# Every blocking wait in these tests ends by this deadline, so a delivery
# fault fails its test instead of hanging the run.
DEADLINE_S = 10.0


@contextmanager
def watchdog(inst, seconds: float = DEADLINE_S):
    """Shut ``inst`` down if the block is still running after ``seconds``.

    ``shutdown()`` fails every parked take and publish with ShutdownError.
    """
    timer = threading.Timer(seconds, inst.shutdown)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
        timer.join()


def join_all(threads, seconds: float = DEADLINE_S) -> None:
    """Join ``threads`` against one shared deadline; fail if any still runs."""
    deadline = time.monotonic() + seconds
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    alive = [t.name for t in threads if t.is_alive()]
    assert not alive, f"still running after {seconds} s: {alive}"


class TestStreamChannel:
    def test_partial_write_and_split_read(self):
        ch = StreamChannel(2)
        data = bytes(16)
        assert ch.write_some(memoryview(data), True) == 2
        out, last, _ = ch.read_some(max_words=1)
        assert (len(out), last) == (4, False)
        out, last, _ = ch.read_some()
        assert (len(out), last) == (4, False)

    def test_marker_attaches_on_final_word(self):
        ch = StreamChannel(8)
        ch.write_some(memoryview(bytes(8)), True)
        _, last, _ = ch.read_some(max_words=1)
        assert not last
        _, last, _ = ch.read_some()
        assert last

    def test_zero_word_marker_always_fits(self):
        ch = StreamChannel(1)
        assert ch.write_some(memoryview(bytes(4)), False) == 1
        assert ch.free_words() == 0
        assert ch.write_some(b"", True) == 0
        assert ch.frames_buffered() == 1

    def test_closed_channel_raises(self):
        ch = StreamChannel(4)
        ch.close()
        with pytest.raises(ShutdownError):
            ch.write_some(memoryview(bytes(4)), True)
        with pytest.raises(ShutdownError):
            ch.read_some()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            StreamChannel(0)

    def test_negative_max_words_rejected(self):
        ch = StreamChannel(8)
        ch.write_some(memoryview(bytes(16)), True)
        with pytest.raises(ValueError):
            ch.read_some(-1)
        assert ch.buffered_words() == 4
        assert ch.read_some(0) is None  # a zero-word read only takes a bare marker
        data, last, _ = ch.read_some()
        assert (len(data), last, ch.buffered_words()) == (16, True, 0)


class TestGrowBuffer:
    def test_write_grows_and_reuses(self):
        gb = GrowBuffer()
        end = gb.write(0, b"abcd")
        assert end == 4 and bytes(gb.view[:4]) == b"abcd"
        gb.write(0, b"xy")
        assert bytes(gb.view[:4]) == b"xycd"

    def test_pinned_export_recovery(self):
        gb = GrowBuffer()
        gb.write(0, b"abcd")
        pinned = gb.view[:2]  # simulate a leaked export
        gb.write(0, bytes(64))
        assert len(gb.buf) >= 64
        del pinned

    def test_pinned_export_growth_keeps_written_bytes(self):
        gb = GrowBuffer()
        gb.write(0, b"abcd")
        pinned = gb.view[:2]  # simulate a leaked export
        gb.write(4, bytes(64))
        assert bytes(gb.view[:4]) == b"abcd"
        assert bytes(gb.view[4:68]) == bytes(64)
        del pinned


class TestPortsDirect:
    def test_loopback(self, registry):
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
            default_capacity_words=8,
        )
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            out = []
            t = threading.Thread(target=lambda: out.append(sub.take_blocking()))
            t.start()
            pub.publish_blocking(img(7))
            join_all([t])
            assert out[0] == img(7)

    def test_rendezvous_on_one_word_wire(self, registry):
        # default capacity is a single word: transfer requires a concurrent taker
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
        )
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            out = []
            t = threading.Thread(target=lambda: out.append(sub.take_blocking()))
            t.start()
            pub.publish_blocking(img(1))
            join_all([t])
            assert out[0] == img(1)

    def test_fifo_ordering(self, registry):
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img fifo=4\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
        )
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            for i in range(3):
                pub.publish_blocking(img(1, i))
            got = [sub.take_blocking()["data"][1] for _ in range(3)]
            assert got == [0, 1, 2]

    def test_take_try(self, registry):
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img fifo=2\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
        )
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            assert sub.take_try() is None
            pub.publish_blocking(img(1))
            assert sub.take_try() == img(1)
            assert sub.take_try() is None

    def test_take_try_partial_frame(self, registry):
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img fifo=2\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
        )
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            pub.write_chunk(bytes(8), last=False)  # half a frame on the wire
            assert sub.take_try() is None
            pub.write_chunk(bytes(8), last=True)
            assert sub.take_try() == {"data": bytes(16)}

    def test_whole_message_publish_refused_while_a_chunk_frame_is_open(self, registry):
        inst = build(
            "node a\n pub T demo/Blob\nnode b\n sub T demo/Blob\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
            default_capacity_words=1024,
        )
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            first = {"data": b"abcd" * 4}
            frame = serialize(first, pub.plan).payload
            pub.write_chunk(frame[:8])
            with pytest.raises(ValueError, match="write_chunk frame open"):
                pub.publish_blocking({"data": b"x" * 8})
            pub.write_chunk(frame[8:], last=True)
            assert sub.take_try() == first  # nothing spliced into the open frame
            assert sub.take_try() is None
            pub.publish_blocking({"data": b"x" * 8})  # a closed frame frees the port
            assert sub.take_try() == {"data": b"x" * 8}

    def test_read_chunk_rejects_max_words_below_one(self, registry):
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img fifo=2\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
        )
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            pub.publish_blocking(img(3))
            for bad in (0, -1):
                with pytest.raises(ValueError):
                    sub.read_chunk(max_words=bad)
            assert sub.channel.buffered_words() == 4
            data, last = sub.read_chunk(max_words=4)
            assert (data, last) == (img(3)["data"], True)

    def test_direction_enforced(self, registry):
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
        )
        with inst:
            with pytest.raises(ValueError):
                inst.publisher("a", "T").take_try()
            with pytest.raises(ValueError):
                inst.subscriber("b", "T").publish_blocking(img(1))

    def test_shape_mismatch_reported(self, registry):
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
        )
        with inst:
            from streamdds.serde import SerializationError

            with pytest.raises(SerializationError):
                inst.publisher("a", "T").publish_blocking({"data": [1, 2]})


class TestWaker:
    def test_set_before_wait_returns_at_once(self):
        w = Waker()
        w.set()
        t = threading.Thread(target=w.wait, daemon=True)
        t.start()
        join_all([t], seconds=1.0)

    def test_wait_parks_until_set(self):
        w = Waker()
        w.set()
        w.clear()
        t = threading.Thread(target=w.wait, daemon=True)
        t.start()
        t.join(timeout=0.05)
        assert t.is_alive()
        w.set()
        join_all([t])

    def test_concurrent_set_never_raises(self):
        # Under the interpreter lock two set() calls seldom interleave, so
        # the race is staged: another set() releases the lock between this
        # one's locked() and release().
        class RacedLock:
            def __init__(self):
                self.lock = threading.Lock()
                self.lock.acquire()

            def locked(self):
                held = self.lock.locked()
                if held:
                    self.lock.release()  # the other set() gets there first
                return held

            def release(self):
                self.lock.release()

            def acquire(self, blocking=True):
                return self.lock.acquire(blocking)

        w = Waker()
        w._lock = RacedLock()
        w.set()
        t = threading.Thread(target=w.wait, daemon=True)
        t.start()
        join_all([t], seconds=1.0)

    def test_ping_pong_loses_no_wakeup(self):
        rounds = 10_000
        turn = [0]
        abort = False
        wakers = (Waker(), Waker())

        def player(me: int):
            mine, other = wakers[me], wakers[1 - me]
            for k in range(me, 2 * rounds, 2):
                while turn[0] != k:  # check, clear, re-check, wait
                    mine.clear()
                    if turn[0] != k and not abort:
                        mine.wait()
                    if abort:
                        return
                turn[0] = k + 1
                other.set()

        threads = [threading.Thread(target=player, args=(i,), daemon=True) for i in (0, 1)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            join_all(threads, seconds=30.0)
        finally:
            sys.setswitchinterval(old)
            abort = True
            for w in wakers:
                w.set()
        assert turn[0] == 2 * rounds


class TestPublishByReference:
    """``bytes`` payloads reach the channels as views; mutable ones are copied."""

    @staticmethod
    def read_frame(ch) -> list:
        chunks = [ch.read_some()]
        while not chunks[-1][1]:
            chunks.append(ch.read_some())
        return [data for data, _, _ in chunks]

    @pytest.mark.parametrize("n_subs", [1, 2])
    def test_bytes_payload_sits_in_channel_as_view(self, registry, n_subs):
        subs = [f"b{i}" for i in range(n_subs)]
        cfg = "node a\n pub T demo/Blob\n" + "".join(f"node {b}\n sub T demo/Blob\n" for b in subs)
        inst = build(cfg, registry, {n: EXTERNAL for n in ["a", *subs]},
                     default_capacity_words=VIEW_MIN_BYTES // 4 + 1)
        payload = random.Random(1).randbytes(VIEW_MIN_BYTES)
        with inst, watchdog(inst):
            pub = inst.publisher("a", "T")
            pub.publish_blocking({"data": payload})
            for b in subs:
                count, data = self.read_frame(inst.subscriber(b, "T").channel)
                assert bytes(count) == len(payload).to_bytes(4, "little")
                assert isinstance(data, memoryview) and data.obj is payload
                assert data == payload
            pub.publish_blocking({"data": payload})
            for b in subs:
                assert inst.subscriber(b, "T").take_blocking() == {"data": payload}

    def test_bytearray_mutated_after_publish_arrives_unchanged(self, registry, monkeypatch):
        # views from 16 bytes, so the size alone would not force a copy
        monkeypatch.setattr(serde, "VIEW_MIN_BYTES", 16)
        inst = build(
            "node a\n pub T demo/Blob\nnode b\n sub T demo/Blob\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
            default_capacity_words=4,
        )
        payload = bytearray(range(64))
        original = bytes(payload)
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            out = []
            t = threading.Thread(target=lambda: out.append(sub.take_blocking()))
            t.start()
            pub.publish_blocking({"data": payload})
            payload[:] = bytes(len(payload))  # the last words are still on the link
            join_all([t])
        assert out == [{"data": original}]

    def test_unaligned_bytes_after_string_over_chunked_link(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("string name\nuint8[] data\nuint16 tail", "demo/Named"))
        reg = reg.resolve()
        inst = build(
            "node a\n pub T demo/Named\nnode b\n sub T demo/Named\n",
            reg,
            {"a": EXTERNAL, "b": EXTERNAL},
            default_capacity_words=4096,
        )
        payload = random.Random(2).randbytes(VIEW_MIN_BYTES + 3)
        value = {"name": "abc", "data": payload, "tail": 513}
        pub = inst.publisher("a", "T")
        segments = serialize_segments(value, pub.plan)
        assert any(getattr(s, "obj", None) is payload for s in segments)
        frame = bytes(serialize(value, pub.plan).payload)
        assert frame == reference_frame(reg, "demo/Named", value)
        with inst, watchdog(inst):
            sub = inst.subscriber("b", "T")
            out = []
            t = threading.Thread(target=lambda: out.extend(sub.take_blocking() for _ in range(2)))
            t.start()
            pub.publish_blocking(value)
            pub.publish_blocking({"name": "", "data": payload[:5], "tail": 1})
            join_all([t])
        assert out == [value, {"name": "", "data": payload[:5], "tail": 1}]

    def test_write_chunk_forwards_aligned_bytes(self, registry):
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img fifo=2\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
        )
        with inst, watchdog(inst):
            pub, ch = inst.publisher("a", "T"), inst.subscriber("b", "T").channel
            aligned = bytes(range(8))
            pub.write_chunk(aligned)
            data, last, _ = ch.read_some()
            assert data.obj is aligned and not last
            mutable = bytearray(range(8, 12))
            pub.write_chunk(mutable)
            data, _, _ = ch.read_some()
            assert getattr(data, "obj", None) is not mutable and bytes(data) == mutable
            pub.write_chunk(b"\x0c\x0d\x0e")  # held back: not a whole word
            assert ch.read_some() is None
            pub.write_chunk(b"\x0f", last=True)
            data, last, _ = ch.read_some()
            assert bytes(data) == bytes(range(12, 16)) and last
            pub.write_chunk(b"\x01\x02\x03\x04\x05")
            pub.write_chunk(b"\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e", last=True)
            chunks = TestPublishByReference.read_frame(ch)
            assert b"".join(map(bytes, chunks)) == bytes(range(1, 15)) + bytes(2)

    def test_an_abandoned_write_chunk_frame_leaves_no_tail_behind(self, registry):
        class Interrupt(Exception):
            pass

        class InterruptingWaker(Waker):
            def wait(self):
                raise Interrupt

        inst = build("node a\n pub T demo/Blob\nnode b\n sub T demo/Blob\n", registry,
                     {"a": EXTERNAL, "b": EXTERNAL}, default_capacity_words=2)
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            pub.publish_blocking({"data": b"ab"})  # two words: the link is full
            waker, pub.waker = pub.waker, InterruptingWaker()
            with pytest.raises(Interrupt):
                pub.write_chunk(b"xyzwv")  # holds back b"v", then waits for room
            pub.waker = waker
            assert sub.channel.buffered_words() == 2  # no word of it moved
            assert sub.take_try() == {"data": b"ab"}
            frame = bytes(serialize({"data": b"next"}, pub.plan).payload)
            sender = threading.Thread(target=pub.write_chunk, args=(frame, True))
            sender.start()
            assert sub.take_blocking() == {"data": b"next"}
            join_all([sender])


class TestBackpressure:
    @pytest.mark.parametrize("depth", [1, 4])
    def test_publisher_blocks_at_fifo_depth(self, registry, depth):
        inst = build(
            f"node a\n pub T demo/Img\nnode b\n sub T demo/Img fifo={depth}\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
        )
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            completed = []
            def run():
                try:
                    for i in range(depth + 2):
                        pub.publish_blocking(img(1, i))
                        completed.append(i)
                except ShutdownError:
                    pass
            t = threading.Thread(target=run)
            t.start()
            time.sleep(0.15)
            assert len(completed) == depth
            sub.take_blocking()
            time.sleep(0.15)
            assert len(completed) == depth + 1
            inst.shutdown()
            join_all([t])

    def test_no_loss_after_drain(self, registry):
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img fifo=2\n",
            registry,
            {"a": EXTERNAL, "b": EXTERNAL},
        )
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            n = 10
            t = threading.Thread(target=lambda: [pub.publish_blocking(img(1, i)) for i in range(n)])
            t.start()
            got = [sub.take_blocking()["data"][1] for _ in range(n)]
            join_all([t])
            assert got == list(range(n))


def wait_parked(sub, seconds: float = DEADLINE_S) -> None:
    """Return once ``sub`` is parked on its channel as the receiver."""
    deadline = time.monotonic() + seconds
    while sub.channel.receiver is not sub:
        assert time.monotonic() < deadline, f"{sub.node} never parked"
        time.sleep(0.0002)


class CountingWaker(Waker):
    """A Waker that counts the waits that return."""

    def __init__(self):
        super().__init__()
        self.wakes = 0

    def wait(self) -> None:
        super().wait()
        self.wakes += 1


def count_wakes(sub) -> CountingWaker:
    sub.waker = sub.channel.reader_waker = CountingWaker()
    return sub.waker


class TestDirectDelivery:
    """A writer copies a frame straight into a reader parked in take_blocking."""

    BLOB = "node a\n pub T demo/Blob\nnode b\n sub T demo/Blob\n"

    def test_frames_many_times_capacity_arrive_whole_with_one_wake_each(self, registry):
        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=4)
        rng = random.Random(11)
        payloads = [rng.randbytes(rng.randrange(100, 5000)) for _ in range(20)]
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            waker = count_wakes(sub)
            got, peak = [], []
            reader = threading.Thread(
                target=lambda: got.extend(sub.take_blocking()["data"] for _ in payloads)
            )
            reader.start()
            for p in payloads:
                wait_parked(sub)
                pub.publish_blocking({"data": p})
                peak.append(sub.channel.buffered_words())
            join_all([reader])
        assert got == payloads
        assert waker.wakes == len(payloads)
        assert max(peak) == 0  # nothing was queued in the 4-word channel

    def test_receive_times_are_when_the_words_land(self, registry):
        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16, trace=True)
        clock = inst.config.clock
        n = 10
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")

            published = []

            def send():
                for k in range(n):
                    wait_parked(sub)
                    pub.publish_blocking({"data": bytes([k]) * 4000})
                    published.append(clock())

            sender = threading.Thread(target=send)
            sender.start()
            rows = []
            for k in range(n):
                value = sub.take_blocking()
                returned = clock()
                assert value["data"][0] == k
                rows.append((sub.last_times, returned))
            join_all([sender])
        assert [times for times, _ in rows] == inst.trace.events()
        for (times, returned), publish_returned in zip(rows, published):
            assert times.t_first_sent <= times.t_first_recv <= times.t_last_recv
            # the writer moved the last word before its publish returned
            assert times.t_last_sent <= times.t_last_recv < publish_returned
            assert times.t_last_recv < returned

    def test_spurious_wake_mid_frame_finishes_through_the_channel(self, registry):
        # The race is staged: a wake-up reaches the parked reader after the
        # first words landed directly, and the writer sends the rest while
        # the reader is unparked, so they must come through the channel.
        staged = []

        class StagedChannel(StreamChannel):
            def unpark(self, port):
                super().unpark(port)
                if port._rx_done is None and not staged:
                    staged.append(self.write_some(rest, True, meta))
                    staged.append(self.buffered_words())

        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL})
        sub = inst.subscriber("b", "T")
        payload = random.Random(3).randbytes(999)
        frame = bytes(serialize({"data": payload}, sub.plan).payload)
        head, rest = frame[:64], frame[64:]
        meta = FrameMeta("T", "a", 0)
        ch = StagedChannel(len(frame), "T->b")
        sub.channel, sub.channels, ch.reader_waker = ch, (ch,), sub.waker
        inst._channels = [ch]
        with inst, watchdog(inst):
            out = []
            reader = threading.Thread(target=lambda: out.append(sub.take_blocking()))
            reader.start()
            wait_parked(sub)
            assert ch.write_some(head, False, meta) == len(head) // 4
            assert ch.buffered_words() == 0  # the head landed directly
            sub.waker.set()  # the spurious wake
            join_all([reader])
        assert staged == [len(rest) // 4, len(rest) // 4]
        assert out == [{"data": payload}]
        times = sub.last_times
        assert (times.seq, times.t_first_sent) == (0, meta.t_first_sent)
        assert times.t_first_sent <= times.t_first_recv <= times.t_last_recv

    def test_shutdown_mid_delivery_never_surfaces_the_partial_frame(self, registry):
        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=4)
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            out, errors = [], []

            def take():
                try:
                    out.append(sub.take_blocking())
                except ShutdownError as e:
                    errors.append(e)

            reader = threading.Thread(target=take)
            reader.start()
            wait_parked(sub)
            frame = bytes(serialize({"data": bytes(1000)}, pub.plan).payload)
            pub.write_chunk(frame[:500])  # 125 words land in the parked reader
            assert sub.channel.buffered_words() == 0 and reader.is_alive()
            inst.shutdown()
            join_all([reader])
        assert (out, len(errors), sub.last_times) == ([], 1, None)
        with pytest.raises(ShutdownError):
            pub.write_chunk(frame[500:], last=True)
        with pytest.raises(ShutdownError):
            sub.take_try()

    def test_interrupted_wait_unparks_and_keeps_a_finished_frame(self, registry):
        # The interrupt is staged: the first wait raises at once, the second
        # raises after a whole frame went straight into the parked reader.
        class Interrupt(Exception):
            pass

        class InterruptingWaker(Waker):
            def __init__(self):
                super().__init__()
                self.staged = [None, {"data": b"direct"}]

            def wait(self):
                if not self.staged:
                    return super().wait()
                value = self.staged.pop(0)
                if value is not None:
                    pub.publish_blocking(value)
                raise Interrupt

        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16)
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            sub.waker = sub.channel.reader_waker = InterruptingWaker()
            with pytest.raises(Interrupt):
                sub.take_blocking()
            assert sub.channel.receiver is None
            pub.publish_blocking({"data": b"queued"})  # through the channel
            assert sub.take_blocking() == {"data": b"queued"}
            with pytest.raises(Interrupt):
                sub.take_blocking()
            assert sub.channel.receiver is None
            pub.publish_blocking({"data": b"next"})
            assert sub.take_blocking() == {"data": b"direct"}
            assert sub.take_blocking() == {"data": b"next"}

    def test_broadcast_to_a_parked_and_a_busy_subscriber(self, registry):
        cfg = self.BLOB + "node c\n sub T demo/Blob\n"
        inst = build(cfg, registry, {n: EXTERNAL for n in ("a", "b", "c")},
                     default_capacity_words=8)
        rng = random.Random(9)
        payloads = [rng.randbytes(rng.randrange(0, 300)) for _ in range(40)]
        with inst, watchdog(inst):
            parked, busy = inst.subscriber("b", "T"), inst.subscriber("c", "T")
            waker = count_wakes(parked)
            got_parked, got_busy = [], []

            def drain_busy():
                while len(got_busy) < len(payloads):
                    value = busy.take_try()
                    if value is None:
                        time.sleep(0.0005)  # busy elsewhere between polls
                    else:
                        got_busy.append(value["data"])

            threads = [
                threading.Thread(
                    target=lambda: got_parked.extend(parked.take_blocking()["data"] for _ in payloads)
                ),
                threading.Thread(target=drain_busy),
            ]
            for t in threads:
                t.start()
            pub = inst.publisher("a", "T")
            for p in payloads:
                pub.publish_blocking({"data": p})
            join_all(threads)
        assert got_parked == got_busy == payloads
        assert waker.wakes > 0


class GatedWaker(Waker):
    """A Waker whose waits, once woken, return only after ``gate`` is set."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()

    def wait(self) -> None:
        super().wait()
        assert self.gate.wait(DEADLINE_S), "the gate was never opened"


class TestTakeByReference:
    """A parked reader decodes a frame from the pieces handed to it, uncopied."""

    BLOB = TestDirectDelivery.BLOB
    NAMED = "node a\n pub T demo/Named\nnode b\n sub T demo/Named\n"

    @pytest.fixture
    def named(self):
        reg = TypeRegistry()
        reg.register(parse_msg_file("string name\nuint8[] data\nuint16 tail", "demo/Named"))
        return reg.resolve()

    @staticmethod
    def take_in_thread(sub, n: int = 1):
        """Start a thread taking ``n`` values from ``sub``; returns (thread, values, errors)."""
        out, errors = [], []

        def take():
            try:
                for _ in range(n):
                    out.append(sub.take_blocking())
            except ShutdownError as e:
                errors.append(e)

        reader = threading.Thread(target=take)
        reader.start()
        return reader, out, errors

    def test_parked_reader_gets_the_published_object(self, registry, monkeypatch):
        joined = count_joined(monkeypatch)
        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16)
        payloads = [random.Random(k).randbytes(VIEW_MIN_BYTES + 4 * k) for k in range(3)]
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            waker = count_wakes(sub)
            reader, out, _ = self.take_in_thread(sub, len(payloads))
            for p in payloads:
                wait_parked(sub)
                pub.publish_blocking({"data": p})
            join_all([reader])
        assert [value["data"] for value in out] == payloads
        assert all(value["data"] is p for value, p in zip(out, payloads))
        assert joined == [] and waker.wakes == len(payloads)

    @pytest.mark.parametrize("capacity", [16, VIEW_MIN_BYTES // 4 + 1], ids=["chunked", "whole"])
    def test_two_parked_subscribers_of_a_broadcast_get_equal_values(
        self, registry, capacity, monkeypatch
    ):
        joined = count_joined(monkeypatch)
        cfg = self.BLOB + "node c\n sub T demo/Blob\n"
        inst = build(cfg, registry, {n: EXTERNAL for n in "abc"},
                     default_capacity_words=capacity)
        payload = random.Random(5).randbytes(VIEW_MIN_BYTES)
        with inst, watchdog(inst):
            subs = [inst.subscriber(n, "T") for n in "bc"]
            takes = [self.take_in_thread(sub) for sub in subs]
            for sub in subs:
                wait_parked(sub)
            inst.publisher("a", "T").publish_blocking({"data": payload})
            join_all([reader for reader, _, _ in takes])
        (_, got_b, _), (_, got_c, _) = takes
        assert got_b == got_c == [{"data": payload}]
        assert got_b[0]["data"] is payload and got_c[0]["data"] is payload
        assert joined == []

    def test_a_frame_read_whole_from_its_channel_is_decoded_from_one_piece(
        self, registry, monkeypatch
    ):
        joined = count_joined(monkeypatch)
        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=64)
        value = {"data": random.Random(9).randbytes(100)}
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            frame = b"".join(serialize_segments(value, pub.plan))
            pub.publish_blocking(value)  # queued whole: nobody is parked
            assert sub.take_try() == value
        assert joined == [len(frame)]
        assert bytes(sub._rx.view[: len(frame)]) == frame  # copied into the buffer

    def test_bytearray_payload_changed_after_the_publish_arrives_unchanged(self, registry):
        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16)
        payload = bytearray(random.Random(6).randbytes(VIEW_MIN_BYTES))
        original = bytes(payload)
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            sub.waker = sub.channel.reader_waker = waker = GatedWaker()
            reader, out, _ = self.take_in_thread(sub)
            wait_parked(sub)
            pub.publish_blocking({"data": payload})
            payload[:] = bytes(len(payload))  # before the reader decodes
            waker.gate.set()
            join_all([reader])
        assert out == [{"data": original}]

    def test_payload_after_an_odd_length_string_round_trips(self, named, monkeypatch):
        joined = count_joined(monkeypatch)
        inst = build(self.NAMED, named, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16)
        payload = random.Random(7).randbytes(VIEW_MIN_BYTES + 3)
        value = {"name": "abc", "data": payload, "tail": 513}
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            segments = serialize_segments(value, pub.plan)
            view = next(s for s in segments if isinstance(s, memoryview))
            assert view.obj is payload and len(view) < len(payload)  # edges copied
            reader, out, _ = self.take_in_thread(sub)
            wait_parked(sub)
            pub.publish_blocking(value)
            join_all([reader])
        assert out == [value] and joined == []

    def test_write_chunk_pieces_that_line_up_with_no_array_are_decoded_joined(
        self, registry, monkeypatch
    ):
        joined = count_joined(monkeypatch)
        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16)
        payload = random.Random(8).randbytes(2 * VIEW_MIN_BYTES)
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            frame = bytes(serialize({"data": payload}, pub.plan).payload)
            head = frame[:VIEW_MIN_BYTES]  # a whole bytes object: sent by reference
            reader, out, _ = self.take_in_thread(sub)
            wait_parked(sub)
            pub.write_chunk(head)
            assert sub.channel.buffered_words() == 0  # handed to the parked reader
            pub.write_chunk(frame[VIEW_MIN_BYTES:], last=True)
            join_all([reader])
        assert out == [{"data": payload}] and joined == [len(frame)]

    def test_spurious_wake_keeps_the_held_pieces_ahead_of_the_channel(
        self, named, monkeypatch
    ):
        # Staged as in TestDirectDelivery: the reader is woken once the
        # first two segments were handed to it, and the last segment is
        # written while it is unparked, so it is queued in the channel.
        staged = []
        joined = count_joined(monkeypatch)

        class StagedChannel(StreamChannel):
            def unpark(self, port):
                super().unpark(port)
                if port._rx_done is None and not staged:
                    staged.append(self.write_some(memoryview(segments[2]), True, meta))
                    staged.append(self.buffered_words())

        inst = build(self.NAMED, named, {"a": EXTERNAL, "b": EXTERNAL})
        sub = inst.subscriber("b", "T")
        payload = random.Random(9).randbytes(VIEW_MIN_BYTES + 1)
        value = {"name": "ab", "data": payload, "tail": 3}
        segments = serialize_segments(value, sub.plan)
        assert len(segments) == 3 and segments[1].obj is payload
        meta = FrameMeta("T", "a", 0)
        ch = StagedChannel(len(segments[2]) // 4, "T->b")
        sub.channel, sub.channels, ch.reader_waker = ch, (ch,), sub.waker
        inst._channels = [ch]
        with inst, watchdog(inst):
            reader, out, _ = self.take_in_thread(sub)
            wait_parked(sub)
            for segment in segments[:2]:
                assert ch.write_some(memoryview(segment), False, meta) == len(segment) // 4
            assert ch.buffered_words() == 0  # both were handed over
            sub.waker.set()  # the spurious wake
            join_all([reader])
        assert staged == [len(segments[2]) // 4] * 2
        assert out == [value]
        # the rest was kept by reference behind the held pieces, and the
        # payload's view lined up with its array: nothing went into the buffer
        assert sub._rx_len == 0 and len(sub._rx.buf) == 0 and joined == []

    def test_shutdown_during_a_held_frame_never_surfaces_it(self, registry):
        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16)
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            frame = bytes(serialize({"data": bytes(2 * VIEW_MIN_BYTES)}, pub.plan).payload)
            reader, out, errors = self.take_in_thread(sub)
            wait_parked(sub)
            pub.write_chunk(frame[:VIEW_MIN_BYTES])  # held by the parked reader
            assert sub.channel.buffered_words() == 0 and reader.is_alive()
            inst.shutdown()
            join_all([reader])
        assert (out, len(errors), sub.last_times) == ([], 1, None)
        with pytest.raises(ShutdownError):
            sub.take_try()

    def test_interrupted_wait_keeps_a_held_frame_for_the_next_take(self, registry):
        class Interrupt(Exception):
            pass

        whole = random.Random(10).randbytes(VIEW_MIN_BYTES)
        cut = random.Random(11).randbytes(VIEW_MIN_BYTES)

        class InterruptingWaker(Waker):
            """Raises from the first two waits: after a whole frame was
            handed to the parked reader, then after the first half of one."""

            def __init__(self):
                super().__init__()
                self.staged = [whole, cut]

            def wait(self):
                if not self.staged:
                    return super().wait()
                payload = self.staged.pop(0)
                if payload is whole:
                    pub.publish_blocking({"data": payload})
                else:
                    pub.write_chunk(frame[:VIEW_MIN_BYTES])
                raise Interrupt

        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16)
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            frame = bytes(serialize({"data": cut}, pub.plan).payload)
            sub.waker = sub.channel.reader_waker = InterruptingWaker()
            with pytest.raises(Interrupt):
                sub.take_blocking()
            assert sub.channel.receiver is None
            assert sub.take_blocking()["data"] is whole
            with pytest.raises(Interrupt):
                sub.take_blocking()
            assert sub.channel.receiver is None
            sender = threading.Thread(
                target=lambda: pub.write_chunk(frame[VIEW_MIN_BYTES:], last=True)
            )
            sender.start()  # the rest queues in the channel behind the held half
            assert sub.take_blocking() == {"data": cut}
            join_all([sender])

    def test_interrupted_park_keeps_the_rest_of_a_bytes_payload_by_reference(
        self, registry, monkeypatch
    ):
        class Interrupt(Exception):
            pass

        class InterruptingWaker(Waker):
            """Raises from the first wait, once the head and half the
            payload were handed to the parked reader."""

            def __init__(self):
                super().__init__()
                self.staged = True

            def wait(self):
                if not self.staged:
                    return super().wait()
                self.staged = False
                sub.channel.write_some(memoryview(head), False, meta)
                sub.channel.write_some(view[:half], False, meta)
                raise Interrupt

        joined = count_joined(monkeypatch)
        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16)
        payload = random.Random(16).randbytes(VIEW_MIN_BYTES)
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
            head, view = serialize_segments({"data": payload}, pub.plan)
            assert view.obj is payload
            half, meta = len(view) // 2, FrameMeta("T", "a", 0)
            sub.waker = sub.channel.reader_waker = InterruptingWaker()
            with pytest.raises(Interrupt):
                sub.take_blocking()
            assert sub.channel.receiver is None and sub.channel.buffered_words() == 0
            sender = threading.Thread(target=pub._push, args=((view[half:],), True, meta))
            sender.start()
            deadline = time.monotonic() + DEADLINE_S
            while sub.channel.free_words():  # the rest starts in the 16-word channel
                assert time.monotonic() < deadline, "the sender never filled the channel"
                time.sleep(0.0002)
            got = sub.take_blocking()
            join_all([sender])
        assert got == {"data": payload}
        assert sub._rx_len == 0 and len(sub._rx.buf) == 0 and joined == []

    @staticmethod
    def take_after_the_head(inst, value, monkeypatch):
        """Take ``value`` whose head was read from the channel before the port parked.

        A publisher thread fills the channel, then ``take_blocking`` reads
        what it holds and parks for the rest.
        """
        pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
        handed = []
        add = PortHandle._add

        def counted(port, data, last, meta, by_ref):
            if by_ref:
                handed.append(len(data))
            return add(port, data, last, meta, by_ref)

        monkeypatch.setattr(PortHandle, "_add", counted)
        sender = threading.Thread(target=pub.publish_blocking, args=(value,))
        sender.start()
        deadline = time.monotonic() + DEADLINE_S
        while sub.channel.free_words():
            assert time.monotonic() < deadline, "the publisher never filled the channel"
            time.sleep(0.0002)
        got = sub.take_blocking()
        join_all([sender])
        assert handed, "the port never parked"
        return got

    def test_rest_of_a_bytes_payload_is_held_after_the_head(self, registry, monkeypatch):
        joined = count_joined(monkeypatch)
        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16)
        payload = random.Random(12).randbytes(VIEW_MIN_BYTES)
        with inst, watchdog(inst):
            got = self.take_after_the_head(inst, {"data": payload}, monkeypatch)
        assert got == {"data": payload} and got["data"] is not payload
        assert joined == []

    @pytest.mark.parametrize(
        "kind, size",
        [(bytearray, VIEW_MIN_BYTES), (bytes, VIEW_MIN_BYTES // 4)],
        ids=["bytearray", "256KiB"],
    )
    def test_a_payload_not_sent_by_reference_is_decoded_joined_after_the_head(
        self, registry, kind, size, monkeypatch
    ):
        joined = count_joined(monkeypatch)
        inst = build(self.BLOB, registry, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16)
        payload = kind(random.Random(13).randbytes(size))
        with inst, watchdog(inst):
            sub = inst.subscriber("b", "T")
            frame = bytes(serialize({"data": payload}, sub.plan).payload)
            got = self.take_after_the_head(inst, {"data": payload}, monkeypatch)
        assert got == {"data": payload}
        assert joined == [len(frame)] and sub._rx_len == 0

    def test_unaligned_payload_split_between_the_buffer_and_held_pieces(
        self, named, monkeypatch
    ):
        joined = count_joined(monkeypatch)
        inst = build(self.NAMED, named, {"a": EXTERNAL, "b": EXTERNAL},
                     default_capacity_words=16)
        payload = random.Random(15).randbytes(VIEW_MIN_BYTES + 3)
        value = {"name": "abc", "data": payload, "tail": 513}
        with inst, watchdog(inst):
            head, view, tail = serialize_segments(value, inst.subscriber("b", "T").plan)
            # the payload's first byte ends the head, which the port reads from
            # the channel; its last bytes open the tail, which the port holds
            assert view.obj is payload and len(head) < 16 * 4
            assert head[-1:] == payload[:1] and tail[:2] == payload[-2:]
            got = self.take_after_the_head(inst, value, monkeypatch)
        assert got == value and joined == []


class TestArbiter:
    # frames are 2-11 words: at 64 words per link every frame fits, at 8 some
    # do and some stream in chunks, at 4 most stream in chunks
    @pytest.mark.parametrize("capacity", [64, 8, 4], ids=["64w", "8w", "4w"])
    @pytest.mark.parametrize("n_subs", [1, 3], ids=["1sub", "3sub"])
    def test_integrity_and_multiset(self, registry, n_subs, capacity, monkeypatch):
        direct = []  # per wake-up of a parked reader: did a writer complete its frame?
        unpark = StreamChannel.unpark

        def counted(ch, port):
            unpark(ch, port)
            direct.append(port._rx_done is not None)

        monkeypatch.setattr(StreamChannel, "unpark", counted)
        sinks = [f"c{k}" for k in range(n_subs)]
        cfg = (
            "node p1\n pub T demo/Blob\nnode p2\n pub T demo/Blob\n"
            "node p3\n pub T demo/Blob\n"
        ) + "".join(f"node {c}\n sub T demo/Blob\n" for c in sinks)
        rng = random.Random(7)
        inst = build(
            cfg,
            registry,
            {n: EXTERNAL for n in ("p1", "p2", "p3", *sinks)},
            default_capacity_words=capacity,
        )
        with inst, watchdog(inst):
            pubs = [inst.publisher(f"p{i}", "T") for i in (1, 2, 3)]
            n_each = 60
            payloads = {
                i: [bytes([i]) + rng.randbytes(rng.randrange(0, 40)) for _ in range(n_each)]
                for i in range(3)
            }
            def send(i):
                for k, p in enumerate(payloads[i]):
                    if i == 2 and k % 2:
                        # every other frame of p3 streams in 3 write_chunk calls
                        frame = bytes(serialize({"data": p}, pubs[i].plan).payload)
                        third = len(frame) // 3
                        pubs[i].write_chunk(frame[:third])
                        pubs[i].write_chunk(frame[third : 2 * third])
                        pubs[i].write_chunk(frame[2 * third :], last=True)
                    else:
                        pubs[i].publish_blocking({"data": p})
            threads = [threading.Thread(target=send, args=(i,)) for i in range(3)]
            got = {c: [] for c in sinks}
            def collect(c):
                sub = inst.subscriber(c, "T")
                for _ in range(3 * n_each):
                    got[c].append(sub.take_blocking()["data"])
            collectors = [threading.Thread(target=collect, args=(c,)) for c in sinks]
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # preempt often: interleavings show up
            try:
                for t in collectors + threads:
                    t.start()
                join_all(threads + collectors)
            finally:
                sys.setswitchinterval(switch)
            first = got[sinks[0]]
            assert all(got[c] == first for c in sinks)
            sent = Counter(p for ps in payloads.values() for p in ps)
            assert Counter(first) == sent
            # per-publisher order is preserved
            for i in range(3):
                stream_i = [g for g in first if g[0] == i]
                assert stream_i == payloads[i]
            assert any(direct)  # some frames went straight to a parked reader

    def test_single_active_input_passthrough(self, registry):
        cfg = "node p1\n pub T demo/Img\nnode p2\n pub T demo/Img\nnode c\n sub T demo/Img\n"
        inst = build(cfg, registry, {n: EXTERNAL for n in ("p1", "p2", "c")},
                     default_capacity_words=16)
        with inst, watchdog(inst):
            pub = inst.publisher("p1", "T")
            sub = inst.subscriber("c", "T")
            seq = []
            collector = threading.Thread(
                target=lambda: [seq.append(sub.take_blocking()["data"][1]) for _ in range(5)]
            )
            collector.start()
            for i in range(5):
                pub.publish_blocking(img(1, i))
            join_all([collector])
            assert seq == [0, 1, 2, 3, 4]

    def test_whole_message_publish_refused_while_holding_the_token(self, registry):
        cfg = "node a\n pub T demo/Blob\nnode c\n pub T demo/Blob\nnode b\n sub T demo/Blob\n"
        inst = build(cfg, registry, {n: EXTERNAL for n in ("a", "b", "c")},
                     default_capacity_words=1024)
        with inst, watchdog(inst):
            pub, other, sub = (inst.publisher("a", "T"), inst.publisher("c", "T"),
                               inst.subscriber("b", "T"))
            first = {"data": b"abcd" * 4}
            frame = serialize(first, pub.plan).payload
            pub.write_chunk(frame[:8])  # takes the topic's frame token
            raised = []

            def publish():
                try:
                    pub.publish_blocking({"data": b"x" * 8})
                except BaseException as e:  # noqa: BLE001 - checked below
                    raised.append(e)

            t = threading.Thread(target=publish)
            t.start()
            join_all([t])  # it must not wait for the token its own port holds
            assert [type(e) for e in raised] == [ValueError]
            pub.write_chunk(frame[8:], last=True)
            other.publish_blocking({"data": b"y" * 8})  # the token was released
            assert sub.take_try() == first
            assert sub.take_try() == {"data": b"y" * 8}

    def test_round_robin_fairness(self, registry):
        cfg = "node p1\n pub T demo/Img\nnode p2\n pub T demo/Img\nnode c\n sub T demo/Img\n"
        inst = build(cfg, registry, {n: EXTERNAL for n in ("p1", "p2", "c")},
                     default_capacity_words=4)
        with inst, watchdog(inst):
            pubs = [inst.publisher(f"p{i}", "T") for i in (1, 2)]
            sub = inst.subscriber("c", "T")
            n_each = 500
            counts = Counter()
            def send(i):
                for k in range(n_each):
                    pubs[i].publish_blocking(img(i, k))
            threads = [threading.Thread(target=send, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            # with both inputs saturated, service counts never diverge by more
            # than one frame over any prefix
            max_skew = 0
            for _ in range(2 * n_each):
                tag = sub.take_blocking()["data"][0]
                counts[tag] += 1
                max_skew = max(max_skew, abs(counts[0] - counts[1]))
            join_all(threads)
            assert counts[0] == counts[1] == n_each
            assert max_skew <= 2  # one in-flight frame per side at the boundary


class TestBroadcaster:
    def test_three_identical_copies(self, registry):
        cfg = (
            "node p\n pub T demo/Img\nnode c1\n sub T demo/Img\n"
            "node c2\n sub T demo/Img\nnode c3\n sub T demo/Img\n"
        )
        inst = build(cfg, registry, {n: EXTERNAL for n in ("p", "c1", "c2", "c3")},
                     default_capacity_words=8)
        with inst, watchdog(inst):
            pub = inst.publisher("p", "T")
            subs = [inst.subscriber(f"c{i}", "T") for i in (1, 2, 3)]
            outs = [[] for _ in subs]
            threads = [
                threading.Thread(target=lambda i=i: [outs[i].append(subs[i].take_blocking()["data"][1]) for _ in range(20)])
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for i in range(20):
                pub.publish_blocking(img(0, i))
            join_all(threads)
            assert all(o == list(range(20)) for o in outs)

    def test_slowest_consumer_backpressure(self, registry):
        cfg = (
            "node p\n pub T demo/Img\n"
            "node slow\n sub T demo/Img fifo=1\n"
            "node fast\n sub T demo/Img fifo=4\n"
        )
        inst = build(cfg, registry, {n: EXTERNAL for n in ("p", "slow", "fast")})
        with inst, watchdog(inst):
            pub = inst.publisher("p", "T")
            fast = inst.subscriber("fast", "T")
            slow = inst.subscriber("slow", "T")
            fast_got = []
            stop = threading.Event()
            def drain_fast():
                while not stop.is_set():
                    v = fast.take_try()
                    if v is not None:
                        fast_got.append(v)
                    time.sleep(0.001)
            drainer = threading.Thread(target=drain_fast)
            drainer.start()
            published = []
            def send():
                try:
                    for i in range(8):
                        pub.publish_blocking(img(0, i))
                        published.append(i)
                except ShutdownError:
                    pass
            sender = threading.Thread(target=send)
            sender.start()
            time.sleep(0.3)
            # slow never takes: its depth-1 FIFO fills, the broadcaster stalls,
            # and fast stops receiving new messages even though it drains
            stalled_fast = len(fast_got)
            stalled_pub = len(published)
            assert stalled_fast < 8
            time.sleep(0.2)
            assert len(fast_got) == stalled_fast
            assert len(published) == stalled_pub
            # draining the slow side releases the stream for everyone
            slow.take_blocking()
            time.sleep(0.3)
            assert len(fast_got) > stalled_fast
            stop.set()
            inst.shutdown()
            join_all([sender, drainer])

    # b and c each buffer one frame
    TWO_FIFOS = (
        "node p\n pub T demo/Img\n"
        "node b\n sub T demo/Img fifo=1\nnode c\n sub T demo/Img fifo=1\n"
    )

    def test_a_channel_with_room_is_not_held_back_by_a_full_sibling(self, registry):
        inst = build(self.TWO_FIFOS, registry, {n: EXTERNAL for n in ("p", "b", "c")})
        with inst, watchdog(inst):
            pub = inst.publisher("p", "T")
            b, c = inst.subscriber("b", "T"), inst.subscriber("c", "T")
            pub.publish_blocking(img(0, 0))
            assert c.take_blocking() == img(0, 0)  # b's FIFO stays full
            sender = threading.Thread(target=lambda: pub.publish_blocking(img(0, 1)))
            sender.start()
            # c takes the whole next frame while the publish still waits for b
            assert c.take_blocking() == img(0, 1)
            assert sender.is_alive()
            assert [b.take_blocking(), b.take_blocking()] == [img(0, 0), img(0, 1)]
            join_all([sender])

    def test_space_freed_as_the_publisher_clears_its_waker_is_not_lost(self, registry):
        # Staged: as the publisher clears its waker, b's reader frees b's
        # full FIFO and sets that waker, and the clear wipes the wake-up.
        # The publisher must see the room when it looks again after the
        # clear, instead of waiting for a wake-up that never comes.
        class RacingWaker(Waker):
            def clear(self):
                if staged:
                    staged.pop().take_try()
                super().clear()

        inst = build(self.TWO_FIFOS, registry, {n: EXTERNAL for n in ("p", "b", "c")})
        with inst, watchdog(inst):
            pub = inst.publisher("p", "T")
            b, c = inst.subscriber("b", "T"), inst.subscriber("c", "T")
            pub.publish_blocking(img(0, 0))
            assert c.take_try() == img(0, 0)  # b's FIFO stays full
            staged = [b]
            pub.waker = RacingWaker()
            for ch in pub.channels:
                ch.writer_waker = pub.waker
            pub.publish_blocking(img(0, 1))
            assert staged == []
            assert [b.take_try(), c.take_try()] == [img(0, 1)] * 2


class TestNodesAndModes:
    def test_sequential_identity_node(self, registry):
        cfg = (
            "node src\n pub in demo/Img\n"
            "node mid\n sub in demo/Img\n pub out demo/Img\n"
            "node dst\n sub out demo/Img\n"
        )
        ident = NodeKernel("mid", SEQUENTIAL, lambda inputs: {"out": inputs["in"]})
        inst = build(cfg, registry, {"src": EXTERNAL, "dst": EXTERNAL, "mid": ident},
                     default_capacity_words=8)
        with inst, watchdog(inst):
            pub, sub = inst.publisher("src", "in"), inst.subscriber("dst", "out")
            for i in range(5):
                pub.publish_blocking(img(3, i))
                assert sub.take_blocking() == img(3, i)

    def test_sequential_phases_do_not_overlap(self, registry):
        cfg = (
            "node src\n pub in demo/Blob\n"
            "node mid\n sub in demo/Blob\n pub out demo/Blob\n"
            "node dst\n sub out demo/Blob\n"
        )
        ident = NodeKernel("mid", SEQUENTIAL, lambda inputs: {"out": inputs["in"]})
        inst = build(
            cfg, registry, {"src": EXTERNAL, "dst": EXTERNAL, "mid": ident},
            default_capacity_words=4096, trace=True,
        )
        with inst, watchdog(inst):
            pub, sub = inst.publisher("src", "in"), inst.subscriber("dst", "out")
            pub.publish_blocking({"data": bytes(8192)})
            sub.take_blocking()
            events = {e.topic: e for e in inst.trace.events()}
            # output publishing begins only after the full input was received
            assert events["out"].t_first_sent > events["in"].t_last_recv

    def test_dataflow_first_out_before_last_in(self, registry):
        cfg = (
            "node src\n pub in demo/Blob\n"
            "node mid\n sub in demo/Blob\n pub out demo/Blob\n"
            "node dst\n sub out demo/Blob fifo=1\n"
        )

        def flow_ident(ports):
            r, w = ports.sub("in"), ports.pub("out")
            while True:
                chunk, last = r.read_chunk(max_words=64)
                w.write_chunk(chunk, last=last)
                if last:
                    return

        inst = build(
            cfg,
            registry,
            {
                "src": EXTERNAL,
                "dst": EXTERNAL,
                "mid": NodeKernel("mid", DATAFLOW, flow_ident),
            },
            default_capacity_words=256,
            max_message_bytes=1 << 20,
            trace=True,
        )
        with inst, watchdog(inst):
            pub, sub = inst.publisher("src", "in"), inst.subscriber("dst", "out")
            payload = bytes(256 * 1024)
            got = []
            collector = threading.Thread(target=lambda: got.append(sub.take_blocking()))
            collector.start()
            pub.publish_blocking({"data": payload})
            join_all([collector])
            assert got[0]["data"] == payload
            events = {e.topic: e for e in inst.trace.events()}
            assert events["out"].t_first_sent < events["in"].t_last_recv

    def test_mode_equivalence(self):
        # pointwise chunk transforms need a prefix-free fixed layout
        from streamdds.kernels import blur

        reg = TypeRegistry()
        reg.register(parse_msg_file("uint8[1024] data", "demo/Fix"))
        reg.resolve()
        cfg = (
            "node src\n pub in demo/Fix\n"
            "node mid\n sub in demo/Fix\n pub out demo/Fix\n"
            "node dst\n sub out demo/Fix fifo=1\n"
        )

        def seq_body(inputs):
            return {"out": {"data": blur(inputs["in"]["data"], 2)}}

        def flow_body(ports):
            r, w = ports.sub("in"), ports.pub("out")
            while True:
                chunk, last = r.read_chunk(max_words=16)
                w.write_chunk(blur(chunk, 2), last=last)
                if last:
                    return

        outputs = {}
        for mode, kernel in (
            (SEQUENTIAL, NodeKernel("mid", SEQUENTIAL, seq_body)),
            (DATAFLOW, NodeKernel("mid", DATAFLOW, flow_body)),
        ):
            inst = build(
                cfg, reg, {"src": EXTERNAL, "dst": EXTERNAL, "mid": kernel},
                default_capacity_words=128,
            )
            with inst, watchdog(inst):
                pub, sub = inst.publisher("src", "in"), inst.subscriber("dst", "out")
                got = []
                collector = threading.Thread(
                    target=lambda: [got.append(sub.take_blocking()["data"]) for _ in range(3)]
                )
                collector.start()
                rng = random.Random(5)
                for _ in range(3):
                    pub.publish_blocking({"data": rng.randbytes(1024)})
                join_all([collector])
                outputs[mode] = got
        assert outputs[SEQUENTIAL] == outputs[DATAFLOW]

    def test_kernel_fault_terminates_instance(self, registry):
        cfg = (
            "node src\n pub in demo/Img\n"
            "node mid\n sub in demo/Img\n pub out demo/Img\n"
            "node dst\n sub out demo/Img\n"
        )

        def bad(inputs):
            raise RuntimeError("kernel exploded")

        # links narrower than a frame keep mid in a thread of its own
        inst = build(cfg, registry, {"src": EXTERNAL, "dst": EXTERNAL,
                                     "mid": NodeKernel("mid", SEQUENTIAL, bad)},
                     default_capacity_words=2)
        assert inst.contexts() == {"node:mid": ["mid"]}
        with inst, watchdog(inst):
            pub = inst.publisher("src", "in")
            pub.publish_blocking(img(1))
            deadline = time.time() + 5
            while not inst.faults and time.time() < deadline:
                time.sleep(0.01)
            assert inst.faults and inst.faults[0].node == "mid"
            assert "exploded" in str(inst.faults[0].error)
            assert inst.closed

    def test_stop_kernel_is_clean(self, registry):
        cfg = "node src\n pub out demo/Img\nnode dst\n sub out demo/Img fifo=4\n"
        count = [0]

        def body(inputs):
            if count[0] >= 3:
                raise StopKernel()
            count[0] += 1
            return {"out": img(9, count[0])}

        inst = build(cfg, registry, {"src": NodeKernel("src", SEQUENTIAL, body),
                                     "dst": EXTERNAL})
        with inst, watchdog(inst):
            sub = inst.subscriber("dst", "out")
            got = [sub.take_blocking()["data"][1] for _ in range(3)]
            assert got == [1, 2, 3]
            assert not inst.faults


VEHICLE = Path(__file__).resolve().parent.parent / "configs" / "vehicle"

# a -> T -> b, fed by an external source: b runs inside a's context, and
# dst's FIFO holds a frame, so both run inside src's publish
CHAIN_CFG = (
    "node src\n pub in demo/Img\n"
    "node a\n sub in demo/Img\n pub T demo/Img\n"
    "node b\n sub T demo/Img\n pub out demo/Img\n"
    "node dst\n sub out demo/Img fifo=8\n"
)
# the same chain writing a 1-word link, narrower than a frame: a keeps its thread
THREADED_CHAIN_CFG = CHAIN_CFG.replace(" sub out demo/Img fifo=8\n", " sub out demo/Img\n")


# a publishes T then Y; b, on T, publishes X; q takes Y before X.  Fusing b
# into a would make a wait inside b's publish of X for q, which waits for Y.
RECONVERGE_CFG = (
    "node src\n pub in demo/Img\n"
    "node a\n sub in demo/Img\n pub T demo/Img\n pub Y demo/Img\n"
    "node b\n sub T demo/Img\n pub X demo/Img\n"
    "node q\n sub Y demo/Img\n sub X demo/Img\n pub out demo/Img\n"
    "node dst\n sub out demo/Img fifo=8\n"
)
RECONVERGE_MODES = {"src": EXTERNAL, "a": SEQUENTIAL, "b": SEQUENTIAL, "q": SEQUENTIAL,
                    "dst": EXTERNAL}


def relay(node: str, t_in: str, *t_out: str) -> NodeKernel:
    return NodeKernel(node, SEQUENTIAL, lambda inputs: {t: inputs[t_in] for t in t_out})


class TestExecutionContexts:
    @pytest.mark.parametrize(
        "cfg, modes, contexts",
        [
            (
                "node a\n pub T demo/Img\nnode n\n sub T demo/Img\n",
                {"a": SEQUENTIAL, "n": SEQUENTIAL},
                {"node:a": ["a", "n"]},
            ),
            (
                # n's exit, a 1-word link, holds no frame: n keeps its thread
                "node a\n pub T demo/Img\nnode n\n sub T demo/Img\n pub U demo/Img\n"
                "node d\n sub U demo/Img\n",
                {"a": EXTERNAL, "n": SEQUENTIAL, "d": EXTERNAL},
                {"node:n": ["n"]},
            ),
            (
                "node a\n pub T demo/Img\nnode n\n sub T demo/Img\n",
                {"a": SEQUENTIAL, "n": DATAFLOW},
                {"node:a": ["a"], "node:n": ["n"]},
            ),
            (
                "node a\n pub T demo/Img\nnode n\n sub T demo/Img\n",
                {"a": DATAFLOW, "n": SEQUENTIAL},
                {"node:a": ["a"], "node:n": ["n"]},
            ),
            (
                "node a\n pub T demo/Img\nnode n\n sub T demo/Img fifo=2\n",
                {"a": SEQUENTIAL, "n": SEQUENTIAL},
                {"node:a": ["a"], "node:n": ["n"]},
            ),
            (
                "node a\n pub T demo/Img\n pub U demo/Img\n"
                "node n\n sub T demo/Img\n sub U demo/Img\n",
                {"a": SEQUENTIAL, "n": SEQUENTIAL},
                {"node:a": ["a"], "node:n": ["n"]},
            ),
            (
                "node a\n pub T demo/Img\nnode a2\n pub T demo/Img\nnode n\n sub T demo/Img\n",
                {"a": SEQUENTIAL, "a2": SEQUENTIAL, "n": SEQUENTIAL},
                {"node:a": ["a"], "node:a2": ["a2"], "node:n": ["n"]},
            ),
            (
                "node x\n sub R2 demo/Img\n pub R1 demo/Img\n"
                "node y\n sub R1 demo/Img\n pub R2 demo/Img\n",
                {"x": SEQUENTIAL, "y": SEQUENTIAL},
                {"node:x": ["x"], "node:y": ["y"]},
            ),
            (
                "node x\n sub R2 demo/Img\n pub R1 demo/Img\n"
                "node y\n sub R1 demo/Img\n pub R2 demo/Img\n"
                "node z\n sub R1 demo/Img\n",
                {"x": SEQUENTIAL, "y": SEQUENTIAL, "z": SEQUENTIAL},
                {"node:x": ["x", "z"], "node:y": ["y"]},
            ),
            (RECONVERGE_CFG, RECONVERGE_MODES, {"node:a": ["a"], "node:b": ["b"], "node:q": ["q"]}),
            (
                RECONVERGE_CFG,
                dict(RECONVERGE_MODES, q=DATAFLOW),
                {"node:a": ["a"], "node:b": ["b"], "node:q": ["q"]},
            ),
            (
                # the path through b meets a buffered subscription, written first
                RECONVERGE_CFG.replace(" sub X demo/Img\n", " sub X demo/Img fifo=1\n"),
                RECONVERGE_MODES,
                {"node:a": ["a", "b"], "node:q": ["q"]},
            ),
            (
                # the buffered subscription is written last: a waits on q for X
                RECONVERGE_CFG.replace(" sub Y demo/Img\n", " sub Y demo/Img fifo=1\n"),
                RECONVERGE_MODES,
                {"node:a": ["a"], "node:b": ["b"], "node:q": ["q"]},
            ),
            (
                # the paths meet two hops past the context
                RECONVERGE_CFG.replace("node q\n sub Y demo/Img\n sub X demo/Img\n", (
                    "node r\n sub X demo/Img\n pub X2 demo/Img\n"
                    "node q\n sub Y demo/Img\n sub X2 demo/Img\n"
                )),
                dict(RECONVERGE_MODES, r=SEQUENTIAL),
                {"node:a": ["a"], "node:b": ["b"], "node:r": ["r"], "node:q": ["q"]},
            ),
        ],
        ids=[
            "fused", "external-publisher", "dataflow-subscriber", "dataflow-publisher",
            "fifo", "two-subscriptions", "two-publishers", "ring", "ring-feeds-fused",
            "reconverge", "reconverge-dataflow", "reconverge-fifo-first",
            "reconverge-fifo-last", "reconverge-downstream",
        ],
    )
    def test_fusion_rules(self, registry, cfg, modes, contexts):
        kernels = {
            node: EXTERNAL if mode is EXTERNAL else NodeKernel(node, mode, lambda _: {})
            for node, mode in modes.items()
        }
        inst = build(cfg, registry, kernels)
        assert inst.contexts() == contexts
        inst.shutdown()

    @pytest.mark.parametrize(
        "msg, capacity, contexts",
        [
            ("demo/Img", 1, {"node:n": ["n"]}),
            ("demo/Img", 4, {"caller:a": ["n"]}),
            ("demo/Blob", 1 << 10, {"node:n": ["n"]}),
        ],
        ids=["one-word-link", "one-frame-link", "dynamic-size"],
    )
    def test_a_node_fed_by_an_external_publisher(self, registry, msg, capacity, contexts):
        # n runs in a's publish only where its exit holds a whole frame
        cfg = (f"node a\n pub T {msg}\nnode n\n sub T {msg}\n pub U {msg}\n"
               f"node d\n sub U {msg}\n")
        kernels = {"a": EXTERNAL, "d": EXTERNAL, "n": relay("n", "T", "U")}
        inst = build(cfg, registry, kernels, default_capacity_words=capacity)
        assert inst.contexts() == contexts
        fused = "caller:a" in contexts
        assert inst.subscriber("n", "T").fused_into == ("caller:a" if fused else None)
        assert len(inst.channels()) == (1 if fused else 2)
        before = set(threading.enumerate())
        inst.start()
        started = set(threading.enumerate()) - before
        assert sorted(t.name for t in started) == ([] if fused else ["node:n"])
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("d", "U")
            value = img(6) if msg == "demo/Img" else {"data": b"blob" * 3}
            for _ in range(3):  # one thread: publish one, then take one
                pub.publish_blocking(value)
                assert sub.take_blocking() == value
            assert not inst.faults

    @pytest.mark.parametrize("capacity", [1, 4800], ids=["one-word-links", "one-frame-links"])
    def test_vehicle_config_runs_two_contexts(self, capacity):
        graph = build_topology(
            parse_config((VEHICLE / "nodes.cfg").read_text()), load_msg_tree(VEHICLE / "msgs")
        )

        def steer(ports):
            center = ports.sub("center").take_blocking()
            for topic in ("stop_events", "go_events"):
                while ports.sub(topic).take_try() is not None:
                    pass
            ports.pub("command").publish_blocking({"speed": center["x"], "turn": 0.0})

        kernels = {
            "camera": EXTERNAL, "actuator": EXTERNAL,
            "compensate": relay("compensate", "raw", "plane"),
            "blur": relay("blur", "plane", "smooth"),
            "project": relay("project", "smooth", "birdseye"),
            "extract": NodeKernel("extract", SEQUENTIAL, lambda inputs: {
                "center": {"x": float(inputs["birdseye"]["pixels"][0]), "y": 0.0}}),
            "red_light": NodeKernel("red_light", SEQUENTIAL, lambda inputs: {
                "stop_events": {"state": 0, "stamp": inputs["plane"]["pixels"][0]}}),
            "green_light": NodeKernel("green_light", SEQUENTIAL, lambda inputs: {}),
            "steer": NodeKernel("steer", DATAFLOW, steer),
        }
        inst = instantiate(graph, kernels, RuntimeConfig(default_capacity_words=capacity))
        # the light detectors' one-node chains run before the three-node one
        chain = ["compensate", "red_light", "green_light", "blur", "project", "extract"]
        if capacity == 1:  # the center link holds no frame: compensate keeps its thread
            assert inst.contexts() == {"node:compensate": chain, "node:steer": ["steer"]}
            assert len(inst.channels()) == 5
        else:
            assert inst.contexts() == {"caller:camera": chain, "node:steer": ["steer"]}
            assert len(inst.channels()) == 4
        before = set(threading.enumerate())
        inst.start()
        started = sorted(t.name for t in set(threading.enumerate()) - before)
        assert started == [name for name in inst.contexts() if name.startswith("node:")]
        with inst, watchdog(inst):
            camera, actuator = inst.publisher("camera", "raw"), inst.subscriber("actuator", "command")
            for k in range(3):  # one thread: publish one, then take one
                camera.publish_blocking({"pixels": bytes([k]) * 19200})
                assert actuator.take_blocking()["speed"] == k
            assert not inst.faults

    def test_reconvergent_paths_deliver_over_one_word_links(self, registry):
        kernels = {"src": EXTERNAL, "dst": EXTERNAL, "a": relay("a", "in", "T", "Y"),
                   "b": relay("b", "T", "X"),
                   "q": NodeKernel("q", SEQUENTIAL, lambda inputs: {"out": inputs["X"]})}
        inst = build(RECONVERGE_CFG, registry, kernels)
        assert inst.config.default_capacity_words == 1
        with inst, watchdog(inst, 5):
            pub, sub = inst.publisher("src", "in"), inst.subscriber("dst", "out")
            for i in range(3):
                pub.publish_blocking(img(2, i))
            assert [sub.take_blocking()["data"][1] for _ in range(3)] == [0, 1, 2]
            assert not inst.faults

    def test_light_event_arrives_before_center_of_its_frame(self):
        graph = build_topology(
            parse_config((VEHICLE / "nodes.cfg").read_text()), load_msg_tree(VEHICLE / "msgs")
        )
        n = 20
        drained = []  # per steer iteration: (centre's frame, event stamps taken after it)

        def steer(ports):
            center = ports.sub("center").take_blocking()
            stamps = []
            for topic in ("stop_events", "go_events"):
                while (event := ports.sub(topic).take_try()) is not None:
                    stamps.append((topic, event["stamp"]))
            drained.append((int(center["x"]), stamps))
            ports.pub("command").publish_blocking({"speed": center["x"], "turn": 0.0})

        kernels = {
            "camera": EXTERNAL, "actuator": EXTERNAL,
            "compensate": relay("compensate", "raw", "plane"),
            "blur": relay("blur", "plane", "smooth"),
            "project": relay("project", "smooth", "birdseye"),
            "extract": NodeKernel("extract", SEQUENTIAL, lambda inputs: {
                "center": {"x": float(inputs["birdseye"]["pixels"][0]), "y": 0.0}}),
            "red_light": NodeKernel("red_light", SEQUENTIAL, lambda inputs: {
                "stop_events": {"state": 0, "stamp": inputs["plane"]["pixels"][0]}}),
            "green_light": NodeKernel("green_light", SEQUENTIAL, lambda inputs: {
                "go_events": {"state": 1, "stamp": inputs["plane"]["pixels"][0]}}
                if inputs["plane"]["pixels"][0] % 2 else {}),
            "steer": NodeKernel("steer", DATAFLOW, steer),
        }
        inst = instantiate(graph, kernels, RuntimeConfig(default_capacity_words=4800))
        with inst, watchdog(inst):
            camera, actuator = inst.publisher("camera", "raw"), inst.subscriber("actuator", "command")
            for k in range(n):
                camera.publish_blocking({"pixels": bytes([k]) * 19200})
            assert [actuator.take_blocking()["speed"] for _ in range(n)] == list(range(n))
        # frame k's events were written before its centre, so steer drains
        # them no later than the iteration that takes that centre
        assert [k for k, _ in drained] == list(range(n))
        taken_at = {event: k for k, stamps in drained for event in stamps}
        assert sum(len(stamps) for _, stamps in drained) == len(taken_at)
        assert taken_at.keys() == {("stop_events", k) for k in range(n)} | {
            ("go_events", k) for k in range(1, n, 2)
        }
        assert all(k <= stamp for (_, stamp), k in taken_at.items())

    def test_mixed_broadcast_delivers_every_frame_in_order(self, registry):
        cfg = (
            "node src\n pub in demo/Img\n"
            "node a\n sub in demo/Img\n pub T demo/Img\n"
            "node b\n sub T demo/Img\n pub out1 demo/Img\n"
            "node c\n sub T demo/Img fifo=2\n pub out2 demo/Img\n"
            "node d1\n sub out1 demo/Img\nnode d2\n sub out2 demo/Img\n"
        )
        kernels = {"src": EXTERNAL, "d1": EXTERNAL, "d2": EXTERNAL,
                   "a": relay("a", "in", "T"), "b": relay("b", "T", "out1"),
                   "c": relay("c", "T", "out2")}
        inst = build(cfg, registry, kernels, trace=True)
        assert inst.contexts() == {"node:a": ["a", "b"], "node:c": ["c"]}
        n = 200
        got = {"d1": [], "d2": []}

        def drain(node, topic):
            sub = inst.subscriber(node, topic)
            for _ in range(n):
                got[node].append(sub.take_blocking()["data"][1])

        with inst, watchdog(inst):
            drains = [threading.Thread(target=drain, args=a)
                      for a in (("d1", "out1"), ("d2", "out2"))]
            for t in drains:
                t.start()
            pub = inst.publisher("src", "in")
            for i in range(n):
                pub.publish_blocking(img(5, i))
            join_all(drains)
            assert got == {"d1": list(range(n)), "d2": list(range(n))}
            fused = inst.subscriber("b", "T").last_times
            assert (fused.publisher, fused.seq) == ("a", n - 1)
            rows = [e for e in inst.trace.events() if e.topic == "T"]
            assert sorted(e.seq for e in rows) == sorted(2 * list(range(n)))
            assert all(
                e.t_first_sent <= e.t_last_sent <= e.t_first_recv <= e.t_last_recv
                for e in rows
            )
            assert not inst.faults

    def test_a_topic_fed_only_by_call_is_stamped_once_and_written_to_no_channel(
        self, registry, monkeypatch
    ):
        written = []
        write = PortHandle._write

        def counted(port, payload, last, meta):
            written.append((port.node, port.topic))
            return write(port, payload, last, meta)

        monkeypatch.setattr(PortHandle, "_write", counted)
        seen = []  # the publisher's and the subscriber's last_times, from b's body

        def b_body(inputs):
            seen.append((inst.publisher("a", "T").last_times, inst.subscriber("b", "T").last_times))
            return {"out": inputs["T"]}

        kernels = {"src": EXTERNAL, "dst": EXTERNAL, "a": relay("a", "in", "T"),
                   "b": NodeKernel("b", SEQUENTIAL, b_body)}
        inst = build(THREADED_CHAIN_CFG, registry, kernels, trace=True,
                     clock=itertools.count(1).__next__)
        assert inst.contexts() == {"node:a": ["a", "b"]}
        n = 3
        with inst, watchdog(inst):
            src, dst = inst.publisher("src", "in"), inst.subscriber("dst", "out")
            for i in range(n):
                src.publish_blocking(img(4, i))
                assert dst.take_blocking() == img(4, i)
        assert ("a", "T") not in written and {("src", "in"), ("b", "out")} <= set(written)
        rows = [e for e in inst.trace.events() if e.topic == "T"]
        assert [pub.seq for pub, _ in seen] == list(range(n)) and len(rows) == n
        for (pub, sub), row in zip(seen, rows):
            t = pub.t_first_sent
            assert pub == FrameTimes("T", "a", pub.seq, t, t)
            # the subscriber stamps its own receive time, after the send
            assert sub == row == FrameTimes("T", "a", pub.seq, t, t, t + 1, t + 1)

    @pytest.mark.parametrize("node", ["a", "b"], ids=["threaded", "fused"])
    def test_outputs_for_topics_a_node_does_not_publish_fault_it(self, registry, node):
        kernels = {"src": EXTERNAL, "dst": EXTERNAL,
                   "a": relay("a", "in", "T"), "b": relay("b", "T", "out")}
        t_in, t_out = {"a": ("in", "T"), "b": ("T", "out")}[node]
        kernels[node] = relay(node, t_in, t_out, "zz", "aa")
        inst = build(THREADED_CHAIN_CFG, registry, kernels)
        assert inst.contexts() == {"node:a": ["a", "b"]}
        with inst, watchdog(inst):
            inst.publisher("src", "in").publish_blocking(img(1))
            deadline = time.monotonic() + 5
            while not inst.faults and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [(f.node, type(f.error), str(f.error)) for f in inst.faults] == [(
                node, ValueError,
                f"kernel {node!r} returned values for topics it does not publish: ['aa', 'zz']",
            )]
            assert inst.closed

    def test_fused_ports_refuse_channel_operations(self, registry):
        kernels = {"src": EXTERNAL, "dst": EXTERNAL,
                   "a": relay("a", "in", "T"), "b": relay("b", "T", "out")}
        inst = build(THREADED_CHAIN_CFG, registry, kernels)
        assert inst.contexts() == {"node:a": ["a", "b"]}
        sub = inst.subscriber("b", "T")
        for take in (sub.take_blocking, sub.take_try, sub.read_chunk):
            with pytest.raises(ValueError, match="node 'b' runs inside context 'node:a'"):
                take()
        inst.shutdown()

    @pytest.mark.parametrize("stages", [1, 3])
    def test_fused_fault_recorded_under_its_own_name(self, registry, stages):
        # src -> a -> T1 -> s1 -> T2 -> ... -> s<stages> -> out -> dst; the last stage faults
        topics = [f"T{i}" for i in range(1, stages + 1)] + ["out"]
        cfg = "node src\n pub in demo/Img\nnode a\n sub in demo/Img\n pub T1 demo/Img\n"
        cfg += "".join(
            f"node s{i}\n sub {topics[i - 1]} demo/Img\n pub {topics[i]} demo/Img\n"
            for i in range(1, stages + 1)
        )
        cfg += "node dst\n sub out demo/Img\n"  # narrower than a frame: a keeps its thread

        def bad(inputs):
            raise RuntimeError("fused kernel exploded")

        last = f"s{stages}"
        kernels = {"src": EXTERNAL, "dst": EXTERNAL, "a": relay("a", "in", "T1"),
                   last: NodeKernel(last, SEQUENTIAL, bad)}
        for i in range(1, stages):
            kernels[f"s{i}"] = relay(f"s{i}", topics[i - 1], topics[i])
        inst = build(cfg, registry, kernels)
        assert inst.contexts() == {"node:a": ["a"] + [f"s{i}" for i in range(1, stages + 1)]}
        before = set(threading.enumerate())
        with inst:
            started = set(threading.enumerate()) - before
            with watchdog(inst):
                inst.publisher("src", "in").publish_blocking(img(1))
                join_all(started, 5)  # the host thread unwinds on its own
            assert [(f.node, str(f.error)) for f in inst.faults] == [
                (last, "fused kernel exploded")
            ]
            assert inst.closed

    def test_stop_kernel_in_fused_node_parks_its_publisher(self, registry):
        cfg = CHAIN_CFG.replace(" sub in demo/Img\n", " sub in demo/Img fifo=1\n")

        def two_then_stop(inputs):
            if inputs["T"]["data"][1] == 2:
                raise StopKernel()
            return {"out": inputs["T"]}

        kernels = {"src": EXTERNAL, "dst": EXTERNAL,
                   "a": relay("a", "in", "T"), "b": NodeKernel("b", SEQUENTIAL, two_then_stop)}
        inst = build(cfg, registry, kernels)
        assert inst.contexts() == {"node:a": ["a", "b"]}
        before = set(threading.enumerate())
        inst.start()
        started = set(threading.enumerate()) - before
        with watchdog(inst):
            src, dst = inst.publisher("src", "in"), inst.subscriber("dst", "out")
            for i in range(5):
                # frame 2 stops b; a takes frame 3 and parks handing it to b,
                # so frame 4 waits in a's FIFO and nothing more fits
                src.publish_blocking(img(1, i))
            assert [dst.take_blocking()["data"][1] for _ in range(2)] == [0, 1]
            time.sleep(0.1)
            assert inst.subscriber("a", "in").channel.frames_buffered() == 1
            assert inst.subscriber("a", "in").channel.free_words() == 0
            assert inst.publisher("a", "T").last_times.seq == 3
            assert dst.take_try() is None
        t0 = time.monotonic()
        inst.shutdown()
        assert time.monotonic() - t0 < 1.0
        assert not [t.name for t in started if t.is_alive()]
        assert not inst.faults


    def test_stop_kernel_in_one_fused_sibling_parks_the_others(self, registry):
        cfg = (
            "node src\n pub in demo/Img\n"
            "node a\n sub in demo/Img fifo=1\n pub T demo/Img\n"
            "node b\n sub T demo/Img\n pub outb demo/Img\n"
            "node c\n sub T demo/Img\n pub outc demo/Img\n"
            "node db\n sub outb demo/Img fifo=8\nnode dc\n sub outc demo/Img fifo=8\n"
        )

        def two_then_stop(inputs):
            if inputs["T"]["data"][1] == 2:
                raise StopKernel()
            return {"outb": inputs["T"]}

        kernels = {"src": EXTERNAL, "db": EXTERNAL, "dc": EXTERNAL, "a": relay("a", "in", "T"),
                   "b": NodeKernel("b", SEQUENTIAL, two_then_stop), "c": relay("c", "T", "outc")}
        inst = build(cfg, registry, kernels)
        assert inst.contexts() == {"node:a": ["a", "b", "c"]}
        before = set(threading.enumerate())
        inst.start()
        started = set(threading.enumerate()) - before
        with watchdog(inst):
            src = inst.publisher("src", "in")
            for i in range(5):
                # c still takes frame 2, which stopped b; a parks handing
                # frame 3 to b, before c, and frame 4 waits in a's FIFO
                src.publish_blocking(img(1, i))
            db, dc = inst.subscriber("db", "outb"), inst.subscriber("dc", "outc")
            assert [db.take_blocking()["data"][1] for _ in range(2)] == [0, 1]
            assert [dc.take_blocking()["data"][1] for _ in range(3)] == [0, 1, 2]
            time.sleep(0.1)
            assert db.take_try() is None and dc.take_try() is None
            assert inst.subscriber("a", "in").channel.free_words() == 0
            assert inst.publisher("a", "T").last_times.seq == 3
        t0 = time.monotonic()
        inst.shutdown()
        assert time.monotonic() - t0 < 1.0
        assert not [t.name for t in started if t.is_alive()]
        assert not inst.faults


# a -> T -> n -> U -> d; on links of one frame (4 words) n runs in a's publish
LINE_CFG = ("node a\n pub T demo/Img\nnode n\n sub T demo/Img\n pub U demo/Img\n"
            "node d\n sub U demo/Img\n")


class TestCallerChains:
    """Chains fused into an EXTERNAL publisher run inside the caller's publish."""

    def line(self, registry, body):
        kernels = {"a": EXTERNAL, "d": EXTERNAL, "n": NodeKernel("n", SEQUENTIAL, body)}
        inst = build(LINE_CFG, registry, kernels, default_capacity_words=4)
        assert inst.contexts() == {"caller:a": ["n"]}
        return inst, inst.publisher("a", "T"), inst.subscriber("d", "U")

    def test_fused_ports_name_the_callers_context(self, registry):
        kernels = {"src": EXTERNAL, "dst": EXTERNAL,
                   "a": relay("a", "in", "T"), "b": relay("b", "T", "out")}
        inst = build(CHAIN_CFG, registry, kernels)
        assert inst.contexts() == {"caller:src": ["a", "b"]}
        for node, topic in (("a", "in"), ("b", "T")):
            sub = inst.subscriber(node, topic)
            assert sub.fused_into == "caller:src"
            with pytest.raises(ValueError, match=f"node {node!r} runs inside context 'caller:src'"):
                sub.take_try()
        assert inst.publisher("src", "in").fused == (inst.subscriber("a", "in"),)
        inst.shutdown()

    def test_a_fault_fails_the_callers_publish_and_is_recorded_under_its_node(self, registry):
        def bad(inputs):
            raise RuntimeError("kernel exploded")

        kernels = {"src": EXTERNAL, "dst": EXTERNAL, "a": relay("a", "in", "T"),
                   "b": NodeKernel("b", SEQUENTIAL, bad)}
        inst = build(CHAIN_CFG, registry, kernels)
        assert inst.contexts() == {"caller:src": ["a", "b"]}
        before = set(threading.enumerate())
        with inst:
            assert set(threading.enumerate()) == before
            with pytest.raises(ShutdownError, match="node b faulted") as raised:
                inst.publisher("src", "in").publish_blocking(img(1))
            assert [(f.node, str(f.error)) for f in inst.faults] == [("b", "kernel exploded")]
            assert raised.value.__cause__ is inst.faults[0].error
            assert inst.closed
            with pytest.raises(ShutdownError):
                inst.publisher("src", "in").publish_blocking(img(2))

    def test_an_interrupt_in_the_chain_stops_the_instance_and_reaches_the_caller(self, registry):
        def interrupted(inputs):
            raise KeyboardInterrupt

        inst, pub, _ = self.line(registry, interrupted)
        with inst:
            with pytest.raises(KeyboardInterrupt):
                pub.publish_blocking(img(1))
            assert [(f.node, type(f.error)) for f in inst.faults] == [("n", KeyboardInterrupt)]
            assert inst.closed

    def test_stop_kernel_parks_the_next_publish_until_shutdown(self, registry):
        def one_then_stop(inputs):
            if inputs["T"]["data"][1] == 1:
                raise StopKernel()
            return {"U": inputs["T"]}

        inst, pub, sub = self.line(registry, one_then_stop)
        raised = []

        def publish():
            try:
                pub.publish_blocking(img(1, 2))
            except BaseException as e:  # noqa: BLE001 - checked below
                raised.append(e)

        with inst, watchdog(inst):
            pub.publish_blocking(img(1, 0))
            assert sub.take_blocking() == img(1, 0)
            pub.publish_blocking(img(1, 1))  # stops n, and returns
            caller = threading.Thread(target=publish)
            caller.start()
            time.sleep(0.1)
            assert caller.is_alive() and not raised
            t0 = time.monotonic()
            inst.shutdown()
            join_all([caller], 1.0)
            assert time.monotonic() - t0 < 1.0
        assert [type(e) for e in raised] == [ShutdownError]
        assert not inst.faults

    @pytest.mark.parametrize("cfg", [LINE_CFG, LINE_CFG + "node e\n sub T demo/Img fifo=1\n"],
                             ids=["fed-by-call-only", "with-a-channel"])
    def test_a_write_chunk_frame_reaches_the_chain_like_a_published_one(self, registry, cfg):
        seen = []  # (value, its FrameTimes) as n received them

        def body(inputs):
            seen.append((inputs["T"], inst.subscriber("n", "T").last_times))
            return {"U": inputs["T"]}

        kernels = {"a": EXTERNAL, "d": EXTERNAL, "e": EXTERNAL, "n": NodeKernel("n", SEQUENTIAL, body)}
        inst = build(cfg, registry, kernels, default_capacity_words=4, trace=True)
        assert inst.contexts() == {"caller:a": ["n"]}
        with inst, watchdog(inst):
            pub, sub = inst.publisher("a", "T"), inst.subscriber("d", "U")
            value = img(8, 3)
            others = [inst.subscriber("e", "T")] if "node e" in cfg else []
            pub.publish_blocking(value)
            published = pub.last_times
            assert [p.take_blocking() for p in (sub, *others)] == [value] * (1 + len(others))
            frame = serialize(value, pub.plan).payload
            pub.write_chunk(frame[:4])  # a whole word, by reference
            pub.write_chunk(frame[4:10])  # a sub-word tail is held back
            assert not seen[1:]  # the chain runs with the frame's last chunk
            pub.write_chunk(frame[10:], last=True)
            chunked = pub.last_times
            assert [p.take_blocking() for p in (sub, *others)] == [value] * (1 + len(others))
        assert [v for v, _ in seen] == [value, value]
        assert chunked.seq == published.seq + 1
        for (_, times), pub_times in zip(seen, (published, chunked)):
            assert None not in times and times[:5] == pub_times[:5] and pub_times[5:] == (None, None)
            assert times.t_first_sent <= times.t_last_sent <= times.t_first_recv <= times.t_last_recv
        events = inst.trace.events()
        assert all(times in events for _, times in seen)

    def test_a_publish_before_start_waits_for_start(self, registry):
        ran = []
        inst, pub, sub = self.line(registry, lambda inputs: ran.append(1) or {"U": inputs["T"]})
        with watchdog(inst):
            caller = threading.Thread(target=pub.publish_blocking, args=(img(1),))
            caller.start()
            time.sleep(0.1)
            assert caller.is_alive() and not ran
            inst.start()
            join_all([caller], 1.0)
            assert ran == [1]
            assert sub.take_blocking() == img(1)
        inst.shutdown()
        with pytest.raises(ShutdownError):
            pub.publish_blocking(img(2))
        assert ran == [1]

    def test_a_publish_before_start_fails_at_shutdown_without_running_the_chain(self, registry):
        ran, raised = [], []
        inst, pub, _ = self.line(registry, lambda inputs: ran.append(1) or {"U": inputs["T"]})

        def publish():
            try:
                pub.publish_blocking(img(1))
            except BaseException as e:  # noqa: BLE001 - checked below
                raised.append(e)

        caller = threading.Thread(target=publish)
        caller.start()
        time.sleep(0.1)
        assert caller.is_alive()
        inst.shutdown()
        join_all([caller], 1.0)
        assert [type(e) for e in raised] == [ShutdownError] and not ran
        inst.start()  # a closed instance does not start
        assert not ran and inst.closed

    def test_the_caller_runs_one_frame_ahead(self, registry):
        # d's link holds the one frame; the next publish waits for its take
        inst, pub, sub = self.line(registry, lambda inputs: {"U": inputs["T"]})
        with inst, watchdog(inst):
            pub.publish_blocking(img(2, 0))
            caller = threading.Thread(target=pub.publish_blocking, args=(img(2, 1),))
            caller.start()
            time.sleep(0.1)
            assert caller.is_alive()
            assert sub.take_blocking() == img(2, 0)
            join_all([caller], 1.0)
            assert sub.take_blocking() == img(2, 1)
            assert not inst.faults


class TestInstantiate:
    def test_six_node_channel_shape(self, six_node_config, img_registry):
        graph = build_topology(parse_config(six_node_config), img_registry)
        kernels = {f"hw{i}": EXTERNAL for i in range(1, 7)}
        inst = instantiate(graph, kernels)
        # one channel per subscriber port; every publisher writes all of its topic's
        sub_channels = {
            "A": [inst.subscriber(n, "A").channel for n in ("hw4", "hw5", "hw6")],
            "B": [inst.subscriber(n, "B").channel for n in ("hw1", "hw2")],
        }
        assert len(inst.channels()) == 5
        assert {id(ch) for ch in inst.channels()} == {
            id(ch) for chs in sub_channels.values() for ch in chs
        }
        for node in ("hw1", "hw2", "hw3"):
            assert list(inst.publisher(node, "A").channels) == sub_channels["A"]
        assert list(inst.publisher("hw5", "B").channels) == sub_channels["B"]
        before = set(threading.enumerate())
        with inst:
            assert set(threading.enumerate()) == before

    def test_missing_kernel_names_node(self, img_registry):
        graph = build_topology(parse_config("node a\n pub T demo/Img\n"), img_registry)
        with pytest.raises(RuntimeBuildError, match="'a'"):
            instantiate(graph, {})

    def test_empty_graph(self, img_registry):
        inst = instantiate(build_topology(AppSpec(()), img_registry), {})
        with inst:
            pass

    def test_dynamic_fifo_needs_max_message_bytes(self, registry):
        cfg = "node a\n pub T demo/Blob\nnode b\n sub T demo/Blob fifo=2\n"
        graph = build_topology(parse_config(cfg), registry)
        with pytest.raises(RuntimeBuildError, match="max_message_bytes"):
            instantiate(graph, {"a": EXTERNAL, "b": EXTERNAL})
        inst = instantiate(
            graph, {"a": EXTERNAL, "b": EXTERNAL}, RuntimeConfig(max_message_bytes=64)
        )
        inst.shutdown()

    def test_fifo_capacity_in_messages(self, registry):
        cfg = "node a\n pub T demo/Img\nnode b\n sub T demo/Img fifo=3\n"
        graph = build_topology(parse_config(cfg), registry)
        inst = instantiate(graph, {"a": EXTERNAL, "b": EXTERNAL})
        with inst:
            assert inst.subscriber("b", "T").channel.capacity_words == 3 * 4


class TestShutdown:
    def test_idempotent(self, registry):
        inst = build("node a\n pub T demo/Img\nnode b\n sub T demo/Img\n",
                     registry, {"a": EXTERNAL, "b": EXTERNAL})
        inst.start()
        inst.shutdown()
        inst.shutdown()

    def test_blocked_publisher_unblocked_with_error(self, registry):
        # with a second publisher, one blocks on the full FIFO holding the
        # frame token and the other waits for the token
        for publishers in (["a"], ["a", "a2"]):
            cfg = "".join(f"node {p}\n pub T demo/Img\n" for p in publishers)
            inst = build(cfg + "node b\n sub T demo/Img fifo=1\n",
                         registry, {p: EXTERNAL for p in publishers + ["b"]})
            inst.start()
            pubs = [inst.publisher(p, "T") for p in publishers]
            with watchdog(inst):
                pubs[0].publish_blocking(img(1))
            errors = []
            def blocked(pub):
                try:
                    pub.publish_blocking(img(2))
                except ShutdownError as e:
                    errors.append(e)
            threads = [threading.Thread(target=blocked, args=(p,)) for p in pubs]
            for t in threads:
                t.start()
            time.sleep(0.1)
            inst.shutdown()
            join_all(threads, 5)
            assert len(errors) == len(pubs)

    def test_arbiter_topic_shuts_down_promptly(self, registry):
        cfg = (
            "node p1\n pub T demo/Img\nnode p2\n pub T demo/Img\n"
            "node c1\n sub T demo/Img fifo=8\nnode c2\n sub T demo/Img fifo=8\n"
        )

        def three_frames(tag):
            sent = [0]

            def body(inputs):
                if sent[0] == 3:
                    raise StopKernel()
                sent[0] += 1
                return {"T": img(tag, sent[0])}

            return NodeKernel(f"p{tag}", SEQUENTIAL, body)

        inst = build(cfg, registry, {"p1": three_frames(1), "p2": three_frames(2),
                                     "c1": EXTERNAL, "c2": EXTERNAL})
        before = set(threading.enumerate())
        inst.start()
        started = set(threading.enumerate()) - before
        with watchdog(inst):
            for c in ("c1", "c2"):
                sub = inst.subscriber(c, "T")
                assert len([sub.take_blocking() for _ in range(6)]) == 6
        t0 = time.monotonic()
        inst.shutdown()
        assert time.monotonic() - t0 < 1.0
        assert not [t.name for t in started if t.is_alive()]

    def test_publish_after_shutdown(self, registry):
        inst = build("node a\n pub T demo/Img\nnode b\n sub T demo/Img\n",
                     registry, {"a": EXTERNAL, "b": EXTERNAL})
        inst.start()
        inst.shutdown()
        with pytest.raises(ShutdownError):
            inst.publisher("a", "T").publish_blocking(img(1))

    def test_partial_frame_never_surfaced(self, registry):
        inst = build("node a\n pub T demo/Img\nnode b\n sub T demo/Img fifo=2\n",
                     registry, {"a": EXTERNAL, "b": EXTERNAL})
        inst.start()
        pub, sub = inst.publisher("a", "T"), inst.subscriber("b", "T")
        pub.write_chunk(bytes(8), last=False)  # half a frame, then the world ends
        assert sub.take_try() is None
        inst.shutdown()
        with pytest.raises(ShutdownError):
            sub.take_try()

    def test_shutdown_interrupts_blocked_take(self, registry):
        inst = build("node a\n pub T demo/Img\nnode b\n sub T demo/Img\n",
                     registry, {"a": EXTERNAL, "b": EXTERNAL})
        inst.start()
        sub = inst.subscriber("b", "T")
        errors = []
        def waiter():
            try:
                sub.take_blocking()
            except ShutdownError as e:
                errors.append(e)
        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        inst.shutdown()
        join_all([t])
        assert errors


class TestBackpressureSafety:
    def test_buffered_words_never_exceed_capacity(self, registry):
        cfg = (
            "node p\n pub T demo/Img\n"
            "node c1\n sub T demo/Img fifo=2\nnode c2\n sub T demo/Img fifo=1\n"
        )
        inst = build(cfg, registry, {n: EXTERNAL for n in ("p", "c1", "c2")})
        with inst, watchdog(inst):
            pub = inst.publisher("p", "T")
            subs = [inst.subscriber("c1", "T"), inst.subscriber("c2", "T")]
            violations = []
            stop = threading.Event()
            def watch():
                while not stop.is_set():
                    for ch in inst.channels():
                        if ch.buffered_words() > ch.capacity_words:
                            violations.append(ch.name)
            watcher = threading.Thread(target=watch)
            watcher.start()
            def drain(s):
                for _ in range(30):
                    s.take_blocking()
            drains = [threading.Thread(target=drain, args=(s,)) for s in subs]
            for d in drains:
                d.start()
            for i in range(30):
                pub.publish_blocking(img(0, i))
            join_all(drains)
            stop.set()
            join_all([watcher])
            assert violations == []


class TestTrace:
    def test_frame_times_are_immutable_in_field_order(self):
        times = FrameTimes("T", "a", 3, 10, 20, 30, 40)
        assert (times.topic, times.publisher, times.seq) == ("T", "a", 3)
        assert (times.t_first_sent, times.t_last_sent) == (10, 20)
        assert (times.t_first_recv, times.t_last_recv) == (30, 40)
        assert FrameTimes("T", "a", 3, 10, 20).t_last_recv is None
        for field in ("seq", "t_last_recv"):
            with pytest.raises(AttributeError):
                setattr(times, field, 0)
        assert times == FrameTimes("T", "a", 3, 10, 20, 30, 40)

    def test_csv_text(self):
        log = TraceLog()
        log.record(FrameTimes("T", "a", 0, 10, 20, 30, 40))
        log.record(FrameTimes("U", "?", -1, None, None, 5, 6))
        log.record(FrameTimes("V", "b", 7, 8, 9))
        assert log.to_csv() == (
            "topic,publisher,frame_seq,t_first_sent,t_last_sent,t_first_recv,t_last_recv\n"
            "T,a,0,10,20,30,40\n"
            "U,?,-1,None,None,5,6\n"
            "V,b,7,8,9,None,None\n"
        )

    def test_csv_format(self, registry):
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img fifo=2\n",
            registry, {"a": EXTERNAL, "b": EXTERNAL}, trace=True,
        )
        with inst, watchdog(inst):
            inst.publisher("a", "T").publish_blocking(img(1))
            inst.subscriber("b", "T").take_blocking()
            csv_text = inst.trace.to_csv()
        header, row, tail = csv_text.split("\n")
        assert header == (
            "topic,publisher,frame_seq,t_first_sent,t_last_sent,t_first_recv,t_last_recv"
        )
        topic, publisher, seq, *times = row.split(",")
        assert (topic, publisher, seq) == ("T", "a", "0")
        t = [int(x) for x in times]
        assert t[0] <= t[1] and t[2] <= t[3] and tail == ""

    def test_write_csv(self, registry, tmp_path):
        inst = build(
            "node a\n pub T demo/Img\nnode b\n sub T demo/Img fifo=2\n",
            registry, {"a": EXTERNAL, "b": EXTERNAL}, trace=True,
        )
        with inst, watchdog(inst):
            inst.publisher("a", "T").publish_blocking(img(1))
            inst.subscriber("b", "T").take_blocking()
            out = tmp_path / "trace.csv"
            inst.trace.write_csv(out)
            assert out.read_text().startswith("topic,")
