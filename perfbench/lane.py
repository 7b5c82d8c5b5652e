"""`lane`: the repo's own vehicle topology, camera frames to drive commands.

The camera (external, driven by the generator) publishes 19 200-byte
``Image`` frames into ``configs/vehicle/nodes.cfg``: compensate, then a
3-way broadcast on ``plane`` (blur, red_light, green_light), then project,
extract and steer; the actuator (external, read by the drain) receives each
``DriveCommand``.  The two light detectors publish a ``LightEvent`` on about
one frame in ten, chosen by a rule on the frame, and ``steer`` drains its two
``fifo=16`` event subscriptions with ``take_try`` after each centre point.

Per-hop handoff dominates: eight program threads wake, run a node loop or
the broadcaster, and hand one whole-frame chunk on.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from pathlib import Path

import numpy as np

from streamdds import EXTERNAL, SEQUENTIAL, NodeKernel, load_msg_tree
from streamdds.kernels import blur, compensate, extract_center, make_image, project, steer
from streamdds.runtime import DATAFLOW

from harness import now

ROOT = Path(__file__).resolve().parent.parent
VEHICLE = ROOT / "configs" / "vehicle"

FRAME_BYTES = 19200
POOL = 256  # distinct frames (4.9 MB), larger than the CPU's mid-level caches
STOP, GO = 0, 1


def red_light(plane: bytes) -> bool:
    """Bright-pixel count rule: true on about one frame in ten."""
    return int(np.count_nonzero(np.frombuffer(plane, np.uint8) > 200)) % 10 == 3


def green_light(plane: bytes) -> bool:
    """Dark-pixel count rule: true on about one frame in ten."""
    return int(np.count_nonzero(np.frombuffer(plane, np.uint8) < 40)) % 10 == 7


def extract(birdseye: bytes) -> dict:
    px = np.frombuffer(birdseye, np.uint8)
    return extract_center(int(px.sum(dtype=np.int64)), px.size, int(px.min()), int(px.max()))


def reference(frame: bytes) -> tuple[dict, bool, bool]:
    """Single-threaded result of every lane kernel on one camera frame."""
    plane = compensate(frame)
    command = steer(extract(project(blur(plane))))
    return command, red_light(plane), green_light(plane)


class Lane:
    name = "lane"
    rate_hz = 300.0  # about a sixth of saturation (~1 800 frames/s measured on one CPU)
    capacity_words = FRAME_BYTES // 4  # every link holds one whole frame
    config_path = VEHICLE / "nodes.cfg"
    codec_topic = "raw"
    # chain nodes: (node, input topic, output topic) for node overhead
    chain = [
        ("compensate", "raw", "plane"),
        ("blur", "plane", "smooth"),
        ("project", "smooth", "birdseye"),
        ("extract", "birdseye", "center"),
        ("steer", "center", "command"),
    ]
    kernel_nodes = ["compensate", "blur", "red_light", "green_light", "project", "extract", "steer"]

    def __init__(self, seed: int):
        self.frames = [make_image(FRAME_BYTES, seed * POOL + i) for i in range(POOL)]
        # the flush frame is blank: no light rule fires on it
        self.frames.append(bytes(FRAME_BYTES))
        self.order = np.random.default_rng(seed).permutation(POOL).tolist()
        self.refs = []
        self.floor_ns = []
        for frame in self.frames:
            t0 = now()
            self.refs.append(reference(frame))
            self.floor_ns.append(now() - t0)
        if self.refs[POOL][1] or self.refs[POOL][2]:
            raise AssertionError("the flush frame must not raise a light event")

    def load_types(self):
        return load_msg_tree(VEHICLE / "msgs")

    def frame_of(self, rig, k: int) -> int:
        flush = rig.state.get("flush_k")
        return POOL if k == flush else self.order[k % POOL]

    def expected(self, rig, k: int) -> dict:
        return self.refs[self.frame_of(rig, k)][0]

    # -- kernels (program threads) ------------------------------------------

    def kernels(self, rig) -> dict:
        rig.state.update(events=[], last_seq=-1)
        spans = rig.spans

        def stage(node, t_in, compute):
            count = itertools.count()
            if spans is None:
                return NodeKernel(node, SEQUENTIAL, lambda inputs: compute(inputs[t_in], next(count)))

            def body(inputs):
                k = next(count)
                rig.port_times.append((t_in, node, k, rig.inst.subscriber(node, t_in).last_times))
                t0 = now()
                out = compute(inputs[t_in], k)
                spans.add(f"kernels.{node}", t0, now(), k)
                return out

            return NodeKernel(node, SEQUENTIAL, body)

        def light(topic, rule, state):
            def compute(msg, k):
                return {topic: {"state": state, "stamp": k}} if rule(msg["pixels"]) else {}

            return compute

        def steer_body(ports):
            k = next(steer_count)
            center = ports.sub("center").take_blocking()
            if spans is not None:
                rig.port_times.append(("center", "steer", k, ports.sub("center").last_times))
            for topic in ("stop_events", "go_events"):
                port = ports.sub(topic)
                while True:
                    t0 = now()
                    event = port.take_try()
                    if event is None:
                        break
                    rig.state["events"].append((topic, event["state"], event["stamp"]))
                    if spans is not None:
                        spans.add(f"runtime.take_try.{topic}", t0, now(), event["stamp"])
                        rig.port_times.append((topic, "steer", event["stamp"], port.last_times))
            t0 = now()
            command = steer(center)
            if spans is not None:
                t1 = now()
                spans.add("kernels.steer", t0, t1, k)
            ports.pub("command").publish_blocking(command)
            if spans is not None:
                spans.add("runtime.publish.command", t1, now(), k)

        steer_count = itertools.count()
        return {
            "camera": EXTERNAL,
            "actuator": EXTERNAL,
            "compensate": stage(
                "compensate", "raw", lambda m, k: {"plane": {"pixels": compensate(m["pixels"])}}
            ),
            "blur": stage("blur", "plane", lambda m, k: {"smooth": {"pixels": blur(m["pixels"])}}),
            "red_light": stage("red_light", "plane", light("stop_events", red_light, STOP)),
            "green_light": stage("green_light", "plane", light("go_events", green_light, GO)),
            "project": stage(
                "project", "smooth", lambda m, k: {"birdseye": {"pixels": project(m["pixels"])}}
            ),
            "extract": stage("extract", "birdseye", lambda m, k: {"center": extract(m["pixels"])}),
            # steer mixes a blocking take with non-blocking drains, so it
            # drives its own ports instead of the take-all sequential loop
            "steer": NodeKernel("steer", DATAFLOW, steer_body),
        }

    # -- generator and drain (harness threads) ------------------------------

    def codec_values(self):
        return [{"pixels": frame} for frame in self.frames[:64]]

    def send(self, rig, k: int) -> None:
        rig.inst.publisher("camera", "raw").publish_blocking(
            {"pixels": self.frames[self.frame_of(rig, k)]}
        )

    def receive(self, drv) -> None:
        rig = drv.rig
        port = rig.inst.subscriber("actuator", "command")
        t0 = now()
        command = port.take_blocking()
        t = now()
        times = port.last_times
        k = times.seq
        if rig.spans is not None:
            rig.spans.add("runtime.take.command", t0, t, k)
            rig.port_times.append(("command", "actuator", k, times))
        in_order = k > rig.state["last_seq"]
        rig.state["last_seq"] = k
        if not in_order:
            drv.rec.complete(k, t, False, f"command {k} arrived out of order")
        else:
            drv.rec.complete(k, t, command == self.expected(rig, k))

    def finish(self, drv) -> None:
        """Send the blank flush frame once every light event is published.

        ``steer`` drains its event FIFOs only when a centre point arrives, so
        one more frame after the detectors' last publish makes it take every
        event; then each event is checked to have arrived exactly once.
        """
        rig, rec = drv.rig, drv.rec
        sent = range(rec.started)
        want = {
            (topic, state, k)
            for k in sent
            for topic, state, fired in (
                ("stop_events", STOP, self.refs[self.frame_of(rig, k)][1]),
                ("go_events", GO, self.refs[self.frame_of(rig, k)][2]),
            )
            if fired
        }
        deadline = now() + drv.stall_limit_ns
        for node, topic in (("red_light", "stop_events"), ("green_light", "go_events")):
            n = sum(1 for w in want if w[0] == topic)
            pub = rig.inst.publisher(node, topic)
            while n and (pub.last_times is None or pub.last_times.seq < n - 1):
                if drv.stop.is_set() or now() > deadline:
                    rec.fail(None, f"{node} published fewer than {n} events")
                    return
                time.sleep(0.0005)
        rig.state["flush_k"] = rec.started
        drv.send(rec.started, now())
        drv.wait_idle()
        got = Counter(rig.state["events"])
        for (topic, state, k), times in got.items():
            if (topic, state, k) not in want or times > 1:
                rec.fail(k, f"{topic} event for input {k} reached steer {times} times")
        for topic, state, k in want - got.keys():
            rec.fail(k, f"{topic} event for input {k} never reached steer")
