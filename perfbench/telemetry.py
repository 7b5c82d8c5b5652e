"""`telemetry`: structured messages, 4 publishers to 3 subscribers on one topic.

Four external publishers feed an arbiter, a broadcaster replicates to three
external subscribers.  ``telemetry_msgs/Tracks`` (this directory's own
types) is about 0.7 kB: a header, a sensor id, a bounded array of nested
detections with a string each, and a fixed float32 array.  Per-message cost
dominates: per-slot serialize and deserialize (three deserializes per
publish), the arbiter and broadcaster threads and a channel lock per frame;
the bytes moved are trivial.  This uses the transport the opposite way to
``bulk``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from streamdds import EXTERNAL, load_msg_tree

from harness import now

HERE = Path(__file__).resolve().parent
PUBS = ["pub0", "pub1", "pub2", "pub3"]
SINKS = ["sink0", "sink1", "sink2"]
POOL = 512
LABELS = ["car", "truck", "pedestrian", "cyclist", "sign", "cone", "barrier", "unknown"]


def _f32(x) -> float:
    """A float that survives a float32 round trip unchanged."""
    return float(np.float32(x))


def make_tracks(rng: np.random.Generator, i: int) -> dict:
    detections = [
        {
            "x": float(rng.normal(0.0, 30.0)),
            "y": float(rng.normal(0.0, 30.0)),
            "z": float(rng.normal(0.0, 2.0)),
            "score": _f32(rng.random()),
            "class_id": int(rng.integers(0, 65536)),
            "label": LABELS[int(rng.integers(len(LABELS)))] + f"-{int(rng.integers(1000))}",
        }
        for _ in range(int(rng.integers(8, 25)))
    ]
    return {
        "header": {"stamp": int(rng.integers(0, 2**63)), "frame_id": f"lidar_{i % 4}/tracks"},
        "sensor_id": int(rng.integers(0, 2**32)),
        "detections": detections,
        "covariance": [_f32(v) for v in rng.normal(0.0, 1.0, 9)],
    }


class Telemetry:
    name = "telemetry"
    # about a quarter of the ~1 150 msg/s saturation measured on one CPU
    rate_hz = 300.0
    capacity_words = 1024  # 4 KiB: one whole message of up to 32 detections
    config_path = HERE / "telemetry.cfg"
    codec_topic = "tracks"
    chain: list = []
    kernel_nodes: list = []

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.messages = [make_tracks(rng, i) for i in range(POOL)]
        self.order = rng.permutation(POOL).tolist()

    def load_types(self):
        return load_msg_tree(HERE / "msgs")

    def expected(self, rig, k: int) -> dict:
        return self.messages[self.order[k % POOL]]

    def kernels(self, rig) -> dict:
        # next expected per-publisher seq, for each subscriber
        rig.state["next_seq"] = {s: [0] * len(PUBS) for s in SINKS}
        return {node: EXTERNAL for node in PUBS + SINKS}

    def send(self, rig, k: int) -> None:
        # round robin: input k is the (k // 4)-th message of publisher k % 4
        rig.inst.publisher(PUBS[k % len(PUBS)], "tracks").publish_blocking(
            self.messages[self.order[k % POOL]]
        )

    def receive(self, drv) -> None:
        """Take the next message from every subscriber; the third copy completes it."""
        rig = drv.rig
        copies = []
        for sink in SINKS:
            port = rig.inst.subscriber(sink, "tracks")
            t0 = now()
            copies.append((sink, port.take_blocking(), port.last_times, t0, now()))
        t = copies[-1][4]
        why = ""
        ks = set()
        for sink, value, times, t0, t1 in copies:
            p = PUBS.index(times.publisher)
            k = times.seq * len(PUBS) + p
            ks.add(k)
            if rig.spans is not None:
                rig.spans.add(f"runtime.take.tracks.{sink}", t0, t1, k)
                rig.port_times.append(("tracks", sink, k, times))
            nxt = rig.state["next_seq"][sink]
            if times.seq != nxt[p]:
                why = f"{sink} got {times.publisher} #{times.seq}, expected #{nxt[p]}"
            nxt[p] = times.seq + 1
            if value != self.expected(rig, k):
                why = why or f"{sink} decoded input {k} differently from what was sent"
        if len(ks) != 1:
            why = why or f"subscribers disagree on the message: inputs {sorted(ks)}"
        for k in ks:
            drv.rec.complete(k, t, not why, why)

    def finish(self, drv) -> None:
        pass

    def codec_values(self):
        return self.messages[:64]
