"""`bulk`: 3 MiB frames over one direct link, like full-resolution point clouds.

``bench/Blob`` frames (``uint32 seq`` plus ``uint8[] data``) go from an
external publisher to an external subscriber through a single 64 KiB
channel, so each frame streams in about 49 chunks.  Byte movement and
per-chunk backpressure dominate: the serialize copy, reassembly into the
subscriber's buffer, the deserialize copy and one handoff per chunk.  There
is no arbiter, broadcaster, per-slot codec work or kernel.
"""

from __future__ import annotations

from pathlib import Path

from streamdds import EXTERNAL
from streamdds.kernels import bench_registry, make_image

from harness import now

BLOB_BYTES = 3 * 1024 * 1024
POOL = 6  # distinct payloads (18 MiB), larger than the CPU's last-level cache


class Bulk:
    name = "bulk"
    rate_hz = 100.0
    capacity_words = 16384  # 64 KiB channel
    config_path = Path(__file__).resolve().parent / "bulk.cfg"
    codec_topic = "blob"
    chain: list = []
    kernel_nodes: list = []

    def __init__(self, seed: int):
        self.blobs = [make_image(BLOB_BYTES, seed * POOL + i) for i in range(POOL)]

    def load_types(self):
        return bench_registry(4)

    def expected(self, rig, k: int) -> dict:
        return {"seq": k, "data": self.blobs[k % POOL]}

    def kernels(self, rig) -> dict:
        rig.state["last_seq"] = -1
        return {"source": EXTERNAL, "sink": EXTERNAL}

    def send(self, rig, k: int) -> None:
        rig.inst.publisher("source", "blob").publish_blocking(
            {"seq": k, "data": self.blobs[k % POOL]}
        )

    def receive(self, drv) -> None:
        rig = drv.rig
        port = rig.inst.subscriber("sink", "blob")
        t0 = now()
        value = port.take_blocking()
        t = now()
        times = port.last_times
        k = times.seq
        if rig.spans is not None:
            rig.spans.add("runtime.take.blob", t0, t, k)
            rig.port_times.append(("blob", "sink", k, times))
        if k <= rig.state["last_seq"]:
            drv.rec.complete(k, t, False, f"frame {k} arrived out of order")
        else:
            drv.rec.complete(k, t, value == self.expected(rig, k))
        rig.state["last_seq"] = k

    def finish(self, drv) -> None:
        pass

    def codec_values(self):
        return [{"seq": i, "data": blob} for i, blob in enumerate(self.blobs)]
