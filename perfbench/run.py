"""perfbench: the repository's benchmark of the streamdds runtime.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, human report
    python3 perfbench/run.py --workload lane --seed 3 --seconds 30 --trace 0

Each workload prints its metrics by name and unit with sample counts; the
last line of output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run, and writes its spans,
the runtime's TraceLog and every per-layer metric under
``.perfbench_out/<workload>-seed<seed>/``.  The exit code is 1 when any
output differs from the single-threaded reference, 2 when the program
cannot be loaded.  See perfbench/README.md for what each workload stresses.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    from streamdds import deserialize, serialize
    from streamdds.runtime import TraceLog
except ImportError as e:
    print(f"perfbench: cannot import streamdds from {ROOT / 'src'}: {e}", file=sys.stderr)
    sys.exit(2)

from bulk import Bulk
from harness import (
    Runner, Phase, SpanLog, close, lingering_threads, median, now, percentile, pin_to_bench_cpu,
    quartiles, set_up,
)
from lane import Lane
from telemetry import Telemetry

WORKLOADS = {"lane": Lane, "bulk": Bulk, "telemetry": Telemetry}
SETUPS = 21
ROUND_S = 2.0
STALL_LIMIT_S = 5.0
CODEC_SAMPLES = 30
LINGER_GRACE_S = 1.0
QUIESCE_S = 0.05
OUT = ROOT / ".perfbench_out"

E2E = ["setup_s", "paced_cpu_ms", "saturated_cpu_ms"]
PER_LAYER = [
    "msgdef.load_ms",
    "topology.compile_ms",
    "runtime.instantiate_ms",
    "runtime.start_ms",
    "runtime.threads",
    "runtime.channels",
    "serde.serialize_us",
    "serde.deserialize_us",
    "serde.frame_bytes",
    "runtime.publish_us",
    "runtime.queue_wait_us",
    "runtime.stream_us",
    "runtime.backlog_frames_max",
    "harness.gen_late_p99_ms",
    "harness.latency_p99_ms",
    "harness.trace_overhead_frac",
]


def unit_of(name: str) -> str:
    # the unit follows the metric's own name, before any .<topic>.<node>
    base = name.split(".")[1] if "." in name else name
    for suffix, unit in (
        ("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"), ("_s", "s"),
        ("_bytes", "B"), ("_frac", "frac"),
    ):
        if base.endswith(suffix):
            return unit
    return "count"


class Report:
    """Metrics by name with their sample counts, in insertion order."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.notes: dict[str, str] = {}

    def put(self, name: str, value: float, n: str = "") -> None:
        self.values[name] = value
        self.notes[name] = n

    def p50(self, name: str, samples: list, what: str) -> None:
        if samples:
            self.put(name, median(samples), f"n={len(samples)} {what}, median")

    def lines(self) -> list[str]:
        out = []
        for name, v in self.values.items():
            shown = f"{v:.4g}" if isinstance(v, float) else str(v)
            out.append(f"  {name:<44} {shown:>12} {unit_of(name):<5} {self.notes[name]}")
        return out


def _quiesce(closers: list) -> None:
    """Let the previous instance's threads exit before timing a set-up.

    The join gives up after QUIESCE_S: by then only a parked arbiter (see
    ``harness.close``) is left, which takes no CPU.
    """
    if closers:
        closers[-1].join(QUIESCE_S)


@dataclass
class Round:
    """One fresh instance: set up, warmed up, measured, shut down."""

    rig: object
    drv: Runner
    phases: dict


def _rounds(wl, seconds: float, trace: bool, stall_limit_s: float, closers: list) -> list[Round]:
    """Run ``seconds`` of phases split over rounds of about ROUND_S each.

    Latency depends on where the scheduler happens to place a fresh
    instance's threads (which of the three ``plane`` subscribers wins the
    interpreter lock first, for one), and that placement then sticks for
    the instance's life.  Fresh instances every round sample it instead of
    betting the whole run on one.  With ``trace``, every other round is
    traced and the rest give the untraced baseline of the same period.
    """
    n = max(2 if trace else 1, round(seconds / ROUND_S))
    length = seconds / n
    rounds = []
    for i in range(n):
        traced = trace and i % 2 == 1
        if trace and not traced:
            shares = [("warmup", 0.05, True), ("paced", 0.95, True)]
        else:
            shares = [("warmup", 0.05, True), ("paced", 0.5, True), ("saturating", 0.45, False)]
        phases = {name: Phase(name, share * length, paced) for name, share, paced in shares}
        _quiesce(closers)
        rig = set_up(wl, traced)
        drv = Runner(wl, rig, stall_limit_s)
        drv.run(list(phases.values()))
        closers.append(drv.closer)
        rounds.append(Round(rig, drv, phases))
        if drv.stalled:
            break
    return rounds


def _latency(rep: Report, rounds: list[Round], rate: float) -> list[float]:
    """p50/p90: lower quartile over instances of each instance's percentile.

    A slow spell of the shared host only ever adds latency, and it can
    outlast half of a run; the lower quartile follows the program until
    the spell covers three quarters of the instances.  p99 needs every
    sample, so it is taken over the pooled inputs.
    """
    per_round = [r.drv.rec.latencies_ms(r.phases["paced"].inputs) for r in rounds]
    per_round = [lat for lat in per_round if lat]  # a stall can end a round before it
    pooled = [x for lat in per_round for x in lat]
    if not pooled:
        return pooled
    what = f"paced inputs at {rate:g}/s, lower quartile of {len(rounds)} instances' percentiles"
    for q, name in ((0.5, "latency_p50_ms"), (0.9, "latency_p90_ms")):
        low, _ = quartiles([percentile(lat, q) for lat in per_round])
        rep.put(name, low, f"n={len(pooled)} {what}")
    rep.put("harness.latency_p99_ms", percentile(pooled, 0.99), f"n={len(pooled)} paced inputs, pooled")
    late = [r.drv.rec.late[k] / 1e6 for r in rounds for k in r.phases["paced"].inputs]
    rep.put("harness.gen_late_p99_ms", percentile(late, 0.99), f"n={len(late)} paced sends, pooled")
    return pooled


def _throughput(rep: Report, rounds: list[Round]) -> None:
    """Correct results completed inside a saturating phase per second,
    upper quartile over instances (the mirror of ``_latency``)."""
    rates, total = [], 0
    for r in rounds:
        ph, rec = r.phases["saturating"], r.drv.rec
        if ph.t1 <= ph.t0:  # never reached
            continue
        results = sum(
            1 for k in ph.inputs if k not in rec.bad and ph.t0 <= rec.done.get(k, ph.t1 + 1) <= ph.t1
        )
        total += results
        rates.append(results / ((ph.t1 - ph.t0) / 1e9))
    if not rates:
        return
    rep.put(
        "throughput_per_s",
        quartiles(rates)[1],
        f"n={total} results, upper quartile of {len(rounds)} instances' rates",
    )


def _cpu(rep: Report, rounds: list[Round]) -> None:
    """Process CPU time per input of each phase, over every instance's phase.

    A total over instances, not a median: an instance settles into one of
    two ways of batching saturating traffic (on ``telemetry``, 1.0 or 1.3 ms
    of CPU per message), and a median over instances jumps between the two.
    """
    for phase, name in (("paced", "paced_cpu_ms"), ("saturating", "saturated_cpu_ms")):
        phases = [r.phases[phase] for r in rounds]
        inputs = sum(len(ph.inputs) for ph in phases)
        if inputs:
            rep.put(
                name,
                sum(ph.cpu_ns for ph in phases) / 1e6 / inputs,
                f"n={inputs} {phase} inputs over {len(phases)} instances",
            )


def _codec(rep: Report, wl, rig) -> bool:
    """Time direct serialize/deserialize calls on the workload's own messages."""
    plan = rig.inst.graph.plans[wl.codec_topic]
    values = wl.codec_values()
    ok = True
    sizes = []
    for i in range(max(CODEC_SAMPLES, len(values))):
        value = values[i % len(values)]
        t0 = now()
        frame = serialize(value, plan)
        t1 = now()
        back = deserialize(frame, plan)
        t2 = now()
        rig.spans.add("serde.serialize", t0, t1, i, parent="")
        rig.spans.add("serde.deserialize", t1, t2, i, parent="")
        sizes.append(len(frame.payload))
        ok = ok and back == value
    n = f"direct calls on {len(values)} {wl.codec_topic} messages"
    rep.p50("serde.serialize_us", rig.spans.durations_us("serde.serialize"), n)
    rep.p50("serde.deserialize_us", rig.spans.durations_us("serde.deserialize"), n)
    rep.p50("serde.frame_bytes", sizes, n)
    return ok


def _per_layer(rep: Report, wl, rounds: list[Round]) -> None:
    """Per-layer figures of the traced paced phases, from spans and stamps."""
    samples: dict[str, tuple[str, list]] = {}

    def add(name: str, what: str, values) -> None:
        samples.setdefault(name, (what, []))[1].extend(values)

    backlog = 0
    for r in rounds:
        rig, ph = r.rig, r.phases["paced"]
        paced = ph.inputs
        backlog = max(backlog, r.drv.rec.backlog_max)
        add("runtime.publish_us", "generator publish_blocking calls",
            rig.spans.durations_us("runtime.publish", paced))
        events = [
            e for e in rig.inst.trace.events()
            if e.t_first_sent is not None and ph.t0 <= e.t_first_sent <= ph.t1
        ]
        add("runtime.queue_wait_us", "TraceLog frames, all subscriber ports",
            [(e.t_first_recv - e.t_first_sent) / 1e3 for e in events])
        add("runtime.stream_us", "TraceLog frames, all subscriber ports",
            [(e.t_last_recv - e.t_first_recv) / 1e3 for e in events])

        by_port: dict[tuple, dict] = {}
        for topic, node, k, t in rig.port_times:
            if k in paced and t is not None:
                by_port.setdefault((topic, node), {})[k] = t
        for (topic, node), frames in by_port.items():
            add(f"runtime.queue_wait_us.{topic}.{node}", "frames",
                [(t.t_first_recv - t.t_first_sent) / 1e3 for t in frames.values()])
            add(f"runtime.stream_us.{topic}.{node}", "frames",
                [(t.t_last_recv - t.t_first_recv) / 1e3 for t in frames.values()])
        subscribers: dict[str, list] = {}
        for topic, node in by_port:
            subscribers.setdefault(topic, []).append(node)
        for topic, nodes in subscribers.items():
            if len(nodes) < 2:
                continue
            copies = [[by_port[(topic, n)].get(k) for n in nodes] for k in by_port[(topic, nodes[0])]]
            add(f"runtime.broadcast_skew_us.{topic}", f"frames over {len(nodes)} subscribers",
                [(max(t.t_last_recv for t in c) - min(t.t_last_recv for t in c)) / 1e3
                 for c in copies if None not in c])

        busy = {node: {} for node in wl.kernel_nodes}
        for row in rig.spans.rows:
            node = row[2][len("kernels."):]
            if node in busy and row[3] in paced:
                busy[node][row[3]] = (row[5] - row[4]) / 1e3
        for node in wl.kernel_nodes:
            add(f"kernels.busy_us.{node}", "kernel calls", busy[node].values())
        for node, t_in, t_out in wl.chain:
            inputs = by_port.get((t_in, node), {})
            outputs = next((f for (tp, _), f in by_port.items() if tp == t_out), {})
            add(f"runtime.node_overhead_us.{node}", "frames: service minus kernel time",
                [(outputs[k].t_first_sent - inputs[k].t_last_recv) / 1e3 - busy[node][k]
                 for k in inputs if k in outputs and k in busy[node]])

    for name, (what, values) in samples.items():
        rep.p50(name, values, f"{what} over {len(rounds)} instances")
    rep.put("runtime.backlog_frames_max", backlog, "sampled after each send, max")
    if hasattr(wl, "floor_ns"):
        rep.p50("kernels.floor_us", [ns / 1e3 for ns in wl.floor_ns],
                "frames, every lane kernel back to back in one thread")


def _write_trace(out: Path, rounds: list[Round], rep: Report) -> None:
    """Spans and TraceLog of every traced instance, plus every figure."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "spans.csv", "w") as f:
        f.write("instance," + SpanLog.HEADER + "\n")
        for i, r in enumerate(rounds):
            for row in r.rig.spans.rows:
                f.write(f"{i}," + ",".join(map(str, row)) + "\n")
    with open(out / "tracelog.csv", "w") as f:
        f.write("instance," + TraceLog.CSV_HEADER + "\n")
        for i, r in enumerate(rounds):
            for line in r.rig.inst.trace.to_csv().splitlines()[1:]:
                f.write(f"{i},{line}\n")
    (out / "metrics.json").write_text(json.dumps(rep.values, indent=1, sort_keys=True) + "\n")


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setups: int = SETUPS,
    stall_limit_s: float = STALL_LIMIT_S,
    workload=None,
    out_dir: Path | None = None,
) -> dict:
    """Run one workload; returns the result object plus the full report.

    ``workload`` may be a prepared instance (tests pass one with a broken
    reference or kernel); by default it is built from ``seed``.  The calling
    thread stays pinned to ``BENCH_CPU`` afterwards.
    """
    pin_to_bench_cpu()
    wl = workload or WORKLOADS[name](seed)
    rep = Report()
    closers: list = []
    rounds = _rounds(wl, seconds, trace, stall_limit_s, closers)
    plain = [r for r in rounds if r.rig.spans is None]
    traced = [r for r in rounds if r.rig.spans is not None]
    # set-up only instances top the sample up to ``setups``
    rigs = [r.rig for r in plain]
    while len(rigs) < setups:
        _quiesce(closers)
        rigs.append(set_up(wl, trace=False))
        closers.append(close(rigs[-1].inst))
    for key in ("msgdef.load_ms", "topology.compile_ms", "runtime.instantiate_ms", "runtime.start_ms"):
        rep.p50(key, [r.timings[key] for r in rigs], "set-ups")
    rep.p50("setup_s", [r.timings["setup_s"] for r in rigs], "set-ups")
    rep.put("runtime.threads", len(rigs[0].threads), "threads started by start()")
    rep.put("runtime.channels", len(rigs[0].inst.channels()), "len(inst.channels())")

    untraced = _latency(rep, plain, wl.rate_hz)
    codec_ok = True
    if not trace:
        _throughput(rep, plain)
        _cpu(rep, plain)
    elif traced and untraced:
        lat = [x for r in traced for x in r.drv.rec.latencies_ms(r.phases["paced"].inputs)]
        rep.put(
            "harness.trace_overhead_frac",
            percentile(lat, 0.5) / percentile(untraced, 0.5) - 1.0,
            f"traced p50 over untraced p50, n={len(lat)}/{len(untraced)}",
        )
        codec_ok = _codec(rep, wl, traced[0].rig)
        _per_layer(rep, wl, traced)
        _write_trace((out_dir or OUT) / f"{wl.name}-seed{seed}", traced, rep)

    runners = [r.drv for r in rounds]
    attempted = sum(d.rec.started for d in runners)
    failed = sum(d.rec.failed(d.rec.started) for d in runners) + (0 if codec_ok else 1)
    errors = [e for d in runners for e in d.rec.errors]
    if not codec_ok:
        errors.append("a direct serialize/deserialize round trip changed a message")
    missing = [k for k in (PER_LAYER if trace else E2E) if k not in rep.values]
    if missing:
        errors.append(f"run too short or stalled: no figure for {', '.join(missing)}")
        failed = max(failed, 1)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {
            k: {"value": _finite(rep.values.get(k, math.inf)), "unit": unit_of(k)}
            for k in (PER_LAYER if trace else E2E)
        },
        "report": rep,
        "errors": errors,
        "stalled": any(d.stalled for d in runners),
        "lingering": lingering_threads(closers, rigs + [r.rig for r in traced], LINGER_GRACE_S),
    }


def _finite(v: float) -> float:
    # a latency percentile that lands on a failed input is infinite; JSON
    # has no infinity, so report it as larger than any real figure
    return v if math.isfinite(v) else 1e18


def print_result(name: str, seed: int, seconds: float, trace: bool, res: dict) -> None:
    print(f"perfbench {name}: seed {seed}, {seconds:g} s, trace {int(trace)}")
    for line in res["report"].lines():
        print(line)
    attempted, failed = res["attempted"], res["failed"]
    print(f"  {'failed_frac':<44} {failed / attempted:>12.4g} frac  {failed} of {attempted} inputs")
    if res["lingering"]:
        names = sorted(set(res["lingering"]))
        print(
            f"  note: {len(res['lingering'])} runtime threads were still running "
            f"{LINGER_GRACE_S:g} s after shutdown(): {', '.join(names)}"
        )
    if res["stalled"]:
        print("  stall watchdog fired: the runtime was shut down")
    for e in res["errors"]:
        print(f"  error: {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        res = run(name, args.seed, args.seconds, bool(args.trace))
        print_result(name, args.seed, args.seconds, bool(args.trace), res)
        correct = correct and res["correct"]
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
        sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
