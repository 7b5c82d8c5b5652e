"""Load generation, output checking, stall watchdog and tracing for perfbench.

One run drives one workload through the public ``streamdds`` API:

* ``set_up`` times loading the message types, compiling the topology,
  instantiating and starting the runtime.  It is repeated and the median
  reported, because a single set-up is a few milliseconds of noisy work.
* ``Runner`` runs the phases of one instance.  A generator thread publishes
  (paced on a fixed schedule, or back to back), a drain thread takes the
  results, stamps their receipt time and only then checks them against the
  workload's single-threaded reference.  The main thread only supervises:
  if inputs are outstanding and no result arrives for ``stall_limit_s``, it
  shuts the runtime down (see ``close``), which fails every parked port operation with
  ``ShutdownError``, and every missing result is counted as failed.
* Every thread of a run, the program's and the harness's, shares one CPU
  (``BENCH_CPU``).
* With tracing on, spans from the benchmark's own calls are kept in memory
  (``SpanLog``) and written once at the end, next to the runtime's TraceLog.

Nothing here reads the runtime's private state; per-port stamps come from
``PortHandle.last_times`` and ``RuntimeInstance.trace``.
"""

from __future__ import annotations

import itertools
import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

from streamdds import ShutdownError, build_topology, instantiate, parse_config, validate
from streamdds.runtime import RuntimeConfig

now = time.perf_counter_ns

# CPython runs one thread at a time, so a second CPU adds no parallel work to
# the program, only cross-CPU wake-ups whose cost depends on where the
# scheduler happens to put each thread, and that placement sticks for
# minutes.  Unpinned, the same lane code took 0.85 or 1.2 ms of CPU per frame
# from one run to the next, and a bulk frame (49 hand-offs between the
# generator and the drain) took 2.6 or 4.0 ms.  So every thread of a run shares this
# CPU: the program's threads inherit it from the thread that starts them.
BENCH_CPU = max(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None


def pin_to_bench_cpu() -> None:
    """Keep the calling thread, and every thread it starts later, on BENCH_CPU."""
    if BENCH_CPU is not None:
        os.sched_setaffinity(0, {BENCH_CPU})


# a failed input misses every latency limit
MISSED = math.inf


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def quartiles(values) -> tuple[float, float]:
    """First and third quartile of a non-empty sample (one value is both)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


class SpanLog:
    """In-memory spans, written out once when the run ends.

    A span is (id, parent id, name, request id, start ns, end ns).  Spans of
    one input share its request id and hang off the input's root span
    ``in<request>``; spans with no input (direct codec calls) have no parent.
    """

    HEADER = "span_id,parent_id,name,request_id,start_ns,end_ns"

    def __init__(self):
        self.rows: list[tuple] = []
        self._ids = itertools.count(1)

    def add(self, name: str, start: int, end: int, req: int, parent: str | None = None) -> None:
        self.rows.append(
            (str(next(self._ids)), f"in{req}" if parent is None else parent, name, req, start, end)
        )

    def add_root(self, req: int, start: int, end: int) -> None:
        self.rows.append((f"in{req}", "", "harness.input", req, start, end))

    def durations_us(self, name: str, reqs: range | None = None) -> list[float]:
        return [
            (r[5] - r[4]) / 1e3
            for r in self.rows
            if r[2] == name and (reqs is None or r[3] in reqs)
        ]


@dataclass
class Rig:
    """One set-up runtime instance plus the workload's per-instance state."""

    spans: SpanLog | None
    inst: object = None
    timings: dict = field(default_factory=dict)
    threads: list = field(default_factory=list)  # threads started by start()
    # (topic, subscriber node, request id, FrameTimes) read from last_times
    port_times: list = field(default_factory=list)
    # workload-specific state (counters, received events, ...)
    state: dict = field(default_factory=dict)


def set_up(workload, trace: bool) -> Rig:
    """Build and start one instance of ``workload``, timing each layer.

    Kernel closures are made before the clock starts: they are the
    benchmark's code, not the program's set-up work.
    """
    rig = Rig(SpanLog() if trace else None)
    kernels = workload.kernels(rig)
    t0 = now()
    registry = workload.load_types()
    registry.resolve()
    t1 = now()
    graph = build_topology(parse_config(workload.config_path.read_text()), registry)
    problems = [d for d in validate(graph) if d.severity == "error"]
    if problems:
        raise RuntimeError(f"{workload.name}: invalid topology: {problems}")
    t2 = now()
    inst = instantiate(
        graph,
        kernels,
        RuntimeConfig(
            default_capacity_words=workload.capacity_words,
            trace=trace,
        ),
    )
    t3 = now()
    rig.inst = inst
    before = set(threading.enumerate())
    inst.start()
    t4 = now()
    rig.threads = list(set(threading.enumerate()) - before)
    rig.timings = {
        "msgdef.load_ms": (t1 - t0) / 1e6,
        "topology.compile_ms": (t2 - t1) / 1e6,
        "runtime.instantiate_ms": (t3 - t2) / 1e6,
        "runtime.start_ms": (t4 - t3) / 1e6,
        "setup_s": (t4 - t0) / 1e9,
    }
    return rig


def close(inst) -> threading.Thread:
    """Shut ``inst`` down from a daemon thread and return that thread.

    ``shutdown()`` closes every channel at once, which fails all parked port
    operations, and then joins each context with a 10 s timeout.  An idle
    arbiter never notices that its inputs closed, so on a topology with an
    arbiter that join always runs out; waiting for it in line would add
    10 s to every set-up.  ``lingering_threads`` reports what is left.
    """
    t = threading.Thread(target=inst.shutdown, name="perfbench-close", daemon=True)
    t.start()
    return t


def lingering_threads(closers: list[threading.Thread], rigs: list[Rig], grace_s: float) -> list[str]:
    """Names of the rigs' runtime threads still alive ``grace_s`` after shutdown."""
    deadline = now() + int(grace_s * 1e9)
    for c in closers:
        c.join(max(0.0, (deadline - now()) / 1e9))
    return sorted(t.name for rig in rigs for t in rig.threads if t.is_alive())


@dataclass
class Phase:
    name: str
    seconds: float
    paced: bool
    k0: int = 0
    k1: int = 0
    t0: int = 0
    t1: int = 0
    # CPU time of the whole process from the phase's first send until the
    # result of its last input arrived
    cpu_ns: int = 0

    @property
    def inputs(self) -> range:
        return range(self.k0, self.k1)


class Recorder:
    """Per-input bookkeeping shared by the generator and the drain thread.

    The generator alone writes ``due``/``started``, the drain alone writes
    ``done``/``bad``; the counters are plain ints read by other threads.
    """

    def __init__(self):
        self.due: list[int] = []  # due time (paced) or send time (saturating)
        self.late: dict[int, int] = {}  # generator lateness of paced inputs, ns
        self.done: dict[int, int] = {}
        self.bad: set[int] = set()
        self.extra_failures = 0  # duplicates, lost events, faults
        self.errors: list[str] = []
        self.started = 0
        self.results = 0
        self.last_progress = now()
        self.backlog_max = 0

    def fail(self, k: int | None, why: str) -> None:
        if k is None:
            self.extra_failures += 1
        else:
            self.bad.add(k)
        if len(self.errors) < 20:
            self.errors.append(why)

    def complete(self, k: int, t: int, ok: bool, why: str = "") -> None:
        self.results += 1
        self.last_progress = t
        if k in self.done:
            self.fail(k, f"input {k} delivered twice")
            return
        self.done[k] = t
        if not ok:
            self.fail(k, why or f"input {k} differs from the reference")

    def failed(self, attempted: int) -> int:
        lost = sum(1 for k in range(attempted) if k not in self.done or k in self.bad)
        return min(attempted, lost + self.extra_failures)

    def latencies_ms(self, ks: range) -> list[float]:
        return [
            (self.done[k] - self.due[k]) / 1e6 if k in self.done and k not in self.bad else MISSED
            for k in ks
        ]


class Runner:
    """Runs phases of one instance: generator thread, drain thread, watchdog."""

    def __init__(self, workload, rig: Rig, stall_limit_s: float):
        self.wl = workload
        self.rig = rig
        self.rec = Recorder()
        self.stall_limit_ns = int(stall_limit_s * 1e9)
        self.stop = threading.Event()
        self.stalled = False
        self.closer: threading.Thread | None = None

    # -- generator side ---------------------------------------------------

    def send(self, k: int, due: int) -> None:
        rec, rig = self.rec, self.rig
        if rec.started == rec.results:  # idle until now: the stall clock starts here
            rec.last_progress = now()
        rec.due.append(due)
        rec.started += 1
        t0 = now()
        self.wl.send(rig, k)
        t1 = now()
        if rig.spans is not None:
            rig.spans.add("runtime.publish", t0, t1, k)
            backlog = sum(ch.frames_buffered() for ch in rig.inst.channels())
            if backlog > rec.backlog_max:
                rec.backlog_max = backlog

    def _run_phase(self, ph: Phase) -> None:
        rec = self.rec
        cpu0 = time.process_time_ns()
        ph.k0 = rec.started
        ph.t0 = now()
        end = ph.t0 + int(ph.seconds * 1e9)
        if ph.paced:
            period = 1e9 / self.wl.rate_hz
            for i in itertools.count():
                due = ph.t0 + int(i * period)
                if due >= end or self.stop.is_set():
                    break
                wait = due - now()
                if wait > 0:
                    time.sleep(wait / 1e9)
                rec.late[rec.started] = now() - due
                self.send(rec.started, due)
        else:
            while now() < end and not self.stop.is_set():
                self.send(rec.started, now())
        ph.t1 = now()
        ph.k1 = rec.started
        self.wait_idle()
        ph.cpu_ns = time.process_time_ns() - cpu0

    def wait_idle(self) -> None:
        """Wait until every input sent so far has its result (or the run stops)."""
        while self.rec.results < self.rec.started and not self.stop.is_set():
            time.sleep(0.0005)

    def _generate(self, phases: list[Phase]) -> None:
        try:
            for ph in phases:
                self._run_phase(ph)
                if self.stop.is_set():
                    return
            self.wl.finish(self)
        except ShutdownError:
            pass
        except Exception as e:  # noqa: BLE001 - report, count as failure, end the run
            self.rec.fail(None, f"generator: {e!r}")

    # -- drain side -------------------------------------------------------

    def _drain(self) -> None:
        try:
            while True:
                self.wl.receive(self)
        except ShutdownError:
            pass
        except Exception as e:  # noqa: BLE001 - report, count as failure, end the run
            self.rec.fail(None, f"drain: {e!r}")
            self.stop.set()

    # -- supervision ------------------------------------------------------

    def run(self, phases: list[Phase]) -> None:
        gen = threading.Thread(target=self._generate, args=(phases,), name="perfbench-gen")
        drain = threading.Thread(target=self._drain, name="perfbench-drain")
        poll = min(0.05, self.stall_limit_ns / 4e9)
        drain.start()
        gen.start()
        rec = self.rec
        while gen.is_alive():
            gen.join(poll)
            outstanding = rec.started > rec.results
            if outstanding and now() - rec.last_progress > self.stall_limit_ns:
                self.stalled = True
                rec.errors.append(
                    f"no result for {self.stall_limit_ns / 1e9:.2f} s with "
                    f"{rec.started - rec.results} inputs outstanding: shut down"
                )
                break
            if self.stop.is_set():
                break
        self.stop.set()
        self.closer = close(self.rig.inst)
        gen.join()
        drain.join()
        if self.rig.spans is not None:
            for k, t in rec.done.items():
                if k < len(rec.due):
                    self.rig.spans.add_root(k, rec.due[k], t)
        for fault in self.rig.inst.faults:
            rec.fail(None, f"kernel fault in {fault.node}: {fault.error!r}")
