"""Tiny-length runs of every workload: metrics, output checks, watchdog.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from lane import Lane
from streamdds import SEQUENTIAL, NodeKernel

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COUNTS = {"lane": (8, 11), "telemetry": (2, 8), "bulk": (0, 1)}
WRONG = {
    "lane": {"speed": -1.0, "turn": 0.0},
    "bulk": {"seq": 5, "data": b"\x00"},
    "telemetry": {"header": {}},
}


def tiny(name, trace, tmp_path, **kw):
    return run.run(name, seed=1, seconds=1.0, trace=trace, setups=2, out_dir=tmp_path, **kw)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_present_and_nothing_failed(name, trace, tmp_path):
    res = tiny(name, trace, tmp_path)
    assert res["errors"] == []
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace:
        metrics = res["metrics"]
        assert (metrics["runtime.threads"]["value"], metrics["runtime.channels"]["value"]) == COUNTS[name]
        for f in ("spans.csv", "tracelog.csv", "metrics.json"):
            assert (tmp_path / f"{name}-seed1" / f).stat().st_size > 0


def test_lane_trace_reports_every_port_and_kernel(tmp_path):
    values = tiny("lane", True, tmp_path)["report"].values
    ports = [
        "raw.compensate", "plane.blur", "plane.red_light", "plane.green_light",
        "smooth.project", "birdseye.extract", "center.steer", "command.actuator",
        "stop_events.steer", "go_events.steer",
    ]
    for port in ports:
        assert f"runtime.queue_wait_us.{port}" in values
        assert f"runtime.stream_us.{port}" in values
    assert "runtime.broadcast_skew_us.plane" in values
    for node, _, _ in Lane.chain:
        assert f"runtime.node_overhead_us.{node}" in values
    for node in Lane.kernel_nodes:
        assert values[f"kernels.busy_us.{node}"] > 0
    assert values["kernels.floor_us"] > 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_wrong_expected_value_is_counted_as_failed(name, tmp_path):
    wl = run.WORKLOADS[name](1)
    right = wl.expected
    wl.expected = lambda rig, k: WRONG[name] if k == 5 else right(rig, k)
    res = tiny(name, False, tmp_path, workload=wl)
    assert not res["correct"]
    assert res["failed"] == 1


def test_watchdog_ends_a_run_whose_sink_never_receives(tmp_path):
    wl = Lane(1)
    make = wl.kernels

    def silent_compensate(rig):
        kernels = make(rig)
        kernels["compensate"] = NodeKernel("compensate", SEQUENTIAL, lambda inputs: {})
        return kernels

    wl.kernels = silent_compensate
    t0 = time.monotonic()
    res = run.run("lane", 1, seconds=20.0, trace=False, setups=1, stall_limit_s=0.5, workload=wl)
    elapsed = time.monotonic() - t0
    assert res["stalled"]
    assert res["failed"] == res["attempted"] > 0
    assert elapsed < 0.5 + 2.5  # the limit plus set-up and shutdown, far below 20 s
    assert res["lingering"] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
