"""Toy-size self-check of the benchmark, so that it cannot rot.

    python3 -m pytest -q perfbench

Runs every workload at toy size, untraced and traced, with the
correctness gate on and no assertion on wall-clock time.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace),
         "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_gate(workload):
    res = bench(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat(workload):
    first, second = bench(workload, 1, seed=7), bench(workload, 1, seed=7)
    assert first["correct"] and second["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    counts = [k for k, u in want.items() if u == "count" and not k.startswith("py.")]
    assert [first["metrics"][k]["value"] for k in counts] == \
        [second["metrics"][k]["value"] for k in counts]


def test_wrong_outcome_fails_the_gate():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import workloads
        with open(os.path.join(HERE, "references.json")) as f:
            refs = json.load(f)
        w = workloads.make("synth", "toy", [], refs["synth"])
        w.setup()
        op = w.round()[0]
        assert workloads.failure(w, op) is None
        op.outcome = dict(op.outcome, winning=op.outcome["winning"] + 1)
        assert workloads.failure(w, op) is not None
    finally:
        del sys.path[:2]


def test_paced_clock_times_the_engine_not_the_gauge(monkeypatch):
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import time
        import pace
        import workloads
        pause = 0.05

        def gauge(seconds):  # a host at twice the reference speed
            time.sleep(pause)
            return 2 * pace.REFERENCE_RATE

        monkeypatch.setattr(pace, "gauge", gauge)
        clock = workloads.PacedClock()
        t0 = time.perf_counter()
        clock.start()
        time.sleep(pace.PACE_S)
        clock.tick()  # due: gauges with the clock paused
        assert clock.pending == 0
        dt = clock.stop()
        wall = time.perf_counter() - t0
        assert pace.PACE_S <= dt <= wall - pause
        clock.flush()
        assert abs(clock.ref_s - 2 * dt) < 1e-9
        assert clock.stop() == 0.0  # a stop outside the clock counts nothing
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_engine(tmp_path):
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
