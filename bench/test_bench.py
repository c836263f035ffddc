"""Self-test of the benchmark code.

    python3 -m pytest bench/test_bench.py -q

Checks the self-time arithmetic on a synthetic nest of spans, the per-pass
speed scaling on synthetic records, that the speed probe's time is left out
of the clock, and that tiny runs of every workload print every metric with a
unit and pass their checks.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

# metric names each workload's details line must carry, besides the declared ones
NAMED = {
    "sweep-fock": ("thresholds_per_s", "threshold_p50_s", "threshold_tail_s"),
    "sweep-cat": ("thresholds_per_s", "threshold_p50_s", "threshold_tail_s"),
    "multimode": ("thresholds_per_s", "threshold_p50_s", "threshold_tail_s"),
    "certify": ("certified_pairs_per_s", "scored_pairs_per_s", "certify_p50_s", "certify_tail_s"),
    "validate": ("validate_s",),
}
COMMON = ("setup_s", "peak_rss_mb", "failed_share")


def test_self_time_is_duration_minus_direct_children():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9] > b1 [6,7], b2 [7,8.5]
    names = ["root", "a", "a1", "b", "b1", "b2"]
    parent = np.array([-1, 0, 1, 0, 3, 3])
    start = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 7.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 7.0, 8.5])
    own = spans.self_times(parent, start, end)
    assert own.tolist() == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5]
    assert own.sum() == end[0] - start[0]

    # spans sharing a name are summed
    summary = spans.summarize(["root", "x"], np.array([0, 1, 1, 1, 1, 1]), parent, start, end)
    assert summary["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert summary["x"]["calls"] == 5
    assert summary["x"]["self_s"] == 7.0


def test_wrapped_calls_nest_and_count():
    recorder = spans.SpanRecorder()

    def inner(rows, cols):
        return rows * len(cols)

    def outer(n):
        return namespace["inner"](n, range(n))

    namespace = {"inner": inner, "outer": outer}
    recorder.install([
        (namespace, "inner", "inner", lambda args: {"elements": args[0] * len(args[1])}),
        (namespace, "outer", "outer", None),
        (namespace, "absent", "absent", None),
    ])
    try:
        assert namespace["outer"](3) == 9
        assert namespace["outer"](2) == 4
    finally:
        recorder.uninstall()
    assert namespace["inner"] is inner and namespace["outer"] is outer
    arrays = recorder.arrays()
    assert [recorder.names[i] for i in arrays["name_id"]] == ["outer", "inner", "outer", "inner"]
    assert arrays["parent"].tolist() == [-1, 0, -1, 2]
    assert recorder.counts == {"inner.elements": 13}
    summary = recorder.summary()
    assert summary["outer"]["calls"] == summary["inner"]["calls"] == 2


def test_pass_means_scale_each_pass_to_reference_speed():
    import workloads  # imports the package from src/

    # two passes over units 0 and 1; unit 0 has two timed parts, unit 1 none;
    # the second pass ran at half speed (probes twice their reference duration)
    records = [
        {"k": 0, "ops": 2, "latencies": [1.0, 4.0], "seconds": 5.5, "speed": 1.0},
        {"k": 1, "ops": 3, "latencies": [], "seconds": 2.0, "speed": 1.0},
        {"k": 0, "ops": 2, "latencies": [4.0, 6.0], "seconds": 10.4, "speed": 2.0},
        {"k": 1, "ops": 3, "latencies": [], "seconds": 3.0, "speed": 2.0},
    ]
    means = workloads.pass_means(records)
    assert means[0] == ([1.5, 3.5], pytest.approx(0.35), 2)
    assert means[1] == ([], 1.75, 3)
    assert workloads.pass_seconds(means) == pytest.approx(1.5 + 3.5 + 0.35 + 1.75)
    assert workloads.pass_seconds(means, [1]) == 1.75
    assert workloads.part_latencies(means) == [1.5, 3.5]


def test_speed_clock_leaves_out_probe_time():
    import time

    import speed

    speed.start()
    try:
        start, wall = speed.clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            pass
        probed, elapsed = speed.clock() - start, time.perf_counter() - wall
    finally:
        speed.stop()
    assert speed.durations, "the probe never ran"
    assert probed < elapsed
    assert probed + sum(speed.durations) == pytest.approx(elapsed, abs=0.01)


def run_bench(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def declared(section: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)[section]


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    details, result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in declared("end_to_end"):
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    for name in NAMED[workload] + COMMON:
        assert details["named"][name]["unit"]
    assert details["machine"]["workers"] == 1


def test_tiny_traced_run_emits_every_layer_metric():
    details, result = run_bench("certify", 1)
    assert result["correct"]
    assert [m["name"] for m in declared("per_layer")] == list(result["metrics"])
    for metric in declared("per_layer"):
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["boundary.certify_pair.calls"]["value"] > 0
    assert result["metrics"]["threshold.objective.calls"]["value"] == 0
    assert details["self_sum_s"] == pytest.approx(details["traced_wall_s"], rel=1e-9)
