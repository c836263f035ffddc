"""What the benchmark reads from the package: every workload that
BENCHMARK.json names builds, runs a few units and passes its own checks.

The benchmark calls names the package's own code no longer needs (the
`threads=` keyword of the sweep, `BoundaryPoint.is_corner`, the rows of
`BoundaryCurve.points`, `threshold.objective`, the module global
`threshold.compute_threshold` that its probe patches); deleting one of them
fails a benchmark run, and this test.  It only reads `bench/`.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in DECLARED["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in bench/
    try:
        import workloads as module
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_units_pass_their_checks(workloads, name):
    workload = workloads.WORKLOADS[name](0, workloads.public_api(), workloads.load_reference())
    workload.warm_up()
    for k in range(3):  # the certify workload's three unit kinds
        attempted, failed, notes = workload.check(workload.unit(k))
        assert attempted > 0
        assert failed == 0, notes
