"""Benchmark of stellarwitness: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload sweep-cat --seed 1 --seconds 26 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout; without it the run exits with code 2 and prints no result.

``--trace 0`` repeats one pass of the workload's units until ``--seconds``
would be exceeded and reports the end-to-end metrics of BENCHMARK.json, with
one worker and single-threaded BLAS.  Every pass does the same work.  A host
speed probe (``speed.py``) runs every 50 ms of the timed loop; the times of
each unit, without the probe's, are scaled to the probe's reference speed, and
each timed part of a unit (a threshold, a certification, the rest of the unit)
reports its mean over the passes.  The unscaled rates over all passes are on
the details line as ``raw_*``, the per-unit speed factors as ``unit_speed``.

``--trace 1`` runs a fixed number of units (derived from ``--seconds`` alone,
so counts repeat exactly for a seed) once untraced and once with spans around
every listed package call, and reports the per-layer metrics; the spans and
counts are written to ``bench/out/``.

End-to-end metrics are generic so that every workload reports all of them.
``ops_per_s`` counts thresholds (sweeps, multimode), pairs through predict and
decision_function (certify) or ``run_suites`` calls (validate).  ``op_mean_s``
is the mean latency of one operation: a threshold (sweeps, multimode), a
single CLI-style certification (certify) or a ``run_suites`` call (validate).
The median and the tail (the highest order statistic with ten samples beyond
it, never below the median), with the tail's percentile and the sample count,
are on the details line but not gated: over ten seeds the median spread by up
to 0.085 of itself (sweep-cat, multimode) and the tail by up to 0.12
(multimode, where it is the third of four thresholds), against at most 0.07
for every gated metric.  A cat sweep's thresholds fall in two clusters (about
a third under 0.2 s, the rest 0.5-1 s), so the grid shift moves their median.

``setup_s`` is the median of three fresh-interpreter set-ups, each scaled by
the import of numpy and scipy.linalg in another fresh interpreter right after
it (``IMPORT_PROBE``) to that import's reference time: set-up time moves with
the host like the timed loop, but the loop's probe does not follow it
(correlation 0.18 over 42 runs), while this import does (0.81 over 49 pairs;
over ten seeds the scaled median spread by at most 0.06, the unscaled one,
``raw_setup_s``, by up to 0.31).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the named metrics, sample counts and machine facts.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # one BLAS thread, set before numpy loads
    os.environ[_var] = "1"

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SETUP_SAMPLES = 3
# Set-up work the program does not own, timed in a fresh interpreter right
# after each set-up sample; its median on the reference host (2-vCPU Intel Xeon
# Sapphire Rapids KVM guest) is IMPORT_REFERENCE_S.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, scipy.linalg; "
    "print(time.perf_counter() - t)"
)
IMPORT_REFERENCE_S = 0.4
EXIT_NO_PROGRAM = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, print the seconds taken, exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def timed_unit(workload, k: int) -> dict:
    start = speed.clock()
    record = workload.unit(k)
    record["seconds"] = speed.clock() - start
    return record


def probed_unit(workload, k: int) -> dict:
    """A timed unit with the mean duration of the probes that ran during it
    over the reference one as ``speed`` (None when none ran)."""
    first = len(speed.durations)
    record = timed_unit(workload, k)
    probes = speed.durations[first:]
    record["speed"] = statistics.fmean(probes) / speed.REFERENCE_S if probes else None
    return record


def run_passes(workload, seconds: float) -> list:
    """Time passes over units 0 .. units_per_pass-1, with the speed probe on,
    until the next pass would likely end past `seconds` (always at least one
    pass).  A unit too short for a probe takes its pass's mean speed."""
    records = []
    began = time.perf_counter()
    passes = 0
    speed.start()
    try:
        while True:
            first = len(speed.durations)
            batch = [probed_unit(workload, k) for k in range(workload.units_per_pass)]
            probes = speed.durations[first:] or [speed.REFERENCE_S]
            for record in batch:
                if record["speed"] is None:
                    record["speed"] = statistics.fmean(probes) / speed.REFERENCE_S
            records.extend(batch)
            passes += 1
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / passes > seconds:
                return records
    finally:
        speed.stop()


def traced_units(workload, seconds: float) -> list:
    """Unit indices of a traced run, in pass order: half the run's seconds at
    the nominal cost of a unit."""
    per_pass = workload.units_per_pass
    count = max(1, int(seconds / 2.0 / workload.nominal_pass_s * per_pass))
    return [k % per_pass for k in range(count)]


def check_all(workload, records) -> tuple:
    attempted = failed = 0
    notes = []
    for record in records:
        a, f, n = workload.check(record)
        attempted += a
        failed += f
        notes.extend(n)
    return attempted, failed, notes


def fresh_seconds(argv: list) -> float:
    """The number a fresh interpreter prints last."""
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def setup_sample(args) -> tuple:
    """(seconds of import plus input generation and loading, seconds of the
    import probe), each in a fresh interpreter, back to back."""
    setup = fresh_seconds([os.path.abspath(__file__), "--setup-only",
                           "--workload", args.workload, "--seed", str(args.seed)])
    return setup, fresh_seconds(["-c", IMPORT_PROBE])


def machine_facts() -> dict:
    import numpy as np
    import scipy

    try:
        with open("/sys/fs/cgroup/cpu.max") as handle:
            cpu_max = handle.read().strip()
    except OSError:
        cpu_max = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workers": 1,
    }


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_percentile"):
        return "%"
    if name.endswith("share"):
        return "share"
    return "count"


def with_units(values: dict) -> dict:
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def declared_metrics(section: str) -> list:
    with open(BENCHMARK_JSON) as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[section]]


def write_json(name: str, obj) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump(obj, handle, indent=1)


def end_to_end(workload, args, setup_samples) -> tuple:
    records = run_passes(workload, seconds=args.seconds)
    attempted, failed, notes = check_all(workload, records)
    named = workload.metrics(records)
    named["setup_s"] = statistics.median(s * IMPORT_REFERENCE_S / r for s, r in setup_samples)
    named["raw_setup_s"] = statistics.median(s for s, _ in setup_samples)
    named["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named["failed_share"] = failed / attempted
    prefix = workload.latency_prefix
    values = {
        "ops_per_s": named[workload.rate_metric],
        "op_mean_s": named[f"{prefix}_mean_s"],
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
    }
    details = {
        "units": len(records),
        "passes": len(records) // workload.units_per_pass,
        "unit_speed": [r["speed"] for r in records],
        "probe_samples": len(speed.durations),
        "probe_share": sum(speed.durations) / (sum(speed.durations) + sum(r["seconds"] for r in records)),
        "unit_seconds": [r["seconds"] for r in records],
        "unit_latencies": [r["latencies"] for r in records],
        "named": with_units(named),
        "notes": notes[:20],
    }
    return values, attempted, failed, details


def traced(workload, args, api) -> tuple:
    import numpy as np

    import spans
    import workloads

    units = traced_units(workload, args.seconds)
    recorder = spans.SpanRecorder()
    targets = workloads.trace_targets(api)
    root_name = f"bench.{workload.name}"

    def traced_unit(k):
        recorder.install(targets)
        try:
            root = recorder.open(root_name)
            record = timed_unit(workload, k)
            recorder.close(root)
        finally:
            recorder.uninstall()
        return record

    # each unit runs untraced and traced back to back, in alternating order,
    # so slow drifts of machine speed and warm-up order cancel in the overhead
    plain, records = [], []
    for i, k in enumerate(units):
        if i % 2:
            records.append(traced_unit(k))
            plain.append(timed_unit(workload, k))
        else:
            plain.append(timed_unit(workload, k))
            records.append(traced_unit(k))
    attempted, failed, notes = check_all(workload, plain + records)

    summary = recorder.summary()
    wall = summary[root_name]["total_s"]
    values = {}
    for _, _, name, count in targets:
        values[f"{name}.calls"] = 0
        values[f"{name}.self_s"] = 0.0
        if count is not None:
            values[f"{name}.elements"] = 0
    for name, entry in summary.items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
    values.update(recorder.counts)
    values.update(workload.layer_metrics(records))
    values["trace_overhead_share"] = wall / sum(r["seconds"] for r in plain) - 1.0
    values["trace.uncovered_share"] = summary[root_name]["self_s"] / wall
    values["failed_share"] = failed / attempted

    os.makedirs(OUT_DIR, exist_ok=True)
    np.savez(os.path.join(OUT_DIR, f"trace-{workload.name}.npz"),
             names=np.array(recorder.names), **recorder.arrays())
    details = {
        "units": len(units),
        "unit_seconds": [r["seconds"] for r in plain],
        "traced_unit_seconds": [r["seconds"] for r in records],
        "traced_wall_s": wall,
        "self_sum_s": sum(entry["self_s"] for entry in summary.values()),
        "spans": summary,
        "counts": dict(recorder.counts),
        "notes": notes[:20],
    }
    return values, attempted, failed, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stellarwitness", "__init__.py")):
        print(f"no stellarwitness package under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    api = workloads.public_api()
    workload = workloads.WORKLOADS[args.workload](args.seed, api, workloads.load_reference())
    setup_here = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_here))
        return 0

    setup_samples = []
    if args.trace:
        workload.warm_up()
        values, attempted, failed, details = traced(workload, args, api)
        section = "per_layer"
    else:
        setup_samples = [setup_sample(args) for _ in range(SETUP_SAMPLES)]
        workload.warm_up()
        values, attempted, failed, details = end_to_end(workload, args, setup_samples)
        section = "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared_metrics(section)}
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup_in_process_s=setup_here, setup_samples_s=setup_samples, machine=machine_facts(),
    )
    write_json(f"run-{args.workload}-trace{args.trace}.json", details)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
