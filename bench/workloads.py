"""The benchmark's workloads: seeded inputs, units of work, and output checks.

A run repeats one pass of units ``unit(0) .. unit(units_per_pass - 1)`` until
its time is up.  The inputs of unit ``k`` depend only on the benchmark seed and
``k``, so every pass does the same work, the same seed gives the same inputs,
and a traced run repeats an untraced run's units exactly.  Units only call the
package; the checks run after the timed loop.

Timings are taken per part of a unit (each threshold, each certification,
the rest of the unit) with ``speed.clock``, which leaves out the host speed
probe; each unit's times are scaled to the probe's reference speed (see
``speed.py``) and each part reports its mean over the passes.  Unscaled rates
are reported beside the scaled ones.

Why these workloads (each stresses a different layer):

* ``sweep-cat``: dominated by ``transform_coherent`` (4 calls per evaluation).
* ``certify``: no kernel or optimizer calls; separation loops and curve reads.
* ``multimode``: the only user of the multimode optimizer and matrix exponentials.
* ``validate``: the only user of the sparse oracle.
* ``sweep-fock`` (run by hand; not in BENCHMARK.json, whose runs must fit a
  time limit): cheap objective, so Nelder-Mead bookkeeping, the eigen step and
  compression assembly carry weight; never calls ``transform_coherent``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

import speed
from stellarwitness import (
    _util,
    boundary,
    estimator,
    fock_gaussian,
    multimode,
    threshold,
    validation,
    witness,
)
from stellarwitness.errors import OptimizerError

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "data", "reference_thresholds.json")
CERTIFY_DIR = os.path.join(HERE, "data", "certify")

DEFAULT_SEED = 0
RANKS = (1, 2, 3)
FOCK02 = {"type": "fock_pair", "j": 0, "k": 2}
CAT2 = {"type": "cat_pair", "beta": [2.0, 0.0]}
# SWEEP_CONFIG of the acceptance tests (starts, iterations, seed).
SWEEP_STARTS, SWEEP_ITERATIONS, SWEEP_SEED = 12, 350, 202
# criterion 8 of the acceptance tests.
MULTIMODE_STARTS, MULTIMODE_ITERATIONS, MULTIMODE_SEED = 16, 400, 23
MARGIN = 1e-4
PAIR_POOL = 10_000
SUITE_SEED = 703

# A threshold's value must reproduce from its parameters to this (relative)
# precision; the stored value and a re-evaluation take different eigen paths.
REEVAL_RTOL = 1e-12
# A threshold may not fall below its pinned reference by more than this share
# of it; the absolute floor covers thresholds that are exactly zero.
REFERENCE_RTOL, REFERENCE_FLOOR = 1e-9, 1e-15
# decision_function against the independent numpy separation.
SCORE_ATOL = 1e-12


def public_api() -> SimpleNamespace:
    """The package functions the units call; the trace wraps these entries."""
    return SimpleNamespace(
        sweep_family_ranks=boundary.sweep_family_ranks,
        curves_to_csv=boundary.curves_to_csv,
        hull_to_json=boundary.hull_to_json,
        curves_from_csv=boundary.curves_from_csv,
        certify_pair=boundary.certify_pair,
        tangent_witness=boundary.tangent_witness,
        dumps_stable=_util.dumps_stable,
        compute_threshold=threshold.compute_threshold,
        multimode_threshold=multimode.multimode_threshold,
        run_suites=validation.run_suites,
    )


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def van_der_corput(k: int) -> float:
    """0, 1/2, 1/4, 3/4, 1/8, ...: the first 2^m values tile [0, 1) evenly."""
    out, scale = 0.0, 0.5
    while k:
        k, bit = divmod(k, 2)
        out += bit * scale
        scale /= 2.0
    return out


def below_reference(value: float, reference: float) -> bool:
    return value < reference - REFERENCE_RTOL * abs(reference) - REFERENCE_FLOOR


def reevaluation_differs(value: float, recomputed: float) -> bool:
    return abs(value - recomputed) > REEVAL_RTOL * max(1.0, abs(value))


def tail_percentile(samples) -> tuple:
    """(percentile, value, samples beyond it) of the highest order statistic
    that still has ten samples above it, and never below the median."""
    values = sorted(samples)
    n = len(values)
    i = max(n - 11, n // 2)
    return 100.0 * (i + 1) / n, values[i], n - 1 - i


def latency_summary(samples, prefix: str) -> dict:
    pct, tail, beyond = tail_percentile(samples)
    return {
        f"{prefix}_mean_s": float(np.mean(samples)),
        f"{prefix}_p50_s": float(np.median(samples)),
        f"{prefix}_tail_s": tail,
        f"{prefix}_tail_percentile": pct,
        f"{prefix}_tail_beyond": beyond,
        f"{prefix}_samples": len(samples),
    }


def pass_means(records) -> dict:
    """Per unit k: (mean time of each latency part, mean rest, ops) over the
    passes, at reference speed.

    A record's ``latencies`` are its timed parts in a fixed order; the rest is
    the unit's time outside them.  ``speed`` is the probe's mean duration
    during the unit over its reference duration (1 when no probe ran).
    """
    sums = {}
    for r in records:
        scale = 1.0 / r.get("speed", 1.0)
        times = [t * scale for t in r["latencies"]]
        rest = (r["seconds"] - sum(r["latencies"])) * scale
        if r["k"] in sums:
            total, total_rest, _, n = sums[r["k"]]
            times = [a + b for a, b in zip(total, times)]
            rest += total_rest
        else:
            n = 0
        sums[r["k"]] = (times, rest, r["ops"], n + 1)
    return {k: ([t / n for t in times], rest / n, ops) for k, (times, rest, ops, n) in sums.items()}


def pass_seconds(means: dict, keys=None) -> float:
    """Mean time of one pass over the units `keys` (all by default)."""
    keys = means if keys is None else keys
    return sum(sum(means[k][0]) + means[k][1] for k in keys)


def part_latencies(means: dict, keys=None) -> list:
    keys = means if keys is None else keys
    return [t for k in keys for t in means[k][0]]


def threshold_metrics(records, results) -> dict:
    """Throughput and latency of thresholds at reference speed, with the
    objective evaluations behind them (fewer evaluations vs cheaper ones)."""
    means = pass_means(records)
    seconds = sum(r["seconds"] for r in records)
    evaluations = sum(result.diagnostics["function_evaluations"] for result in results)
    out = {
        "thresholds_per_s": sum(ops for _, _, ops in means.values()) / pass_seconds(means),
        "raw_thresholds_per_s": sum(r["ops"] for r in records) / seconds,
        "evaluations": evaluations,
        "evaluations_per_s": evaluations / seconds,
    }
    out.update(latency_summary(part_latencies(means), "threshold"))
    return out


def changed_outputs(first: dict, record: dict, values: tuple) -> bool:
    """Whether a repeat of unit `record["k"]` gave other values than its first pass."""
    return first.setdefault(record["k"], values) != values


def same_points(points, others) -> bool:
    """Equal BoundaryPoint sequences, with NaN (closure corners) equal to NaN."""
    return len(points) == len(others) and all(
        x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
        for a, b in zip(points, others)
        for x, y in zip(a, b)
    )


def threshold_diagnostics(results) -> dict:
    """Start statistics of single- and multimode threshold results."""
    starts = converged = agreeing = hits = 0
    for result in results:
        diag = result.diagnostics
        starts += len(diag["start_values"])
        converged += diag["converged_starts"]
        agreeing += diag["starts_within_1e-6"]
        hits += int(any(diag["boundary_hit"].values()))
    return {
        "threshold.converged_share": converged / starts if starts else 0.0,
        "threshold.agreeing_share": agreeing / starts if starts else 0.0,
        "threshold.boundary_hits": hits,
    }


class ThresholdProbe:
    """Times every single-mode threshold a sweep computes and keeps its result.

    Installed on ``threshold.compute_threshold`` (where ``compute_thresholds``
    looks it up) only for the duration of one sweep call.
    """

    def __init__(self):
        self.records: list = []

    def __enter__(self):
        original = self._original = threshold.compute_threshold
        records = self.records

        def probed(witness_op, n, *args, **kwargs):
            start = speed.clock()
            result = original(witness_op, n, *args, **kwargs)
            records.append((speed.clock() - start, witness_op, n, result))
            return result

        threshold.compute_threshold = probed
        return self

    def __exit__(self, *exc):
        threshold.compute_threshold = self._original
        return False


class Workload:
    """Base: a seeded pass of units plus the checks of their outputs.

    ``unit(k)`` returns a record with ``k``, ``ops`` (operations counted by
    the rate) and ``latencies`` (seconds of each timed part, in a fixed order).
    """

    name = ""
    units_per_pass = 1
    nominal_pass_s = 1.0  # cost of one pass on the reference 2-core box
    # named metrics behind the generic ops_per_s and op_mean_s
    rate_metric = "thresholds_per_s"
    latency_prefix = "threshold"

    def __init__(self, seed: int, api: SimpleNamespace, reference: dict):
        self.seed = seed
        self.api = api
        self.reference = reference.get("workloads", {}).get(self.name, {})
        self.first_outputs: dict = {}

    def warm_up(self) -> None:
        """Fill lazy caches and load LAPACK paths before anything is timed."""

    def unit(self, k: int) -> dict:
        raise NotImplementedError

    def check(self, record: dict) -> tuple:
        """(attempted operations, failed operations, failure notes)."""
        raise NotImplementedError

    def metrics(self, records: list) -> dict:
        raise NotImplementedError

    def layer_metrics(self, records: list) -> dict:
        """Start statistics of the thresholds computed and sweep directions flagged."""
        return {**threshold_diagnostics([]), "boundary.flagged": 0}


class SweepWorkload(Workload):
    """``sweep_family_ranks`` over one full circle of omegas per unit.

    The seed draws a grid offset.  Unit k shifts the grid by the k-th van der
    Corput fraction of a grid step, so the units of a pass together sample the
    circle evenly: the cost of a threshold varies tenfold with omega, and
    random per-unit grids would make the run's cost a draw.

    The optimizer runs under the acceptance tests' SWEEP_CONFIG, its seed
    included.  A drawn optimizer seed moves a sweep-cat unit's objective
    evaluations by about a tenth (22 251 to 27 982 over seeds 1-5, against
    22 922 to 24 674 with the fixed seed), and a run times only a few units,
    so the metrics would measure the draw.
    """

    family: dict = {}
    omegas_per_unit = 1

    def __init__(self, seed, api, reference):
        super().__init__(seed, api, reference)
        self.offset = float(np.random.default_rng(seed).random())
        self.config = threshold.OptimizerConfig(
            starts=SWEEP_STARTS, max_iterations=SWEEP_ITERATIONS, seed=SWEEP_SEED
        )
        self.pinned = self.reference["units"] if seed == self.reference.get("seed") else []

    def unit_inputs(self, k: int):
        shift = (self.offset + van_der_corput(k)) % 1.0
        count = self.omegas_per_unit
        return [2.0 * math.pi * (i + shift) / count for i in range(count)], self.config

    def warm_up(self):
        params = fock_gaussian.GaussianUnitaryParams(r=0.4, alpha=0.3 + 0.2j, vartheta=0.1)
        threshold.objective(boundary.family_witness(self.family, 0.3), RANKS[-1], params)

    def unit(self, k):
        api = self.api
        omegas, config = self.unit_inputs(k)
        with ThresholdProbe() as probe:
            curves = api.sweep_family_ranks(self.family, list(RANKS), omegas, config, threads=1)
        manifest = {
            "family": self.family,
            "ranks": list(RANKS),
            "omegas": omegas,
            "seed": config.seed,
            "config": config.to_json(),
        }
        files = {
            "manifest.json": api.dumps_stable(manifest) + "\n",
            "boundary.csv": api.curves_to_csv(curves),
        }
        for curve in curves:
            files[f"hull_rank_{curve.rank}.json"] = api.dumps_stable(api.hull_to_json(curve)) + "\n"
        return {
            "k": k,
            "omegas": omegas,
            "curves": curves,
            "files": files,
            "thresholds": probe.records,
            "ops": len(probe.records),
            "latencies": [rec[0] for rec in probe.records],
        }

    def thresholds(self, record: dict) -> list:
        """rows[i][r]: (witness, ThresholdResult) at omega i and RANKS[r], or None."""
        by_key = {
            (w.descriptor["omega"], n): (w, result) for _, w, n, result in record["thresholds"]
        }
        return [[by_key.get((omega, n)) for n in RANKS] for omega in record["omegas"]]

    def check(self, record):
        notes = []
        failed = set()
        curves = record["curves"]
        pinned = self.pinned[record["k"]] if record["k"] < len(self.pinned) else None
        for i, row in enumerate(self.thresholds(record)):
            previous = -math.inf
            for r, entry in enumerate(row):
                point = curves[r].points[i]
                if point.flagged or entry is None:
                    failed.add((i, r))
                    notes.append(f"omega {point.omega!r} rank {RANKS[r]} flagged")
                    continue
                w, result = entry
                value = result.value
                if point.threshold != value:
                    failed.add((i, r))
                    notes.append(f"curve threshold {point.threshold!r} != result {value!r}")
                recomputed = threshold.objective(w, RANKS[r], result.params)
                if reevaluation_differs(value, recomputed):
                    failed.add((i, r))
                    notes.append(f"value {value!r} does not reproduce ({recomputed!r})")
                if value < previous - threshold.MONOTONICITY_SLACK:
                    failed.add((i, r))
                    notes.append(f"omega {point.omega!r}: rank {RANKS[r]} below rank {RANKS[r - 1]}")
                previous = value
                if pinned is not None and below_reference(value, pinned[i][r]):
                    failed.add((i, r))
                    notes.append(f"omega {point.omega!r} rank {RANKS[r]}: {value!r} < pinned {pinned[i][r]!r}")
        # a rank whose CSV rows or hull membership do not read back fails all
        # its thresholds (the CSV keeps hull membership, not hull order)
        parsed = boundary.curves_from_csv(record["files"]["boundary.csv"], self.family)
        for r, (curve, back) in enumerate(zip(curves, parsed)):
            if not (same_points(curve.points, back.points) and set(curve.hull) == set(back.hull)):
                failed.update((i, r) for i in range(len(record["omegas"])))
                notes.append(f"rank {curve.rank} does not round-trip through CSV")
        # every pass repeats the same inputs, so it must give the same values
        values = tuple(result.value for *_, result in record["thresholds"])
        if changed_outputs(self.first_outputs, record, values):
            failed.update((i, r) for i in range(len(record["omegas"])) for r in range(len(RANKS)))
            notes.append(f"unit {record['k']} gave other thresholds than in its first pass")
        return len(record["omegas"]) * len(RANKS), len(failed), notes

    @staticmethod
    def results(records) -> list:
        return [rec[3] for r in records for rec in r["thresholds"]]

    def metrics(self, records):
        return threshold_metrics(records, self.results(records))

    def layer_metrics(self, records):
        flagged = sum(p.flagged for r in records for c in r["curves"] for p in c.points)
        return {**threshold_diagnostics(self.results(records)), "boundary.flagged": flagged}


class SweepFock(SweepWorkload):
    name = "sweep-fock"
    family = FOCK02
    omegas_per_unit = 16
    nominal_pass_s = 6.0


class SweepCat(SweepWorkload):
    name = "sweep-cat"
    family = CAT2
    omegas_per_unit = 4
    units_per_pass = 4
    nominal_pass_s = 26.0


class Multimode(Workload):
    """Criterion 8: (0,0) and (0,1) at n=1, the latter with the embedded
    single-mode optimum as a start, plus (1,1) at n=2, under criterion 8's own
    optimizer config; every unit computes this same set.

    The optimizer seed is fixed rather than drawn from the benchmark seed: a
    set's cost moves by about a quarter with it and a run fits about six
    sets, so a drawn seed would make the metrics measure the draw.  In
    exchange the pinned values apply to every run.  Latency is taken per
    threshold, as its mean over the passes.
    """

    name = "multimode"
    nominal_pass_s = 3.8

    def __init__(self, seed, api, reference):
        super().__init__(seed, api, reference)
        self.pinned = self.reference.get("set")
        self.config = threshold.OptimizerConfig(
            starts=MULTIMODE_STARTS, max_iterations=MULTIMODE_ITERATIONS, seed=MULTIMODE_SEED
        )
        self.single_witness = witness.fock_diagonal_witness([0.0, 1.0])
        self.cases = [
            ("vacuum", multimode.multimode_fock_projector((0, 0)), 1),
            ("mixed", multimode.multimode_fock_projector((0, 1)), 1),
            ("pair", multimode.multimode_fock_projector((1, 1)), 2),
        ]

    def warm_up(self):
        params = multimode.MultimodeGaussianParams.from_generator(
            np.zeros((2, 2), dtype=complex), (0.2, 0.1), (0.3, 0.1j)
        )
        multimode.multimode_objective(self.cases[-1][1], 2, params)

    def unit(self, k):
        api = self.api
        config = self.config
        outcomes = []
        latencies = []
        start = speed.clock()
        try:
            single = api.compute_threshold(self.single_witness, 1, config)
        except OptimizerError as err:
            single = err
        latencies.append(speed.clock() - start)
        outcomes.append(("single", self.single_witness, 1, single))
        for label, projector, n in self.cases:
            cfg = config
            if label == "mixed" and not isinstance(single, OptimizerError):
                embedded = np.zeros(10)
                embedded[5] = single.params.r
                embedded[8] = single.params.alpha.real
                embedded[9] = single.params.alpha.imag
                cfg = replace(config, initial_points=(tuple(embedded),))
            start = speed.clock()
            try:
                result = api.multimode_threshold(projector, 2, n, cfg, threads=1)
            except OptimizerError as err:
                result = err
            latencies.append(speed.clock() - start)
            outcomes.append((label, projector, n, result))
        completed = sum(not isinstance(o[3], OptimizerError) for o in outcomes)
        return {"k": k, "outcomes": outcomes, "ops": completed, "latencies": latencies}

    def check(self, record):
        notes = []
        failed = set()
        values = {}
        pinned = self.pinned
        for i, (label, w, n, result) in enumerate(record["outcomes"]):
            if isinstance(result, OptimizerError):
                failed.add(label)
                notes.append(f"{label}: {result}")
                continue
            values[label] = result.value
            if label == "single":
                recomputed = threshold.objective(w, n, result.params)
            else:
                recomputed = multimode.multimode_objective(w, n, result.params)
            if reevaluation_differs(result.value, recomputed):
                failed.add(label)
                notes.append(f"{label}: value {result.value!r} does not reproduce ({recomputed!r})")
            if pinned is not None and below_reference(result.value, pinned[i]):
                failed.add(label)
                notes.append(f"{label}: {result.value!r} < pinned {pinned[i]!r}")
        if "vacuum" in values and abs(values["vacuum"] - 1.0) > 1e-5:
            failed.add("vacuum")
            notes.append(f"two-mode vacuum threshold {values['vacuum']!r} is not 1")
        if "mixed" in values and "single" in values and values["mixed"] < values["single"] - 1e-6:
            failed.add("mixed")
            notes.append("|0,1> threshold below the single-mode threshold")
        outputs = tuple(values.get(label) for label, *_ in record["outcomes"])
        if changed_outputs(self.first_outputs, record, outputs):
            failed.update(label for label, *_ in record["outcomes"])
            notes.append(f"unit {record['k']} gave other thresholds than in its first pass")
        return len(record["outcomes"]), len(failed), notes

    @staticmethod
    def results(records) -> list:
        return [
            o[3] for r in records for o in r["outcomes"] if not isinstance(o[3], OptimizerError)
        ]

    def metrics(self, records):
        return threshold_metrics(records, self.results(records))

    def layer_metrics(self, records):
        return {**threshold_diagnostics(self.results(records)), "boundary.flagged": 0}


def numpy_separation(curves, X: np.ndarray) -> np.ndarray:
    """max over swept omega of cos(w) x + sin(w) y - W(w); shape (pairs, curves)."""
    out = np.empty((X.shape[0], len(curves)))
    for j, curve in enumerate(curves):
        rows = np.array(
            [(p.omega, p.threshold) for p in curve.points if not (p.flagged or p.is_corner)]
        )
        values = X[:, :1] * np.cos(rows[:, 0]) + X[:, 1:] * np.sin(rows[:, 0]) - rows[:, 1]
        out[:, j] = values.max(axis=1)
    return out


def certified_ranks(curves, separations: np.ndarray, margin: float) -> np.ndarray:
    ranks = np.array([c.rank for c in curves])
    hit = separations > margin
    return np.where(hit.any(axis=1), np.max(np.where(hit, ranks, 0), axis=1), 0)


class Certify(Workload):
    """Certify seeded pairs against the committed 3-rank x 256-omega curves.

    Units cycle through three kinds: ``predict`` on a batch, ``decision_function``
    on a batch, and single CLI-style certifications that re-read the curve
    files, then run ``certify_pair`` and ``tangent_witness``.  A pass holds
    three of each, on distinct pairs.
    """

    name = "certify"
    rate_metric = "pairs_per_s"
    latency_prefix = "certify"
    units_per_pass = 9
    nominal_pass_s = 4.5
    batch = 500
    singles = 120

    def __init__(self, seed, api, reference):
        super().__init__(seed, api, reference)
        self.manifest_path = os.path.join(CERTIFY_DIR, "manifest.json")
        self.csv_path = os.path.join(CERTIFY_DIR, "boundary.csv")
        manifest, curves = self.load_curves()
        self.family = manifest["family"]
        self.curves = curves
        self.certifier = estimator.StellarRankCertifier(
            family="fock_pair", j=self.family["j"], k=self.family["k"],
            max_rank=len(curves), margin=MARGIN,
        )
        # fitted state taken from the committed curves instead of a sweep
        self.certifier.family_ = self.family
        self.certifier.curves_ = curves
        u = np.random.default_rng(seed).random((PAIR_POOL, 2))
        folded = u.sum(axis=1) > 1.0
        u[folded] = 1.0 - u[folded]
        self.pairs = u

    def load_curves(self):
        with open(self.manifest_path) as handle:
            manifest = json.load(handle)
        with open(self.csv_path) as handle:
            text = handle.read()
        return manifest, self.api.curves_from_csv(text, manifest["family"])

    def chunk(self, c: int, size: int) -> np.ndarray:
        return self.pairs.take(range(c * size, (c + 1) * size), axis=0, mode="wrap")

    def warm_up(self):
        self.certifier.predict(self.pairs[:4])
        self.certifier.decision_function(self.pairs[:4])

    def unit(self, k):
        kind = ("predict", "score", "single")[k % 3]
        c = k // 3
        if kind == "predict":
            X = self.chunk(c, self.batch)
            out = self.certifier.predict(X)
            return {"k": k, "kind": kind, "X": X, "out": out, "ops": len(X), "latencies": []}
        if kind == "score":
            X = self.chunk(c, self.batch)
            out = self.certifier.decision_function(X)
            return {"k": k, "kind": kind, "X": X, "out": out, "ops": len(X), "latencies": []}
        X = self.chunk(c, self.singles)
        api = self.api
        out = []
        latencies = []
        for x, y in X:
            start = speed.clock()
            _manifest, curves = self.load_curves()
            rank = api.certify_pair((x, y), curves, MARGIN)
            tangent = None
            if rank > 0:
                curve = next(cv for cv in curves if cv.rank == rank)
                tangent = api.tangent_witness(curve, (x, y), margin=MARGIN)
            latencies.append(speed.clock() - start)
            out.append((rank, tangent))
        return {"k": k, "kind": kind, "X": X, "out": out, "ops": 0, "latencies": latencies}

    def check(self, record):
        X = record["X"]
        sep = numpy_separation(self.curves, X)
        expected = certified_ranks(self.curves, sep, MARGIN)
        kind = record["kind"]
        if kind == "predict":
            bad = np.flatnonzero(np.asarray(record["out"]) != expected)
        elif kind == "score":
            bad = np.flatnonzero(np.any(np.abs(np.asarray(record["out"]) - sep) > SCORE_ATOL, axis=1))
        else:
            bad = []
            for i, (rank, tangent) in enumerate(record["out"]):
                if rank != expected[i]:
                    bad.append(i)
                elif tangent is not None:
                    omega, threshold_value = tangent
                    curve = self.curves[rank - 1]
                    stored = {p.omega: p.threshold for p in curve.points if not p.is_corner}
                    achieved = math.cos(omega) * X[i, 0] + math.sin(omega) * X[i, 1] - threshold_value
                    if stored.get(omega) != threshold_value or achieved < sep[i, rank - 1] - SCORE_ATOL:
                        bad.append(i)
        notes = [f"{kind}: pair {X[i].tolist()} disagrees with the numpy separation" for i in bad[:5]]
        return len(X), len(bad), notes

    def metrics(self, records):
        means = pass_means(records)
        kinds = {r["k"]: r["kind"] for r in records}

        def rate(*chosen):
            keys = [k for k in means if kinds[k] in chosen]
            return sum(means[k][2] for k in keys) / pass_seconds(means, keys)

        batched = [r for r in records if r["kind"] != "single"]
        out = {
            "pairs_per_s": rate("predict", "score"),
            "raw_pairs_per_s": sum(r["ops"] for r in batched) / sum(r["seconds"] for r in batched),
            "certified_pairs_per_s": rate("predict"),
            "scored_pairs_per_s": rate("score"),
        }
        out.update(latency_summary(part_latencies(means), "certify"))
        return out


class Validate(Workload):
    """``run_suites("all")`` at the CLI's default suite seed.

    The suite seed is fixed: the elements suite draws its parameters from it
    and their oracle cost is heavy-tailed (5-9 s per call across seeds), while a
    run fits two or three calls, so a seeded suite seed would make ``validate_s``
    measure the draw rather than the program.
    """

    name = "validate"
    rate_metric = "validate_calls_per_s"
    latency_prefix = "validate"
    nominal_pass_s = 8.5

    def warm_up(self):
        params = fock_gaussian.GaussianUnitaryParams(r=0.3, alpha=0.5)
        fock_gaussian.oracle_columns(params, 3, range(4))

    def unit(self, k):
        start = speed.clock()
        report = self.api.run_suites("all", SUITE_SEED)
        return {"k": k, "report": report, "ops": 1, "latencies": [speed.clock() - start]}

    def check(self, record):
        suites = record["report"]["suites"]
        failing = [name for name, entry in suites.items() if not entry["pass"]]
        return len(suites), len(failing), [f"suite {name} failed" for name in failing]

    def metrics(self, records):
        means = pass_means(records)
        latencies = part_latencies(means)
        out = {
            "validate_s": float(np.median(latencies)),
            "validate_calls_per_s": len(means) / pass_seconds(means),
            "raw_validate_calls_per_s": len(records) / sum(r["seconds"] for r in records),
        }
        out.update(latency_summary(latencies, "validate"))
        return out


WORKLOADS = {w.name: w for w in (SweepFock, SweepCat, Certify, Multimode, Validate)}


def trace_targets(api: SimpleNamespace) -> list:
    """(namespace, name, span name, counter) for every wrapped call site."""
    fg, wt, th, mm, bd, va = fock_gaussian, witness, threshold, multimode, boundary, validation
    es = estimator.StellarRankCertifier

    def elements(args):
        return {"elements": args[1] * len(args[2])}

    columns = "fock_gaussian.block_columns"
    return [
        (fg, "block_columns", columns, elements),
        (wt, "block_columns", columns, elements),
        (mm, "block_columns", columns, elements),
        (wt, "transform_coherent", "fock_gaussian.transform_coherent", None),
        (va, "gaussian_block", "fock_gaussian.gaussian_block", None),
        (va, "oracle_columns", "fock_gaussian.oracle_columns", None),
        (wt, "conjugated_term_vectors", "witness.conjugated_term_vectors", None),
        (bd, "conjugated_term_vectors", "witness.conjugated_term_vectors", None),
        (th, "compress_conjugated", "witness.compress_conjugated", None),
        (th, "objective", "threshold.objective", None),
        (th, "compute_threshold", "threshold.compute_threshold", None),
        (api, "compute_threshold", "threshold.compute_threshold", None),
        (bd, "compute_thresholds", "threshold.compute_thresholds", None),
        (th, "hermitian_spectrum", "numerics.hermitian_spectrum", None),
        (mm, "hermitian_spectrum", "numerics.hermitian_spectrum", None),
        (mm, "matrix_exponential", "numerics.matrix_exponential", None),
        (mm, "compress_conjugated_multimode", "multimode.compress_conjugated_multimode", None),
        (mm, "multimode_objective", "multimode.multimode_objective", None),
        (api, "multimode_threshold", "multimode.multimode_threshold", None),
        (api, "sweep_family_ranks", "boundary.sweep_family_ranks", None),
        (bd, "gift_wrap", "boundary.gift_wrap", None),
        (va, "gift_wrap", "boundary.gift_wrap", None),
        (es, "predict", "estimator.predict", None),
        (es, "decision_function", "estimator.decision_function", None),
        (estimator, "certify_pair", "boundary.certify_pair", None),
        (api, "certify_pair", "boundary.certify_pair", None),
        (api, "tangent_witness", "boundary.tangent_witness", None),
        (api, "curves_to_csv", "boundary.curves_to_csv", None),
        (api, "hull_to_json", "boundary.hull_to_json", None),
        (api, "curves_from_csv", "boundary.curves_from_csv", None),
        (api, "dumps_stable", "util.dumps_stable", None),
        (va.SUITES, "elements", "validation.elements_suite", None),
        (va.SUITES, "states", "validation.states_suite", None),
        (va.SUITES, "hull", "validation.hull_suite", None),
        (api, "run_suites", "validation.run_suites", None),
    ]
