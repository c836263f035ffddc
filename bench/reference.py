"""Pinned reference thresholds and the certify fixture of the benchmark.

    python3 bench/reference.py          # regenerate bench/data/ (about 6 min on one core)
    python3 bench/reference.py --check  # recompute; exit 1 if a threshold fell below its pin

``bench/data/reference_thresholds.json`` holds

* the sweep-fock and sweep-cat thresholds of units ``0 .. REFERENCE_UNITS-1``
  at the benchmark's default seed, and the multimode workload's set (the same
  at every seed), which the benchmark checks its outputs against;
* the acceptance sweep: 3 families x 64 omegas x ranks 1-3 under the
  acceptance ``SWEEP_CONFIG``;
* the optimizer values of acceptance criteria 2, 3, 6 and 7.

``bench/data/certify/`` holds the Fock (0,2) curves of ranks 1-3 over 256
omegas under ``SWEEP_CONFIG``, in the CLI's curve-directory layout
(``manifest.json`` + ``boundary.csv``), which the certify workload loads.

A threshold "falls below its pin" when it is lower by more than one part in
1e9 (the reference rule of the roadmap).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import stellarwitness as sw  # noqa: E402
from stellarwitness import _util, boundary  # noqa: E402
from workloads import (  # noqa: E402
    CAT2,
    CERTIFY_DIR,
    DEFAULT_SEED,
    FOCK02,
    RANKS,
    REFERENCE_PATH,
    SWEEP_ITERATIONS,
    SWEEP_SEED,
    SWEEP_STARTS,
    WORKLOADS,
    below_reference,
    public_api,
)

REFERENCE_UNITS = {"sweep-fock": 8, "sweep-cat": 8}
ACCEPTANCE_OMEGAS = 64
CERTIFY_OMEGAS = 256
ACCEPTANCE_FAMILIES = {
    "fock02": FOCK02,
    "fock12": {"type": "fock_pair", "j": 1, "k": 2},
    "cat2": CAT2,
}


def sweep_config() -> sw.OptimizerConfig:
    return sw.OptimizerConfig(starts=SWEEP_STARTS, max_iterations=SWEEP_ITERATIONS, seed=SWEEP_SEED)


def grid(count: int) -> list:
    return [2.0 * math.pi * i / count for i in range(count)]


def sweep_thresholds(family: dict, omegas: list) -> list:
    curves = boundary.sweep_family_ranks(family, list(RANKS), omegas, sweep_config(), threads=1)
    if any(p.flagged for c in curves for p in c.points):
        raise RuntimeError(f"flagged direction in the {family} reference sweep")
    return [[c.points[i].threshold for c in curves] for i in range(len(omegas))]


def workload_units(name: str) -> dict:
    workload = WORKLOADS[name](DEFAULT_SEED, public_api(), {})
    units = []
    for k in range(REFERENCE_UNITS[name]):
        record = workload.unit(k)
        units.append([[entry[1].value for entry in row] for row in workload.thresholds(record)])
    return {"seed": DEFAULT_SEED, "units": units}


def multimode_set() -> dict:
    """The multimode workload's thresholds (single-mode, (0,0), (0,1), (1,1))."""
    record = WORKLOADS["multimode"](DEFAULT_SEED, public_api(), {}).unit(0)
    return {"set": [outcome[3].value for outcome in record["outcomes"]]}


def criteria() -> dict:
    """Optimizer values of acceptance criteria 2, 3, 6 and 7, as the tests compute them."""
    default = sw.OptimizerConfig()
    trivial = [
        sw.compute_threshold(sw.fock_diagonal_witness(weights), rank, default).value
        for weights, rank in (([1.0], 1), ([0.0, 0.0, 1.0], 3))
    ]
    single_photon = sw.compute_threshold(sw.fock_diagonal_witness([0.0, 1.0]), 1, default).value

    config6 = sw.OptimizerConfig(starts=16, max_iterations=400, seed=61)
    omegas6 = [0.0, 0.6, math.pi / 4, 1.2, math.pi / 2, 2.5, 4.0]
    cat = [sw.compute_threshold(sw.cat_pair_witness(0.01, w), 1, config6).value for w in omegas6]
    fock = [sw.compute_threshold(sw.fock_pair_witness(1, 0, w), 1, config6).value for w in omegas6]

    witness = sw.fock_pair_witness(0, 2, 0.7)
    config7 = sw.OptimizerConfig(starts=16, max_iterations=400, seed=13)
    base = [sw.compute_threshold(witness, n, config7).value for n in (1, 2)]
    rng = np.random.default_rng(321)
    moved = []
    for _ in range(10):
        conjugator = sw.GaussianUnitaryParams(
            theta=rng.uniform(0, 2 * math.pi),
            vartheta=rng.uniform(0, 2 * math.pi),
            r=rng.uniform(0.0, 0.4),
            alpha=complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)),
        )
        conjugated = sw.conjugate_witness(witness, conjugator, 32)
        moved.append([sw.compute_threshold(conjugated, n, config7).value for n in (1, 2)])
    return {
        "2": trivial,
        "3": single_photon,
        "6": {"omegas": omegas6, "cat_pair_0.01": cat, "fock_pair_1_0": fock},
        "7": {"base": base, "conjugated": moved},
    }


def reference_set() -> dict:
    config = sweep_config()
    return {
        "generator": "python3 bench/reference.py",
        "workloads": {
            **{name: workload_units(name) for name in REFERENCE_UNITS},
            "multimode": multimode_set(),
        },
        "acceptance_sweep": {
            "config": config.to_json(),
            "seed": config.seed,
            "omegas": ACCEPTANCE_OMEGAS,
            "ranks": list(RANKS),
            "families": {
                name: {"family": family, "thresholds": sweep_thresholds(family, grid(ACCEPTANCE_OMEGAS))}
                for name, family in ACCEPTANCE_FAMILIES.items()
            },
        },
        "criteria": criteria(),
    }


def certify_fixture() -> dict:
    config = sweep_config()
    curves = boundary.sweep_family_ranks(FOCK02, list(RANKS), grid(CERTIFY_OMEGAS), config, threads=1)
    manifest = {
        "family": FOCK02,
        "ranks": list(RANKS),
        "omegas": CERTIFY_OMEGAS,
        "seed": config.seed,
        "config": config.to_json(),
    }
    return {
        "manifest.json": _util.dumps_stable(manifest) + "\n",
        "boundary.csv": boundary.curves_to_csv(curves),
    }


def numbers(obj, path=""):
    """(path, value) for every float leaf of a nested reference object."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from numbers(value, f"{path}/{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from numbers(value, f"{path}/{i}")
    elif isinstance(obj, float):
        yield path, obj


def fixture_thresholds(files: dict) -> list:
    curves = boundary.curves_from_csv(files["boundary.csv"], FOCK02)
    return [[p.threshold for p in c.points if not p.is_corner] for c in curves]


def check() -> int:
    with open(REFERENCE_PATH) as handle:
        stored = json.load(handle)
    stored_files = {}
    for name in ("manifest.json", "boundary.csv"):
        with open(os.path.join(CERTIFY_DIR, name)) as handle:
            stored_files[name] = handle.read()
    fresh = reference_set()
    fresh_files = certify_fixture()
    pinned = dict(numbers(stored))
    pinned.update(numbers({"certify": fixture_thresholds(stored_files)}))
    now = dict(numbers(fresh))
    now.update(numbers({"certify": fixture_thresholds(fresh_files)}))
    drops = [(k, now[k], v) for k, v in pinned.items() if k in now and below_reference(now[k], v)]
    missing = sorted(set(pinned) - set(now))
    changed = sum(now.get(k) != v for k, v in pinned.items())
    print(f"{len(pinned)} pinned values: {changed} changed, {len(drops)} dropped, {len(missing)} missing")
    for key, value, pin in drops[:50]:
        print(f"DROP {key}: {value!r} < {pin!r}")
    for key in missing[:50]:
        print(f"MISSING {key}")
    return 1 if drops or missing else 0


def write() -> int:
    reference = reference_set()
    os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    os.makedirs(CERTIFY_DIR, exist_ok=True)
    for name, text in certify_fixture().items():
        with open(os.path.join(CERTIFY_DIR, name), "w") as handle:
            handle.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Generate or check the pinned reference set.")
    parser.add_argument("--check", action="store_true",
                        help="recompute and compare instead of writing")
    args = parser.parse_args(argv)
    return check() if args.check else write()


if __name__ == "__main__":
    sys.exit(main())
