"""Acceptance gate: one test per shipped criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; the expensive boundary sweeps are computed once and shared across the
criteria that consume them.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import stellarwitness as sw
from stellarwitness.boundary import (
    certify_pairs,
    curves_from_csv,
    curves_to_csv,
    hull_to_json,
    separations,
    tangent_witness,
)
from stellarwitness.cli import _boundary_outputs
from stellarwitness.fock_gaussian import oracle_columns
from stellarwitness.states import lossy_cat_mixing_probability
from stellarwitness.threshold import result_to_json
from stellarwitness.validation import states_suite
from stellarwitness._util import dumps_stable

SWEEP_SEED = 202
SWEEP_CONFIG = sw.OptimizerConfig(starts=12, max_iterations=350, seed=SWEEP_SEED)
OMEGA_COUNT = 64
RANKS = [1, 2, 3]
FAMILIES = {
    "fock02": {"type": "fock_pair", "j": 0, "k": 2},
    "fock12": {"type": "fock_pair", "j": 1, "k": 2},
    "cat2": {"type": "cat_pair", "beta": [2.0, 0.0]},
}
MARGIN = 1e-4


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def family_sweeps():
    """Boundary sweep output files by family, and the sweeps' wall time."""
    start = time.monotonic()
    files = {
        name: _boundary_outputs(family, RANKS, OMEGA_COUNT, SWEEP_CONFIG)
        for name, family in FAMILIES.items()
    }
    return files, time.monotonic() - start


def curves_for(family_sweeps, name):
    files, _ = family_sweeps
    return curves_from_csv(files[name]["boundary.csv"], FAMILIES[name])


def test_criterion_01_oracle_equivalence():
    """100 seeded tuples: analytic 10x10 blocks vs exponential oracle, 1e-8."""
    start = time.monotonic()
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(0.0, 2.0)
        alpha = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(alpha) > 4.0:
            alpha *= 4.0 / abs(alpha)
        params = sw.GaussianUnitaryParams(
            theta=rng.uniform(0, 2 * math.pi),
            vartheta=rng.uniform(0, 2 * math.pi),
            r=r,
            alpha=alpha,
        )
        analytic = sw.gaussian_block(params, 9, 9)
        oracle = oracle_columns(params, 9, range(10))
        worst = max(worst, float(np.max(np.abs(analytic - oracle))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-8, f"worst entry deviation {worst:.3e}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report("criterion 1", f"max |analytic - oracle| = {worst:.3e} in {elapsed:.1f}s")


def test_criterion_02_trivial_thresholds():
    """|0><0| at n=1 and |2><2| at n=3 both give 1.0 with the default config."""
    for weights, rank in (([1.0], 1), ([0.0, 0.0, 1.0], 3)):
        witness = sw.fock_diagonal_witness(weights)
        start = time.monotonic()
        result = sw.compute_threshold(witness, rank, sw.OptimizerConfig())
        elapsed = time.monotonic() - start
        assert abs(result.value - 1.0) <= 1e-6, f"value {result.value}"
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    report("criterion 2", "both trivial thresholds equal 1.0 +- 1e-6 under 10s each")


def grid_oracle_single_photon():
    """Dense grid of |<1|D(a)S(r)|0>|^2 over r and complex a (independent
    closed form; phase invariance of the witness lets theta and vartheta drop)."""
    best = 0.0
    res = np.arange(-3.0, 3.0 + 1e-12, 0.01)
    re, im = np.meshgrid(res, res, indexing="ij")
    a = re + 1j * im
    ac2 = np.conj(a) ** 2
    for r in np.arange(0.0, 3.0 + 1e-12, 0.01):
        mu, nu = math.cosh(r), math.sinh(r)
        envelope = np.exp(-np.abs(a) ** 2 + (nu / mu) * ac2.real)
        value = envelope * np.abs(mu * a - nu * np.conj(a)) ** 2 / mu**3
        best = max(best, float(value.max()))
    return best


def test_criterion_03_grid_oracle_threshold():
    """Optimizer threshold of |1><1| at n=1 matches a dense grid search."""
    start = time.monotonic()
    grid_value = grid_oracle_single_photon()
    grid_elapsed = time.monotonic() - start
    witness = sw.fock_diagonal_witness([0.0, 1.0])
    start = time.monotonic()
    result = sw.compute_threshold(witness, 1, sw.OptimizerConfig())
    opt_elapsed = time.monotonic() - start
    assert abs(result.value - grid_value) <= 1e-4, (
        f"optimizer {result.value} vs grid {grid_value}"
    )
    assert grid_elapsed < 300.0 and opt_elapsed < 10.0
    report(
        "criterion 3",
        f"optimizer {result.value:.6f} vs grid {grid_value:.6f} "
        f"(grid {grid_elapsed:.0f}s, optimizer {opt_elapsed:.1f}s)",
    )


def test_criterion_04_monotonicity_and_nesting(family_sweeps):
    """W_1 <= W_2 <= W_3 across the omega grid; per-rank regions nested."""
    for name in FAMILIES:
        curves = curves_for(family_sweeps, name)
        assert [c.rank for c in curves] == RANKS
        by_rank = {c.rank: c for c in curves}
        for low, high in ((1, 2), (2, 3)):
            for p_low, p_high in zip(by_rank[low].points, by_rank[high].points):
                if p_low.is_corner:
                    continue
                assert p_low.threshold <= p_high.threshold + 1e-7, (
                    f"{name}: W_{low}({p_low.omega}) > W_{high}"
                )
            # region nesting: every lower-rank hull vertex satisfies the
            # higher rank's support inequalities
            sep, _, _ = separations([by_rank[high]], by_rank[low].hull_vertices())
            assert (sep <= 1e-6).all()
    _, total = family_sweeps
    assert total < 1200.0, f"sweeps took {total:.0f}s, over 20min"
    report(
        "criterion 4",
        f"thresholds monotone and regions nested for {len(FAMILIES)} families "
        f"x {OMEGA_COUNT} omegas (all sweeps {total:.0f}s)",
    )


def test_criterion_05_cat_anchor_points(family_sweeps):
    """Coherent point is never certified; the pure even cat certifies at all
    computed ranks; the lossless cat mixture is exactly pure."""
    curves = curves_for(family_sweeps, "cat2")
    n_minus = 1.0 - math.exp(-8.0)
    n_plus = 1.0 + math.exp(-8.0)
    coherent_pair = (n_minus / 2.0, n_plus / 2.0)  # (p_-, p_+) of |beta=2>
    assert sw.certify_pair(coherent_pair, curves, MARGIN) == 0
    even_cat_pair = (0.0, 1.0)
    assert sw.certify_pair(even_cat_pair, curves, MARGIN) == 3
    for curve in curves:
        omega, threshold = tangent_witness(curve, even_cat_pair, margin=MARGIN)
        assert math.sin(omega) > threshold + MARGIN
    assert lossy_cat_mixing_probability(2.0, 1.0) == 1.0
    report(
        "criterion 5",
        f"coherent pair {coherent_pair} uncertified; even cat certified at "
        f"ranks 1..3; p+ at t=1 is exactly 1",
    )


def test_attained_pairs_never_certify_their_own_rank(family_sweeps):
    """Every swept pair is attained by a state of rank below its curve's, so
    certifying it at that rank would be wrong; the cat pins of the worked case
    (omega index 30) and of omega index 29 at rank 1 hold."""
    for name in FAMILIES:
        curves = curves_for(family_sweeps, name)
        for curve in curves:
            pairs = [(p.p_first, p.p_second) for p in curve.points if not (p.flagged or p.is_corner)]
            ranks, _, _ = certify_pairs(pairs, curves, MARGIN)
            assert int(np.sum(ranks >= curve.rank)) == 0, f"{name} rank {curve.rank}"
    rank_one = curves_for(family_sweeps, "cat2")[0].points
    assert rank_one[30].threshold >= 0.11465
    assert rank_one[29].threshold >= 0.076283
    report("soundness", "no attained pair certifies at or above its own rank")


def test_boundary_files_round_trip(family_sweeps):
    """Each family's boundary.csv is written back byte for byte from the
    curves read from it, and their hulls hold the hull files' vertices (the
    CSV marks hull membership, not the counterclockwise order)."""
    files, _ = family_sweeps
    for name in FAMILIES:
        curves = curves_for(family_sweeps, name)
        assert curves_to_csv(curves) == files[name]["boundary.csv"], name
        for curve in curves:
            stored = json.loads(files[name][f"hull_rank_{curve.rank}.json"])
            assert sorted(map(tuple, hull_to_json(curve)["vertices"])) == sorted(
                map(tuple, stored["vertices"])
            ), f"{name} rank {curve.rank}"
    report("round trip", f"{len(FAMILIES)} boundary CSVs written back byte-identical")


def test_criterion_06_small_beta_reduction():
    """cat_pair thresholds at beta=0.01 reduce to the (|1>,|0>) Fock family."""
    config = sw.OptimizerConfig(starts=16, max_iterations=400, seed=61)
    worst = 0.0
    for omega in (0.0, 0.6, math.pi / 4, 1.2, math.pi / 2, 2.5, 4.0):
        cat_value = sw.compute_threshold(sw.cat_pair_witness(0.01, omega), 1, config).value
        fock_value = sw.compute_threshold(sw.fock_pair_witness(1, 0, omega), 1, config).value
        worst = max(worst, abs(cat_value - fock_value))
    assert worst <= 1e-3, f"worst deviation {worst:.2e}"
    report("criterion 6", f"max |cat(0.01) - fock(1,0)| threshold gap = {worst:.2e}")


def test_criterion_07_gaussian_covariance():
    """Conjugating the witness by a Gaussian unitary leaves thresholds fixed."""
    witness = sw.fock_pair_witness(0, 2, 0.7)
    config = sw.OptimizerConfig(starts=16, max_iterations=400, seed=13)
    base = {n: sw.compute_threshold(witness, n, config).value for n in (1, 2)}
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(10):
        conjugator = sw.GaussianUnitaryParams(
            theta=rng.uniform(0, 2 * math.pi),
            vartheta=rng.uniform(0, 2 * math.pi),
            r=rng.uniform(0.0, 0.4),
            alpha=complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)),
        )
        moved = sw.conjugate_witness(witness, conjugator, 32)
        for n in (1, 2):
            value = sw.compute_threshold(moved, n, config).value
            worst = max(worst, abs(value - base[n]))
    assert worst <= 2e-5, f"worst covariance deviation {worst:.2e}"
    report("criterion 7", f"max threshold shift over 10 conjugations = {worst:.2e}")


def test_criterion_08_multimode_reduction():
    """Two-mode vacuum threshold is 1; |0,1> dominates the single-mode bound."""
    start = time.monotonic()
    config = sw.OptimizerConfig(starts=16, max_iterations=400, seed=23)
    vacuum = sw.multimode_threshold(sw.multimode_fock_projector((0, 0)), 2, 1, config)
    assert abs(vacuum.value - 1.0) <= 1e-5
    single = sw.compute_threshold(sw.fock_diagonal_witness([0.0, 1.0]), 1, config)
    embedded = np.zeros(10)
    embedded[5] = single.params.r
    embedded[8] = single.params.alpha.real
    embedded[9] = single.params.alpha.imag
    seeded = sw.OptimizerConfig(
        starts=16, max_iterations=400, seed=23, initial_points=(tuple(embedded),)
    )
    mixed = sw.multimode_threshold(sw.multimode_fock_projector((0, 1)), 2, 1, seeded)
    assert mixed.value >= single.value - 1e-6, (
        f"multimode {mixed.value} below single-mode {single.value}"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5min"
    report(
        "criterion 8",
        f"vacuum={vacuum.value:.8f}, |0,1>={mixed.value:.6f} >= "
        f"single-mode {single.value:.6f} ({elapsed:.0f}s)",
    )


def test_criterion_09_states_identities():
    """Thermal-overlap form of q0 and click-pattern completeness."""
    suite = states_suite(seed=703, trials=50)
    assert suite["q0_identity_residual"] <= 1e-8
    assert suite["click_sum_residual"] <= 1e-9
    report(
        "criterion 9",
        f"q0 identity residual {suite['q0_identity_residual']:.2e}, "
        f"click sums residual {suite['click_sum_residual']:.2e}",
    )


def run_cli(*args) -> None:
    """`stellarwitness ARGS` in a fresh interpreter on this checkout's package."""
    env = dict(os.environ)
    source = str(Path(sw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "stellarwitness.cli", *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_criterion_10_determinism_across_interpreters(family_sweeps, tmp_path):
    """Criteria 2-4 workloads emit byte-identical files in a fresh interpreter."""
    compared = 0
    for weights, rank in (([1.0], 1), ([0.0, 0.0, 1.0], 3), ([0.0, 1.0], 1)):
        witness = sw.fock_diagonal_witness(weights)
        result = sw.compute_threshold(witness, rank, sw.OptimizerConfig())
        text = dumps_stable(result_to_json(witness, result)) + "\n"
        source, out = tmp_path / "witness.json", tmp_path / "threshold.json"
        source.write_text(dumps_stable({"type": "fock_diagonal", "weights": weights}) + "\n")
        run_cli("threshold", str(source), "--rank", str(rank), "--out", str(out))
        assert out.read_text() == text, f"threshold of {weights} at rank {rank}"
        compared += len(text)
    fock02 = FAMILIES["fock02"]
    run_cli(
        "boundary", "--family", fock02["type"], "--j", str(fock02["j"]), "--k", str(fock02["k"]),
        "--omegas", str(OMEGA_COUNT), "--starts", str(SWEEP_CONFIG.starts),
        "--max-iterations", str(SWEEP_CONFIG.max_iterations), "--seed", str(SWEEP_SEED),
        "--out", str(tmp_path / "fock02"),
    )
    files, _ = family_sweeps
    assert sorted(p.name for p in (tmp_path / "fock02").iterdir()) == sorted(files["fock02"])
    for fname, text in files["fock02"].items():
        assert (tmp_path / "fock02" / fname).read_bytes() == text.encode(), f"fock02/{fname}"
        compared += len(text)
    report(
        "criterion 10",
        f"{compared} output bytes identical across interpreters",
    )
