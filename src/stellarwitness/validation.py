"""Self-check suites behind the CLI `validate` subcommand.

Each suite compares an analytic code path against an independent route
(matrix-exponential oracle, closed-form identities, brute-force hulls) and
reports the worst deviation against its tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .boundary import gift_wrap
from .errors import TailBoundError
from .fock_gaussian import (
    GaussianUnitaryParams,
    _displacement_dimension,
    _squeeze_dimension,
    gaussian_block,
    oracle_columns,
)
from .states import click_statistics, q0_after_loss, thermal

ELEMENTS_TOL = 1e-8
Q0_TOL = 1e-8
CLICK_TOL = 1e-9
#: side of the square blocks the elements suite compares with the oracle
ELEMENTS_BLOCK_SIDE = 8
#: random point sets the hull suite compares with the brute-force hull
HULL_SETS = 30

#: largest side of a block of more than one column that `stellarwitness
#: gaussian-elements` prints without comparing it with the oracle: over r <=
#: 1 and |alpha| <= 15, blocks of up to 32 x 32 agree with it to 3e-10, 40 x
#: 40 ones only to 2e-8, and 60 rows of 16 columns to 3e-8 (r = 0, |alpha| =
#: 6).  The accuracy is lost in the recurrence's steps in m, which a single
#: column does not take.
CHECKED_BLOCK_SIDE = 32

#: largest oracle dimension :func:`block_deviation` runs: about 12 s for 33
#: columns at r = 2.3 (2 vCPUs, one BLAS thread), where 2**15 took minutes.
CHECKED_BLOCK_MAX_DIM = 2**13


def block_deviation(params: GaussianUnitaryParams, block: np.ndarray) -> float:
    """Largest |entry - oracle| of a block <k|U|m>, k < rows, m < columns.

    Both oracle stages run at one dimension that holds the rows' widened
    support and the columns' squeezed one: with its default growth the
    squeezed chains can end where the displaced rows still read them (off
    by 1e-7 at 33 x 33, r = 0.3, |alpha| = 6).  The dimension grows by 1.5
    until both stages pass their tail checks; past CHECKED_BLOCK_MAX_DIM it
    raises TailBoundError.
    """
    rows, cols = block.shape
    dim = _displacement_dimension(_squeeze_dimension(params.r, cols - 1) + rows, params.alpha)
    while dim <= CHECKED_BLOCK_MAX_DIM:
        try:
            oracle = oracle_columns(params, rows - 1, range(cols), dim=dim)
        except TailBoundError:
            dim = math.ceil(1.5 * dim)
            continue
        return float(np.abs(block - oracle).max())
    raise TailBoundError(f"the oracle would need more than {CHECKED_BLOCK_MAX_DIM} states", math.inf)


def _worse(value, worst: float) -> bool:
    """Whether `value` replaces the worst deviation so far: it is larger, or
    it is the first non-finite one, which no later value replaces (a NaN
    compares False both ways, so `value > worst` would let it pass)."""
    return math.isfinite(worst) and not value <= worst


def _random_params(rng) -> GaussianUnitaryParams:
    r = rng.uniform(0.0, 2.0)
    alpha = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
    if abs(alpha) > 4.0:
        alpha *= 4.0 / abs(alpha)
    return GaussianUnitaryParams(
        theta=rng.uniform(0, 2 * math.pi),
        vartheta=rng.uniform(0, 2 * math.pi),
        r=r,
        alpha=alpha,
    )


def elements_suite(seed: int = 703, tuples: int = 25) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
    side = ELEMENTS_BLOCK_SIDE
    for _ in range(tuples):
        params = _random_params(rng)
        analytic = gaussian_block(params, side - 1, side - 1)
        oracle = oracle_columns(params, side - 1, range(side))
        dev = np.abs(analytic - oracle)
        k, m = np.unravel_index(int(np.argmax(dev)), dev.shape)
        if _worse(dev[k, m], worst):
            worst = float(dev[k, m])
            worst_case = {"params": params.to_json(), "k": int(k), "m": int(m)}
    return {
        "max_deviation": worst,
        "tolerance": ELEMENTS_TOL,
        "pass": bool(worst <= ELEMENTS_TOL),
        "worst_case": worst_case,
    }


def states_suite(seed: int = 703, trials: int = 50) -> dict:
    rng = np.random.default_rng(seed)
    worst_q0 = 0.0
    worst_q0_case = None
    for _ in range(trials):
        dim = int(rng.integers(4, 24))
        p = rng.random(dim)
        p /= p.sum() / rng.uniform(0.5, 1.0)
        T = rng.uniform(0.3, 1.0)
        nbar = (1.0 - T) / T
        tau = thermal(nbar, cutoff=80)
        overlap = float(np.dot(tau.probabilities()[:dim], p))
        residual = abs(q0_after_loss(p, T) - (1.0 + nbar) * overlap)
        if _worse(residual, worst_q0):
            worst_q0 = residual
            worst_q0_case = {"T": float(T), "dim": dim}
    worst_click = 0.0
    worst_click_case = None
    for _ in range(trials):
        M = int(rng.integers(1, 5))
        p = rng.random(int(rng.integers(2, 10)))
        p /= p.sum()
        eta = rng.uniform(0.2, 1.0)
        dark = rng.uniform(0.0, 0.2)
        total = sum(
            math.comb(M, m) * click_statistics(p, M, eta, dark, m) for m in range(M + 1)
        )
        residual = abs(total - 1.0)
        if _worse(residual, worst_click):
            worst_click = residual
            worst_click_case = {"M": M, "eta": float(eta), "dark": float(dark)}
    return {
        "q0_identity_residual": worst_q0,
        "q0_tolerance": Q0_TOL,
        "click_sum_residual": worst_click,
        "click_tolerance": CLICK_TOL,
        "pass": bool(worst_q0 <= Q0_TOL and worst_click <= CLICK_TOL),
        "worst_case": {"q0": worst_q0_case, "click": worst_click_case},
    }


def brute_force_hull(points) -> set:
    """Hull vertex indices by checking every candidate edge against all points.

    (i, j), i != j, is an edge when every point k is on its left, (bx - ax)(ky
    - ay) - (by - ay)(kx - ax) > 0 for a = point i and b = point j, or on the
    segment from a to b, 0 <= (k - a)·(b - a) <= |b - a|^2 where the cross
    product is 0.  All n^3 cross products are one array evaluation, and the
    dot products are taken for the pairs that pass it.  So it follows
    :func:`~stellarwitness.boundary.gift_wrap`'s conventions for exact
    duplicates (only the first copy can be a vertex) and for exactly
    collinear points (only the extremes of a run are), not its 1e-12
    tolerances.
    """
    xy = np.ascontiguousarray(points, dtype=float).reshape(-1, 2)
    if not len(xy):
        return set()
    z = xy.view(complex)[:, 0]
    first = (z[:, None] == z).argmax(axis=0) == np.arange(len(z))  # no earlier copy
    if np.count_nonzero(first) == 1:
        return {0}
    rel = xy[None, :, :] - xy[:, None, :]  # rel[i, k] = point k - point i
    cross = rel[:, :, None, 0] * rel[:, None, :, 1] - rel[:, :, None, 1] * rel[:, None, :, 0]
    left = (cross >= 0).all(axis=2) & first[:, None] & first[None, :]
    np.fill_diagonal(left, False)
    i, j = np.nonzero(left)
    along = (rel[i] * rel[i, j][:, None, :]).sum(axis=2)  # (k - a)·(b - a)
    on_segment = (along >= 0) & (along <= along[np.arange(len(i)), j][:, None])
    edge = ((cross[i, j] > 0) | on_segment).all(axis=1)
    return {int(v) for v in np.concatenate([i[edge], j[edge]])}


def hull_suite(seed: int = 703) -> dict:
    rng = np.random.default_rng(seed)
    mismatches = 0
    worst_case = None
    for trial in range(HULL_SETS):
        count = int(rng.integers(3, 40))
        points = [tuple(rng.random(2)) for _ in range(count)]
        jarvis = set(gift_wrap(points))
        brute = brute_force_hull(points)
        if jarvis != brute:
            mismatches += 1
            if worst_case is None:
                worst_case = {"trial": trial, "jarvis": sorted(jarvis), "brute": sorted(brute)}
    passed = mismatches == 0
    return {"sets": HULL_SETS, "mismatches": mismatches, "pass": passed, "worst_case": worst_case}


SUITES = {"elements": elements_suite, "states": states_suite, "hull": hull_suite}


def run_suites(which: str = "all", seed: int = 703) -> dict:
    names = list(SUITES) if which == "all" else [which]
    if any(name not in SUITES for name in names):
        raise ValueError(f"unknown suite {which!r}; choose from {sorted(SUITES)} or 'all'")
    report = {"seed": seed, "suites": {}}
    for name in names:
        report["suites"][name] = SUITES[name](seed=seed)
    report["pass"] = all(entry["pass"] for entry in report["suites"].values())
    return report
