"""Stellar-rank thresholds by derivative-free maximization over Gaussian unitaries.

The threshold of a witness at rank n is the supremum over Gaussian-unitary
parameters of the top eigenvalue of the compressed conjugated witness.  The
search runs multi-start Nelder-Mead over (r, Re alpha, Im alpha, vartheta),
dropping to three parameters when the witness is diagonal in the Fock basis,
since the input phase is then irrelevant; the output phase never matters
because it maps the core subspace onto itself.

Every reported value is attained by an explicit admissible state, so results
are certified lower bounds on the supremum.  Start points come from a seeded
low-discrepancy sequence and the starts run one after another, so a fixed
config and seed reproduce every bit.  `multistart` runs both the single-mode
search here and the multimode search in `multimode`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import parse_complex
from .errors import OptimizerError
from .fock_gaussian import GaussianUnitaryParams, gaussian_block
from .numerics import hermitian_spectrum
from .states import FockVector
from .witness import (
    CoreState,
    WitnessOperator,
    compress_conjugated,
    witness_from_json,
    witness_to_json,
)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
_TIE_WINDOW = 1e-12
_CLUSTER_WINDOW = 1e-6
_BOUNDARY_TOL = 1e-6
MONOTONICITY_SLACK = 1e-7


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start box and stopping parameters.

    `initial_points` are extra deterministic starts, each a full
    (r, Re alpha, Im alpha, vartheta) vector; the identity point is always
    start zero, and seeded Halton points fill the remaining budget.
    """

    starts: int = 200
    r_max: float = 3.0
    alpha_max: float = 6.0
    simplex_tolerance: float = 1e-9
    max_iterations: int = 2000
    seed: int = 1905
    initial_points: tuple = ()

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        tol = self.simplex_tolerance
        if not (math.isfinite(tol) and tol > 0) or self.max_iterations < 1:
            raise ValueError("tolerances and iteration budgets must be positive and finite")
        for name in ("r_max", "alpha_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def to_json(self) -> dict:
        return {
            "starts": self.starts,
            "r_max": self.r_max,
            "alpha_max": self.alpha_max,
            "simplex_tolerance": self.simplex_tolerance,
            "max_iterations": self.max_iterations,
        }

    @classmethod
    def from_json(cls, obj: dict, seed: int | None = None) -> "OptimizerConfig":
        known = {k: obj[k] for k in
                 ("starts", "r_max", "alpha_max", "simplex_tolerance", "max_iterations")
                 if k in obj}
        if seed is not None:
            known["seed"] = int(seed)
        elif "seed" in obj:
            known["seed"] = int(obj["seed"])
        return cls(**known)


@dataclass(frozen=True)
class ThresholdResult:
    value: float
    params: GaussianUnitaryParams
    core: CoreState
    rank: int
    diagnostics: dict = field(compare=False)
    seed: int = 0


def _halton(index: int, base: int) -> float:
    out, frac = 0.0, 1.0 / base
    while index > 0:
        index, digit = divmod(index, base)
        out += digit * frac
        frac /= base
    return out


def _box(config: OptimizerConfig, dims: int):
    lo = np.array([0.0, -config.alpha_max, -config.alpha_max, 0.0][:dims])
    hi = np.array([config.r_max, config.alpha_max, config.alpha_max, 2.0 * math.pi][:dims])
    return lo, hi


def _params_from_vector(vec: np.ndarray) -> GaussianUnitaryParams:
    vartheta = float(vec[3]) if vec.size > 3 else 0.0
    return GaussianUnitaryParams(
        theta=0.0, vartheta=vartheta, r=float(vec[0]), alpha=complex(vec[1], vec[2])
    )


def _top_eigenvalue(matrix: np.ndarray) -> float:
    if matrix.shape[0] == 1:
        return float(matrix[0, 0].real)
    return float(np.linalg.eigvalsh(matrix)[-1])


def objective(
    witness: WitnessOperator, n: int, params: GaussianUnitaryParams
) -> float:
    """Top eigenvalue of the compressed conjugated witness at fixed parameters."""
    return _top_eigenvalue(compress_conjugated(witness, params, n))


def _nelder_mead(fun, x0, lo, hi, tol, max_evals):
    """Minimize `fun` over the box by Nelder-Mead with adaptive coefficients
    and one shrunken restart around the incumbent.  Fully deterministic."""
    dims = x0.size
    alpha, gamma = 1.0, 1.0 + 2.0 / dims
    rho, sigma = 0.75 - 1.0 / (2.0 * dims), 1.0 - 1.0 / dims
    span = hi - lo
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return fun(np.clip(x, lo, hi))

    def build_simplex(center, scale):
        pts = [np.array(center)]
        for d in range(dims):
            step = scale * span[d]
            if center[d] + step > hi[d]:
                step = -step
            vertex = np.array(center)
            vertex[d] = vertex[d] + step
            pts.append(vertex)
        return pts

    best_x, best_f = np.clip(x0, lo, hi), call(x0)
    converged = False
    for attempt, scale in enumerate((0.10, 0.005)):
        simplex = build_simplex(best_x, scale)
        values = [best_f if attempt == 0 else call(simplex[0])]
        values += [call(p) for p in simplex[1:]]
        while evals < max_evals:
            order = sorted(range(len(simplex)), key=lambda i: values[i])
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if values[-1] - values[0] <= tol * (1.0 + abs(values[0])):
                converged = True
                break
            centroid = np.mean(simplex[:-1], axis=0)
            reflected = centroid + alpha * (centroid - simplex[-1])
            f_reflected = call(reflected)
            if f_reflected < values[0]:
                expanded = centroid + gamma * (reflected - centroid)
                f_expanded = call(expanded)
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            else:
                contracted = centroid + rho * (simplex[-1] - centroid)
                f_contracted = call(contracted)
                if f_contracted < values[-1]:
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    for i in range(1, len(simplex)):
                        simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                        values[i] = call(simplex[i])
        lowest = int(np.argmin(values))
        if values[lowest] < best_f:
            best_f = values[lowest]
            best_x = np.clip(simplex[lowest], lo, hi)
        if evals >= max_evals:
            break
    return best_x, best_f, evals, converged


def multistart(fun, lo, hi, config, extra_starts=(), key=tuple):
    """Maximize `fun` over the box [lo, hi] by multi-start Nelder-Mead.

    Starts are the zero point, then `extra_starts` (already of the box's
    length) clipped into the box, then seeded Halton points until
    `config.starts` is reached.  Among starts within the tie window of the
    best value, the smallest `key(x)` wins.  Returns the winning vector and
    the per-start outcomes `(x, value, evals, converged)`.
    """
    dims = lo.size
    points = [np.zeros(dims)]
    points += [np.clip(np.asarray(vec, dtype=float), lo, hi) for vec in extra_starts]
    shift = np.random.default_rng(config.seed).random(dims)
    index = 1
    while len(points) < config.starts:
        u = np.array([(_halton(index, p) + s) % 1.0 for p, s in zip(_PRIMES[:dims], shift)])
        points.append(lo + u * (hi - lo))
        index += 1

    def negated(x):
        return -fun(x)

    outcomes = []
    for x0 in points:
        x, f, evals, converged = _nelder_mead(
            negated, x0, lo, hi, config.simplex_tolerance, config.max_iterations
        )
        outcomes.append((x, -f, evals, converged))
    if not any(conv for *_, conv in outcomes):
        raise OptimizerError(
            "no optimizer start converged",
            trace=[{"value": v, "evals": e} for _, v, e, _ in outcomes],
        )
    best = None
    for x, value, _evals, _conv in outcomes:
        k = key(x)
        if best is None or value > best[1] + _TIE_WINDOW:
            best = (x, value, k)
        elif value > best[1] - _TIE_WINDOW and k < best[2]:
            best = (x, value, k)
    return best[0], outcomes


def search_diagnostics(outcomes, value, boundary_hit, config, **extra) -> dict:
    """Diagnostics shared by single- and multimode thresholds; `extra` keys
    go between the evaluation count and `monotonicity_ok`."""
    start_values = [float(v) for _, v, _, _ in outcomes]
    return {
        "start_values": start_values,
        "starts_within_1e-6": int(sum(1 for v in start_values if v >= value - _CLUSTER_WINDOW)),
        "boundary_hit": boundary_hit,
        "converged_starts": int(sum(1 for *_, c in outcomes if c)),
        "function_evaluations": int(sum(e for _, _, e, _ in outcomes)),
        **extra,
        "monotonicity_ok": None,
        "config": config.to_json(),
    }


def compute_threshold(
    witness: WitnessOperator,
    n: int,
    config: OptimizerConfig | None = None,
    fix_vartheta: bool | None = None,
    threads: int | None = None,
) -> ThresholdResult:
    """Best threshold estimate over the multi-start search, with diagnostics.

    The returned value is re-evaluated from the winning parameters through the
    spectrum path, so `value` always reproduces from (params, core) exactly.
    `threads` is accepted for compatibility and ignored: starts run serially.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    config = config or OptimizerConfig()
    if fix_vartheta is None:
        fix_vartheta = witness.phase_invariant
    dims = 3 if fix_vartheta else 4
    lo, hi = _box(config, dims)

    def fun(vec):
        return objective(witness, n, _params_from_vector(vec))

    def key(x):
        return (float(x[0]), abs(complex(x[1], x[2])), float(x[3]) if dims > 3 else 0.0)

    extra = [np.asarray(vec, dtype=float)[:dims] for vec in config.initial_points]
    x, outcomes = multistart(fun, lo, hi, config, extra, key)
    params = _params_from_vector(x)
    spectrum = hermitian_spectrum(compress_conjugated(witness, params, n))
    value = spectrum.top
    core = CoreState(spectrum.vector(0))
    span = hi - lo
    boundary = {
        "r": bool(abs(x[0] - hi[0]) <= _BOUNDARY_TOL * span[0]),
        "alpha_re": bool(min(abs(x[1] - lo[1]), abs(x[1] - hi[1])) <= _BOUNDARY_TOL * span[1]),
        "alpha_im": bool(min(abs(x[2] - lo[2]), abs(x[2] - hi[2])) <= _BOUNDARY_TOL * span[2]),
    }
    diagnostics = search_diagnostics(
        outcomes, value, boundary, config,
        vartheta_fixed=bool(fix_vartheta),
        witness_tail_bound=float(witness.max_tail_bound()),
    )
    return ThresholdResult(
        value=value, params=params, core=core, rank=n, diagnostics=diagnostics, seed=config.seed
    )


def compute_thresholds(
    witness: WitnessOperator,
    ranks,
    config: OptimizerConfig | None = None,
    fix_vartheta: bool | None = None,
    threads: int | None = None,
) -> list:
    """Thresholds for several ranks in one batch.

    Each rank inherits the previous rank's optimum as an extra start; since
    the compression for rank n+1 contains the rank-n compression as a
    principal submatrix, this makes the computed sequence nondecreasing.  A
    violation beyond the slack is still checked and flagged as optimizer
    unreliability.  `threads` is accepted for compatibility and ignored.
    """
    config = config or OptimizerConfig()
    ranks = list(ranks)
    if sorted(ranks) != ranks:
        raise ValueError("ranks must be given in ascending order")
    results = []
    carried = config.initial_points
    for n in ranks:
        cfg = replace(config, initial_points=carried)
        result = compute_threshold(witness, n, cfg, fix_vartheta)
        if results:
            ok = result.value >= results[-1].value - MONOTONICITY_SLACK
            result.diagnostics["monotonicity_ok"] = bool(ok)
        results.append(result)
        vec = (result.params.r, result.params.alpha.real,
               result.params.alpha.imag, result.params.vartheta)
        carried = tuple(config.initial_points) + (vec,)
    return results


def extremal_state(result: ThresholdResult, n: int, cutoff: int) -> FockVector:
    """Fock amplitudes of the extremal admissible state U† |core>."""
    q = result.core.coefficients
    if q.size != n:
        raise ValueError(f"core has {q.size} coefficients, expected {n}")
    block = gaussian_block(result.params, n - 1, cutoff)
    amps = block.conj().T @ q
    return FockVector(amps, tail_bound=max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2))))


# ---------------------------------------------------------------------------
# Threshold result files.
# ---------------------------------------------------------------------------


def result_to_json(witness: WitnessOperator, result: ThresholdResult) -> dict:
    return {
        "witness": witness_to_json(witness),
        "rank": result.rank,
        "value": result.value,
        "params": result.params.to_json(),
        "core": [[float(c.real), float(c.imag)] for c in result.core.coefficients],
        "diagnostics": result.diagnostics,
        "seed": result.seed,
    }


def result_from_json(obj: dict):
    witness = witness_from_json(obj["witness"])
    core = CoreState(np.array([parse_complex(c) for c in obj["core"]], dtype=complex))
    result = ThresholdResult(
        value=float(obj["value"]),
        params=GaussianUnitaryParams.from_json(obj["params"]),
        core=core,
        rank=int(obj["rank"]),
        diagnostics=dict(obj.get("diagnostics", {})),
        seed=int(obj.get("seed", 0)),
    )
    return witness, result
