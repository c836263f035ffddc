"""Stellar-rank thresholds by derivative-free maximization over Gaussian unitaries.

The threshold of a witness at rank n is the supremum over Gaussian-unitary
parameters of the top eigenvalue of the compressed conjugated witness.  The
search runs multi-start Nelder-Mead over (r, Re alpha, Im alpha, vartheta),
dropping to three parameters when the witness is diagonal in the Fock basis,
since the input phase is then irrelevant; the output phase never matters
because it maps the core subspace onto itself.

Every reported value is attained by an explicit admissible state, so results
are certified lower bounds on the supremum.  Start points come from a seeded
low-discrepancy sequence, and all starts advance in lockstep, one batched
objective call per round.  A point's value has the same bits in any batch,
so each start follows the trajectory it follows alone and a fixed config and
seed reproduce every bit.  `multistart` runs both the single-mode search here
and the multimode search in `multimode`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import parse_complex
from .errors import OptimizerError
from .fock_gaussian import GaussianUnitaryParams, gaussian_block, params_from_vector
from .numerics import hermitian_spectrum
from .states import FockVector
from .witness import (
    CoreState,
    WitnessOperator,
    compress_conjugated,
    compress_conjugated_batch,
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
        for name in ("starts", "max_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
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


def _top_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each matrix of a (rows, n, n) Hermitian stack."""
    if stack.shape[-1] == 1:
        return stack[:, 0, 0].real
    return np.linalg.eigvalsh(stack)[:, -1]


def _top_eigenvalue(matrix: np.ndarray) -> float:
    return float(_top_eigenvalues(matrix[None])[0])


def objective(
    witness: WitnessOperator, n: int, params: GaussianUnitaryParams
) -> float:
    """Top eigenvalue of the compressed conjugated witness at fixed parameters.

    The one-row case of :func:`objectives`: a search point gives the same
    bits through either.
    """
    return _top_eigenvalue(compress_conjugated(witness, params, n))


def objectives(witness: WitnessOperator, n: int, points) -> np.ndarray:
    """:func:`objective` at every row (r, Re alpha, Im alpha[, vartheta]) of
    `points`, theta = 0, from one batched compression and eigen step."""
    return _top_eigenvalues(compress_conjugated_batch(witness, points, n))


def _nelder_mead(x0, lo, hi, tol, max_evals):
    """Minimize over the box by Nelder-Mead with adaptive coefficients and
    one shrunken restart around the incumbent.  Fully deterministic.

    A generator: it yields each (k, dims) array of clipped points it needs
    evaluated, is sent their k values, and returns
    ``(x, value, evals, converged)``.  Points that do not depend on each
    other's values (a new simplex, a shrink) come in one array.
    """
    dims = x0.size
    alpha, gamma = 1.0, 1.0 + 2.0 / dims
    rho, sigma = 0.75 - 1.0 / (2.0 * dims), 1.0 - 1.0 / dims
    span = hi - lo
    evals = 0

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

    best_x = np.clip(x0, lo, hi)
    (best_f,) = yield best_x[None]
    evals += 1
    converged = False
    for attempt, scale in enumerate((0.10, 0.005)):
        simplex = build_simplex(best_x, scale)
        fresh = simplex if attempt else simplex[1:]
        values = ([] if attempt else [best_f]) + (yield np.clip(fresh, lo, hi))
        evals += len(fresh)
        while evals < max_evals:
            order = sorted(range(len(simplex)), key=values.__getitem__)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if values[-1] - values[0] <= tol * (1.0 + abs(values[0])):
                converged = True
                break
            centroid = np.add.reduce(simplex[:-1], axis=0) / dims  # np.mean's bits
            reflected = centroid + alpha * (centroid - simplex[-1])
            (f_reflected,) = yield reflected.clip(lo, hi)[None]
            evals += 1
            if f_reflected < values[0]:
                expanded = centroid + gamma * (reflected - centroid)
                (f_expanded,) = yield expanded.clip(lo, hi)[None]
                evals += 1
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            else:
                contracted = centroid + rho * (simplex[-1] - centroid)
                (f_contracted,) = yield contracted.clip(lo, hi)[None]
                evals += 1
                if f_contracted < values[-1]:
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    for i in range(1, len(simplex)):
                        simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    values[1:] = yield np.clip(simplex[1:], lo, hi)
                    evals += len(simplex) - 1
        lowest = int(np.argmin(values))
        if values[lowest] < best_f:
            best_f = values[lowest]
            best_x = np.clip(simplex[lowest], lo, hi)
        if evals >= max_evals:
            break
    return best_x, best_f, evals, converged


def _start_points(lo, hi, config, extra_starts=()) -> list:
    """The zero point, then `extra_starts` (already of the box's length)
    clipped into the box, then seeded Halton points up to `config.starts`."""
    dims = lo.size
    points = [np.zeros(dims)]
    points += [np.clip(np.asarray(vec, dtype=float), lo, hi) for vec in extra_starts]
    shift = np.random.default_rng(config.seed).random(dims)
    index = 1
    while len(points) < config.starts:
        u = np.array([(_halton(index, p) + s) % 1.0 for p, s in zip(_PRIMES[:dims], shift)])
        points.append(lo + u * (hi - lo))
        index += 1
    return points


def multistart(batch_fun, lo, hi, config, extra_starts=(), key=tuple):
    """Maximize over the box [lo, hi] by multi-start Nelder-Mead in lockstep.

    `batch_fun` maps a (rows, dims) array of points to their values.  The
    starts (see `_start_points`) advance together: each round stacks the
    points every running start asks for into one `batch_fun` call and sends
    each start its values, so a start's trajectory is the one it follows
    alone as long as a point's value does not depend on its batch.  Among
    starts within the tie window of the best value, the smallest `key(x)`
    wins.  Returns the winning vector and the per-start outcomes
    `(x, value, evals, converged)`.
    """
    searches = [
        _nelder_mead(x0, lo, hi, config.simplex_tolerance, config.max_iterations)
        for x0 in _start_points(lo, hi, config, extra_starts)
    ]
    pending = {i: next(search) for i, search in enumerate(searches)}
    outcomes = [None] * len(searches)
    while pending:
        negated = (-np.asarray(batch_fun(np.concatenate(list(pending.values()))))).tolist()
        offset = 0
        for i, points in list(pending.items()):
            values, offset = negated[offset : offset + len(points)], offset + len(points)
            try:
                pending[i] = searches[i].send(values)
            except StopIteration as done:
                x, f, evals, converged = done.value
                outcomes[i] = (x, -f, evals, converged)
                del pending[i]
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

    def fun(points):
        return objectives(witness, n, points)

    def key(x):
        return (float(x[0]), abs(complex(x[1], x[2])), float(x[3]) if dims > 3 else 0.0)

    extra = [np.asarray(vec, dtype=float)[:dims] for vec in config.initial_points]
    x, outcomes = multistart(fun, lo, hi, config, extra, key)
    params = params_from_vector(x)
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
