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

A round's fixed costs outweigh its points, so rounds are few and full: each
Nelder-Mead iteration asks for its reflected, expanded and contracted points
in one round, though it reads at most two of their values, and the driver
clips each round's points into the box at once.  The box is checked once,
before the first round (`fock_gaussian.check_box`), so the rounds skip the
public kernels' per-call checks: they run the unchecked cores with the
witness's conjugation plan, derived once per witness
(`WitnessOperator.conjugation_plan`) and bound once per search.  Each start
keeps its simplex in Python floats, with the bits of the numpy operations
they replace.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import add

import numpy as np

from .errors import OptimizerError
from .fock_gaussian import (
    _NOT_FINITE,
    MAX_SQUEEZING,
    GaussianUnitaryParams,
    check_box,
    gaussian_block,
    params_from_vector,
)
from .numerics import hermitian_spectrum
from .states import FockVector
from .witness import (
    CoreState,
    WitnessOperator,
    _compressions,
    compress_conjugated,
    witness_to_json,
)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
_TIE_WINDOW = 1e-12
_CLUSTER_WINDOW = 1e-6
_BOUNDARY_TOL = 1e-6
MONOTONICITY_SLACK = 1e-7
#: the keys of an optimizer config file
_CONFIG_KEYS = {"starts", "r_max", "alpha_max", "simplex_tolerance", "max_iterations", "seed"}


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start box and stopping parameters.

    `initial_points` are extra deterministic starts, each a full
    (r, Re alpha, Im alpha, vartheta) vector; the identity point is always
    start zero, and seeded Halton points fill the remaining budget.
    `max_iterations` is each start's budget of objective values the search
    uses; candidates it asks for but does not read are not counted.
    """

    starts: int = 200
    r_max: float = 3.0
    alpha_max: float = 6.0
    simplex_tolerance: float = 1e-9
    max_iterations: int = 2000
    seed: int = 1905
    initial_points: tuple = ()

    def __post_init__(self):
        for name in ("starts", "max_iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        tol = self.simplex_tolerance
        if not (math.isfinite(tol) and tol > 0) or self.max_iterations < 1:
            raise ValueError("tolerances and iteration budgets must be positive and finite")
        for name in ("r_max", "alpha_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.r_max > MAX_SQUEEZING:
            raise ValueError(f"r_max must be <= {MAX_SQUEEZING}, got {self.r_max}")

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
        """The config of a JSON object with any of the keys of `to_json` and
        "seed"; `seed`, if given, overrides the object's.  An unknown key
        raises ValueError, so a misspelt key cannot fall back to a default."""
        unknown = sorted(map(str, set(obj) - _CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown optimizer config keys: {', '.join(unknown)}")
        known = dict(obj)
        if seed is not None:
            known["seed"] = seed
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

    The one-row case of :func:`_round_objectives`: a search point gives the
    same bits through either.
    """
    return _top_eigenvalue(compress_conjugated(witness, params, n))


def _round_objectives(witness: WitnessOperator, n: int):
    """:func:`objective` at every row (r, Re alpha, Im alpha[, vartheta]) of a
    round's points, theta = 0, from one batched compression and eigen step:
    the witness's plan bound once and the kernels' unchecked cores, for
    points clipped into a box that passed :func:`check_box`."""
    plan, identity_weight = witness.conjugation_plan, witness.identity_weight

    def fun(points):
        return _top_eigenvalues(_compressions(plan, identity_weight, points, n))

    return fun


def _clip(x, lo, hi) -> list:
    """`x` clipped into [lo, hi] coordinate by coordinate, as Python floats
    with ``ndarray.clip``'s bits: a NaN stays, and a coordinate equal to a
    bound (as -0.0 is to 0.0) becomes the bound."""
    x = [low if v <= low else v for v, low in zip(x, lo)]
    return [high if v >= high else v for v, high in zip(x, hi)]


def _nelder_mead(x0, lo, hi, tol, max_evals):
    """Minimize over the box by Nelder-Mead with adaptive coefficients and
    one shrunken restart around the incumbent.  Fully deterministic.

    A generator: it yields each list of k raw points (lists of dims floats)
    it needs evaluated, is sent the values of those points clipped into
    [lo, hi] (the caller clips), and returns ``(x, value, evals, converged)``
    with x a clipped array.  Points that do not depend on each other's values
    come in one list: a new simplex, a shrink, or an iteration's reflected,
    expanded and contracted points, of which the search reads what the
    one-point-at-a-time method reads; `evals` counts only those values.
    The simplex is kept in Python floats, whose operations round as numpy's
    elementwise ones do; the centroid sums from 0.0, vertex by vertex, as
    ``np.add.reduce`` over the vertices does.  The vertices stay in the order
    a stable sort by value gives them: a new simplex, a shrink or a NaN value
    is sorted in full, and a single replaced vertex goes where the stable
    sort would put it, after the vertices whose values do not exceed its own.
    """
    dims = len(x0)
    gamma = 1.0 + 2.0 / dims
    rho, sigma = 0.75 - 1.0 / (2.0 * dims), 1.0 - 1.0 / dims
    lo, hi = np.asarray(lo, dtype=float).tolist(), np.asarray(hi, dtype=float).tolist()
    span = [high - low for low, high in zip(lo, hi)]
    evals = 0

    def build_simplex(center, scale):
        pts = [list(center)]
        for d in range(dims):
            step = scale * span[d]
            if center[d] + step > hi[d]:
                step = -step
            vertex = list(center)
            vertex[d] = vertex[d] + step
            pts.append(vertex)
        return pts

    best_x = _clip(np.asarray(x0, dtype=float).tolist(), lo, hi)
    (best_f,) = yield [best_x]
    evals += 1
    converged = False
    for attempt, scale in enumerate((0.10, 0.005)):
        simplex = build_simplex(best_x, scale)
        fresh = simplex if attempt else simplex[1:]
        values = ([] if attempt else [best_f]) + (yield fresh)
        evals += len(fresh)
        unsorted = True  # a new simplex, a shrink, or a NaN left among the values
        while evals < max_evals:
            last = values[-1]
            if unsorted or last != last:
                order = sorted(range(len(simplex)), key=values.__getitem__)
                simplex = [simplex[i] for i in order]
                values = [values[i] for i in order]
                unsorted = any(value != value for value in values)
            else:  # values[:-1] is sorted and holds no NaN
                place = bisect_right(values, last, 0, dims)
                if place < dims:
                    simplex.insert(place, simplex.pop())
                    values.insert(place, values.pop())
            if values[-1] - values[0] <= tol * (1.0 + abs(values[0])):
                converged = True
                break
            sums = repeat(0.0)
            for vertex in simplex[:-1]:
                sums = map(add, sums, vertex)
            reflected, expanded, contracted = [], [], []
            for total, w in zip(sums, simplex[-1]):
                c = total / dims  # the centroid's coordinate
                x = c + (c - w)
                reflected.append(x)
                expanded.append(c + gamma * (x - c))
                contracted.append(c + rho * (w - c))
            f_reflected, f_expanded, f_contracted = yield [reflected, expanded, contracted]
            evals += 1
            if f_reflected < values[0]:
                evals += 1
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            else:
                evals += 1
                if f_contracted < values[-1]:
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    first = simplex[0]
                    for i in range(1, len(simplex)):
                        simplex[i] = [a + sigma * (b - a) for a, b in zip(first, simplex[i])]
                    values[1:] = yield simplex[1:]
                    evals += len(simplex) - 1
                    unsorted = True
        lowest = int(np.argmin(values))
        if values[lowest] < best_f:
            best_f = values[lowest]
            best_x = _clip(simplex[lowest], lo, hi)
        if evals >= max_evals:
            break
    return np.array(best_x), best_f, evals, converged


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
    points every running start asks for, clips them into the box at once,
    makes one `batch_fun` call and sends each start its values, so a start's
    trajectory is the one it follows alone as long as a point's value does
    not depend on its batch.  The clip maps every point but a NaN one into
    the box, which the caller has checked once; a NaN point raises
    ValueError.  Among starts within the tie window of the best
    value, the smallest `key(x)` wins.  Returns the winning vector and the per-start outcomes
    `(x, value, evals, converged)`.
    """
    searches = [
        _nelder_mead(x0, lo, hi, config.simplex_tolerance, config.max_iterations)
        for x0 in _start_points(lo, hi, config, extra_starts)
    ]
    outcomes = [None] * len(searches)
    running = [(i, search, next(search)) for i, search in enumerate(searches)]
    dims = lo.size
    while running:
        rows = [x for _, _, points in running for x in points]
        flat = np.fromiter(chain.from_iterable(rows), float, len(rows) * dims)
        batch = flat.reshape(-1, dims).clip(lo, hi)
        if math.isnan(batch.sum()):
            raise ValueError(_NOT_FINITE)
        negated = (-np.asarray(batch_fun(batch))).tolist()
        offset = 0
        still = []
        for i, search, points in running:
            end = offset + len(points)
            try:
                still.append((i, search, search.send(negated[offset:end])))
            except StopIteration as done:
                x, f, evals, converged = done.value
                outcomes[i] = (x, -f, evals, converged)
            offset = end
        running = still
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
) -> ThresholdResult:
    """Best threshold estimate over the multi-start search, with diagnostics.

    The returned value is re-evaluated from the winning parameters through the
    spectrum path, so `value` always reproduces from (params, core) exactly.
    A phase-invariant witness is searched with vartheta fixed at 0.  A box on
    which the kernels could overflow with the witness's coherent inputs
    raises ValueError before the first round (:func:`check_box`).
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    config = config or OptimizerConfig()
    dims = 3 if witness.phase_invariant else 4
    lo, hi = _box(config, dims)
    check_box(config.r_max, config.alpha_max, witness.conjugation_plan[0])

    def key(x):
        return (float(x[0]), abs(complex(x[1], x[2])), float(x[3]) if dims > 3 else 0.0)

    extra = [np.asarray(vec, dtype=float)[:dims] for vec in config.initial_points]
    x, outcomes = multistart(_round_objectives(witness, n), lo, hi, config, extra, key)
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
        vartheta_fixed=bool(witness.phase_invariant),
        witness_tail_bound=float(witness.max_tail_bound()),
    )
    return ThresholdResult(
        value=value, params=params, core=core, rank=n, diagnostics=diagnostics, seed=config.seed
    )


def compute_thresholds(
    witness: WitnessOperator,
    ranks,
    config: OptimizerConfig | None = None,
) -> list:
    """Thresholds for several ranks in one batch.

    Each rank inherits the previous rank's optimum as an extra start; since
    the compression for rank n+1 contains the rank-n compression as a
    principal submatrix, this makes the computed sequence nondecreasing.  A
    violation beyond the slack is still checked and flagged as optimizer
    unreliability.
    """
    config = config or OptimizerConfig()
    ranks = list(ranks)
    if sorted(ranks) != ranks:
        raise ValueError("ranks must be given in ascending order")
    results = []
    carried = config.initial_points
    for n in ranks:
        cfg = replace(config, initial_points=carried)
        result = compute_threshold(witness, n, cfg)
        if results:
            ok = result.value >= results[-1].value - MONOTONICITY_SLACK
            result.diagnostics["monotonicity_ok"] = bool(ok)
        results.append(result)
        carried = tuple(config.initial_points) + (result.params.vector(),)
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
