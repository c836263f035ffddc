"""Witness operators, their Gaussian-conjugated compressions, and rescaling.

A witness is stored as a weighted list of closed-form terms (Fock projectors,
coherent superpositions, pure Fock vectors, density blocks) plus a symbolic
identity component.  Keeping terms in closed form lets the conjugation
``Π_{n-1} U W U† Π_{n-1}`` be assembled exactly from analytic columns instead
of truncating a dense operator.

One batched kernel conjugates every term; the compressions, the sweep's
probability pairs and :func:`conjugate_witness` all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ._util import complex_pair, parse_complex, require_finite, require_integer
from .errors import DegenerateWitnessError, HermiticityError
from .fock_gaussian import GaussianUnitaryParams, _block_columns, _coherent_columns, checked_points
from .states import (
    FockDensity,
    FockVector,
    cat_normalization,
    coherent,
    default_cutoff,
    state_from_json,
    state_to_json,
)

FOCK = "fock"
PURE = "pure"
COHERENT_SUM = "coherent_sum"
DENSITY = "density"

#: smallest |beta| of a cat pair witness.  Its odd term carries
#: c_- ~ 1/(2|beta|) times the difference of the coherent columns at +beta and
#: -beta, so below this their rounding (~1e-16) would grow past ~1e-9.
MIN_CAT_BETA = 1e-7


@dataclass(frozen=True)
class WitnessTerm:
    """One weighted term: a Fock projector index, a pure state, a closed-form
    coherent superposition [(coef, beta), ...], or a density block."""

    weight: float
    kind: str
    data: object

    def tail_bound(self) -> float:
        if self.kind in (PURE, DENSITY):
            return self.data.tail_bound
        return 0.0


@dataclass(frozen=True)
class CoreState:
    """Unit-norm coefficients c_0..c_{n-1} of a core superposition."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(coeffs))
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-8:
            raise ValueError(f"core-state norm {norm} is not 1")
        object.__setattr__(self, "coefficients", coeffs / norm)


@dataclass(frozen=True)
class WitnessOperator:
    terms: tuple
    support_cutoff: int
    phase_invariant: bool
    identity_weight: float = 0.0
    descriptor: dict | None = field(default=None, compare=False)

    def max_tail_bound(self) -> float:
        return max((t.tail_bound() for t in self.terms), default=0.0)

    @cached_property
    def conjugation_plan(self) -> tuple:
        """The term structure :func:`_conjugated_terms` reads, derived on
        first use and kept (see :func:`_conjugation_plan`)."""
        return _conjugation_plan(self.terms)


def fock_pair_witness(j: int, k: int, omega: float) -> WitnessOperator:
    """cos(omega)|j><j| + sin(omega)|k><k| (diagonal, so phase invariant)."""
    if j == k:
        raise DegenerateWitnessError(f"fock pair witness needs j != k, got {j}")
    if j < 0 or k < 0:
        raise ValueError("Fock indices must be >= 0")
    terms = (
        WitnessTerm(math.cos(omega), FOCK, int(j)),
        WitnessTerm(math.sin(omega), FOCK, int(k)),
    )
    return WitnessOperator(
        terms=terms,
        support_cutoff=max(j, k),
        phase_invariant=True,
        descriptor={"type": "fock_pair", "j": int(j), "k": int(k), "omega": float(omega)},
    )


def cat_pair_witness(beta: complex, omega: float, cutoff: int | None = None) -> WitnessOperator:
    """cos(omega)|beta_-><beta_-| + sin(omega)|beta_+><beta_+|.

    The cat terms keep their coherent-superposition form so conjugation can use
    the exact displaced-squeezed reduction of coherent inputs.
    """
    beta = complex(beta)
    if not abs(beta) >= MIN_CAT_BETA:
        raise DegenerateWitnessError(
            f"cat pair witness needs |beta| >= {MIN_CAT_BETA:g}, got beta = {beta}: "
            "the odd cat degenerates"
        )
    if cutoff is None:
        cutoff = default_cutoff(beta)
    c_minus = 1.0 / math.sqrt(2.0 * cat_normalization(beta, "odd"))
    c_plus = 1.0 / math.sqrt(2.0 * cat_normalization(beta, "even"))
    terms = (
        WitnessTerm(math.cos(omega), COHERENT_SUM, ((c_minus, beta), (-c_minus, -beta))),
        WitnessTerm(math.sin(omega), COHERENT_SUM, ((c_plus, beta), (c_plus, -beta))),
    )
    return WitnessOperator(
        terms=terms,
        support_cutoff=cutoff,
        phase_invariant=False,
        descriptor={"type": "cat_pair", "beta": complex_pair(beta), "omega": float(omega)},
    )


def fock_diagonal_witness(weights: Sequence[float]) -> WitnessOperator:
    """sum_m w_m |m><m| from an explicit weight list."""
    weights = [float(w) for w in weights]
    if not weights:
        raise ValueError("need at least one weight")
    terms = tuple(WitnessTerm(w, FOCK, m) for m, w in enumerate(weights) if w != 0.0)
    return WitnessOperator(
        terms=terms,
        support_cutoff=len(weights) - 1,
        phase_invariant=True,
        descriptor={"type": "fock_diagonal", "weights": weights},
    )


def term_amplitudes(term: WitnessTerm, cutoff: int) -> np.ndarray:
    """Fock amplitudes of a pure term, padded/truncated to the given cutoff."""
    if term.kind == FOCK:
        out = np.zeros(cutoff + 1, dtype=complex)
        if term.data <= cutoff:
            out[term.data] = 1.0
        return out
    if term.kind == PURE:
        return term.data.padded(cutoff)
    if term.kind == COHERENT_SUM:
        out = np.zeros(cutoff + 1, dtype=complex)
        for coef, beta in term.data:
            out += coef * coherent(beta, cutoff).amplitudes
        return out
    raise ValueError(f"term kind {term.kind!r} is not a pure state")


def assemble_matrix(witness: WitnessOperator, cutoff: int | None = None) -> np.ndarray:
    """Dense Hermitian block of the witness on Fock indices 0..cutoff."""
    if cutoff is None:
        cutoff = witness.support_cutoff
    out = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for term in witness.terms:
        if term.kind == DENSITY:
            block = term.data.matrix
            n = min(cutoff + 1, block.shape[0])
            out[:n, :n] += term.weight * block[:n, :n]
        else:
            amps = term_amplitudes(term, cutoff)
            out += term.weight * np.outer(amps, amps.conj())
    if witness.identity_weight:
        out[np.diag_indices_from(out)] += witness.identity_weight
    return out


def _conjugation_plan(terms) -> tuple:
    """(betas, cols, steps): what conjugating these terms needs of them.

    `betas` holds the distinct coherent inputs in order of first use, `cols`
    the sorted union of the Fock columns of the Fock, pure and density
    terms, and `steps` one (kind, weight, data) per term, in term order,
    with data the term's position in `cols` (Fock), a contiguous copy of its
    amplitudes (pure), (coef, index into `betas`) pairs (coherent sums) or
    matrix (density).
    """
    betas = list(dict.fromkeys(beta for t in terms if t.kind == COHERENT_SUM for _, beta in t.data))
    cols = set()
    for term in terms:
        if term.kind == FOCK:
            cols.add(term.data)
        elif term.kind == PURE:
            cols.update(range(term.data.amplitudes.size))
        elif term.kind == DENSITY:
            cols.update(range(term.data.matrix.shape[0]))
    cols = sorted(cols)
    position = {m: i for i, m in enumerate(cols)}
    index = {beta: i for i, beta in enumerate(betas)}
    steps = []
    for term in terms:
        if term.kind == FOCK:
            data = position[term.data]
        elif term.kind == PURE:
            # a contiguous copy: matmul rounds a strided operand otherwise
            data = term.data.amplitudes.copy()
        elif term.kind == COHERENT_SUM:
            data = tuple((coef, index[beta]) for coef, beta in term.data)
        elif term.kind == DENSITY:
            data = term.data.matrix
        else:
            raise ValueError(f"unknown term kind {term.kind!r}")
        steps.append((term.kind, term.weight, data))
    return np.array(betas, dtype=complex), cols, tuple(steps)


def _checked(witness: WitnessOperator, points, n: int) -> np.ndarray:
    """`points` as a float array after the checks of the public entry
    points: the rank, then the kernels' checks of the rows with the
    witness's coherent inputs (:func:`checked_points`)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return checked_points(points, witness.conjugation_plan[0])


def _conjugated_terms(plan: tuple, points: np.ndarray, n: int, theta=None) -> list:
    """Each term of a witness with conjugation plan `plan` conjugated by U at
    every row (r, Re alpha, Im alpha[, vartheta]) of the checked float array
    `points` (see :func:`_checked`), output phases `theta` (None: 0), rows k
    < n: one (weight, columns, density) entry per term, in term order.
    Rank-one terms give vectors (rows, n) and density None, density terms
    blocks (rows, n, dim) and their matrix.

    The witness's `conjugation_plan` (derived once per witness) names the
    distinct coherent inputs, the union of the other terms' columns and
    what each term reads of them.  One call of the coherent-column core
    serves every coherent input and one call of the block-column core the
    column union (an element has the same bits whatever is computed beside
    it); pure and density terms take leading columns, copied contiguous as
    blocks of their own would be.
    """
    betas, cols, steps = plan
    if betas.size:
        coherent = _coherent_columns(points, betas, n - 1, theta)
    block = _block_columns(points, n, cols, theta) if cols else None

    def leading(width):  # columns 0..width-1 are the first `width` of the union
        return np.ascontiguousarray(block[:, :, :width])

    entries = []
    for kind, weight, data in steps:
        if kind == FOCK:
            entries.append((weight, block[:, :, data], None))
        elif kind == PURE:
            vec = np.stack([b @ data for b in leading(data.size)])
            entries.append((weight, vec, None))
        elif kind == COHERENT_SUM:
            vec = np.zeros((len(points), n), dtype=complex)
            for coef, i in data:
                vec += coef * coherent[:, i]
            entries.append((weight, vec, None))
        else:
            entries.append((weight, leading(data.shape[0]), data))
    return entries


def _compressions(plan: tuple, identity_weight: float, points: np.ndarray, n: int, theta=None):
    """Stack (rows, n, n) of Π_{n-1} U W U† Π_{n-1} of a witness with this
    conjugation plan and identity weight, one matrix per row (r, Re alpha,
    Im alpha[, vartheta]) of the checked float array `points`, output phases
    `theta` (None: 0); the rank-one terms are summed first, then the density
    terms.  It makes no checks: the search rounds' path."""
    entries = _conjugated_terms(plan, points, n, theta)
    out = np.zeros((len(points), n, n), dtype=complex)
    for weight, vec, sigma in entries:
        if sigma is None:
            out += weight * (vec[:, :, None] * vec.conj()[:, None, :])
    for weight, blocks, sigma in entries:
        if sigma is not None:
            for i, block in enumerate(blocks):
                out[i] += weight * (block @ sigma @ block.conj().T)
    if identity_weight:
        diag = np.arange(n)
        out[:, diag, diag] += identity_weight
    return out


def compress_conjugated(
    witness: WitnessOperator, params: GaussianUnitaryParams, n: int
) -> np.ndarray:
    """The n x n Hermitian matrix Π_{n-1} U W U† Π_{n-1} assembled exactly.

    One row of :func:`_compressions`, with any output phase theta; its bits
    equal that row's in any batch.
    """
    points = _checked(witness, [params.vector()], n)
    plan, identity_weight = witness.conjugation_plan, witness.identity_weight
    return _compressions(plan, identity_weight, points, n, [params.theta])[0]


def expectation(witness: WitnessOperator, state) -> float:
    """Tr[W rho] for a FockVector or FockDensity state, from the witness's
    block on the state's Fock indices (psi† W psi for a vector)."""
    if isinstance(state, FockVector):
        psi = state.amplitudes
        value = complex(np.vdot(psi, assemble_matrix(witness, state.cutoff) @ psi))
    elif isinstance(state, FockDensity):
        value = complex(np.trace(assemble_matrix(witness, state.cutoff) @ state.matrix))
    else:
        raise TypeError("expectation needs a FockVector or FockDensity")
    if abs(value.imag) > 1e-10:
        raise HermiticityError(f"imaginary residue {abs(value.imag):.3e} above tolerance")
    return value.real


def scale_witness(witness: WitnessOperator, a: float, b: float) -> WitnessOperator:
    """a·W + b·I with the identity component kept symbolic."""
    terms = tuple(WitnessTerm(a * t.weight, t.kind, t.data) for t in witness.terms)
    return WitnessOperator(
        terms=terms,
        support_cutoff=witness.support_cutoff,
        phase_invariant=witness.phase_invariant,
        identity_weight=a * witness.identity_weight + b,
        descriptor=None,
    )


def rescale_to_unit(witness: WitnessOperator):
    """(a, b, W') with W' = aW + bI satisfying 0 <= W' <= I on the full space.

    The spectrum outside the finite support is exactly the identity weight, so
    the full-space extremes are those of the assembled block extended by that
    value.  Witnesses already inside [0, 1] are returned unchanged.
    Thresholds transform as W_n -> a W_n + b.
    """
    block = assemble_matrix(witness)
    eigs = np.linalg.eigvalsh(block)
    low = min(float(eigs[0]), witness.identity_weight)
    high = max(float(eigs[-1]), witness.identity_weight)
    if low >= 0.0 and high <= 1.0:
        return 1.0, 0.0, witness
    spread = high - low
    if spread < 1e-14:
        raise DegenerateWitnessError("witness spectrum has zero spread; rescale undefined")
    a = 1.0 / spread
    b = -low / spread
    return a, b, scale_witness(witness, a, b)


def trace_distance_lower_bound(witness_value: float, threshold: float) -> float:
    """max(0, Tr[W rho] - W_n); valid when 0 <= W <= I."""
    return max(0.0, float(witness_value) - float(threshold))


def conjugate_witness(
    witness: WitnessOperator, params: GaussianUnitaryParams, cutoff: int
) -> WitnessOperator:
    """V W V† for a Gaussian unitary V, term by term, on Fock indices
    0..cutoff.

    Every term keeps its own tail bound and adds what the cutoff loses of it:
    the norm² of a rank-one term (1 for Fock and coherent terms) less that of
    its conjugated vector, the trace of a density term less that of its
    conjugated block.  The symbolic identity component is untouched.
    """
    points = _checked(witness, [params.vector()], cutoff + 1)
    entries = _conjugated_terms(witness.conjugation_plan, points, cutoff + 1, [params.theta])
    terms = []
    for term, (weight, columns, sigma) in zip(witness.terms, entries):
        if sigma is None:
            vec = columns[0]
            kept = term.data.norm_sq() if term.kind == PURE else 1.0
            loss = max(0.0, kept - float(np.sum(np.abs(vec) ** 2)))
            vector = FockVector(vec, tail_bound=loss + term.tail_bound())
            terms.append(WitnessTerm(weight, PURE, vector))
        else:
            moved = columns[0] @ sigma @ columns[0].conj().T
            trace_loss = max(0.0, float(np.real(np.trace(sigma) - np.trace(moved))))
            density = FockDensity(moved, tail_bound=term.tail_bound() + trace_loss, validate=False)
            terms.append(WitnessTerm(weight, DENSITY, density))
    return WitnessOperator(
        terms=tuple(terms),
        support_cutoff=cutoff,
        phase_invariant=False,
        identity_weight=witness.identity_weight,
        descriptor=None,
    )


# ---------------------------------------------------------------------------
# Witness files.
# ---------------------------------------------------------------------------


def witness_to_json(witness: WitnessOperator) -> dict:
    if witness.descriptor is not None:
        return dict(witness.descriptor)
    terms = []
    for term in witness.terms:
        if term.kind == DENSITY:
            state = state_to_json(term.data)
        else:
            amps = term_amplitudes(term, witness.support_cutoff)
            state = state_to_json(FockVector(amps, tail_bound=term.tail_bound()))
        terms.append({"weight": float(term.weight), "state": state})
    out = {"type": "terms", "terms": terms}
    if witness.identity_weight:
        out["identity_weight"] = float(witness.identity_weight)
    return out


def witness_from_json(obj: dict) -> WitnessOperator:
    """Parse a witness file object; non-finite numbers are rejected by name."""
    wtype = obj.get("type")
    if wtype in ("fock_pair", "cat_pair"):
        omega = require_finite(float(obj["omega"]), "omega")
    if wtype == "fock_pair":
        j, k = (require_integer(obj[key], key, 0) for key in ("j", "k"))
        return fock_pair_witness(j, k, omega)
    if wtype == "cat_pair":
        return cat_pair_witness(require_finite(parse_complex(obj["beta"]), "beta"), omega)
    if wtype == "fock_diagonal":
        return fock_diagonal_witness([require_finite(float(w), "weights") for w in obj["weights"]])
    if wtype == "terms":
        terms = []
        support = 0
        phase_invariant = True
        for entry in obj["terms"]:
            state = state_from_json(entry["state"])
            weight = require_finite(float(entry["weight"]), "weight")
            if isinstance(state, FockVector):
                entries = state.amplitudes
                terms.append(WitnessTerm(weight, PURE, state))
                support = max(support, state.cutoff)
                nonzero = np.nonzero(np.abs(state.amplitudes) > 0)[0]
                phase_invariant = phase_invariant and nonzero.size <= 1
            elif isinstance(state, FockDensity):
                entries = state.matrix
                terms.append(WitnessTerm(weight, DENSITY, state))
                support = max(support, state.cutoff)
                off_diag = state.matrix - np.diag(np.diag(state.matrix))
                phase_invariant = phase_invariant and not np.any(np.abs(off_diag) > 0)
            else:
                raise ValueError("witness terms must be fock_vector or density states")
            if not np.all(np.isfinite(entries)):
                raise ValueError("witness term states must have finite entries")
        return WitnessOperator(
            terms=tuple(terms),
            support_cutoff=support,
            phase_invariant=phase_invariant,
            identity_weight=require_finite(float(obj.get("identity_weight", 0.0)), "identity_weight"),
            descriptor=None,
        )
    raise ValueError(f"unknown witness type {wtype!r}")
