"""Witness operators, their Gaussian-conjugated compressions, and rescaling.

A witness is stored as a weighted list of closed-form terms (Fock projectors,
coherent superpositions, pure Fock vectors, density blocks) plus a symbolic
identity component.  Keeping terms in closed form lets the conjugation
``Π_{n-1} U W U† Π_{n-1}`` be assembled exactly from analytic columns instead
of truncating a dense operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._util import complex_pair, parse_complex
from .errors import DegenerateWitnessError, HermiticityError
from .fock_gaussian import (
    GaussianUnitaryParams,
    block_columns,
    block_columns_batch,
    coherent_columns,
    params_from_vector,
    transform_coherent,
)
from .numerics import hermitian_spectrum
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


@dataclass(frozen=True)
class WitnessTerm:
    """One weighted term: a Fock projector index, a pure state, a closed-form
    coherent superposition [(coef, beta), ...], or a density block."""

    weight: float
    kind: str
    data: object

    def tail_bound(self) -> float:
        if self.kind == PURE:
            return self.data.tail_bound
        if self.kind == DENSITY:
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

    @property
    def rank_bound(self) -> int:
        return self.coefficients.size - 1


@dataclass(frozen=True)
class WitnessOperator:
    terms: tuple
    support_cutoff: int
    phase_invariant: bool
    identity_weight: float = 0.0
    descriptor: dict | None = field(default=None, compare=False)

    def max_tail_bound(self) -> float:
        return max((t.tail_bound() for t in self.terms), default=0.0)


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
    if beta == 0:
        raise DegenerateWitnessError("cat pair witness needs beta != 0 (odd cat degenerates)")
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


def _coherent_betas(witness: WitnessOperator) -> list:
    """The distinct coherent inputs of the witness's superpositions."""
    return list(
        dict.fromkeys(beta for t in witness.terms if t.kind == COHERENT_SUM for _, beta in t.data)
    )


def _coherent_columns(witness: WitnessOperator, params: GaussianUnitaryParams, k_max: int):
    """<k|U|beta>, k <= k_max, once per distinct coherent input of the witness.

    The cat terms share their inputs (±beta), so every coherent superposition
    is summed from these columns instead of transforming each beta per term.
    """
    return {
        beta: transform_coherent(params, beta, k_max).amplitudes
        for beta in _coherent_betas(witness)
    }


def _term_vectors(witness: WitnessOperator, rows, n: int, coherent: dict):
    """`conjugated_term_vectors` for a batch of parameter rows.

    `coherent` maps each coherent input to its columns, shape (rows, n).
    Fock, pure and density terms share one `block_columns_batch` call over
    the union of their columns (an element has the same bits whatever else is
    computed beside it); pure and density terms take their leading columns,
    copied contiguous as blocks of their own would be.  Returns rank-one
    (weight, vectors (rows, n)) pairs and mixed (weight, blocks (rows, n,
    dim), density) triples.
    """
    cols = set()
    for term in witness.terms:
        if term.kind == FOCK:
            cols.add(term.data)
        elif term.kind == PURE:
            cols.update(range(term.data.amplitudes.size))
        elif term.kind == DENSITY:
            cols.update(range(term.data.matrix.shape[0]))
    cols = sorted(cols)
    block = block_columns_batch(rows, n, cols) if cols else None
    position = {m: i for i, m in enumerate(cols)}

    def leading(width):  # columns 0..width-1 are the first `width` of the union
        return np.ascontiguousarray(block[:, :, :width])

    rank_one = []
    mixed = []
    for term in witness.terms:
        if term.kind == FOCK:
            rank_one.append((term.weight, block[:, :, position[term.data]]))
        elif term.kind == PURE:
            amps = term.data.amplitudes
            blocks = leading(amps.size)
            rank_one.append((term.weight, np.stack([b @ amps for b in blocks])))
        elif term.kind == COHERENT_SUM:
            vec = np.zeros((len(rows), n), dtype=complex)
            for coef, beta in term.data:
                vec += coef * coherent[beta]
            rank_one.append((term.weight, vec))
        elif term.kind == DENSITY:
            mixed.append((term.weight, leading(term.data.matrix.shape[0]), term.data.matrix))
        else:
            raise ValueError(f"unknown term kind {term.kind!r}")
    return rank_one, mixed


def _compress(witness: WitnessOperator, rows, n: int, coherent: dict) -> np.ndarray:
    """Stack (rows, n, n) of Π_{n-1} U W U† Π_{n-1}, one matrix per parameter row."""
    rank_one, mixed = _term_vectors(witness, rows, n, coherent)
    out = np.zeros((len(rows), n, n), dtype=complex)
    for weight, vec in rank_one:
        out += weight * (vec[:, :, None] * vec.conj()[:, None, :])
    for weight, blocks, sigma in mixed:
        for i, block in enumerate(blocks):
            out[i] += weight * (block @ sigma @ block.conj().T)
    if witness.identity_weight:
        diag = np.arange(n)
        out[:, diag, diag] += witness.identity_weight
    return out


def _one_row(columns: dict) -> dict:
    return {beta: col[None] for beta, col in columns.items()}


def conjugated_term_vectors(
    witness: WitnessOperator, params: GaussianUnitaryParams, n: int
):
    """Rank-1 data for Π_{n-1} U W U† Π_{n-1}: per-term weights and the vectors
    (<k|U|psi_t>)_{k<n}, plus (weight, block, density) triples for mixed terms.

    Fock-projector terms share one analytic block; coherent-superposition
    terms go through the exact coherent transform, so the only truncation
    error is the witness's own declared tail bound.
    """
    coherent = _one_row(_coherent_columns(witness, params, n - 1))
    rank_one, mixed = _term_vectors(witness, [params], n, coherent)
    return (
        [(weight, vec[0]) for weight, vec in rank_one],
        [(weight, blocks[0], sigma) for weight, blocks, sigma in mixed],
    )


def compress_conjugated(
    witness: WitnessOperator, params: GaussianUnitaryParams, n: int
) -> np.ndarray:
    """The n x n Hermitian matrix Π_{n-1} U W U† Π_{n-1} assembled exactly.

    The one-row case of :func:`compress_conjugated_batch`, with any output
    phase theta; its bits equal that row's in any batch.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    coherent = _one_row(_coherent_columns(witness, params, n - 1))
    return _compress(witness, [params], n, coherent)[0]


def compress_conjugated_batch(witness: WitnessOperator, points, n: int) -> np.ndarray:
    """:func:`compress_conjugated` at every row (r, Re alpha, Im alpha[,
    vartheta]) of `points`, theta = 0, as a (rows, n, n) stack.

    The coherent columns of all rows and all coherent inputs come from one
    :func:`coherent_columns` call; the other terms are assembled row by row.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    points = np.asarray(points, dtype=float)
    betas = _coherent_betas(witness)
    coherent = {}
    if betas:
        columns = coherent_columns(points, betas, n - 1)
        coherent = {beta: columns[:, i] for i, beta in enumerate(betas)}
    # parameter objects only for the terms that take block_columns_batch
    if all(t.kind == COHERENT_SUM for t in witness.terms):
        rows = [None] * len(points)
    else:
        rows = [params_from_vector(point) for point in points]
    return _compress(witness, rows, n, coherent)


def expectation(witness: WitnessOperator, state) -> float:
    """Tr[W rho] for a FockVector or FockDensity state."""
    imag_residue = 0.0
    total = 0.0
    if isinstance(state, FockVector):
        psi = state.amplitudes
        cutoff = state.cutoff
        for term in witness.terms:
            if term.kind == DENSITY:
                sigma = term.data.matrix
                k = min(cutoff + 1, sigma.shape[0])
                val = complex(psi[:k].conj() @ sigma[:k, :k] @ psi[:k])
                imag_residue = max(imag_residue, abs(val.imag))
                total += term.weight * val.real
            else:
                amps = term_amplitudes(term, cutoff)
                total += term.weight * abs(np.vdot(amps, psi)) ** 2
        total += witness.identity_weight * state.norm_sq()
    elif isinstance(state, FockDensity):
        rho = state.matrix
        cutoff = state.cutoff
        for term in witness.terms:
            if term.kind == DENSITY:
                sigma = term.data.matrix
                k = min(cutoff + 1, sigma.shape[0])
                val = complex(np.trace(sigma[:k, :k] @ rho[:k, :k]))
            else:
                amps = term_amplitudes(term, cutoff)
                val = complex(amps.conj() @ rho @ amps)
            imag_residue = max(imag_residue, abs(val.imag))
            total += term.weight * val.real
        total += witness.identity_weight * state.trace()
    else:
        raise TypeError("expectation needs a FockVector or FockDensity")
    if imag_residue > 1e-10:
        raise HermiticityError(f"imaginary residue {imag_residue:.3e} above tolerance")
    return float(total)


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
    """V W V† for a Gaussian unitary V, term by term.

    Pure terms become truncated Fock vectors (tail bounds recorded); the
    symbolic identity component is untouched.
    """
    coherent_cols = _coherent_columns(witness, params, cutoff)
    terms = []
    for term in witness.terms:
        if term.kind == FOCK:
            col = block_columns(params, cutoff + 1, [term.data])[:, 0]
            tail = max(0.0, 1.0 - float(np.sum(np.abs(col) ** 2)))
            terms.append(WitnessTerm(term.weight, PURE, FockVector(col, tail_bound=tail)))
        elif term.kind == PURE:
            B = block_columns(params, cutoff + 1, range(term.data.amplitudes.size))
            vec = B @ term.data.amplitudes
            tail = max(0.0, 1.0 - float(np.sum(np.abs(vec) ** 2)) - term.data.tail_bound)
            terms.append(WitnessTerm(term.weight, PURE, FockVector(vec, tail_bound=tail)))
        elif term.kind == COHERENT_SUM:
            vec = np.zeros(cutoff + 1, dtype=complex)
            for coef, beta in term.data:
                vec += coef * coherent_cols[beta]
            tail = max(0.0, 1.0 - float(np.sum(np.abs(vec) ** 2)))
            terms.append(WitnessTerm(term.weight, PURE, FockVector(vec, tail_bound=tail)))
        elif term.kind == DENSITY:
            sigma = term.data.matrix
            B = block_columns(params, cutoff + 1, range(sigma.shape[0]))
            new_sigma = B @ sigma @ B.conj().T
            trace_loss = max(0.0, float(np.real(np.trace(sigma) - np.trace(new_sigma))))
            terms.append(
                WitnessTerm(
                    term.weight,
                    DENSITY,
                    FockDensity(new_sigma, tail_bound=term.data.tail_bound + trace_loss, validate=False),
                )
            )
        else:
            raise ValueError(f"unknown term kind {term.kind!r}")
    return WitnessOperator(
        terms=tuple(terms),
        support_cutoff=cutoff,
        phase_invariant=False,
        identity_weight=witness.identity_weight,
        descriptor=None,
    )


def witness_spectrum_top(witness: WitnessOperator) -> float:
    """Largest eigenvalue of the witness on the full space."""
    block = assemble_matrix(witness)
    top = hermitian_spectrum(block).top
    return max(top, witness.identity_weight)


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
    wtype = obj.get("type")
    if wtype == "fock_pair":
        return fock_pair_witness(int(obj["j"]), int(obj["k"]), float(obj["omega"]))
    if wtype == "cat_pair":
        return cat_pair_witness(parse_complex(obj["beta"]), float(obj["omega"]))
    if wtype == "fock_diagonal":
        return fock_diagonal_witness([float(w) for w in obj["weights"]])
    if wtype == "terms":
        terms = []
        support = 0
        phase_invariant = True
        for entry in obj["terms"]:
            state = state_from_json(entry["state"])
            weight = float(entry["weight"])
            if isinstance(state, FockVector):
                terms.append(WitnessTerm(weight, PURE, state))
                support = max(support, state.cutoff)
                nonzero = np.nonzero(np.abs(state.amplitudes) > 0)[0]
                phase_invariant = phase_invariant and nonzero.size <= 1
            elif isinstance(state, FockDensity):
                terms.append(WitnessTerm(weight, DENSITY, state))
                support = max(support, state.cutoff)
                off_diag = state.matrix - np.diag(np.diag(state.matrix))
                phase_invariant = phase_invariant and not np.any(np.abs(off_diag) > 0)
            else:
                raise ValueError("witness terms must be fock_vector or density states")
        return WitnessOperator(
            terms=tuple(terms),
            support_cutoff=support,
            phase_invariant=phase_invariant,
            identity_weight=float(obj.get("identity_weight", 0.0)),
            descriptor=None,
        )
    raise ValueError(f"unknown witness type {wtype!r}")
