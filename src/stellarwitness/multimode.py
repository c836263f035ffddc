"""Desk-scale multimode (N <= 3) thresholds over Bloch-Messiah-form unitaries.

A multimode Gaussian unitary is searched as ``(⊗_k D_k S_k) · V_I`` with the
passive interferometer V_I the exponential of an anti-Hermitian N x N
generator; the trailing interferometer of the Bloch-Messiah form commutes with
the total-photon projector and is dropped from the optimization.  V_I
preserves total photon number, so its Fock action factors into small exact
sector blocks, while the per-mode displaced squeezers reuse the single-mode
analytic columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._util import complex_pair, parse_complex
from .fock_gaussian import GaussianUnitaryParams, block_columns
from .numerics import hermitian_spectrum, matrix_exponential
from .threshold import OptimizerConfig, _top_eigenvalue, multistart, search_diagnostics


def enumerate_subspace(modes: int, total: int) -> list:
    """All occupation tuples with at most `total` photons, graded order.

    Within a grade the first mode's occupation decreases first, matching the
    single-mode enumeration when modes == 1.
    """
    if modes < 1 or total < 0:
        raise ValueError("need modes >= 1 and total >= 0")
    out = []
    for t in range(total + 1):
        out.extend(sector_indices(modes, t))
    return out


@lru_cache(maxsize=None)
def sector_indices(modes: int, total: int) -> tuple:
    """Occupation tuples with exactly `total` photons."""
    if modes == 1:
        return ((total,),)
    out = []
    for first in range(total, -1, -1):
        out.extend((first,) + rest for rest in sector_indices(modes - 1, total - first))
    return tuple(out)


@dataclass(frozen=True)
class MultimodeGaussianParams:
    """Interferometer (N x N unitary), per-mode squeezings and displacements."""

    interferometer: np.ndarray
    squeezings: tuple
    displacements: tuple
    generator: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        V = np.asarray(self.interferometer, dtype=complex)
        dim = V.shape[0]
        if V.shape != (dim, dim):
            raise ValueError("interferometer must be a square matrix")
        defect = float(np.max(np.abs(V.conj().T @ V - np.eye(dim))))
        if defect > 1e-10:
            raise ValueError(f"interferometer unitarity defect {defect:.3e} above 1e-10")
        if len(self.squeezings) != dim or len(self.displacements) != dim:
            raise ValueError("need one squeezing and one displacement per mode")
        if any(r < 0 for r in self.squeezings):
            raise ValueError("squeezings must be >= 0")
        object.__setattr__(self, "interferometer", V)
        object.__setattr__(self, "squeezings", tuple(float(r) for r in self.squeezings))
        object.__setattr__(self, "displacements", tuple(complex(a) for a in self.displacements))

    @property
    def modes(self) -> int:
        return self.interferometer.shape[0]

    @classmethod
    def from_generator(cls, X: np.ndarray, squeezings, displacements) -> "MultimodeGaussianParams":
        X = np.asarray(X, dtype=complex)
        if float(np.max(np.abs(X + X.conj().T))) > 1e-12 * max(1.0, float(np.max(np.abs(X)))):
            raise ValueError("interferometer generator must be anti-Hermitian")
        return cls(matrix_exponential(X), tuple(squeezings), tuple(displacements), generator=X)

    def mode_params(self, k: int) -> GaussianUnitaryParams:
        return GaussianUnitaryParams(
            theta=0.0, vartheta=0.0, r=self.squeezings[k], alpha=self.displacements[k]
        )

    def to_json(self) -> dict:
        return {
            "interferometer": [[complex_pair(z) for z in row] for row in self.interferometer],
            "squeezings": [float(r) for r in self.squeezings],
            "displacements": [complex_pair(a) for a in self.displacements],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MultimodeGaussianParams":
        V = np.array([[parse_complex(z) for z in row] for row in obj["interferometer"]])
        return cls(
            V,
            tuple(float(r) for r in obj["squeezings"]),
            tuple(parse_complex(a) for a in obj["displacements"]),
        )


@dataclass(frozen=True)
class MultimodeWitness:
    """Weighted finite-support multimode pure terms plus a symbolic identity."""

    modes: int
    terms: tuple  # ((weight, {occupations: amplitude, ...}), ...)
    identity_weight: float = 0.0

    def support_total(self) -> int:
        return max(
            (sum(occ) for _, amplitudes in self.terms for occ in amplitudes), default=0
        )

    def to_json(self) -> dict:
        terms = []
        for weight, amplitudes in self.terms:
            terms.append(
                {
                    "weight": float(weight),
                    "state": {
                        "kind": "multimode_fock_vector",
                        "modes": self.modes,
                        "amplitudes": [
                            {"occupations": list(occ), "value": complex_pair(val)}
                            for occ, val in amplitudes.items()
                        ],
                    },
                }
            )
        out = {"type": "terms", "modes": self.modes, "terms": terms}
        if self.identity_weight:
            out["identity_weight"] = float(self.identity_weight)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "MultimodeWitness":
        modes = int(obj["modes"])
        terms = []
        for entry in obj["terms"]:
            state = entry["state"]
            if state.get("kind") != "multimode_fock_vector":
                raise ValueError("multimode witness terms must be multimode_fock_vector states")
            amplitudes = {
                tuple(int(o) for o in item["occupations"]): parse_complex(item["value"])
                for item in state["amplitudes"]
            }
            if any(len(occ) != modes for occ in amplitudes):
                raise ValueError("occupation lists must match the declared mode count")
            terms.append((float(entry["weight"]), amplitudes))
        return cls(modes=modes, terms=tuple(terms), identity_weight=float(obj.get("identity_weight", 0.0)))


def multimode_fock_projector(occupations) -> MultimodeWitness:
    occ = tuple(int(o) for o in occupations)
    return MultimodeWitness(modes=len(occ), terms=((1.0, {occ: 1.0 + 0j}),))


# ---------------------------------------------------------------------------
# Passive interferometer action, exact per photon-number sector.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sector_transitions(modes: int, total: int):
    """Sparse recipe for the sector matrix of dG(X) = sum X_jk a_j† a_k."""
    basis = sector_indices(modes, total)
    index = {occ: i for i, occ in enumerate(basis)}
    moves = []
    for col, occ in enumerate(basis):
        for k in range(modes):
            if occ[k] == 0:
                continue
            for j in range(modes):
                target = list(occ)
                target[k] -= 1
                target[j] += 1
                row = index[tuple(target)]
                factor = math.sqrt(occ[k] * (occ[j] + (1 if j != k else 0)))
                moves.append((row, col, j, k, factor))
    return basis, tuple(moves)


def _sector_propagators(X: np.ndarray, max_total: int) -> list:
    """exp of the sector restriction of dG(X) for totals 0..max_total."""
    modes = X.shape[0]
    out = []
    for t in range(max_total + 1):
        basis, moves = _sector_transitions(modes, t)
        if len(basis) == 1:
            out.append(np.ones((1, 1), dtype=complex))
            continue
        G = np.zeros((len(basis), len(basis)), dtype=complex)
        for row, col, j, k, factor in moves:
            G[row, col] += X[j, k] * factor
        out.append(matrix_exponential(G))
    return out


def apply_passive(X: np.ndarray, amplitudes: dict) -> dict:
    """Amplitude map of the interferometer exp(dG(X)); photon-number exact."""
    if not amplitudes:
        return {}
    modes = X.shape[0]
    propagators = _sector_propagators(X, max(sum(occ) for occ in amplitudes))
    return apply_passive_cached(amplitudes, propagators, modes)


def conjugate_multimode_witness(witness: MultimodeWitness, X: np.ndarray) -> MultimodeWitness:
    """V W V† for a passive interferometer V = exp(dG(X)); exact."""
    terms = tuple(
        (weight, apply_passive(X, amplitudes)) for weight, amplitudes in witness.terms
    )
    return MultimodeWitness(witness.modes, terms, witness.identity_weight)


# ---------------------------------------------------------------------------
# Blocks and the compressed conjugated operator.
# ---------------------------------------------------------------------------


def _conjugated_vector(
    amplitudes: dict,
    propagators: list,
    mode_blocks: list,
    out_basis: list,
) -> np.ndarray:
    """(<k|U|psi>)_{|k| <= n-1} for one pure term with amplitude dict `psi`."""
    modes = len(out_basis[0])
    mixed = apply_passive_cached(amplitudes, propagators, modes)
    out = np.zeros(len(out_basis), dtype=complex)
    for mid, amp in mixed.items():
        if amp == 0:
            continue
        for i, target in enumerate(out_basis):
            product = amp
            for k in range(modes):
                product = product * mode_blocks[k][target[k], mid[k]]
                if product == 0:
                    break
            out[i] += product
    return out


def apply_passive_cached(amplitudes: dict, propagators: list, modes: int) -> dict:
    out: dict = {}
    totals = sorted({sum(occ) for occ in amplitudes})
    for t in totals:
        basis, _ = _sector_transitions(modes, t)
        vec = np.array([amplitudes.get(occ, 0.0) for occ in basis], dtype=complex)
        vec = propagators[t] @ vec
        for occ, val in zip(basis, vec):
            if val != 0:
                out[occ] = out.get(occ, 0.0) + val
    return out


def _generator(params: MultimodeGaussianParams) -> np.ndarray:
    """The interferometer's anti-Hermitian generator; recovered by a matrix
    logarithm when the params were built from the unitary alone."""
    if params.generator is not None:
        return params.generator
    import scipy.linalg

    X = scipy.linalg.logm(np.asarray(params.interferometer, dtype=complex))
    return 0.5 * (X - X.conj().T)


def compress_conjugated_multimode(
    witness: MultimodeWitness, params: MultimodeGaussianParams, n: int
) -> np.ndarray:
    """Π_{n-1,N} U W U† Π_{n-1,N} on the graded multi-index basis."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    X = _generator(params)
    support = witness.support_total()
    propagators = _sector_propagators(X, support)
    mode_blocks = [
        block_columns(params.mode_params(k), n, range(support + 1))
        for k in range(params.modes)
    ]
    out_basis = enumerate_subspace(params.modes, n - 1)
    dim = len(out_basis)
    out = np.zeros((dim, dim), dtype=complex)
    for weight, amplitudes in witness.terms:
        vec = _conjugated_vector(amplitudes, propagators, mode_blocks, out_basis)
        out += weight * np.outer(vec, vec.conj())
    if witness.identity_weight:
        out[np.diag_indices_from(out)] += witness.identity_weight
    return out


def multimode_gaussian_block(
    params: MultimodeGaussianParams, n_rows: int, cutoff: int
) -> np.ndarray:
    """Matrix elements <k|U|m> for |k| <= n_rows against all columns with
    per-mode index <= cutoff (columns in product order, modes varying last)."""
    import itertools

    modes = params.modes
    X = _generator(params)
    cols = list(itertools.product(range(cutoff + 1), repeat=modes))
    max_total = max(sum(c) for c in cols)
    propagators = _sector_propagators(X, max_total)
    mode_blocks = [
        block_columns(params.mode_params(k), n_rows + 1, range(max_total + 1))
        for k in range(modes)
    ]
    rows = enumerate_subspace(modes, n_rows)
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for j, col in enumerate(cols):
        out[:, j] = _conjugated_vector({col: 1.0 + 0j}, propagators, mode_blocks, rows)
    return out


# ---------------------------------------------------------------------------
# The multimode optimizer.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultimodeThresholdResult:
    value: float
    params: MultimodeGaussianParams
    core: np.ndarray
    basis: list
    rank: int
    diagnostics: dict = field(compare=False)
    seed: int = 0


def _vector_layout(modes: int):
    """Packing of the search vector: Hermitian generator H (V_I = exp(iH)),
    then squeezings, then displacement components; N^2 + 3N reals."""
    n_offdiag = modes * (modes - 1) // 2
    return modes, n_offdiag, modes * modes + 3 * modes


def _unpack_vector(vec: np.ndarray, modes: int) -> MultimodeGaussianParams:
    n_diag, n_off, _total = _vector_layout(modes)
    H = np.zeros((modes, modes), dtype=complex)
    pos = 0
    for k in range(modes):
        H[k, k] = vec[pos]
        pos += 1
    for j in range(modes):
        for k in range(j + 1, modes):
            H[j, k] = complex(vec[pos], vec[pos + 1])
            H[k, j] = H[j, k].conjugate()
            pos += 2
    rs = [float(vec[pos + k]) for k in range(modes)]
    pos += modes
    alphas = [complex(vec[pos + 2 * k], vec[pos + 2 * k + 1]) for k in range(modes)]
    return MultimodeGaussianParams.from_generator(1j * H, rs, alphas)


def _multimode_box(config: OptimizerConfig, modes: int):
    n_gen = modes * modes
    lo = np.concatenate(
        [
            -math.pi * np.ones(n_gen),
            np.zeros(modes),
            -config.alpha_max * np.ones(2 * modes),
        ]
    )
    hi = np.concatenate(
        [
            math.pi * np.ones(n_gen),
            config.r_max * np.ones(modes),
            config.alpha_max * np.ones(2 * modes),
        ]
    )
    return lo, hi


def multimode_objective(
    witness: MultimodeWitness, n: int, params: MultimodeGaussianParams
) -> float:
    return _top_eigenvalue(compress_conjugated_multimode(witness, params, n))


def multimode_threshold(
    witness: MultimodeWitness,
    modes: int,
    n: int,
    config: OptimizerConfig | None = None,
    threads: int | None = None,
) -> MultimodeThresholdResult:
    """Multi-start threshold over the (N^2 + 3N)-parameter manifold.

    Runs the same search as single-mode thresholds, `threshold.multistart`,
    on this box, so it has the same determinism and diagnostics contract:
    seeded low-discrepancy starts, a tie-break on the full search vector, and
    the value re-evaluated from the winning parameters.  Initial points of
    another length than the search vector are skipped.  `threads` is
    accepted for compatibility and ignored.
    """
    if modes > 3:
        raise ValueError("multimode thresholds are desk-scale: modes <= 3")
    if witness.modes != modes:
        raise ValueError(f"witness has {witness.modes} modes, expected {modes}")
    if n < 1:
        raise ValueError("rank must be >= 1")
    config = config or OptimizerConfig()
    lo, hi = _multimode_box(config, modes)

    def fun(vec):
        return multimode_objective(witness, n, _unpack_vector(vec, modes))

    extra = [vec for vec in config.initial_points if np.asarray(vec).size == lo.size]
    x, outcomes = multistart(fun, lo, hi, config, extra)
    params = _unpack_vector(x, modes)
    spectrum = hermitian_spectrum(compress_conjugated_multimode(witness, params, n))
    r_part, alpha_part = x[modes * modes : modes * modes + modes], x[modes * modes + modes :]
    boundary = {
        "r": bool(np.any(np.abs(r_part - config.r_max) <= 1e-6 * config.r_max)),
        "alpha": bool(np.any(np.abs(np.abs(alpha_part) - config.alpha_max) <= 1e-6 * config.alpha_max)),
    }
    return MultimodeThresholdResult(
        value=spectrum.top,
        params=params,
        core=spectrum.vector(0),
        basis=enumerate_subspace(modes, n - 1),
        rank=n,
        diagnostics=search_diagnostics(outcomes, spectrum.top, boundary, config),
        seed=config.seed,
    )


def multimode_result_to_json(witness: MultimodeWitness, result: MultimodeThresholdResult) -> dict:
    return {
        "witness": witness.to_json(),
        "modes": result.params.modes,
        "rank": result.rank,
        "value": result.value,
        "params": result.params.to_json(),
        "core": [complex_pair(c) for c in result.core],
        "basis": [list(occ) for occ in result.basis],
        "diagnostics": result.diagnostics,
        "seed": result.seed,
    }
