"""Desk-scale multimode (N <= 3) thresholds over Bloch-Messiah-form unitaries.

A multimode Gaussian unitary is searched as ``(⊗_k D_k S_k) · V̂`` with V̂ the
passive interferometer of the N x N unitary V = exp(iH), H Hermitian; the
trailing interferometer of the Bloch-Messiah form commutes with the
total-photon projector and is dropped from the optimization.  V comes from one
``eigh`` of H as W diag(e^{iλ}) W†.  V̂ preserves total photon number, and its
block on the sector of t photons is the t-th symmetric power of V (Scheel,
quant-ph/0406127):

    <n|V̂|m> = perm(V[rows(n), cols(m)]) / sqrt(∏_j n_j! ∏_k m_k!),

where rows(n) lists mode j n_j times.  The per-mode displaced squeezers reuse
the single-mode analytic columns.  A batch of search points goes through
stacked ``eigh`` calls and elementwise gathers and products only, so every
point's value has the same bits in any batch.

Each witness derives its conjugation plan once
(`MultimodeWitness.conjugation_plan`): the photon-number sectors its
occupations lie in and each amplitude's column among theirs.  A search round
mixes only those sectors with the mode columns, and a witness that reads
sector 0 alone, where V̂ is 1, builds no interferometer; a column has the
same bits whatever else is computed beside it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ._util import complex_pair, parse_complex, require_finite, require_integer, require_list, require_real
from .fock_gaussian import _block_columns, check_box, checked_points
from .numerics import hermitian_spectrum
from .threshold import (
    OptimizerConfig,
    _top_eigenvalue,
    _top_eigenvalues,
    multistart,
    search_diagnostics,
)
from .witness import term_list_from_json, term_list_to_json


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


@lru_cache(maxsize=None)
def _identity(modes: int) -> np.ndarray:
    return np.eye(modes)


def _check_unitary(V: np.ndarray) -> None:
    """Raise unless every matrix of the (B, N, N) stack `V` is unitary to
    1e-10; a NaN or infinite entry fails."""
    if not np.isfinite(V).all():
        raise ValueError("interferometer unitarity defect nan above 1e-10")
    defect = np.max(np.abs(V.conj().swapaxes(-1, -2) @ V - _identity(V.shape[-1])))
    if not defect <= 1e-10:
        raise ValueError(f"interferometer unitarity defect {defect:.3e} above 1e-10")


def _interferometers(H: np.ndarray) -> np.ndarray:
    """V = exp(iH) of every Hermitian generator of a (B, N, N) stack, from one
    stacked ``eigh``: V = W diag(e^{iλ}) W†."""
    lam, W = np.linalg.eigh(H)
    scaled = W * np.exp(1j * lam)[:, None, :]
    V = scaled[:, :, None, 0] * W.conj()[:, None, :, 0]
    for k in range(1, H.shape[-1]):
        V = V + scaled[:, :, None, k] * W.conj()[:, None, :, k]
    _check_unitary(V)
    return V


def _interferometer(X) -> np.ndarray:
    """exp(X) of one anti-Hermitian N x N generator."""
    X = np.asarray(X, dtype=complex)
    defect = float(np.max(np.abs(X + X.conj().T)))
    if not defect <= 1e-12 * max(1.0, float(np.max(np.abs(X)))):
        raise ValueError("interferometer generator must be anti-Hermitian and finite")
    return _interferometers(-1j * X[None])[0]


@dataclass(frozen=True)
class MultimodeGaussianParams:
    """Interferometer (N x N unitary), per-mode squeezings and displacements."""

    interferometer: np.ndarray
    squeezings: tuple
    displacements: tuple

    def __post_init__(self):
        V = np.asarray(self.interferometer, dtype=complex)
        dim = V.shape[0]
        if V.shape != (dim, dim):
            raise ValueError("interferometer must be a square matrix")
        _check_unitary(V[None])
        if len(self.squeezings) != dim or len(self.displacements) != dim:
            raise ValueError("need one squeezing and one displacement per mode")
        squeezings = tuple(float(r) for r in self.squeezings)
        displacements = tuple(complex(a) for a in self.displacements)
        if not all(math.isfinite(r) and r >= 0 for r in squeezings):
            raise ValueError("squeezings must be finite and >= 0")
        if not all(math.isfinite(a.real) and math.isfinite(a.imag) for a in displacements):
            raise ValueError("displacements must be finite")
        object.__setattr__(self, "interferometer", V)
        object.__setattr__(self, "squeezings", squeezings)
        object.__setattr__(self, "displacements", displacements)

    @property
    def modes(self) -> int:
        return self.interferometer.shape[0]

    @classmethod
    def from_generator(cls, X: np.ndarray, squeezings, displacements) -> "MultimodeGaussianParams":
        return cls(_interferometer(X), tuple(squeezings), tuple(displacements))

    def mode_points(self) -> np.ndarray:
        """Rows (r, Re alpha, Im alpha) of the per-mode displaced squeezers."""
        return np.array([(r, a.real, a.imag) for r, a in zip(self.squeezings, self.displacements)])

    def to_json(self) -> dict:
        return {
            "interferometer": [[complex_pair(z) for z in row] for row in self.interferometer],
            "squeezings": [float(r) for r in self.squeezings],
            "displacements": [complex_pair(a) for a in self.displacements],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MultimodeGaussianParams":
        V = np.array([[parse_complex(z, "interferometer entry") for z in row] for row in obj["interferometer"]])
        return cls(
            V,
            tuple(float(r) for r in obj["squeezings"]),
            tuple(parse_complex(a, "displacement") for a in obj["displacements"]),
        )


@dataclass(frozen=True)
class MultimodeWitness:
    """Weighted finite-support multimode pure terms plus a symbolic identity."""

    modes: int
    terms: tuple  # ((weight, {occupations: amplitude, ...}), ...), or pairs in place of the dicts
    identity_weight: float = 0.0

    def __post_init__(self):
        modes = require_integer(self.modes, "modes", 1)
        terms = []
        for weight, amplitudes in self.terms:
            checked = {}
            for occ, value in amplitudes.items() if isinstance(amplitudes, dict) else amplitudes:
                occ = tuple(require_integer(o, "occupations", 0) for o in occ)
                if len(occ) != modes:
                    raise ValueError(f"occupations {occ} do not match the {modes} declared modes")
                if occ in checked:
                    raise ValueError(f"occupations {list(occ)} listed twice in one state")
                checked[occ] = require_finite(complex(value), "amplitude")
            terms.append((require_real(weight, "weight"), checked))
        identity = require_real(self.identity_weight, "identity_weight")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "identity_weight", identity)

    @cached_property
    def conjugation_plan(self) -> tuple:
        """The term structure :func:`_compressions` reads, derived on first use
        and kept (see :func:`_conjugation_plan`)."""
        return _conjugation_plan(self.modes, self.terms)

    def to_json(self) -> dict:
        terms = [(weight, {"kind": "multimode_fock_vector", "modes": self.modes, "amplitudes": [
            {"occupations": list(occ), "value": complex_pair(val)} for occ, val in amplitudes.items()]})
            for weight, amplitudes in self.terms]
        return {"type": "terms", "modes": self.modes, **term_list_to_json(terms, self.identity_weight)}

    @classmethod
    def from_json(cls, obj: dict) -> "MultimodeWitness":
        modes = require_integer(obj.get("modes"), "modes", 1)
        terms, identity = term_list_from_json(obj, lambda state: _amplitudes_from_json(state, modes))
        return cls(modes=modes, terms=terms, identity_weight=identity)


def _amplitudes_from_json(state, modes: int) -> list:
    """The (occupations, amplitude) pairs of a multimode_fock_vector state
    object of `modes` modes, in file order; `MultimodeWitness` checks them."""
    if not isinstance(state, dict) or state.get("kind") != "multimode_fock_vector":
        raise ValueError("multimode witness terms must be multimode_fock_vector states")
    if state.get("modes", modes) != modes:
        raise ValueError(f"state modes {state['modes']} do not match the witness's modes {modes}")
    items = require_list(state.get("amplitudes"), "amplitudes")
    if not all(isinstance(item, dict) for item in items):
        raise ValueError(f"amplitudes must be a list of objects, got {items!r}")
    return [(require_list(item.get("occupations"), "occupations"), parse_complex(item.get("value"), "amplitude value"))
            for item in items]


def multimode_fock_projector(occupations) -> MultimodeWitness:
    occ = tuple(occupations)
    return MultimodeWitness(modes=len(occ), terms=((1.0, {occ: 1.0 + 0j}),))


def _conjugation_plan(modes: int, terms) -> tuple:
    """(sectors, steps): what compressing these terms reads of the conjugated
    columns.

    `sectors` holds the ascending photon numbers of the terms' occupations,
    and `steps` one (weight, ((column, amplitude), ...)) per term, in term
    order, with `column` the occupation's position among the columns of
    `sectors` (each sector's columns in graded order).  A witness without
    occupations reads sector 0, so its search vectors are checked as any
    other witness's are.
    """
    sectors = sorted({sum(occ) for _, amplitudes in terms for occ in amplitudes}) or [0]
    occupations = [occ for t in sectors for occ in sector_indices(modes, t)]
    column = {occ: i for i, occ in enumerate(occupations)}
    steps = tuple(
        (weight, tuple((column[occ], amp) for occ, amp in amplitudes.items()))
        for weight, amplitudes in terms
    )
    return tuple(sectors), steps


# ---------------------------------------------------------------------------
# Passive interferometer action: symmetric powers of V per photon-number sector.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sector_table(modes: int, total: int):
    """The sector's occupations as a (states, modes) array and, for total >=
    1, the gather tables that build its block of V̂ from the block below:

        <n|V̂|m> = Σ_j coef[n, m, j] V[j, k] <n - e_j|V̂|m - e_k>,

    k = first[m] the first occupied mode of m, rows[n, j] the index of
    n - e_j (any index where n_j = 0, whose coef is 0), cols[m] that of
    m - e_k and coef = sqrt(n_j / m_k).  This is the permanent
    perm(V[rows(n), cols(m)]) / sqrt(∏n! ∏m!) expanded along its first
    column, with repeated rows grouped."""
    basis = sector_indices(modes, total)
    occupations = np.array(basis, dtype=np.intp)
    if total == 0:
        return occupations, None
    lower = {occ: i for i, occ in enumerate(sector_indices(modes, total - 1))}

    def down(occ, j):
        return lower.get(occ[:j] + (occ[j] - 1,) + occ[j + 1 :], 0)

    first = np.array([next(k for k, o in enumerate(occ) if o) for occ in basis])
    rows = np.array([[down(occ, j) for j in range(modes)] for occ in basis], dtype=np.intp)
    cols = np.array([down(occ, k) for occ, k in zip(basis, first)], dtype=np.intp)
    top = occupations[np.arange(len(basis)), first]
    coef = np.sqrt(occupations[:, None, :] / top[None, :, None])
    return occupations, (rows[:, None, :], cols[None, :, None], first, coef)


def _sector_matrices(V, count: int, max_total: int) -> list:
    """The blocks of V̂ on the sectors 0..max_total for every unitary of a
    (count, N, N) stack, each of shape (count, states, states); V is not read
    for max_total = 0."""
    out = [np.ones((count, 1, 1), dtype=complex)]
    for t in range(1, max_total + 1):
        rows, cols, first, coef = _sector_table(V.shape[-1], t)[1]
        below = out[-1][:, rows, cols]
        out.append((coef * V[:, None, :, first].swapaxes(-1, -2) * below).sum(axis=-1))
    return out


# ---------------------------------------------------------------------------
# Blocks and the compressed conjugated operator, batched over unitaries.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _mixing_table(modes: int, row_total: int, sectors: tuple):
    """Where the mode-column products of :func:`_conjugated_columns` gather
    from: the flat index of <k_j|mode j block|m_j> in a (modes, row_total +
    1, top sector + 1) stack of single-mode blocks, shape (rows, columns,
    modes), for every graded row k with |k| <= row_total and every column m
    of `sectors`."""
    rows = np.concatenate([_sector_table(modes, t)[0] for t in range(row_total + 1)])
    mids = np.concatenate([_sector_table(modes, t)[0] for t in sectors])
    width = sectors[-1] + 1
    return np.arange(modes) * (row_total + 1) * width + rows[:, None, :] * width + mids[None, :, :]


def _conjugated_columns(V, mode_points: np.ndarray, row_total: int, sectors: tuple):
    """<k|U|m> for every k with |k| <= row_total (graded) and every m in the
    photon-number `sectors` (ascending, each in graded order), shape (B,
    rows, columns), with U = (⊗_k D_k S_k) V̂, from the (B, N, N) unitaries
    and their (B, N, 3) per-mode rows (r, Re alpha, Im alpha), already
    checked, whose single-mode columns come from one call of the block-column
    core.

    Only the asked sectors are mixed; V̂ is built on every sector up to the
    top one, as its recursion needs them.  V̂ is 1 on sector 0, so V may be
    None when only sector 0 is asked.  A column has the same bits whatever
    else is asked.
    """
    count, modes = mode_points.shape[:2]
    top = sectors[-1]
    blocks = _block_columns(mode_points.reshape(-1, 3), row_total + 1, list(range(top + 1)), None)
    gathered = blocks.reshape(count, -1)[:, _mixing_table(modes, row_total, sectors)]
    mixed = gathered[..., 0]
    for k in range(1, modes):
        mixed = mixed * gathered[..., k]
    passive = _sector_matrices(V, count, top)
    columns = []
    start = 0
    for t in sectors:
        block = passive[t]
        out = mixed[:, :, start : start + 1] * block[:, None, 0, :]
        for j in range(1, block.shape[1]):
            out = out + mixed[:, :, start + j : start + j + 1] * block[:, None, j, :]
        columns.append(out)
        start += block.shape[1]
    return np.concatenate(columns, axis=2)


def _compressions(witness: MultimodeWitness, n: int, V, mode_points: np.ndarray):
    """Π_{n-1,N} U W U† Π_{n-1,N} for every unitary of the (B, N, N) stack `V`
    with its (B, N, 3) per-mode rows, shape (B, dim, dim): the columns of the
    witness's `conjugation_plan` only (V may be None when that reads sector 0
    alone).  It makes no checks: the search rounds' path."""
    sectors, steps = witness.conjugation_plan
    columns = _conjugated_columns(V, mode_points, n - 1, sectors)
    count, dim = columns.shape[:2]
    out = np.zeros((count, dim, dim), dtype=complex)
    for weight, entries in steps:
        vec = np.zeros((count, dim), dtype=complex)
        for column, amp in entries:
            vec = vec + amp * columns[:, :, column]
        out = out + weight * (vec[:, :, None] * vec.conj()[:, None, :])
    if witness.identity_weight:
        diag = np.arange(dim)
        out[:, diag, diag] += witness.identity_weight
    return out


def compress_conjugated_multimode(
    witness: MultimodeWitness, params: MultimodeGaussianParams, n: int
) -> np.ndarray:
    """Π_{n-1,N} U W U† Π_{n-1,N} on the graded multi-index basis."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    mode_points = checked_points(params.mode_points())
    return _compressions(witness, n, params.interferometer[None], mode_points[None])[0]


def multimode_gaussian_block(
    params: MultimodeGaussianParams, n_rows: int, cutoff: int
) -> np.ndarray:
    """Matrix elements <k|U|m> for |k| <= n_rows against all columns with
    per-mode index <= cutoff (columns in product order, modes varying last)."""
    modes = params.modes
    max_total = modes * cutoff
    V = params.interferometer[None]
    sectors = tuple(range(max_total + 1))
    mode_points = checked_points(params.mode_points())
    columns = _conjugated_columns(V, mode_points[None], n_rows, sectors)[0]
    position = {occ: i for i, occ in enumerate(enumerate_subspace(modes, max_total))}
    return columns[:, [position[c] for c in itertools.product(range(cutoff + 1), repeat=modes)]]


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


@lru_cache(maxsize=None)
def _generator_slots(modes: int) -> tuple:
    """(diagonal, upper-triangle rows, upper-triangle columns) of N x N."""
    return (np.arange(modes), *np.triu_indices(modes, 1))


def _generators(points: np.ndarray, modes: int) -> np.ndarray:
    """The Hermitian generators H (V = exp(iH)) of a (B, N^2 + 3N) stack of
    search vectors, which hold H's diagonal, then (Re, Im) of its upper
    triangle row by row, then squeezings, then displacement components."""
    H = np.zeros((len(points), modes, modes), dtype=complex)
    diag, j, k = _generator_slots(modes)
    H.real[:, diag, diag] = points[:, :modes]
    pairs = points[:, modes : modes * modes]
    H.real[:, j, k] = H.real[:, k, j] = pairs[:, 0::2]
    H.imag[:, j, k] = pairs[:, 1::2]
    H.imag[:, k, j] = -pairs[:, 1::2]
    return H


def _search_mode_points(points: np.ndarray, modes: int) -> np.ndarray:
    """Per-mode rows (r, Re alpha, Im alpha) of a (B, N^2 + 3N) stack of
    search vectors, shape (B, N, 3)."""
    rs = points[:, modes * modes : modes * modes + modes, None]
    return np.concatenate([rs, points[:, modes * modes + modes :].reshape(-1, modes, 2)], axis=2)


def _unpack_vector(vec: np.ndarray, modes: int) -> MultimodeGaussianParams:
    """The params of one search vector, with the same interferometer bits as
    its row in :func:`_objectives`."""
    point = np.asarray(vec, dtype=float)[None]
    H = _generators(point, modes)
    r, re, im = _search_mode_points(point, modes)[0].T
    return MultimodeGaussianParams(_interferometers(H)[0], tuple(r), tuple(map(complex, re, im)))


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
    """Top eigenvalue of the compressed conjugated witness; the one-row case
    of :func:`_objectives`."""
    return _top_eigenvalue(compress_conjugated_multimode(witness, params, n))


def _objectives(witness: MultimodeWitness, n: int, points: np.ndarray, modes: int) -> np.ndarray:
    """:func:`multimode_objective` at every search vector (row) of `points`,
    for the rounds of one search, whose points lie in a box that passed
    `check_box`: one stacked ``eigh`` for the interferometers, one ladder
    recurrence for the mode columns, gathers for the sector blocks and one
    stacked eigen step.  A witness that reads sector 0 alone, where V̂ is 1,
    gets no interferometers; each interferometer built is still checked to
    be unitary."""
    V = _interferometers(_generators(points, modes)) if witness.conjugation_plan[0][-1] else None
    return _top_eigenvalues(_compressions(witness, n, V, _search_mode_points(points, modes)))


def multimode_threshold(
    witness: MultimodeWitness,
    modes: int,
    n: int,
    config: OptimizerConfig | None = None,
    threads: int | None = None,
) -> MultimodeThresholdResult:
    """Multi-start threshold over the (N^2 + 3N)-parameter manifold.

    Runs the same lockstep search as single-mode thresholds,
    `threshold.multistart`, on this box (each round through
    :func:`_objectives`, unchecked), so it has the same determinism and
    diagnostics contract:
    seeded low-discrepancy starts, a tie-break on the full search vector, and
    the value re-evaluated from the winning parameters.  A box on which the
    kernels could overflow raises ValueError before the first round.
    Initial points of another length than the search vector are skipped.
    `threads` is ignored, and kept only for the benchmark's calls until
    `bench/` stops passing it.
    """
    if modes > 3:
        raise ValueError("multimode thresholds are desk-scale: modes <= 3")
    if witness.modes != modes:
        raise ValueError(f"witness has {witness.modes} modes, expected {modes}")
    if n < 1:
        raise ValueError("rank must be >= 1")
    config = config or OptimizerConfig()
    lo, hi = _multimode_box(config, modes)
    check_box(config.r_max, config.alpha_max)

    def fun(points):
        return _objectives(witness, n, points, modes)

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
