"""Fock-basis matrix elements of single-mode Gaussian unitaries.

The unitary is parameterized as ``U = F_out(theta) · D(alpha) · S(r) · F_in(vartheta)``
with displacement ``D(alpha) = exp(alpha a† - alpha* a)``, squeezing
``S(r) = exp(r/2 (a†² - a²))`` and number-phase factors acting as
``<k|F_out(theta) = e^{-ik theta} <k|`` and ``F_in(vartheta)|m> = e^{+im vartheta}|m>``.

Two independent evaluation paths are provided:

* an analytic path built from Hermite-polynomial sums (plus the exact
  Laguerre-form displacement element when the squeezing is negligible); a
  coherent input reduces to the vacuum column of a displaced squeezer, which
  is computed directly from the single-term (m = 0) sum, bit-identical to the
  general element formula, and
* an oracle path that exponentiates truncated annihilation/creation
  generators, either densely or column-by-column through a Chebyshev
  expansion of the sparse generator's action.

Every analytic code path is pinned against the oracle in the test suite; the
branch convention is principal square roots with ``r >= 0`` (squeezing along
other axes is reachable through the two phases).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import TailBoundError
from .numerics import log_factorial, matrix_exponential
from .states import FockVector

#: below this value of sinh(r) the displacement-only closed form is exact
#: to well under the oracle tolerance and removes the 1/nu singularity.
SQUEEZING_DEGENERACY_CUTOFF = 1e-10

#: default headroom added to a requested block size for the dense oracle.
ORACLE_CUTOFF_PAD = 30

#: tail indicator threshold for oracle truncation.
ORACLE_DEFECT_TOL = 1e-9


@dataclass(frozen=True)
class GaussianUnitaryParams:
    """Parameters (theta, vartheta, r, alpha) of a single-mode Gaussian unitary."""

    theta: float = 0.0
    vartheta: float = 0.0
    r: float = 0.0
    alpha: complex = 0.0

    def __post_init__(self):
        values = (self.theta, self.vartheta, self.r, self.alpha.real, self.alpha.imag)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("Gaussian unitary parameters must be finite")
        if self.r < 0:
            raise ValueError(
                "negative squeezing is represented by shifting the phases; r must be >= 0"
            )

    @property
    def mu(self) -> float:
        return math.cosh(self.r)

    @property
    def nu(self) -> float:
        return math.sinh(self.r)

    def is_identity(self) -> bool:
        return self.theta == self.vartheta == self.r == 0.0 and self.alpha == 0.0

    def to_json(self) -> dict:
        return {
            "theta": float(self.theta),
            "vartheta": float(self.vartheta),
            "r": float(self.r),
            "alpha": [float(self.alpha.real), float(self.alpha.imag)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GaussianUnitaryParams":
        from ._util import parse_complex

        return cls(
            theta=float(obj.get("theta", 0.0)),
            vartheta=float(obj.get("vartheta", 0.0)),
            r=float(obj["r"]),
            alpha=parse_complex(obj["alpha"]),
        )


def _laguerre(n: int, d: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^{(d)}(x) by forward recurrence."""
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + d - x
    for i in range(2, n + 1):
        prev, cur = cur, ((2 * i - 1 + d - x) * cur - (i - 1 + d) * prev) / i
    return cur


def _displacement_element(alpha: complex, k: int, m: int) -> complex:
    """Exact <k|D(alpha)|m> via the Laguerre closed form."""
    x = abs(alpha) ** 2
    if k >= m:
        d, low = k - m, m
        power = alpha**d if d else 1.0
    else:
        d, low = m - k, k
        power = (-alpha.conjugate()) ** d
    log_mag = -0.5 * x + 0.5 * (log_factorial(low) - log_factorial(low + d))
    return math.exp(log_mag) * power * _laguerre(low, d, x)


def _scaled_hermite(x: complex, n_max: int):
    """Hermite values split as H_d(x) = units[d] * exp(logs[d]).

    Forward recurrence H_{d+1} = 2x H_d - 2d H_{d-1}, renormalized every step
    so arbitrarily high degrees stay inside double range; the log magnitudes
    are folded into the per-term exponents.
    """
    units = np.empty(n_max + 1, dtype=complex)
    logs = np.empty(n_max + 1, dtype=float)
    units[0], logs[0] = 1.0, 0.0
    if n_max == 0:
        return units, logs
    mag = abs(2.0 * x)
    if mag > 0.0:
        units[1], logs[1] = 2.0 * x / mag, math.log(mag)
    else:
        units[1], logs[1] = 0.0, 0.0
    for d in range(1, n_max):
        anchor = max(logs[d], logs[d - 1])
        value = 2.0 * x * units[d] * math.exp(logs[d] - anchor) - 2.0 * d * units[
            d - 1
        ] * math.exp(logs[d - 1] - anchor)
        mag = abs(value)
        if mag > 0.0:
            units[d + 1], logs[d + 1] = value / mag, anchor + math.log(mag)
        else:
            units[d + 1], logs[d + 1] = 0.0, anchor
    return units, logs


#: phase_k[k] * phase_m[0] of an element context at theta = vartheta = 0:
#: exactly 1 + 0j, kept as a factor because the product fixes signs of zeros.
_UNIT_PHASE = np.complex128(1.0)


class _HermiteTables:
    """Per-parameter factors of the Hermite sum for <k|D(alpha)S(r)|m>.

    All magnitudes (factorial ratios, Hermite growth, the Gaussian envelope)
    are assembled in log space and exponentiated once per term, which keeps
    any block size the validation suites ask for inside double range.  Below
    ``SQUEEZING_DEGENERACY_CUTOFF`` no tables are built: elements come from the
    Laguerre form of the displacement.
    """

    __slots__ = (
        "mu", "alpha", "degenerate", "u1", "l1", "u2", "l2", "e0_phase", "log_e0",
        "log_ratio", "log_two_over_nu", "i_pow",
    )

    def __init__(self, r: float, alpha: complex, k_max: int, m_max: int):
        mu, nu = math.cosh(r), math.sinh(r)
        self.mu = mu
        self.alpha = alpha
        self.degenerate = nu < SQUEEZING_DEGENERACY_CUTOFF
        if self.degenerate:
            return
        ac = alpha.conjugate()
        s = math.sqrt(2.0 * mu * nu)
        x1 = -ac / s
        # principal branch: sqrt(-2 mu nu) = i s, pinned against the oracle.
        x2 = (mu * alpha - nu * ac) / (1j * s)
        self.u1, self.l1 = _scaled_hermite(x1, m_max)
        self.u2, self.l2 = _scaled_hermite(x2, k_max)
        envelope = (nu / (2.0 * mu)) * ac * ac
        self.log_e0 = -(abs(alpha) ** 2) / 2.0 + envelope.real
        self.e0_phase = cmath.exp(1j * envelope.imag)
        self.log_ratio = math.log(nu / (2.0 * mu))
        self.log_two_over_nu = math.log(2.0 / nu)
        self.i_pow = 1j ** np.arange(k_max + 1)


class _ElementContext(_HermiteTables):
    """Per-parameter workspace so block assembly and single elements share bits."""

    __slots__ = ("phase_k", "phase_m")

    def __init__(self, params: GaussianUnitaryParams, k_max: int, m_max: int):
        super().__init__(params.r, complex(params.alpha), k_max, m_max)
        self.phase_k = np.exp(-1j * params.theta * np.arange(k_max + 1))
        self.phase_m = np.exp(1j * params.vartheta * np.arange(m_max + 1))

    def element(self, k: int, m: int) -> complex:
        if k < 0 or m < 0:
            raise ValueError("Fock indices must be >= 0")
        phases = self.phase_k[k] * self.phase_m[m]
        if self.degenerate:
            return phases * _displacement_element(self.alpha, k, m)
        base = (
            0.5 * (log_factorial(k) + log_factorial(m))
            - 0.5 * math.log(self.mu)
            + 0.5 * (k + m) * self.log_ratio
            + self.log_e0
        )
        total = 0.0j
        for j in range(min(k, m) + 1):
            log_term = (
                base
                + j * self.log_two_over_nu
                - log_factorial(j)
                - log_factorial(m - j)
                - log_factorial(k - j)
                + self.l1[m - j]
                + self.l2[k - j]
            )
            total += (
                math.exp(log_term)
                * self.i_pow[k - j]
                * self.u1[m - j]
                * self.u2[k - j]
            )
        return phases * self.e0_phase * total


def _vacuum_column(r: float, alpha: complex, k_max: int) -> np.ndarray:
    """<k|D(alpha)S(r)|0> for k <= k_max.

    Bit-identical to column 0 of :meth:`_ElementContext.element` at
    theta = vartheta = 0: the Hermite sum has the single term j = 0, whose
    operations run in the same order, unit phase included.  Only the
    exponent's zero summands (log 0!, j log(2/nu)) are left out; they can
    change nothing but the sign of a zero, which exp() ignores.
    """
    tables = _HermiteTables(r, alpha, k_max, 0)
    out = np.empty(k_max + 1, dtype=complex)
    if tables.degenerate:
        for k in range(k_max + 1):
            out[k] = _UNIT_PHASE * _displacement_element(alpha, k, 0)
        return out
    half_log_mu = 0.5 * math.log(tables.mu)
    lead = _UNIT_PHASE * tables.e0_phase
    log_ratio, log_e0 = tables.log_ratio, tables.log_e0
    u1, u2, l2, i_pow = tables.u1[0], tables.u2, tables.l2, tables.i_pow
    for k in range(k_max + 1):
        log_k = log_factorial(k)
        base = 0.5 * log_k - half_log_mu + 0.5 * k * log_ratio + log_e0
        term = math.exp(base - log_k + l2[k]) * i_pow[k] * u1 * u2[k]
        out[k] = lead * (0.0j + term)
    return out


def gaussian_matrix_element(params: GaussianUnitaryParams, k: int, m: int) -> complex:
    """Analytic <k|U|m> for a single pair of Fock indices."""
    if k < 0 or m < 0:
        raise ValueError("Fock indices must be >= 0")
    return _ElementContext(params, k, m).element(k, m)


def gaussian_block(
    params: GaussianUnitaryParams, row_max: int, col_max: int
) -> np.ndarray:
    """Matrix of <k|U|m> for 0 <= k <= row_max, 0 <= m <= col_max.

    Entries are bit-identical to elementwise :func:`gaussian_matrix_element`
    calls (same recurrences, same evaluation order).
    """
    if row_max < 0 or col_max < 0:
        raise ValueError("block extents must be >= 0")
    ctx = _ElementContext(params, row_max, col_max)
    out = np.empty((row_max + 1, col_max + 1), dtype=complex)
    for m in range(col_max + 1):
        for k in range(row_max + 1):
            out[k, m] = ctx.element(k, m)
    return out


def block_columns(params: GaussianUnitaryParams, rows: int, cols) -> np.ndarray:
    """Selected columns <k|U|m>, k < rows, for m in `cols` (optimizer hot path)."""
    cols = list(cols)
    ctx = _ElementContext(params, rows - 1, max(cols) if cols else 0)
    out = np.empty((rows, len(cols)), dtype=complex)
    for i, m in enumerate(cols):
        for k in range(rows):
            out[k, i] = ctx.element(k, m)
    return out


def transform_coherent(
    params: GaussianUnitaryParams, beta: complex, k_max: int
) -> FockVector:
    """Amplitudes <k|U|beta> for k <= k_max for a coherent input |beta>.

    Uses the displaced-squeezed reduction: commuting the input phase and the
    squeezer through the coherent displacement leaves a vacuum column with the
    composite displacement ``alpha + beta_tilde``, times an exact phase.  The
    column comes straight from the Hermite tables, with no parameter object
    or element loop.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    beta = complex(beta)
    mu, nu = params.mu, params.nu
    rotated = cmath.exp(1j * params.vartheta) * beta
    beta_tilde = rotated * mu + rotated.conjugate() * nu
    alpha = complex(params.alpha)
    phase = cmath.exp((alpha * beta_tilde.conjugate() - alpha.conjugate() * beta_tilde) / 2.0)
    shifted = alpha + beta_tilde
    if not cmath.isfinite(shifted):
        raise ValueError("coherent input and displacement must be finite")
    column = _vacuum_column(params.r, shifted, k_max)
    amps = phase * np.exp(-1j * params.theta * np.arange(k_max + 1)) * column
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    return FockVector(amps, tail_bound=max(0.0, 1.0 - norm_sq))


# ---------------------------------------------------------------------------
# Oracle path: exponentials of truncated generators.
# ---------------------------------------------------------------------------


def _generators(dim: int):
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    return a, a.conj().T


#: rows inspected at the truncation edge; > 1 so an oscillation node of the
#: photon-number distribution cannot mask genuine leakage.
_EDGE_BAND = 4


def oracle_tail_defect(matrix: np.ndarray, cols) -> float:
    """Truncation-error indicator for the given columns of an oracle matrix.

    Amplitude the truncation mishandles must populate the last few rows on its
    way out, and the reflected error is attenuated again on the trip back
    down, so the induced error in the low-index block scales like the square
    of the edge amplitude.  The indicator is that squared edge mass, maximized
    over the requested columns.
    """
    cols = list(cols)
    if not cols:
        return 0.0
    band = min(matrix.shape[0] - 1, _EDGE_BAND) or 1
    tail = matrix[-band:, cols]
    edge_mass = float(np.sqrt(np.max(np.sum(np.abs(tail) ** 2, axis=0))))
    return edge_mass * edge_mass


def oracle_gaussian_matrix(
    params: GaussianUnitaryParams,
    cutoff: int,
    relevant_cols: int | None = None,
    check: bool = True,
) -> np.ndarray:
    """Dense ordered product F_out(theta)·D(alpha)·S(r)·F_in(vartheta).

    Each factor is the matrix exponential of its truncated generator on the
    (cutoff+1)-dimensional Fock space.  The truncation tail indicator (squared
    edge mass of the most populated relevant column) is checked against
    ``ORACLE_DEFECT_TOL``; relevant columns default to the block the default
    pad rule would certify, ``cutoff - ORACLE_CUTOFF_PAD``.  `check=False`
    skips the precondition for callers that only need weak properties of the
    truncated product (such as its exact unitarity).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    dim = cutoff + 1
    a, ad = _generators(dim)
    n_diag = np.arange(dim)
    sq = matrix_exponential(0.5 * params.r * (ad @ ad - a @ a))
    disp = matrix_exponential(params.alpha * ad - np.conjugate(params.alpha) * a)
    f_in = matrix_exponential(1j * params.vartheta * np.diag(n_diag).astype(complex))
    f_out = matrix_exponential(-1j * params.theta * np.diag(n_diag).astype(complex))
    product = f_out @ disp @ sq @ f_in
    if check:
        if relevant_cols is None:
            relevant_cols = max(0, cutoff - ORACLE_CUTOFF_PAD)
        defect = oracle_tail_defect(product, range(min(relevant_cols, cutoff) + 1))
        if defect > ORACLE_DEFECT_TOL:
            raise TailBoundError(
                f"oracle cutoff {cutoff} insufficient for columns <= {relevant_cols}",
                defect,
            )
    return product


def oracle_dimension(params: GaussianUnitaryParams, col_max: int) -> int:
    """Truncation dimension heuristic for the column oracle.

    Squeezing spreads column `m` up to roughly (m+8)·cosh(2r) plus a slowly
    decaying tail controlled by log tanh r; the displacement then widens the
    support to (sqrt(n) + |alpha|)².  The returned dimension is validated at
    run time by the band-mass indicator, so the rule only needs to be safe.
    """
    r = params.r
    spread = math.cosh(2.0 * r)
    pad = 25.0 / max(0.08, -math.log(math.tanh(max(r, 0.04))))
    after_squeeze = (col_max + 8.0) * spread + min(pad, 400.0)
    total = (math.sqrt(after_squeeze) + abs(params.alpha) + 6.0) ** 2 + 30.0
    return int(math.ceil(total))


def _exp_action(generator, block: np.ndarray) -> np.ndarray:
    """exp(G) @ block for an anti-Hermitian sparse generator G.

    Chebyshev expansion exp(-i rho x) = sum_k (2 - [k=0]) (-i)^k J_k(rho) T_k(x)
    of the Hermitian x = iG / rho, with rho the Gershgorin bound on the
    spectrum of iG.  The Bessel coefficients fall below 1e-19 once k exceeds
    rho by 16 (rho/2)^(1/3), so that many orders (plus 20) are summed, one
    sparse product each, with no step-size or norm search per step.
    """
    # imported here: scipy.special adds ~50 ms to every start-up, and only
    # the oracle needs it.
    from scipy.special import jv

    hermitian = (1j * generator).tocsr()
    rho = float(abs(hermitian).sum(axis=1).max())
    if rho == 0.0:
        return block.copy()
    hermitian = hermitian / rho
    orders = np.arange(int(rho + 16.0 * (rho / 2.0) ** (1.0 / 3.0)) + 20)
    coeffs = 2.0 * (-1j) ** orders * jv(orders, rho)
    coeffs[0] /= 2.0
    twice = 2.0 * hermitian
    prev, cur = block, hermitian @ block
    out = coeffs[0] * prev + coeffs[1] * cur
    for c in coeffs[2:]:
        nxt = twice @ cur
        nxt -= prev
        out += c * nxt
        prev, cur = cur, nxt
    return out


def oracle_columns(
    params: GaussianUnitaryParams,
    row_max: int,
    cols,
    dim: int | None = None,
) -> np.ndarray:
    """Oracle columns <k|U|m>, k <= row_max, via sparse exponential action.

    Equivalent to slicing :func:`oracle_gaussian_matrix` but scales to the
    large truncation dimensions that strong squeezing requires, because only
    the requested columns are propagated (by :func:`_exp_action`).
    """
    from scipy import sparse  # imported on first use, like scipy.linalg in numerics

    cols = list(cols)
    if not cols:
        return np.zeros((row_max + 1, 0), dtype=complex)
    if dim is None:
        dim = oracle_dimension(params, max(cols))
    dim = max(dim, row_max + 2, max(cols) + 2)
    lower = sparse.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csc").astype(complex)
    raise_op = lower.conj().T.tocsc()
    basis = np.zeros((dim, len(cols)), dtype=complex)
    for i, m in enumerate(cols):
        basis[m, i] = cmath.exp(1j * params.vartheta * m)
    propagated = _exp_action(0.5 * params.r * (raise_op @ raise_op - lower @ lower), basis)
    propagated = _exp_action(
        params.alpha * raise_op - np.conjugate(params.alpha) * lower, propagated
    )
    propagated *= np.exp(-1j * params.theta * np.arange(dim))[:, None]
    defect = oracle_tail_defect(propagated, range(len(cols)))
    if defect > ORACLE_DEFECT_TOL:
        raise TailBoundError(
            f"oracle dimension {dim} insufficient for columns {cols[:4]}...", defect
        )
    return propagated[: row_max + 1, :]
