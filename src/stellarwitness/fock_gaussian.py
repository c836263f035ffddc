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
  general element formula, for a whole batch of parameter points and inputs
  at once (:func:`coherent_columns`), and
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
from functools import lru_cache

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


# ---------------------------------------------------------------------------
# Array arithmetic with the bits of the scalar formulas.
#
# A parameter point's amplitudes must not depend on the batch it is evaluated
# in, and must equal the scalar element formula's.  Float64 elementwise
# operations, np.hypot and stacked LAPACK calls keep their bits in any batch;
# numpy's vectorized exp, log, cosh, sinh and complex products do not match
# the C library and Python's complex arithmetic (fused multiply-adds, other
# polynomial kernels).  So the kernels below take those functions through
# `math` / `cmath` per element and spell every scalar complex operation out
# in real and imaginary parts, in the order Python or numpy's scalar code
# rounds it.  Both promote a real operand x to (x, 0.0), so a product with a
# real carries terms like `0.0 * im`: they fix the signs of zeros and stay.
# Where a formula below is shorter than the expression it mirrors, the two
# agree bit for bit by exact identities (y * -x == -(y * x),
# a - (-b) == a + b), noted at the spot.
# ---------------------------------------------------------------------------


def _each(fn, values, dtype=float) -> np.ndarray:
    """`fn` (a `math` / `cmath` function, or an expression around one)
    applied to every element of a 1-D array."""
    return np.fromiter(map(fn, values.tolist()), dtype, len(values))


def _complex(re, im) -> np.ndarray:
    """Complex array with exactly these parts (``re + 1j * im`` may flip a zero's sign)."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _square(x: float) -> float:
    """``x ** 2`` as Python rounds it (C pow, which is not always x * x)."""
    return math.pow(x, 2.0)


def _phase(angle: float) -> complex:
    """``cmath.exp(1j * angle)``."""
    return cmath.exp(1j * angle)


def _turn(angle: float) -> complex:
    """``cmath.exp(complex(0.0, angle))``; unlike 1j * angle it keeps the sign of a zero angle."""
    return cmath.exp(complex(0.0, angle))


@lru_cache(maxsize=None)
def _i_powers(k_max: int) -> np.ndarray:
    """1j ** k for k <= k_max; read-only, shared by every caller of that size."""
    table = 1j ** np.arange(k_max + 1)
    table.flags.writeable = False
    return table


def _scaled_hermite(x, n_max: int):
    """Hermite values split as H_d(x) = units[..., d] * exp(logs[..., d]).

    Forward recurrence H_{d+1} = 2x H_d - 2d H_{d-1}, renormalized every step
    so arbitrarily high degrees stay inside double range; the log magnitudes
    are folded into the per-term exponents.  `x` is a complex scalar or array;
    degree runs along the last axis of the outputs.  Each entry has the bits
    of the scalar recurrence on that argument: the first step in Python
    complex arithmetic (x is a Python complex there), later steps in numpy
    scalar arithmetic.
    """
    x = np.asarray(x, dtype=complex)
    flat = x.ravel()
    units = np.zeros((flat.size, n_max + 1), dtype=complex)
    logs = np.zeros((flat.size, n_max + 1), dtype=float)
    units[:, 0] = 1.0
    if n_max > 0:
        xr, xi = flat.real, flat.imag
        tr, ti = 2.0 * xr - 0.0 * xi, 2.0 * xi + 0.0 * xr  # 2.0 * x
        mag = np.hypot(tr, ti)
        live = mag > 0.0
        mag = np.where(live, mag, 1.0)
        # 2.0 * x / mag: Python divides (a, b) by a float m as ((a + b*0) / m, (b - a*0) / m)
        np.copyto(units[:, 1].real, (tr + ti * 0.0) / mag, where=live)
        np.copyto(units[:, 1].imag, (ti - tr * 0.0) / mag, where=live)
        np.copyto(logs[:, 1], _each(math.log, mag), where=live)
    for d in range(1, n_max):
        cur, prev = logs[:, d], logs[:, d - 1]
        anchor = np.where(prev > cur, prev, cur)  # max(cur, prev): cur on ties
        grow = _each(math.exp, cur - anchor)
        damp = _each(math.exp, prev - anchor)
        ur, ui = units[:, d].real, units[:, d].imag
        pr, pi = units[:, d - 1].real, units[:, d - 1].imag
        # 2.0 * x * units[d] * grow - 2.0 * d * units[d - 1] * damp
        ar, ai = tr * ur - ti * ui, tr * ui + ti * ur
        ar, ai = ar * grow - ai * 0.0, ar * 0.0 + ai * grow
        br, bi = 2.0 * d * pr - 0.0 * pi, 2.0 * d * pi + 0.0 * pr
        br, bi = br * damp - bi * 0.0, br * 0.0 + bi * damp
        vr, vi = ar - br, ai - bi
        mag = np.hypot(vr, vi)
        live = mag > 0.0
        mag = np.where(live, mag, 1.0)
        # value / mag: numpy multiplies by 1 / (m + 0 * 0), and m + 0 == m here
        scale = 1.0 / mag
        np.copyto(units[:, d + 1].real, (vr + vi * 0.0) * scale, where=live)
        np.copyto(units[:, d + 1].imag, (vi - vr * 0.0) * scale, where=live)
        logs[:, d + 1] = np.where(live, anchor + _each(math.log, mag), anchor)
    return units.reshape(x.shape + (n_max + 1,)), logs.reshape(x.shape + (n_max + 1,))


class _ElementContext:
    """Per-parameter workspace so block assembly and single elements share bits.

    All magnitudes of the Hermite sum for <k|D(alpha)S(r)|m> (factorial
    ratios, Hermite growth, the Gaussian envelope) are assembled in log space
    and exponentiated once per term, which keeps any block size the
    validation suites ask for inside double range.  Below
    ``SQUEEZING_DEGENERACY_CUTOFF`` no tables are built: elements come from
    the Laguerre form of the displacement.  The Hermite tables of the two
    arguments (`hermite_args`) are filled in by :func:`_element_contexts`.
    """

    __slots__ = (
        "mu", "alpha", "degenerate", "u1", "l1", "u2", "l2", "e0_phase", "log_e0",
        "log_ratio", "log_two_over_nu", "i_pow", "phase_k", "phase_m", "hermite_args",
    )

    def __init__(self, params: GaussianUnitaryParams, k_max: int, m_max: int):
        r, alpha = params.r, complex(params.alpha)
        mu, nu = math.cosh(r), math.sinh(r)
        self.mu = mu
        self.alpha = alpha
        self.degenerate = nu < SQUEEZING_DEGENERACY_CUTOFF
        self.phase_k = np.exp(-1j * params.theta * np.arange(k_max + 1))
        self.phase_m = np.exp(1j * params.vartheta * np.arange(m_max + 1))
        if self.degenerate:
            return
        ac = alpha.conjugate()
        s = math.sqrt(2.0 * mu * nu)
        x1 = -ac / s
        # principal branch: sqrt(-2 mu nu) = i s, pinned against the oracle.
        x2 = (mu * alpha - nu * ac) / (1j * s)
        self.hermite_args = (x1, x2)
        envelope = (nu / (2.0 * mu)) * ac * ac
        self.log_e0 = -(abs(alpha) ** 2) / 2.0 + envelope.real
        self.e0_phase = cmath.exp(1j * envelope.imag)
        self.log_ratio = math.log(nu / (2.0 * mu))
        self.log_two_over_nu = math.log(2.0 / nu)
        self.i_pow = _i_powers(k_max)

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


def _squeezed_vacuum(mu, nu, ar, ai, size_sq, k_max: int) -> np.ndarray:
    """Rows of <k|D(alpha)S(r)|0> above the degeneracy cutoff: the element
    formula's Hermite sum at m = 0, which has the single term j = 0."""
    za, z0 = 0.0 * ai, 0.0 * ar  # the zeros of promoted reals against alpha
    s = np.sqrt(2.0 * mu * nu)
    # x2 = (mu alpha - nu conj(alpha)) / (1j s), with 0.0 * -ai == -za and
    # nu * -ai == -(nu * ai); Python divides by (0, s) as ((a*0 + b) / s, (b*0 - a) / s)
    dr = (mu * ar - za) - (nu * ar + za)
    di = (mu * ai + z0) - (z0 - nu * ai)
    units, logs = _scaled_hermite(_complex((dr * 0.0 + di) / s, (di * 0.0 - dr) / s), k_max)
    # envelope = (nu / (2 mu)) * conj(alpha) * conj(alpha)
    q = nu / (2.0 * mu)
    qr, qi = q * ar + za, z0 - q * ai
    er, ei = qr * ar + qi * ai, qi * ar - qr * ai
    log_e0 = -size_sq / 2.0 + er
    e0_phase = _each(_phase, ei, complex)
    cr, ci = e0_phase.real, e0_phase.imag
    # lead = (1 + 0j) * e0_phase, the unit phase of the element formula
    lr, li = (cr - 0.0 * ci)[:, None], (ci + 0.0 * cr)[:, None]
    half_log_k, half_k, log_k, ipr, ipi, zpr, zpi = _column_constants(k_max)
    base = (
        half_log_k - 0.5 * _each(math.log, mu)[:, None]
        + half_k * _each(math.log, q)[:, None]
        + log_e0[:, None]
    )
    size = _each(math.exp, (base - log_k + logs).ravel()).reshape(logs.shape)
    # term = size * 1j**k * (1 + 0j) * u2[k]; out = lead * (0j + term)
    tr, ti = size * ipr - zpi, size * ipi + zpr
    tr, ti = tr - ti * 0.0, tr * 0.0 + ti
    ur, ui = units.real, units.imag
    tr, ti = 0.0 + (tr * ur - ti * ui), 0.0 + (tr * ui + ti * ur)
    return _complex(lr * tr - li * ti, lr * ti + li * tr)


@lru_cache(maxsize=None)
def _column_constants(k_max: int):
    """Per-k factors of the vacuum column: 0.5 log k!, 0.5 k, log k!, the
    parts of 1j**k and the zeros 0.0 * Im, 0.0 * Re it carries as a factor."""
    ks = np.arange(k_max + 1)
    log_k = np.array([log_factorial(k) for k in ks])
    i_pow = _i_powers(k_max)
    out = (0.5 * log_k, 0.5 * ks, log_k, i_pow.real, i_pow.imag, 0.0 * i_pow.real, 0.0 * i_pow.imag)
    for table in out:
        table.flags.writeable = False
    return out


def _displaced_vacuum(alpha, size_sq, k_max: int) -> np.ndarray:
    """Rows of <k|D(alpha)|0> below the degeneracy cutoff: the Laguerre form
    at m = 0, exp(-|alpha|^2 / 2) alpha^k / sqrt(k!), times the unit phase."""
    log_k = _column_constants(k_max)[2]
    size = _each(math.exp, (-0.5 * size_sq[:, None] + 0.5 * (0.0 - log_k)).ravel())
    # complex ** int as CPython computes it; alpha ** 0 is (1, 0) like the
    # element formula's real 1.0 after promotion
    power = np.array([a**k for a in alpha.tolist() for k in range(k_max + 1)], dtype=complex)
    pr, pi = power.real, power.imag
    vr, vi = size * pr - 0.0 * pi, size * pi + 0.0 * pr
    vr, vi = vr - vi * 0.0, vr * 0.0 + vi  # times _laguerre(0, k, x) = 1.0
    return _complex(vr - 0.0 * vi, vi + 0.0 * vr).reshape(-1, k_max + 1)


def _vacuum_column(r, alpha, k_max: int) -> np.ndarray:
    """<k|D(alpha)S(r)|0> for k <= k_max, for scalars or arrays of r and alpha.

    Fock index k runs along the last axis.  Each row is bit-identical to
    column 0 of :meth:`_ElementContext.element` at theta = vartheta = 0, in
    any batch: the Hermite sum has the single term j = 0, whose operations
    run in the same order, unit phase included.  Only the exponent's zero
    summands (log 0!, j log(2/nu)) are left out; they can change nothing but
    the sign of a zero, which exp() ignores.  Rows below the degeneracy
    cutoff take the displacement-only form under a mask.
    """
    r, alpha = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(alpha, dtype=complex))
    shape = r.shape + (k_max + 1,)
    r, alpha = r.ravel(), alpha.ravel()
    mu, nu = _each(math.cosh, r), _each(math.sinh, r)
    ar, ai = alpha.real, alpha.imag
    size_sq = _each(_square, np.hypot(ar, ai))  # abs(alpha) ** 2
    degenerate = nu < SQUEEZING_DEGENERACY_CUTOFF
    flags = degenerate.tolist()
    if not any(flags):
        return _squeezed_vacuum(mu, nu, ar, ai, size_sq, k_max).reshape(shape)
    if all(flags):
        return _displaced_vacuum(alpha, size_sq, k_max).reshape(shape)
    # the squeezed form runs on every row (nu = 1 keeps it finite and bounded
    # where r is below the cutoff), the displaced form on those rows only
    out = _squeezed_vacuum(mu, np.where(degenerate, 1.0, nu), ar, ai, size_sq, k_max)
    out[degenerate] = _displaced_vacuum(alpha[degenerate], size_sq[degenerate], k_max)
    return out.reshape(shape)


def _element_contexts(params_rows, k_max: int, m_max: int) -> list:
    """An :class:`_ElementContext` per parameter point, with the Hermite
    tables of all of them from one recurrence over every argument (lower
    degrees never see higher ones, so the shared maximum degree is exact)."""
    contexts = [_ElementContext(params, k_max, m_max) for params in params_rows]
    live = [ctx for ctx in contexts if not ctx.degenerate]
    if live:
        args = [x for ctx in live for x in ctx.hermite_args]
        units, logs = _scaled_hermite(args, max(k_max, m_max))
        for i, ctx in enumerate(live):
            ctx.u1, ctx.l1 = units[2 * i, : m_max + 1], logs[2 * i, : m_max + 1]
            ctx.u2, ctx.l2 = units[2 * i + 1, : k_max + 1], logs[2 * i + 1, : k_max + 1]
    return contexts


def gaussian_matrix_element(params: GaussianUnitaryParams, k: int, m: int) -> complex:
    """Analytic <k|U|m> for a single pair of Fock indices."""
    if k < 0 or m < 0:
        raise ValueError("Fock indices must be >= 0")
    return _element_contexts([params], k, m)[0].element(k, m)


def gaussian_block(
    params: GaussianUnitaryParams, row_max: int, col_max: int
) -> np.ndarray:
    """Matrix of <k|U|m> for 0 <= k <= row_max, 0 <= m <= col_max.

    Entries are bit-identical to elementwise :func:`gaussian_matrix_element`
    calls (same recurrences, same evaluation order).
    """
    if row_max < 0 or col_max < 0:
        raise ValueError("block extents must be >= 0")
    (ctx,) = _element_contexts([params], row_max, col_max)
    out = np.empty((row_max + 1, col_max + 1), dtype=complex)
    for m in range(col_max + 1):
        for k in range(row_max + 1):
            out[k, m] = ctx.element(k, m)
    return out


def block_columns(params: GaussianUnitaryParams, rows: int, cols) -> np.ndarray:
    """Selected columns <k|U|m>, k < rows, for m in `cols`."""
    return block_columns_batch([params], rows, cols)[0]


def block_columns_batch(params_rows, rows: int, cols) -> np.ndarray:
    """:func:`block_columns` of every parameter point, shape (points, rows,
    len(cols)): one Hermite recurrence for all points, then each point's
    elements one by one (optimizer hot path of Fock witnesses)."""
    cols = list(cols)
    contexts = _element_contexts(params_rows, rows - 1, max(cols) if cols else 0)
    out = np.empty((len(contexts), rows, len(cols)), dtype=complex)
    for b, ctx in enumerate(contexts):
        for i, m in enumerate(cols):
            for k in range(rows):
                out[b, k, i] = ctx.element(k, m)
    return out


def params_from_vector(vec) -> GaussianUnitaryParams:
    """The point (r, Re alpha, Im alpha[, vartheta]) of the threshold search, theta = 0."""
    vartheta = float(vec[3]) if len(vec) > 3 else 0.0
    return GaussianUnitaryParams(
        theta=0.0, vartheta=vartheta, r=float(vec[0]), alpha=complex(vec[1], vec[2])
    )


def coherent_columns(points, betas, k_max: int, theta=None) -> np.ndarray:
    """Amplitudes <k|U|beta>, k <= k_max, for every point and every beta.

    `points` holds rows (r, Re alpha, Im alpha[, vartheta]) as in
    :func:`params_from_vector`; `theta` holds the rows' output phases, and
    None means theta = 0, whose phase table is exactly 1 and is not built.
    Returns shape (points, betas, k_max + 1); each row has the same bits
    alone as in any batch.

    Uses the displaced-squeezed reduction: commuting the input phase and the
    squeezer through the coherent displacement leaves a vacuum column with the
    composite displacement ``alpha + beta_tilde``, times an exact phase.
    """
    betas = [complex(beta) for beta in betas]
    if not all(map(cmath.isfinite, betas)):
        raise ValueError("coherent input and displacement must be finite")
    points = np.asarray(points, dtype=float)
    count, width = len(points), len(betas)
    r = points[:, 0]
    vartheta = points[:, 3] if points.shape[1] > 3 else np.zeros(count)
    # one row per (point, beta)
    mu = np.repeat(_each(math.cosh, r), width)
    nu = np.repeat(_each(math.sinh, r), width)
    turn = np.repeat(_each(_phase, vartheta, complex), width)
    ar, ai = np.repeat(points[:, 1], width), np.repeat(points[:, 2], width)
    tiled = np.array(betas * count)
    br, bi = tiled.real, tiled.imag
    cr, ci = turn.real, turn.imag
    # rotated = exp(1j vartheta) * beta
    rr, ri = cr * br - ci * bi, cr * bi + ci * br
    # beta_tilde = rotated * mu + rotated.conjugate() * nu, with
    # (-ri) * 0.0 == -(ri * 0.0) and (-ri) * nu == -(ri * nu)
    zi, zr = ri * 0.0, rr * 0.0
    tr = (rr * mu - zi) + (rr * nu + zi)
    ti = (zr + ri * mu) + (zr - ri * nu)
    shifted = _complex(ar + tr, ai + ti)
    if not np.isfinite(shifted).all():
        raise ValueError("coherent input and displacement must be finite")
    # phase = exp((alpha conj(bt) - conj(alpha) bt) / 2): for finite inputs
    # the real parts cancel to +0 exactly, and with P = ar ti, Q = ai tr the
    # imaginary part (Q - P) - (P - Q) is exactly 2 (Q - P), halved exactly
    phase = _each(_turn, ai * tr - ar * ti, complex)
    column = _vacuum_column(np.repeat(r, width), shifted, k_max)
    if theta is None:
        pr, pi = phase.real, phase.imag  # phase * (1 + 0j), exact in any rounding
        lead = _complex(pr - pi * 0.0, pr * 0.0 + pi)[:, None]
    else:
        turns = np.exp((-1j * np.asarray(theta, dtype=float))[:, None] * np.arange(k_max + 1))
        lead = phase[:, None] * np.repeat(turns, width, axis=0)
    # numpy array products, as in the one-point formula phase * turns * column
    return (lead * column).reshape(count, width, k_max + 1)


def transform_coherent(
    params: GaussianUnitaryParams, beta: complex, k_max: int
) -> FockVector:
    """Amplitudes <k|U|beta> for k <= k_max for a coherent input |beta>.

    The one-row case of :func:`coherent_columns`, with the tail bound of the
    returned vector.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    alpha = complex(params.alpha)
    point = [[params.r, alpha.real, alpha.imag, params.vartheta]]
    amps = coherent_columns(point, [complex(beta)], k_max, theta=[params.theta])[0, 0]
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
