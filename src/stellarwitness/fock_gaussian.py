"""Fock-basis matrix elements of single-mode Gaussian unitaries.

The unitary is parameterized as ``U = F_out(theta) · D(alpha) · S(r) · F_in(vartheta)``
with displacement ``D(alpha) = exp(alpha a† - alpha* a)``, squeezing
``S(r) = exp(r/2 (a†² - a²))`` and number-phase factors acting as
``<k|F_out(theta) = e^{-ik theta} <k|`` and ``F_in(vartheta)|m> = e^{+im vartheta}|m>``.

Two independent evaluation paths are provided:

* an analytic path: one bounded ladder recurrence, batched over parameter
  points (:func:`block_columns_batch`), gives every block; a coherent input
  is its vacuum column at a shifted displacement (:func:`coherent_columns`),
  and
* an oracle path that exponentiates truncated annihilation/creation
  generators, either densely (:func:`oracle_gaussian_matrix`) or
  column-by-column through Chebyshev expansions of the generators' actions
  (:func:`oracle_columns`), in two stages: squeezing, which couples k only to
  k ± 2, runs on each column's parity chain in a truncation sized for
  squeezing alone, grown until the chains' tail mass passes; displacement
  runs on the returned rows, D(-alpha)|k>, in the truncation they widen to,
  with their edge mass checked, and each element is the inner product of a
  displaced row with a squeezed chain.  The expansions take their Bessel
  coefficients from Miller's recurrence (:func:`_bessel_j`), so the column
  oracle loads no scipy, and each order touches only the rows it has
  reached.

Every analytic code path is pinned against the oracle in the test suite; the
branch convention is principal square roots with ``r >= 0`` (squeezing along
other axes is reachable through the two phases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import parse_complex, require_integer
from .errors import TailBoundError
from .numerics import matrix_exponential

#: largest squeezing of a parameter point: cosh r overflows near r = 710.
MAX_SQUEEZING = 700.0

#: largest |entry| of a parameter row (r, Re alpha, Im alpha, vartheta).
_POINT_BOUNDS = np.array([MAX_SQUEEZING] + 3 * [np.finfo(float).max])

#: the refusal of a row with an entry that is not finite or r above MAX_SQUEEZING
_NOT_FINITE = f"Gaussian unitary parameters must be finite, with r <= {MAX_SQUEEZING}"

#: largest intermediate :func:`_in_range` lets the kernels form: a margin
#: below the largest double for the factors of at most 2, and the roundings,
#: that its bound leaves out.
_LARGEST_INTERMEDIATE = np.finfo(float).max / 16

#: lowest per-point scale exponent of :func:`block_columns_batch`: scaled
#: entries stay below 2**_SCALE_FLOOR, and a start <0|U|0> down to
#: 2**-(_SCALE_FLOOR + 1074) (|alpha| up to ~53 at r = 0) stays representable.
_SCALE_FLOOR = 1000

#: default headroom added to a requested block size for the dense oracle.
ORACLE_CUTOFF_PAD = 30

#: tail indicator threshold for oracle truncation.
ORACLE_DEFECT_TOL = 1e-9

#: largest squeeze-stage dimension :func:`oracle_columns` grows to (about
#: r = 3.5 for 10 columns); beyond it the oracle raises TailBoundError.
ORACLE_MAX_SQUEEZE_DIM = 2**15


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
        if not 0.0 <= self.r <= MAX_SQUEEZING:
            raise ValueError(
                f"squeezing r must be >= 0 and <= {MAX_SQUEEZING}, got {self.r}; negative "
                "squeezing is represented by shifting the phases"
            )

    def vector(self) -> tuple:
        """The row (r, Re alpha, Im alpha, vartheta) of the batched kernels."""
        alpha = complex(self.alpha)
        return (self.r, alpha.real, alpha.imag, self.vartheta)

    def to_json(self) -> dict:
        return {
            "theta": float(self.theta),
            "vartheta": float(self.vartheta),
            "r": float(self.r),
            "alpha": [float(self.alpha.real), float(self.alpha.imag)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GaussianUnitaryParams":
        return cls(
            theta=float(obj.get("theta", 0.0)),
            vartheta=float(obj.get("vartheta", 0.0)),
            r=float(obj["r"]),
            alpha=parse_complex(obj["alpha"], "alpha"),
        )


def _in_range(r, a, b):
    """Whether no intermediate of the kernels can overflow at squeezing r,
    displacement components |Re alpha|, |Im alpha| <= a and coherent inputs
    |beta| <= b (0 for block columns); elementwise over arrays, and growing
    with each argument, so a box's far corner bounds all of its points.

    The shifted input beta~ = cosh(r) beta' + sinh(r) conj(beta'), beta' =
    e^{i vartheta} beta, has |Re beta~| <= b e^r and |Im beta~| <= b, so the
    largest intermediates are e^r (a + b) (:func:`_vacuum_terms`), a b e^r
    (the phase Im(alpha conj(beta~))) and (a + b e^r)(a + b) (the ladder's
    start, and |alpha + beta~|^2).
    """
    with np.errstate(over="ignore"):  # an overflow makes a bound inf: out of range
        grow = np.exp(r)
        worst = np.maximum(np.maximum(grow * (a + b), a * b * grow), (a + b * grow) * (a + b))
    return worst <= _LARGEST_INTERMEDIATE


def _coherent_bound(betas) -> float:
    """max |beta| over coherent inputs that must all be finite."""
    betas = np.asarray(betas, dtype=complex)
    if not np.isfinite(betas).all():
        raise ValueError("coherent input and displacement must be finite")
    with np.errstate(over="ignore"):  # |beta| of finite parts may overflow: out of range
        return float(np.abs(betas).max(initial=0.0))


def checked_points(points, betas=()) -> np.ndarray:
    """`points`, rows (r, Re alpha, Im alpha[, vartheta]), as a float array
    after the checks of every public kernel: the coherent inputs `betas` are
    finite, every entry is finite with r <= MAX_SQUEEZING, and no
    intermediate can overflow at any row (:func:`_in_range`).  The searches
    check their box once instead (:func:`check_box`) and run the cores."""
    b = _coherent_bound(betas)
    points = np.asarray(points, dtype=float)
    # one test before any arithmetic: a NaN compares false, and only an
    # infinity exceeds the largest double
    if not (np.abs(points) <= _POINT_BOUNDS[: points.shape[1]]).all():
        raise ValueError(_NOT_FINITE)
    if not _in_range(points[:, 0], np.abs(points[:, 1:3]).max(axis=1, initial=0.0), b).all():
        raise ValueError("displacement out of the kernels' range: e^r (|alpha| + |beta|) would overflow")
    return points


def check_box(r_max: float, alpha_max: float, betas=()) -> None:
    """Refuse a search box [0, r_max] x [-alpha_max, alpha_max]^2 (any
    vartheta) on which a kernel with coherent inputs `betas` could overflow,
    before the search's first round; its rounds then run the unchecked
    cores on points clipped into the box."""
    b = _coherent_bound(betas)
    if not _in_range(r_max, alpha_max, b):
        beta = f" and coherent inputs up to |beta| = {b:g}" if b else ""
        raise ValueError(
            f"search box out of the kernels' range: r_max = {r_max:g} with alpha_max = "
            f"{alpha_max:g}{beta} would overflow; lower r_max or alpha_max"
        )


def _vacuum_terms(r, mu, ar, ai) -> tuple:
    """(u, v, log |G_00|) of the ladder recurrence at mu = cosh r, with
    u + iv = alpha - tanh(r) conj(alpha) = (e^-r Re alpha + i e^r Im alpha) / mu."""
    u, v = np.exp(-r) * ar / mu, np.exp(r) * ai / mu
    return u, v, -0.5 * (np.log(mu) + u * ar + v * ai)


def block_in_range(params: GaussianUnitaryParams) -> bool:
    """Whether :func:`block_columns_batch` keeps the block of these parameters
    in range: below |<0|U|0>| = 2**-(_SCALE_FLOOR + 1074) every entry comes
    out zero."""
    alpha = complex(params.alpha)
    r = np.array([params.r])
    with np.errstate(over="ignore"):  # an overflow makes log_size -inf: out of range
        log_size = _vacuum_terms(r, np.cosh(r), alpha.real, alpha.imag)[2][0]
    return bool(log_size >= -(_SCALE_FLOOR + 1074) * math.log(2.0))


def _ladder(vacuum, mu, sinh, ar, ai, height: int, width: int) -> tuple:
    """(G 2^-s, 2^s): the block G_km = <k|D(a)S(r)|m>, k < height,
    m < width, at every (r, a = ar + i ai), with mu = cosh r, sinh =
    sinh r and `vacuum` the point's :func:`_vacuum_terms`, scaled by 2^-s
    per point.

    The ladder recurrences of Miatto and Quesada (Quantum 4, 366 (2020)) for
    a* = conj(a), mu = cosh r, t = tanh r, from
    G_00 = mu^(-1/2) exp(-|a|^2 / 2 + t a*^2 / 2):

        sqrt(k+1) G_{k+1,m} = (a - t a*) G_km + t sqrt(k) G_{k-1,m} + sqrt(m) G_{k,m-1} / mu,
        sqrt(m+1) G_{k,m+1} = -(a* / mu) G_km - t sqrt(m) G_{k,m-1} + sqrt(k) G_{k-1,m} / mu.

    Every coefficient is bounded, so r = 0 needs no branch.  Entries on and
    below the diagonal step in k, those above it in m, so the coupling
    sqrt(m / k) or sqrt(k / m) is at most 1 (stepping one way only ruins
    blocks of ~100 x 100).  A line of one entry, as every line of a single
    column is, steps as a (points,) array.  An entry depends only on entries
    above and left of it, through elementwise operations: it has the same
    bits in any batch and any block.  The scale s = max(ceil(log2 |G_00|),
    -_SCALE_FLOOR) keeps the start representable where G_00 underflows
    (large |a|), and as |G| <= 1 no scaled entry overflows.
    """
    u, v, log_size = vacuum
    t = sinh / mu
    scale = np.maximum(np.ceil(log_size / math.log(2.0)), -_SCALE_FLOOR)
    roots = [math.sqrt(k) for k in range(max(height, width))]
    lead = u + 1j * v
    scaled = np.zeros((len(mu), height, width), dtype=complex)
    scaled[:, 0, 0] = np.exp(log_size - scale * math.log(2.0) - 1j * t * ar * ai)
    if width > 1:  # one column has no steps in m and no sqrt(m) coupling
        down = np.array(roots[1:]) / mu[:, None]  # sqrt(k) / mu for k >= 1
        back = (1j * ai - ar) / mu
        across = scaled.transpose(0, 2, 1)  # line s of it is column s

    def step(lines, s, length, first, second):  # line s from lines s - 1 and s - 2
        if length > 1:  # the coefficients broadcast along the line
            line, first, second = slice(length), first[:, None], second[:, None]
        else:  # a one-entry line steps as a (points,) array
            line = 0
        nxt = first * lines[:, s - 1, line]
        if s > 1:
            nxt += second * lines[:, s - 2, line]
        if length > 1:
            nxt[:, 1:] += down[:, : length - 1] * lines[:, s - 1, : length - 1]
        lines[:, s, line] = nxt / roots[s]

    for s in range(1, max(height, width)):
        second = t * roots[s - 1] if s > 1 else t  # step 1 reads no line s - 2
        if s < width:
            step(across, s, min(s, height), back, -second)
        if s < height:
            step(scaled, s, min(s + 1, width), lead, second)
    return scaled, np.ldexp(1.0, scale.astype(int))


def block_columns_batch(points, rows: int, cols, theta=None) -> np.ndarray:
    """<k|U|m>, k < rows, m in `cols`, at every row (r, Re alpha, Im alpha[,
    vartheta]) of `points`, shape (points, rows, len(cols)); `theta` holds
    the rows' output phases, and None means theta = 0.  A row with an entry
    that is not finite, with r above MAX_SQUEEZING, or at which the kernel
    could overflow, raises ValueError (:func:`checked_points`).

    The block of D(alpha)S(r) from the ladder recurrence (:func:`_ladder`),
    then the phases e^{-ik theta} e^{im vartheta}.  A phase known to be 0
    is not exponentiated: e^{i0} is 1 + 0i, and the product keeps the bits
    it has through the exponential.
    """
    cols = list(cols)
    if rows < 0 or min(cols, default=0) < 0:
        raise ValueError("Fock indices must be >= 0")
    return _block_columns(checked_points(points), rows, cols, theta)


def _block_columns(points: np.ndarray, rows: int, cols: list, theta) -> np.ndarray:
    """:func:`block_columns_batch` without its checks, for a float array of
    rows that passed :func:`checked_points` or lie in a box that passed
    :func:`check_box`, and a list of column indices >= 0."""
    height, width = max(rows, 1), max(cols, default=0) + 1
    r, ar, ai = points[:, 0], points[:, 1], points[:, 2]
    mu = np.cosh(r)
    scaled, unscale = _ladder(_vacuum_terms(r, mu, ar, ai), mu, np.sinh(r), ar, ai, height, width)
    if theta is None:  # (1 + 0i) times the scale is the scale plus 0i
        turns = (unscale + 0j)[:, None, None]
    else:
        turns = np.exp(np.outer(-1j * np.asarray(theta, dtype=float), np.arange(rows)))
        turns *= unscale[:, None]  # undoes the scale exactly
        turns = turns[:, :, None]
    out = scaled[:, :rows, cols] * turns
    if points.shape[1] > 3:
        return out * np.exp(np.outer(1j * points[:, 3], cols))[:, None]
    return out * (1 + 0j)  # not skipped: the product by 1 + 0i sets signed zeros


def gaussian_block(
    params: GaussianUnitaryParams, row_max: int, col_max: int
) -> np.ndarray:
    """Matrix of <k|U|m> for 0 <= k <= row_max, 0 <= m <= col_max: one row of
    :func:`block_columns_batch`."""
    if row_max < 0 or col_max < 0:
        raise ValueError("block extents must be >= 0")
    cols = range(col_max + 1)
    return block_columns_batch([params.vector()], row_max + 1, cols, [params.theta])[0]


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
    None means theta = 0.  Returns shape (points, betas, k_max + 1); each row
    has the same bits alone as in any batch.  A row with an entry that is
    not finite, with r above MAX_SQUEEZING, or at which the kernel could
    overflow, raises ValueError (:func:`checked_points`).

    Uses the displaced-squeezed reduction: commuting the input phase and the
    squeezer through the coherent displacement leaves the vacuum column of
    the ladder kernel (:func:`_ladder`) at the composite displacement
    ``alpha + beta_tilde``, times the phase exp(i Im(alpha conj(beta_tilde))).
    """
    points = checked_points(points, betas)
    return _coherent_columns(points, np.asarray(betas, dtype=complex), k_max, theta)


def _coherent_columns(points: np.ndarray, betas: np.ndarray, k_max: int, theta) -> np.ndarray:
    """:func:`coherent_columns` without its checks, for float rows as
    :func:`_block_columns` takes them and a complex array of coherent inputs
    within their bound."""
    count, size = len(points), len(betas)
    r = points[:, 0].repeat(size)
    mu, sinh = np.cosh(r), np.sinh(r)
    vartheta = points[:, 3] if points.shape[1] > 3 else np.zeros(count)
    # repeated and tiled, not broadcast: a complex product against a broadcast
    # operand can round differently with the number of betas
    tiled = np.empty((count, size), dtype=complex)
    tiled[:] = betas
    rotated = np.exp(1j * vartheta.repeat(size)) * tiled.reshape(-1)
    alpha = (points[:, 1] + 1j * points[:, 2]).repeat(size)
    tilde = rotated * mu + rotated.conj() * sinh  # S(r) D(b) = D(b~) S(r)
    shifted = alpha + tilde
    turn = (alpha * tilde.conj()).imag
    vacuum = _vacuum_terms(r, mu, shifted.real, shifted.imag)
    column, unscale = _ladder(vacuum, mu, sinh, shifted.real, shifted.imag, k_max + 1, 1)
    factor = np.exp(1j * turn) * unscale
    if theta is None:  # e^{-ik theta} = 1 + 0i, and (1 + 0i) times the factor has its bits
        turns = factor.repeat(k_max + 1).reshape(-1, k_max + 1)
    else:
        theta = np.asarray(theta, dtype=float).repeat(size)
        turns = np.exp(np.outer(-1j * theta, np.arange(k_max + 1)))
        turns *= factor[:, None]
    return (turns * column[:, :, 0]).reshape(count, size, k_max + 1)


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
    edge_mass = _edge_mass(matrix, cols)
    return edge_mass * edge_mass


def _edge_mass(matrix: np.ndarray, cols=slice(None)) -> float:
    """Largest norm, over the given columns of `matrix`, of their last
    _EDGE_BAND entries."""
    band = min(matrix.shape[0] - 1, _EDGE_BAND) or 1
    return float(np.sqrt(np.max(np.sum(np.abs(matrix[-band:, cols]) ** 2, axis=0))))


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


def _squeeze_dimension(r: float, col_max: int) -> float:
    """First estimate of the squeeze stage's truncation dimension.

    Squeezing spreads column m to about (m + 8) cosh 2r, and the squeezed
    amplitudes decay like tanh(r)^(k/2) beyond that, which 25 / -ln tanh r
    more states bring below the defect tolerance.  (The clamps only keep the
    estimate finite where cosh 2r overflows or tanh r rounds to 1.)
    """
    decay = -math.log(math.tanh(max(r, 0.04)))
    return (col_max + 8.0) * math.cosh(min(2.0 * r, 700.0)) + 25.0 / max(decay, 1e-300) + 30.0


def _displacement_dimension(support: float, alpha: complex) -> int:
    """Truncation dimension that D(alpha) widens a support of n states to:
    about (sqrt(n) + |alpha|)^2, with a margin."""
    return int(math.ceil((math.sqrt(support) + abs(alpha) + 6.0) ** 2 + 30.0))


def _bessel_j(rho: float, count: int) -> np.ndarray:
    """J_k(rho), k < count, for rho > 0, by Miller's backward recurrence
    (DLMF §3.6).

    J_(k-1) = (2k / rho) J_k - J_(k+1) is run downward from a unit value a
    few sqrt(count) orders above `count`: run downward, J_k is the solution
    that grows fastest, so the start's error has died out long before
    `count`.  The sequence is then normalized by J_0 + 2 sum_k J_2k = 1.  A step multiplies by at most 2 top / rho, so a
    value below `big` stays finite through it; whenever a value passes
    `big`, the values so far are rescaled to bring it to 1, and those far
    above may underflow to 0, as J_k does.  Below rho = 1e-200, J_0 = 1 -
    rho^2 / 4 and J_1 = rho / 2 in double precision, and J_k, k > 1,
    underflows.
    """
    if rho < 1e-200:
        values = np.zeros(count)
        values[:2] = (1.0, rho / 2.0)[:count]
        return values
    top = count + 4 * math.isqrt(count) + 16
    big = min(1e250, 1e300 * rho / (2.0 * top))
    values = [0.0] * (top + 1)
    above, current = 0.0, 1.0
    for k in range(top, 0, -1):
        values[k] = current
        above, current = current, 2.0 * k / rho * current - above
        if abs(current) > big:
            scale = 1.0 / abs(current)
            values[k:] = [value * scale for value in values[k:]]
            above, current = above * scale, current * scale
    values[0] = current
    return np.array(values[:count]) / (current + 2.0 * math.fsum(values[2::2]))


def _chebyshev(advance, rho: float, block: np.ndarray) -> np.ndarray:
    """exp(rho X) @ block for an anti-Hermitian X with spectral radius <= 1,
    where advance(cur, prev) overwrites prev with 2 X cur + prev and returns
    prev, or its leading rows if the rest of it is known to be zero.

    exp(-i rho x) = sum_k (2 - [k=0]) (-i)^k J_k(rho) T_k(x) at the Hermitian
    x = iX; the vectors P_k = (-i)^k T_k(iX) block obey P_(k+1) = 2 X P_k +
    P_(k-1), so the coefficients are real and a real X keeps a real block
    real.  They come from :func:`_bessel_j` and fall below 1e-19 once k
    exceeds rho by 16 (rho/2)^(1/3), so that many orders (plus 20) are
    summed, one product each, with no step-size or norm search per step.
    `block` is consumed: it is the first of the three vectors the recurrence
    overwrites.

    Each order adds only the rows `advance` returned, which gives the bits
    of adding all rows: a zero row leaves the sum as it is, with one
    exception.  After coefficients that all carry a sign bit, the rows no
    order has reached hold -0, which adding 0 times a coefficient without a
    sign bit turns into +0; so until the first such coefficient, every row
    is added.
    """
    if rho == 0.0:
        return block
    coeffs = 2.0 * _bessel_j(rho, int(rho + 16.0 * (rho / 2.0) ** (1.0 / 3.0)) + 20)
    coeffs[0] /= 2.0
    prev, cur = block, np.zeros_like(block)
    reached = advance(prev, cur)
    reached *= 0.5
    out = coeffs[1] * cur
    out += coeffs[0] * prev
    signed = np.signbit(coeffs[0]) and np.signbit(coeffs[1])
    for c in coeffs[2:]:
        reached = advance(cur, prev)
        prev, cur = cur, prev
        if signed:
            out += c * cur
            signed = np.signbit(c)
        else:
            out[: len(reached)] += c * reached
    return out


def _squeeze_chains(r: float, cols, dim: int) -> np.ndarray:
    """exp(r/2 (a†² - a²)) |m>, m in `cols`, truncated to the states k < dim,
    as chains: entry j of column i is the amplitude of |cols[i] % 2 + 2j>.

    The generator couples k only to k ± 2, with the real weights
    ±c_k = ±r/2 sqrt((k+1)(k+2)), so every column stays on its parity chain
    and stays real.  All columns are packed in one (ceil(dim/2), len(cols))
    array, with per-column couplings (zero past the truncation) and a
    two-slice banded product over the rows order k can reach: chain indices
    up to max(cols) // 2 + k.
    """
    cols = np.asarray(cols, dtype=int)
    length = (dim + 1) // 2
    states = cols % 2 + 2 * np.arange(length - 1)[:, None]  # k, coupled to k + 2
    coupling = np.where(states + 2 < dim, 0.5 * r * np.sqrt((states + 1.0) * (states + 2.0)), 0.0)
    rows = coupling.copy()
    rows[1:] += coupling[:-1]
    rho = float(rows.max(initial=0.0))
    twice = 2.0 * coupling / rho if rho else coupling  # not 2 / rho: at subnormal r it overflows

    reach = int(cols.max()) // 2 + 1  # rows of the latest order that can be nonzero

    def advance(cur, prev):  # (G x)_j = c_(j-1) x_(j-1) - c_j x_(j+1), G/rho
        nonlocal reach
        reach = n = min(reach + 1, length)
        prev[1:n] += twice[: n - 1] * cur[: n - 1]
        prev[: n - 1] -= twice[: n - 1] * cur[1:n]
        return prev[:n]

    chains = np.zeros((length, len(cols)))
    chains[cols // 2, np.arange(len(cols))] = 1.0
    return _chebyshev(advance, rho, chains)


def _displaced_basis(alpha: complex, count: int, dim: int) -> np.ndarray:
    """exp(alpha a† - conj(alpha) a) |k>, k < count, truncated to the states
    j < dim, as the columns of a (dim, count) array.

    The generator couples j only to j ± 1, (G x)_j = alpha sqrt(j) x_(j-1) -
    conj(alpha) sqrt(j+1) x_(j+1): a two-slice banded product over the rows
    order k can reach, j < count + k, with rho = |alpha| (sqrt(dim - 2) +
    sqrt(dim - 1)) its largest Gershgorin row sum.
    """
    roots = np.sqrt(np.arange(1.0, dim))[:, None]
    rho = abs(alpha) * (math.sqrt(dim - 2) + math.sqrt(dim - 1))
    unit = 2.0 * alpha / rho if rho else 0.0  # not 2 / rho, which overflows at subnormal alpha
    up, down = roots * unit, roots * -np.conjugate(unit)
    reach = count  # rows of the latest order that can be nonzero

    def advance(cur, prev):
        nonlocal reach
        reach = n = min(reach + 1, dim)
        prev[1:n] += up[: n - 1] * cur[: n - 1]
        prev[: n - 1] += down[: n - 1] * cur[1:n]
        return prev[:n]

    basis = np.zeros((dim, count), dtype=complex)
    basis[np.arange(count), np.arange(count)] = 1.0
    return _chebyshev(advance, rho, basis)


def oracle_columns(
    params: GaussianUnitaryParams,
    row_max: int,
    cols,
    dim: int | None = None,
) -> np.ndarray:
    """Oracle columns <k|U|m>, k <= row_max, via exponential actions of the
    truncated generators.

    Equivalent to slicing :func:`oracle_gaussian_matrix` but scales to the
    large truncation dimensions that strong squeezing requires, because only
    the requested columns and rows are propagated, in two checked stages:

    * squeezing, of the columns S(r)|m> on their parity chains
      (:func:`_squeeze_chains`), at a dimension sized for squeezing alone:
      it starts from an estimate and grows by 1.5 until the tail defect of
      the chains (over their last states) passes, up to
      ``ORACLE_MAX_SQUEEZE_DIM``;
    * displacement, of the rows: D(-alpha)|k>, k <= row_max
      (:func:`_displaced_basis`), in the (sqrt(row_max) + |alpha| + 6)^2 +
      30 states that D(alpha) widens them to, whose edge mass (not its
      square: every entry of a row enters the result) must stay within
      ``ORACLE_DEFECT_TOL``.  Then <k|D(alpha)S(r)|m> is the inner product
      of row k with chain m over the states both stages keep.

    An explicit `dim` runs both stages at that dimension, without growth.
    """
    row_max = require_integer(row_max, "row_max", 0)
    cols = [require_integer(m, "column index", 0) for m in cols]
    if not cols:
        return np.zeros((row_max + 1, 0), dtype=complex)
    top = max(cols)
    if dim is None:
        size = max(math.ceil(_squeeze_dimension(params.r, top)), top + 2)
    else:
        size = dim = max(dim, row_max + 2, top + 2)
    while True:
        if dim is None and size > ORACLE_MAX_SQUEEZE_DIM:
            raise TailBoundError(
                f"squeezing r = {params.r} needs more than {ORACLE_MAX_SQUEEZE_DIM} oracle states",
                math.inf,
            )
        chains = _squeeze_chains(params.r, cols, size)
        defect = oracle_tail_defect(chains, range(len(cols)))
        if not defect > ORACLE_DEFECT_TOL:  # a NaN, which growth cannot mend, goes on
            break
        if dim is not None:
            raise TailBoundError(
                f"oracle dimension {dim} insufficient for squeezing columns {cols[:4]}...", defect
            )
        size = math.ceil(1.5 * size)
    if dim is None:
        dim = max(_displacement_dimension(row_max, params.alpha), row_max + 2)
    rows = _displaced_basis(-params.alpha, row_max + 1, dim)
    edge = _edge_mass(rows)
    if edge > ORACLE_DEFECT_TOL:
        raise TailBoundError(f"oracle dimension {dim} insufficient for rows <= {row_max}", edge)
    rows = rows[: min(dim, size)].conj()
    out = np.empty((row_max + 1, len(cols)), dtype=complex)
    odd = np.array(cols) % 2 == 1
    for parity, chosen in ((0, ~odd), (1, odd)):
        states = rows[parity::2]  # chain j of this parity is the state parity + 2j
        out[:, chosen] = states.T @ chains[: len(states), chosen]
    out *= np.exp(1j * params.vartheta * np.array(cols))
    return out * np.exp(-1j * params.theta * np.arange(row_max + 1))[:, None]
