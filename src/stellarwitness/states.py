"""Constructors for the bosonic states and detector statistics used throughout.

All states live in a truncated Fock basis and carry an explicit `tail_bound`,
an upper bound on the probability mass the truncation dropped.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._util import complex_pair, parse_complex, require_list, require_real
from .errors import TailBoundError

_TAIL_TOL = 1e-6
#: how far a measured probability may lie outside [0, 1] and be read as in it
PROBABILITY_SLACK = 1e-9


def default_cutoff(beta: complex) -> int:
    """Poisson tail past mean + 8 sigma is below 1e-9 for |beta| <= 4."""
    b = abs(beta)
    cutoff = b * b + 8.0 * b + 8.0
    if not math.isfinite(cutoff):
        raise ValueError(f"beta = {beta} has no finite default cutoff |beta|^2 + 8|beta| + 8")
    return max(16, math.ceil(cutoff))


class FockVector:
    """Pure-state amplitudes indexed by photon number, truncated at a cutoff."""

    def __init__(self, amplitudes, tail_bound: float = 0.0):
        self.amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.size < 1:
            raise ValueError("a Fock vector needs at least the vacuum amplitude")
        self.tail_bound = float(tail_bound)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.size - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def padded(self, cutoff: int) -> np.ndarray:
        out = np.zeros(cutoff + 1, dtype=complex)
        n = min(cutoff + 1, self.amplitudes.size)
        out[:n] = self.amplitudes[:n]
        return out

    def to_json(self) -> dict:
        return {
            "kind": "fock_vector",
            "cutoff": self.cutoff,
            "data": [complex_pair(z) for z in self.amplitudes],
            "tail_bound": self.tail_bound,
        }


class FockDensity:
    """Hermitian positive-semidefinite density block with a declared tail bound."""

    def __init__(self, matrix, tail_bound: float = 0.0, validate: bool = True):
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("density matrix must be square")
        self.tail_bound = float(tail_bound)
        if validate:
            if not np.isfinite(self.matrix).all():
                raise ValueError("density matrix entries must be finite")
            scale = max(1.0, float(np.max(np.abs(self.matrix))))
            if float(np.max(np.abs(self.matrix - self.matrix.conj().T))) > 1e-10 * scale:
                raise ValueError("density matrix is not Hermitian")
            smallest = float(np.linalg.eigvalsh(self.matrix)[0])
            if smallest < -1e-10:
                raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")

    @property
    def cutoff(self) -> int:
        return self.matrix.shape[0] - 1

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def to_json(self) -> dict:
        return {
            "kind": "density",
            "cutoff": self.cutoff,
            "data": [[complex_pair(z) for z in row] for row in self.matrix],
            "tail_bound": self.tail_bound,
        }


def coherent(beta: complex, cutoff: int | None = None) -> FockVector:
    """Coherent state |beta>: amplitudes e^{-|beta|^2/2} beta^k / sqrt(k!)."""
    beta = complex(beta)
    if cutoff is None:
        cutoff = default_cutoff(beta)
    if beta == 0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
        return FockVector(amps, tail_bound=0.0)
    from .numerics import log_factorial

    ks = np.arange(cutoff + 1)
    log_mag = -0.5 * abs(beta) ** 2 + ks * np.log(abs(beta))
    lgf = np.array([log_factorial(int(k)) for k in ks])
    phase = np.exp(1j * np.angle(beta) * ks)
    amps = np.exp(log_mag - 0.5 * lgf) * phase
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    if tail > _TAIL_TOL:
        raise TailBoundError(f"cutoff {cutoff} too small for coherent |beta|={abs(beta):.3g}", tail)
    return FockVector(amps, tail_bound=tail)


def cat_normalization(beta: complex, parity: str) -> float:
    """N_+ = 1 + e^{-2|beta|^2} (even), N_- = 1 - e^{-2|beta|^2} (odd), the
    latter as -expm1(-2|beta|^2), which keeps its precision as beta -> 0."""
    if parity == "even":
        return 1.0 + math.exp(-2.0 * abs(beta) ** 2)
    return -math.expm1(-2.0 * abs(beta) ** 2)


def cat(beta: complex, parity: str, cutoff: int | None = None) -> FockVector:
    """Normalized even/odd coherent superposition (|beta> ± |-beta>)/sqrt(2 N±).

    Even cats populate only even photon numbers, odd cats only odd ones; the
    opposite-parity amplitudes are exactly zero.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    beta = complex(beta)
    norm = cat_normalization(beta, parity)
    if norm < sys.float_info.min:  # beta = 0, or N_- underflows (|beta| below ~1e-154)
        raise ValueError(f"odd cat with |beta| = {abs(beta):.3g} is degenerate (N_- = {norm:.3g})")
    base = coherent(beta, cutoff)
    amps = base.amplitudes.copy()
    keep = np.arange(amps.size) % 2 == (0 if parity == "even" else 1)
    amps[~keep] = 0.0
    amps[keep] *= 2.0 / math.sqrt(2.0 * norm)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    if tail > _TAIL_TOL:
        raise TailBoundError(f"cutoff too small for {parity} cat at |beta|={abs(beta):.3g}", tail)
    return FockVector(amps, tail_bound=tail)


def lossy_cat_mixing_probability(beta: complex, t: float) -> float:
    """Weight p+ of the even-cat component after amplitude transmittance t."""
    b2 = abs(beta) ** 2
    t2 = t * t
    return 0.5 + 0.5 * (math.exp(-2.0 * t2 * b2) + math.exp(-2.0 * (1.0 - t2) * b2)) / (
        1.0 + math.exp(-2.0 * b2)
    )


def lossy_cat(beta: complex, t: float, cutoff: int | None = None) -> FockDensity:
    """Even cat after a loss channel: p+ |t beta_+><t beta_+| + (1-p+)|t beta_-><t beta_-|."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"amplitude transmittance must lie in [0, 1], got {t}")
    beta = complex(beta)
    if cutoff is None:
        cutoff = default_cutoff(beta)
    p_plus = lossy_cat_mixing_probability(beta, t)
    scaled = t * beta
    even = cat(scaled, "even", cutoff)
    rho = p_plus * np.outer(even.amplitudes, even.amplitudes.conj())
    tail = p_plus * even.tail_bound
    if 1.0 - p_plus > 0.0 and scaled != 0:
        odd = cat(scaled, "odd", cutoff)
        rho += (1.0 - p_plus) * np.outer(odd.amplitudes, odd.amplitudes.conj())
        tail += (1.0 - p_plus) * odd.tail_bound
    return FockDensity(rho, tail_bound=tail)


def thermal(nbar: float, cutoff: int | None = None) -> FockDensity:
    """Thermal state: diagonal weights nbar^m / (1+nbar)^{m+1}, which are
    non-negative, so the density is built without its dense PSD check."""
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")
    ratio = nbar / (1.0 + nbar)
    if cutoff is None:
        cutoff = 16 if ratio == 0 else max(16, math.ceil(math.log(1e-10) / math.log(ratio)))
    tail = ratio ** (cutoff + 1)
    if tail > 1e-9:
        raise TailBoundError(f"cutoff {cutoff} too small for thermal nbar={nbar:.3g}", tail)
    ms = np.arange(cutoff + 1)
    weights = (1.0 / (1.0 + nbar)) * ratio**ms
    return FockDensity(np.diag(weights.astype(complex)), tail_bound=float(tail), validate=False)


def q0_after_loss(p, T: float) -> float:
    """Vacuum probability after a loss channel of intensity transmittance T.

    q0(T) = sum_m (1-T)^m p_m; equals (1+nbar) Tr[thermal(nbar) rho] with
    nbar = (1-T)/T, which the test suite uses as an independent identity.
    """
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"intensity transmittance must lie in [0, 1], got {T}")
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12) or float(p.sum()) > 1.0 + 1e-9:
        raise ValueError("invalid probability list")
    ms = np.arange(p.size)
    with np.errstate(divide="ignore"):
        factors = (1.0 - T) ** ms
    return float(np.dot(factors, p))


def click_statistics(p, M: int, eta: float, R_D: float, m: int) -> float:
    """Probability that a specific subset of m detectors (out of a balanced
    M-channel multiplexer) clicks while the remaining M-m stay silent.

    c_m = sum_j C(m,j) (-1)^j (1-R_D)^{M-m+j} q0(eta (M-m+j)/M).
    """
    if M < 1:
        raise ValueError("channel count must be >= 1")
    if not 0 <= m <= M:
        raise ValueError(f"click multiplicity {m} must lie in [0, {M}]")
    if not 0.0 <= eta <= 1.0 or not 0.0 <= R_D <= 1.0:
        raise ValueError("efficiency and dark-count probability must lie in [0, 1]")
    total = 0.0
    for j in range(m + 1):
        silent = M - m + j
        total += (
            math.comb(m, j)
            * (-1.0) ** j
            * (1.0 - R_D) ** silent
            * q0_after_loss(p, eta * silent / M)
        )
    return total


# ---------------------------------------------------------------------------
# State files.
# ---------------------------------------------------------------------------


def state_to_json(state) -> dict:
    if isinstance(state, FockVector):
        return state.to_json()
    if isinstance(state, FockDensity):
        return state.to_json()
    p = np.asarray(state, dtype=float)
    return {"kind": "fock_probabilities", "cutoff": p.size - 1, "data": [float(x) for x in p]}


def state_from_json(obj: dict):
    """Parse a state file object into FockVector, FockDensity or a probability array.

    Anything but an object with a "data" entry raises ValueError, and so do
    fock_vector amplitudes or density entries that are not finite numbers
    or [re, im] pairs of them (see `parse_complex`), and
    fock_probabilities that are not a distribution: an entry not finite or
    outside [0, 1], or a sum above 1 (each limit with PROBABILITY_SLACK)."""
    if not isinstance(obj, dict):
        raise ValueError(f"a state must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    if kind in ("fock_vector", "density", "fock_probabilities") and "data" not in obj:
        raise ValueError(f'a {kind} state needs a "data" entry')
    if kind == "fock_vector":
        amps = [parse_complex(z, "fock_vector amplitude") for z in require_list(obj["data"], "data")]
        return FockVector(amps, tail_bound=require_real(obj.get("tail_bound", 0.0), "tail_bound"))
    if kind == "density":
        rows = [[parse_complex(z, "density entry") for z in require_list(row, "density row")]
                for row in require_list(obj["data"], "data")]
        tail_bound = require_real(obj.get("tail_bound", 0.0), "tail_bound")
        return FockDensity(np.array(rows, dtype=complex), tail_bound=tail_bound)
    if kind == "fock_probabilities":
        probabilities = np.asarray(obj["data"], dtype=float)
        if probabilities.ndim != 1 or not np.all(np.isfinite(probabilities)):
            raise ValueError("fock_probabilities data must be a list of finite numbers")
        low, high = -PROBABILITY_SLACK, 1.0 + PROBABILITY_SLACK
        if np.any(probabilities < low) or np.any(probabilities > high):
            raise ValueError("fock_probabilities entries must lie in [0, 1]")
        if probabilities.sum() > high:
            raise ValueError(f"fock_probabilities sum to {probabilities.sum():.17g}, above 1")
        return probabilities
    raise ValueError(f"unknown state kind {kind!r}")
