"""Dense complex linear algebra and special functions used by every other module.

Matrices are plain ``numpy.ndarray`` with complex entries.  Eigendecomposition
and the matrix exponential are delegated to LAPACK / SciPy, wrapped behind the
contracts the rest of the package relies on (symmetrization, descending order,
deterministic eigenvector gauge).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Spectrum(NamedTuple):
    """Eigenvalues sorted descending with unit-norm eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def top(self) -> float:
        return float(self.eigenvalues[0])

    def vector(self, index: int) -> np.ndarray:
        return self.eigenvectors[:, index]


def _require_square(A: np.ndarray, op: str) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"{op} requires a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{op} requires finite entries")
    return A


def hermitian_spectrum(A: np.ndarray) -> Spectrum:
    """Full spectrum of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized as (A + A†)/2 first, absorbing floating-point
    asymmetry from upstream products.  Output is deterministic for identical
    input bits: LAPACK ordering plus a fixed eigenvector gauge (the entry of
    largest modulus is made real positive).
    """
    A = _require_square(A, "hermitian_spectrum")
    H = 0.5 * (A + A.conj().T)
    vals, vecs = np.linalg.eigh(H)
    order = np.arange(vals.size - 1, -1, -1)
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])
    for i in range(vecs.shape[1]):
        col = vecs[:, i]
        pivot = int(np.argmax(np.abs(col)))
        phase = col[pivot]
        if abs(phase) > 0:
            vecs[:, i] = col * (abs(phase) / phase)
    return Spectrum(vals, vecs)


def matrix_exponential(A: np.ndarray) -> np.ndarray:
    """exp(A) for a square complex matrix (scaling-and-squaring, Padé core)."""
    import scipy.linalg  # imported on first use: the package's largest import

    A = _require_square(A, "matrix_exponential")
    E = scipy.linalg.expm(A)
    if not np.all(np.isfinite(E.view(float))):
        raise ValueError(
            f"matrix_exponential overflowed (input norm {np.linalg.norm(A):.3e})"
        )
    return E


_LOG_FACTORIAL_CACHE = [0.0]


def log_factorial(n: int) -> float:
    """ln(n!), cached; used to assemble factorial ratios in log space."""
    if n < 0:
        raise ValueError("factorial argument must be >= 0")
    while len(_LOG_FACTORIAL_CACHE) <= n:
        k = len(_LOG_FACTORIAL_CACHE)
        _LOG_FACTORIAL_CACHE.append(_LOG_FACTORIAL_CACHE[k - 1] + math.log(k))
    return _LOG_FACTORIAL_CACHE[n]
