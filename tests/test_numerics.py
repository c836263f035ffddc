import numpy as np
import pytest

from stellarwitness.numerics import (
    hermitian_spectrum,
    log_factorial,
    matrix_exponential,
)


def test_spectrum_identity():
    spectrum = hermitian_spectrum(np.eye(2, dtype=complex))
    assert np.allclose(spectrum.eigenvalues, [1.0, 1.0])


def test_spectrum_diagonal_descending():
    spectrum = hermitian_spectrum(np.diag([1.0, 3.0]).astype(complex))
    assert np.allclose(spectrum.eigenvalues, [3.0, 1.0])


def test_spectrum_pauli_x():
    spectrum = hermitian_spectrum(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(spectrum.eigenvalues, [1.0, -1.0])


def test_spectrum_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_spectrum(np.ones((2, 3), dtype=complex))


def test_spectrum_rejects_non_finite():
    bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        hermitian_spectrum(bad)


@pytest.mark.parametrize("dim", [2, 5, 11, 32])
def test_spectrum_trace_and_residuals(dim):
    rng = np.random.default_rng(dim)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    A = 0.5 * (A + A.conj().T)
    spectrum = hermitian_spectrum(A)
    fro = np.linalg.norm(A)
    assert abs(spectrum.eigenvalues.sum() - np.trace(A).real) <= 1e-10 * fro
    for i in range(dim):
        v = spectrum.vector(i)
        lam = spectrum.eigenvalues[i]
        assert np.linalg.norm(A @ v - lam * v) <= 1e-10 * max(1.0, abs(lam)) * fro
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    gram = spectrum.eigenvectors.conj().T @ spectrum.eigenvectors
    assert np.max(np.abs(gram - np.eye(dim))) <= 1e-9


def test_spectrum_deterministic():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    A = A + A.conj().T
    first = hermitian_spectrum(A.copy())
    second = hermitian_spectrum(A.copy())
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_expm_zero_is_identity():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_expm_diagonal():
    out = matrix_exponential(np.diag([np.log(2.0), 0.0]).astype(complex))
    assert np.allclose(out, np.diag([2.0, 1.0]), rtol=1e-11)


def test_expm_nilpotent():
    out = matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert np.allclose(out, np.array([[1, 1], [0, 1]]), atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_expm_inverse_pairs(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    A *= 5.0 / max(np.linalg.norm(A), 5.0)
    prod = matrix_exponential(A) @ matrix_exponential(-A)
    assert np.max(np.abs(prod - np.eye(6))) <= 1e-9


def test_log_factorial():
    import math

    assert log_factorial(0) == 0.0
    assert abs(log_factorial(10) - math.log(math.factorial(10))) < 1e-12
    with pytest.raises(ValueError):
        log_factorial(-1)
