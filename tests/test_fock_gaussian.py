import math

import numpy as np
import pytest

from stellarwitness.errors import TailBoundError
from stellarwitness.fock_gaussian import (
    SQUEEZING_DEGENERACY_CUTOFF,
    GaussianUnitaryParams,
    _vacuum_column,
    block_columns,
    coherent_columns,
    gaussian_block,
    gaussian_matrix_element,
    oracle_columns,
    oracle_dimension,
    oracle_gaussian_matrix,
    params_from_vector,
    transform_coherent,
)

IDENTITY = GaussianUnitaryParams()


def random_params(rng, r_max=2.0, alpha_max=4.0):
    alpha = complex(rng.uniform(-alpha_max, alpha_max), rng.uniform(-alpha_max, alpha_max))
    if abs(alpha) > alpha_max:
        alpha *= alpha_max / abs(alpha)
    return GaussianUnitaryParams(
        theta=rng.uniform(0, 2 * math.pi),
        vartheta=rng.uniform(0, 2 * math.pi),
        r=rng.uniform(0, r_max),
        alpha=alpha,
    )


class TestParams:
    def test_rejects_negative_squeezing(self):
        with pytest.raises(ValueError):
            GaussianUnitaryParams(r=-0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GaussianUnitaryParams(alpha=complex(np.inf, 0))

    def test_json_round_trip(self):
        p = GaussianUnitaryParams(theta=0.1, vartheta=0.2, r=0.3, alpha=1 - 2j)
        assert GaussianUnitaryParams.from_json(p.to_json()) == p


class TestElement:
    def test_identity_is_kronecker(self):
        assert gaussian_matrix_element(IDENTITY, 3, 3) == 1.0
        for k in range(4):
            for m in range(4):
                if k != m:
                    assert gaussian_matrix_element(IDENTITY, k, m) == 0.0

    def test_pure_displacement_vacuum(self):
        p = GaussianUnitaryParams(alpha=1.0)
        assert abs(gaussian_matrix_element(p, 0, 0) - math.exp(-0.5)) < 1e-14

    def test_squeezed_vacuum_parity(self):
        p = GaussianUnitaryParams(r=0.5)
        assert gaussian_matrix_element(p, 1, 0) == 0.0

    def test_squeezed_vacuum_value(self):
        p = GaussianUnitaryParams(r=0.5)
        expected = 1.0 / math.sqrt(math.cosh(0.5))
        assert abs(gaussian_matrix_element(p, 0, 0) - expected) < 1e-14

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            gaussian_matrix_element(IDENTITY, -1, 0)

    def test_parity_exact_zero_without_displacement(self):
        p = GaussianUnitaryParams(r=1.3, vartheta=0.4, theta=0.2)
        for k in range(6):
            for m in range(6):
                if (k + m) % 2 == 1:
                    assert gaussian_matrix_element(p, k, m) == 0.0

    def test_phase_covariance_prefactor(self):
        base = GaussianUnitaryParams(theta=0.0, vartheta=0.7, r=0.9, alpha=0.8 - 0.3j)
        shifted = GaussianUnitaryParams(theta=1.1, vartheta=0.7, r=0.9, alpha=0.8 - 0.3j)
        for k in range(5):
            for m in range(5):
                expected = np.exp(-1j * k * 1.1) * gaussian_matrix_element(base, k, m)
                got = gaussian_matrix_element(shifted, k, m)
                assert abs(got - expected) < 1e-14


class TestBlock:
    def test_identity_block(self):
        assert np.array_equal(gaussian_block(IDENTITY, 2, 2), np.eye(3, dtype=complex))

    def test_single_entry_amplitude_bound(self):
        p = GaussianUnitaryParams(theta=0.3, vartheta=1.0, r=1.2, alpha=2 + 1j)
        block = gaussian_block(p, 0, 0)
        assert block.shape == (1, 1)
        assert abs(block[0, 0]) <= 1.0

    def test_block_bit_identical_to_elements(self):
        p = GaussianUnitaryParams(theta=0.2, vartheta=0.5, r=0.8, alpha=1.5 - 0.5j)
        block = gaussian_block(p, 5, 7)
        for k in range(6):
            for m in range(8):
                assert block[k, m] == gaussian_matrix_element(p, k, m)

    def test_column_norms_against_oracle(self):
        p = GaussianUnitaryParams(theta=0.0, vartheta=0.3, r=1.0, alpha=2 + 1j)
        block = gaussian_block(p, 7, 7)
        norms = np.linalg.norm(block, axis=0)
        assert np.all(norms <= 1.0 + 1e-12)
        oracle = oracle_columns(p, 7, range(8))
        oracle_norms = np.linalg.norm(oracle, axis=0)
        assert np.max(np.abs(norms - oracle_norms)) < 1e-6

    def test_approximate_isometry_with_tail_rows(self):
        p = GaussianUnitaryParams(vartheta=0.9, r=1.0, alpha=1 + 0.5j)
        rows = oracle_dimension(p, 6)
        block = gaussian_block(p, rows - 1, 6)
        norms = np.linalg.norm(block, axis=0)
        assert np.all(np.abs(norms - 1.0) <= 1e-6)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_parameter_tuples(self, seed):
        rng = np.random.default_rng(1000 + seed)
        p = random_params(rng)
        analytic = gaussian_block(p, 7, 7)
        oracle = oracle_columns(p, 7, range(8))
        assert np.max(np.abs(analytic - oracle)) < 1e-8

    def test_near_degenerate_squeezing(self):
        # just above the displacement-only cutoff: the Hermite sum must stay stable
        for r in (1e-9, 1e-7, 1e-5, 1e-3):
            p = GaussianUnitaryParams(vartheta=0.4, r=r, alpha=1.5 + 0.8j)
            analytic = gaussian_block(p, 6, 6)
            oracle = oracle_columns(p, 6, range(7))
            assert np.max(np.abs(analytic - oracle)) < 1e-8, f"r={r}"

    def test_pure_displacement_branch(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            p = GaussianUnitaryParams(theta=rng.uniform(0, 6), vartheta=rng.uniform(0, 6), alpha=alpha)
            analytic = gaussian_block(p, 7, 7)
            oracle = oracle_columns(p, 7, range(8))
            assert np.max(np.abs(analytic - oracle)) < 1e-9


class TestTransformCoherent:
    def test_identity_on_vacuum(self):
        vec = transform_coherent(IDENTITY, 0.0, 5)
        assert np.allclose(vec.amplitudes, np.eye(6)[0], atol=1e-15)

    def test_identity_gives_poisson_amplitudes(self):
        vec = transform_coherent(IDENTITY, 1.0, 12)
        expected = np.array([math.exp(-0.5) / math.sqrt(math.factorial(k)) for k in range(13)])
        assert np.max(np.abs(vec.amplitudes - expected)) < 1e-12

    @staticmethod
    def oracle_transform(p, beta, k_max, relevant_cols, dim=151):
        ks = np.arange(dim)
        lgf = np.array([math.lgamma(k + 1) for k in ks])
        coherent_amps = np.exp(-abs(beta) ** 2 / 2 + ks * math.log(abs(beta)) - 0.5 * lgf)
        oracle = oracle_gaussian_matrix(p, dim - 1, relevant_cols=relevant_cols)
        return (oracle @ coherent_amps)[: k_max + 1]

    def test_matches_oracle_product(self):
        p = GaussianUnitaryParams(theta=0.0, vartheta=0.4, r=0.7, alpha=1.0)
        got = transform_coherent(p, 0.5, 10).amplitudes
        expected = self.oracle_transform(p, 0.5, 10, relevant_cols=12)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_vacuum_column_bit_identical_to_block_columns(self):
        # the direct m = 0 path must reproduce the general element formula to
        # the last bit, on both sides of the degeneracy cutoff and at large |alpha|
        rng = np.random.default_rng(2412)
        edge_r = (0.0, 1e-12, 5e-11, 1e-9)
        for i in range(400):
            r = edge_r[i % 4] if i % 2 else rng.uniform(0.0, 3.0)
            alpha = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if i % 7 == 0:
                alpha = complex(alpha.real, 0.0)
            rows = 1 + i % 11
            column = _vacuum_column(r, alpha, rows - 1)
            reference = block_columns(GaussianUnitaryParams(r=r, alpha=alpha), rows, [0])[:, 0]
            assert column.tobytes() == reference.tobytes(), f"r={r} alpha={alpha} rows={rows}"

    @pytest.mark.parametrize("r", [0.0, 1e-11])
    def test_degenerate_squeezing_matches_oracle(self, r):
        # below SQUEEZING_DEGENERACY_CUTOFF the coherent input takes the
        # Laguerre displacement branch, as at every optimizer start clipped to r = 0
        p = GaussianUnitaryParams(theta=0.8, vartheta=1.9, r=r, alpha=0.6 - 0.3j)
        got = transform_coherent(p, 2.0, 8).amplitudes
        expected = self.oracle_transform(p, 2.0, 8, relevant_cols=40, dim=121)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_final_phase_applied(self):
        base = GaussianUnitaryParams(theta=0.0, vartheta=0.2, r=0.4, alpha=0.3j)
        rotated = GaussianUnitaryParams(theta=0.9, vartheta=0.2, r=0.4, alpha=0.3j)
        a = transform_coherent(base, 0.7, 6).amplitudes
        b = transform_coherent(rotated, 0.7, 6).amplitudes
        ks = np.arange(7)
        assert np.max(np.abs(b - np.exp(-1j * 0.9 * ks) * a)) < 1e-14


class TestCoherentColumns:
    BETAS = (2.0, -2.0, 1.3 + 0.4j)

    @staticmethod
    def points(count=2400):
        """Seeded search points with r = 0, r in (0, 1e-10), r just above the
        degeneracy cutoff and generic r mixed; |alpha + beta_tilde| up to ~15
        but for one row."""
        rng = np.random.default_rng(8080)
        r = rng.uniform(0.0, 1.0, count)
        kind = np.arange(count) % 5
        r[kind == 0] = 0.0
        r[kind == 1] = rng.uniform(0.0, 1e-10, count)[kind == 1]
        cutoff_r = math.asinh(SQUEEZING_DEGENERACY_CUTOFF)
        just_above = cutoff_r * (1.0 + rng.uniform(1e-9, 1e-6, count))
        r[kind == 2] = just_above[kind == 2]
        points = np.column_stack([
            r,
            rng.uniform(-9.5, 9.5, count),
            rng.uniform(-9.5, 9.5, count),
            rng.uniform(0.0, 2.0 * math.pi, count),
        ])
        points[::7, 1:3] = 0.0
        points[::11, 3] = 0.0
        # a squeezed row whose displacement overflows alpha ** k: the
        # displaced form must run only on the rows below the cutoff
        points[3, 1:3] = 1e80, -1e80
        return points

    @pytest.mark.parametrize("k_max", [0, 2, 5])
    def test_batches_bit_identical_to_one_row(self, k_max):
        points = self.points()
        one_row = np.array([
            [transform_coherent(params_from_vector(p), beta, k_max).amplitudes for beta in self.BETAS]
            for p in points
        ])
        rng = np.random.default_rng(k_max)
        for size in (1, 7, 12, 64):
            for order in (np.arange(len(points)), rng.permutation(len(points))):
                got = np.empty_like(one_row)
                for start in range(0, len(points), size):
                    rows = order[start : start + size]
                    got[rows] = coherent_columns(points[rows], self.BETAS, k_max)
                assert got.tobytes() == one_row.tobytes(), f"batch size {size}"

    def test_three_column_points_have_zero_vartheta(self):
        points = self.points(60)
        points[:, 3] = 0.0
        full = coherent_columns(points, self.BETAS, 3)
        assert coherent_columns(points[:, :3], self.BETAS, 3).tobytes() == full.tobytes()

    def test_non_finite_displacement_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            coherent_columns([[0.2, math.inf, 0.0]], self.BETAS, 2)


class TestOracle:
    def test_identity(self):
        assert np.allclose(oracle_gaussian_matrix(IDENTITY, 10), np.eye(11), atol=1e-13)

    def test_displacement_column_is_poissonian(self):
        p = GaussianUnitaryParams(alpha=2.0)
        U = oracle_gaussian_matrix(p, 40, relevant_cols=0)
        probs = np.abs(U[:, 0]) ** 2
        ks = np.arange(41)
        expected = np.exp(-4.0) * 4.0**ks / np.array([math.factorial(k) for k in ks])
        assert np.max(np.abs(probs - expected)) < 1e-10

    def test_unitary_defect_self_check(self):
        # the truncated-generator product is exactly unitary regardless of
        # entry accuracy, so this self-check skips the tail precondition
        p = GaussianUnitaryParams(r=1.5)
        U = oracle_gaussian_matrix(p, 60, check=False)
        gram = U.conj().T @ U
        assert np.max(np.abs(gram[:10, :10] - np.eye(10))) <= 1e-9

    def test_insufficient_cutoff_raises(self):
        p = GaussianUnitaryParams(r=1.5)
        with pytest.raises(TailBoundError):
            oracle_gaussian_matrix(p, 20, relevant_cols=15)

    def test_column_oracle_matches_dense(self):
        p = GaussianUnitaryParams(theta=0.5, vartheta=1.2, r=0.8, alpha=1 - 1j)
        dense = oracle_gaussian_matrix(p, 120, relevant_cols=4)[:8, :5]
        cols = oracle_columns(p, 7, range(5))
        assert np.max(np.abs(dense - cols)) < 1e-10

    @pytest.mark.parametrize("seed", [3, 11, 21])
    def test_defect_indicator_bounds_block_change(self, seed):
        # doubling the truncation dimension must move the block by no more
        # than the reported indicator scale
        rng = np.random.default_rng(seed)
        p = random_params(rng, r_max=2.0, alpha_max=4.0)
        dim = oracle_dimension(p, 9)
        block = oracle_columns(p, 9, range(10), dim=dim)
        reference = oracle_columns(p, 9, range(10), dim=2 * dim)
        change = float(np.max(np.abs(block - reference)))
        assert change < 1e-9
