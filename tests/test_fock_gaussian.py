import math
import re

import numpy as np
import pytest

from stellarwitness import fock_gaussian, multimode
from stellarwitness.errors import TailBoundError
from stellarwitness.fock_gaussian import (
    GaussianUnitaryParams,
    _bessel_j,
    _chebyshev,
    _displaced_basis,
    _ladder,
    _squeeze_chains,
    _vacuum_terms,
    block_columns_batch,
    coherent_columns,
    gaussian_block,
    oracle_columns,
    oracle_gaussian_matrix,
    params_from_vector,
)
from stellarwitness.multimode import _unpack_vector, multimode_fock_projector, multimode_objective
from stellarwitness.states import FockDensity, FockVector
from stellarwitness.threshold import _round_objectives, objective
from stellarwitness.witness import (
    DENSITY,
    PURE,
    WitnessOperator,
    WitnessTerm,
    cat_pair_witness,
    fock_pair_witness,
)

IDENTITY = GaussianUnitaryParams()


def mixed_witness() -> WitnessOperator:
    """Pure, density and coherent terms with an identity part."""
    cat = cat_pair_witness(1.3 + 0.4j, 0.9)
    pure = WitnessTerm(0.4, PURE, FockVector(np.array([0.6, 0.0, 0.8j])))
    density = WitnessTerm(0.3, DENSITY, FockDensity(np.diag([0.5, 0.25, 0.25, 0.0])))
    return WitnessOperator(cat.terms + (pure, density), 3, False, identity_weight=0.1)


def oracle_dimension(params: GaussianUnitaryParams, col_max: int) -> int:
    """A generous explicit `dim` for `oracle_columns`: the squeeze stage's
    first estimate, widened as D(alpha) would widen it."""
    squeezed = fock_gaussian._squeeze_dimension(params.r, col_max)
    return fock_gaussian._displacement_dimension(squeezed, params.alpha)


def _exp_action(generator, block: np.ndarray) -> np.ndarray:
    """exp(G) @ block for an anti-Hermitian sparse generator G, by the
    oracle's Chebyshev series (which consumes `block`) with rho the
    Gershgorin bound on the spectrum of G: the full-generator reference
    for the oracle's banded stages."""
    rho = float(abs(generator).sum(axis=1).max())
    twice = generator.tocsr() * (2.0 / rho if rho else 0.0)

    def advance(cur, prev):
        prev += twice @ cur
        return prev

    return _chebyshev(advance, rho, block)


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


def element(params, k, m):
    """<k|U|m>, read from the one-column block of one row that holds it."""
    return block_columns_batch([params.vector()], k + 1, [m], [params.theta])[0, k, 0]


class TestElement:
    """Single entries <k|U|m>, each read from the one-column block that holds it."""

    def test_identity_is_kronecker(self):
        assert element(IDENTITY, 3, 3) == 1.0
        for k in range(4):
            for m in range(4):
                if k != m:
                    assert element(IDENTITY, k, m) == 0.0

    def test_pure_displacement_vacuum(self):
        p = GaussianUnitaryParams(alpha=1.0)
        assert abs(element(p, 0, 0) - math.exp(-0.5)) < 1e-14

    def test_squeezed_vacuum_parity(self):
        p = GaussianUnitaryParams(r=0.5)
        assert element(p, 1, 0) == 0.0

    def test_squeezed_vacuum_value(self):
        p = GaussianUnitaryParams(r=0.5)
        expected = 1.0 / math.sqrt(math.cosh(0.5))
        assert abs(element(p, 0, 0) - expected) < 1e-14

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError, match="Fock indices"):
            block_columns_batch([IDENTITY.vector()], -1, [0])
        with pytest.raises(ValueError, match="Fock indices"):
            block_columns_batch([IDENTITY.vector()], 1, [-1])

    def test_parity_exact_zero_without_displacement(self):
        p = GaussianUnitaryParams(r=1.3, vartheta=0.4, theta=0.2)
        for k in range(6):
            for m in range(6):
                if (k + m) % 2 == 1:
                    assert element(p, k, m) == 0.0

    def test_phase_covariance_prefactor(self):
        base = GaussianUnitaryParams(theta=0.0, vartheta=0.7, r=0.9, alpha=0.8 - 0.3j)
        shifted = GaussianUnitaryParams(theta=1.1, vartheta=0.7, r=0.9, alpha=0.8 - 0.3j)
        for k in range(5):
            for m in range(5):
                expected = np.exp(-1j * k * 1.1) * element(base, k, m)
                got = element(shifted, k, m)
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
                assert block[k, m] == element(p, k, m)

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


class TestBlockColumns:
    EDGE_R = (0.0, 1e-12, 5e-11, 1e-9)

    @classmethod
    def points(cls, count, rng):
        """Rows (r, Re alpha, Im alpha, vartheta) with r at the edges or U(0, 3)
        in turn and |alpha| <= 8.5, and their output phases theta."""
        r = np.array(cls.EDGE_R + (np.nan,))[np.arange(count) % 5]
        generic = np.isnan(r)
        r[generic] = rng.uniform(0.0, 3.0, generic.sum())
        radius = 8.5 * np.sqrt(rng.uniform(0.0, 1.0, count))
        angle = rng.uniform(0.0, 2.0 * math.pi, count)
        vartheta, theta = rng.uniform(0.0, 2.0 * math.pi, (2, count))
        points = np.column_stack([r, radius * np.cos(angle), radius * np.sin(angle), vartheta])
        points[::7, 1:3] = 0.0
        return points, theta

    def test_batches_bit_identical_to_one_row(self):
        rng = np.random.default_rng(4141)
        points, theta = self.points(600, rng)
        cols = [0, 2, 3, 7]
        one_row = np.array(
            [block_columns_batch(p[None], 6, cols, [th])[0] for p, th in zip(points, theta)]
        )
        for size in (1, 7, 12, 64):
            for order in (np.arange(len(points)), rng.permutation(len(points))):
                got = np.empty_like(one_row)
                for start in range(0, len(points), size):
                    rows = order[start : start + size]
                    got[rows] = block_columns_batch(points[rows], 6, cols, theta[rows])
                assert got.tobytes() == one_row.tobytes(), f"batch size {size}"

    def test_matches_oracle_at_small_squeezing(self):
        rng = np.random.default_rng(4242)
        points, theta = self.points(50, rng)
        for point, th in zip(points, theta):
            if point[0] not in self.EDGE_R:
                continue
            params = GaussianUnitaryParams(
                theta=th, vartheta=point[3], r=point[0], alpha=complex(point[1], point[2])
            )
            got = block_columns_batch(point[None], 7, range(11), [th])[0]
            assert np.max(np.abs(got - oracle_columns(params, 6, range(11)))) < 1e-10, params

    def test_three_column_points_have_zero_vartheta(self):
        points, _ = self.points(30, np.random.default_rng(7))
        points[:, 3] = 0.0
        full = block_columns_batch(points, 4, [0, 3])
        assert block_columns_batch(points[:, :3], 4, [0, 3]).tobytes() == full.tobytes()

    @pytest.mark.parametrize("rows, cols", [(1, [0]), (3, [0, 1, 2]), (6, [0, 2, 3, 7])])
    def test_no_theta_is_zero_theta(self, rows, cols):
        # bytes, not values: the unit phases are not exponentiated, and signed
        # zeros must come out as through the exponentials
        points, theta = self.points(300, np.random.default_rng(9))
        corners = [(0.0, 0.0, 0.0), (0.0, -0.0, 0.0), (0.0, 0.0, -0.0), (0.0, -0.0, -0.0),
                   (0.0, 1e-320, -1e-320), (0.4, -0.0, 1e-320), (1e-12, -1e-320, -0.0),
                   # entries that underflow when unscaled, with both parts negative
                   (0.0, 27.0, -27.0), (0.0, 30.0, 27.0), (0.1, -27.2, -27.2), (0.5, 26.0, -26.0)]
        points = np.vstack([corners, points[:, :3]])
        with_vartheta = np.column_stack([points, np.zeros(len(points))])
        plain = block_columns_batch(points, rows, cols)
        zero_theta = block_columns_batch(points, rows, cols, np.zeros(len(points)))
        zero_vartheta = block_columns_batch(with_vartheta, rows, cols)
        assert plain.tobytes() == zero_theta.tobytes() == zero_vartheta.tobytes()
        theta = np.concatenate([np.full(len(corners), 0.4), theta])
        turned = block_columns_batch(points, rows, cols, theta)
        assert turned.tobytes() == block_columns_batch(with_vartheta, rows, cols, theta).tobytes()
        identity = block_columns_batch([(0.0, 0.0, 0.0)], rows, range(rows))[0]
        assert np.array_equal(identity, np.eye(rows))

    def test_empty_columns_and_rows(self):
        points, _ = self.points(3, np.random.default_rng(8))
        assert block_columns_batch(points, 4, []).shape == (3, 4, 0)
        assert block_columns_batch(points, 0, [1]).shape == (3, 0, 1)

    @pytest.mark.parametrize("bad", [[[0.2, math.nan, 0.0]], [[math.inf, 0.0, 0.0]]])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            block_columns_batch(bad, 3, [0])

    @pytest.mark.parametrize("height", [1, 4, 9])
    def test_one_column_ladder_is_column_zero_of_a_wider_one(self, height):
        # the one-column ladder skips the steps in m; column 0 keeps its bits
        points, _ = self.points(600, np.random.default_rng(height))
        r, ar, ai = points[:, 0], points[:, 1], points[:, 2]
        mu, sinh = np.cosh(r), np.sinh(r)
        vacuum = _vacuum_terms(r, mu, ar, ai)
        one, one_unscale = _ladder(vacuum, mu, sinh, ar, ai, height, 1)
        wide, wide_unscale = _ladder(vacuum, mu, sinh, ar, ai, height, 3)
        assert one[:, :, 0].tobytes() == wide[:, :, 0].tobytes()
        assert one_unscale.tobytes() == wide_unscale.tobytes()

    @pytest.mark.parametrize(
        "bad", [[[800.0, 0.1, 0.0]], [[700.5, 0.0, 0.0, 0.2]], [[0.2, 0.0, 0.0, math.inf]]]
    )
    def test_points_checked_before_any_arithmetic(self, bad):
        # r above MAX_SQUEEZING overflows cosh r: all-NaN columns, no error
        with pytest.raises(ValueError, match="r <= 700"):
            block_columns_batch(bad, 3, [0, 1, 2])

    def test_largest_squeezing_allowed(self):
        block = block_columns_batch([[fock_gaussian.MAX_SQUEEZING, 0.1, 0.0]], 3, [0, 1, 2])
        assert np.isfinite(block).all()

    @pytest.mark.parametrize(
        "bad", [[[700.0, 0.0, 2e4]],  # e^r Im alpha overflows
                [[0.1, 1e308, 1e308]]],  # |alpha|^2 overflows
    )
    def test_overflow_from_finite_points_rejected(self, bad):
        # with RuntimeWarning an error, a warning from a product fails this too
        with pytest.raises(ValueError, match="out of the kernels' range"):
            block_columns_batch(bad, 3, [0])


class TestSearchBoxCheck:
    """`check_box` bounds every point of a search box by its far corner."""

    @pytest.mark.parametrize(
        "r_max, alpha_max, betas",
        [(3.0, 6.0, ()), (700.0, 6.0, ()), (700.0, 6.0, [2.0, -2.0]), (700.0, 50.0, [2.0]),
         (0.0, 1e150, [1e150])],
    )
    def test_accepted(self, r_max, alpha_max, betas):
        fock_gaussian.check_box(r_max, alpha_max, betas)
        corner = [[r_max, alpha_max, -alpha_max, 2.0 * math.pi]]
        fock_gaussian.checked_points(corner, betas)

    @pytest.mark.parametrize(
        "r_max, alpha_max, betas",
        [(700.0, 6.0, [1e5]), (700.0, 2e4, ()), (0.0, 1e155, ()), (0.0, 1.0, [1e308j])],
    )
    def test_refused(self, r_max, alpha_max, betas):
        with pytest.raises(ValueError, match=re.escape(f"r_max = {r_max:g} with alpha_max = {alpha_max:g}")):
            fock_gaussian.check_box(r_max, alpha_max, betas)

    def test_non_finite_beta_refused_as_by_the_kernels(self):
        with pytest.raises(ValueError, match="coherent input and displacement must be finite"):
            fock_gaussian.check_box(3.0, 6.0, [complex(0.0, math.nan)])


def one_coherent_column(params, beta, k_max):
    """<k|U|beta>, k <= k_max, for one parameter point and one coherent input."""
    return coherent_columns([params.vector()], [beta], k_max, theta=[params.theta])[0, 0]


class TestTransformCoherent:
    def test_identity_on_vacuum(self):
        amplitudes = one_coherent_column(IDENTITY, 0.0, 5)
        assert np.allclose(amplitudes, np.eye(6)[0], atol=1e-15)

    def test_identity_gives_poisson_amplitudes(self):
        amplitudes = one_coherent_column(IDENTITY, 1.0, 12)
        expected = np.array([math.exp(-0.5) / math.sqrt(math.factorial(k)) for k in range(13)])
        assert np.max(np.abs(amplitudes - expected)) < 1e-12

    @staticmethod
    def oracle_transform(p, beta, k_max, relevant_cols, dim=151):
        ks = np.arange(dim)
        lgf = np.array([math.lgamma(k + 1) for k in ks])
        coherent_amps = np.exp(-abs(beta) ** 2 / 2 + ks * math.log(abs(beta)) - 0.5 * lgf)
        oracle = oracle_gaussian_matrix(p, dim - 1, relevant_cols=relevant_cols)
        return (oracle @ coherent_amps)[: k_max + 1]

    def test_matches_oracle_product(self):
        p = GaussianUnitaryParams(theta=0.0, vartheta=0.4, r=0.7, alpha=1.0)
        got = one_coherent_column(p, 0.5, 10)
        expected = self.oracle_transform(p, 0.5, 10, relevant_cols=12)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_out_of_range_displacement_is_all_tail(self):
        # <0|D(60)|0> = e^-1800 is below the kernel's range: zeros, no error
        assert not one_coherent_column(IDENTITY, 60.0, 4000).any()

    @staticmethod
    def sparse_oracle(p, beta, k_max):
        """<k|U|beta> from the oracle's exponential actions on a truncated
        coherent vector: no displaced-squeezed reduction involved."""
        from scipy import sparse

        dim = oracle_dimension(p, int(abs(beta) ** 2 + 8.0 * abs(beta)) + 4)
        rotated = beta * complex(math.cos(p.vartheta), math.sin(p.vartheta))
        vec = np.empty((dim, 1), dtype=complex)
        vec[0] = math.exp(-abs(beta) ** 2 / 2)
        for k in range(1, dim):
            vec[k] = vec[k - 1] * rotated / math.sqrt(k)
        lower = sparse.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csc").astype(complex)
        raise_op = lower.conj().T.tocsc()
        vec = _exp_action(0.5 * p.r * (raise_op @ raise_op - lower @ lower), vec)
        vec = _exp_action(p.alpha * raise_op - np.conjugate(p.alpha) * lower, vec)
        return vec[: k_max + 1, 0] * np.exp(-1j * p.theta * np.arange(k_max + 1))

    def test_matches_sparse_oracle_at_edge_squeezing(self):
        # r = 0 and r below, across and above 1e-10 (where earlier kernels
        # switched formulas), then generic squeezing
        rng = np.random.default_rng(2412)
        edge_r = (0.0, 1e-12, 5e-11, 1e-9)
        for i in range(12):
            r = edge_r[i % 4] if i < 8 else rng.uniform(0.0, 3.0)
            p = GaussianUnitaryParams(
                theta=rng.uniform(0, 2 * math.pi),
                vartheta=rng.uniform(0, 2 * math.pi),
                r=r,
                alpha=complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            )
            beta = (2.0, -1.3 + 0.4j, 0.0)[i % 3]
            got = coherent_columns([p.vector()], [beta], 8, [p.theta])[0, 0]
            expected = self.sparse_oracle(p, complex(beta), 8)
            assert np.max(np.abs(got - expected)) < 1e-10, f"{p} beta={beta}"

    @pytest.mark.parametrize("r", [0.0, 1e-11])
    def test_degenerate_squeezing_matches_oracle(self, r):
        # r = 0, as at every optimizer start clipped to the box, and r = 1e-11
        p = GaussianUnitaryParams(theta=0.8, vartheta=1.9, r=r, alpha=0.6 - 0.3j)
        got = one_coherent_column(p, 2.0, 8)
        expected = self.oracle_transform(p, 2.0, 8, relevant_cols=40, dim=121)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_final_phase_applied(self):
        base = GaussianUnitaryParams(theta=0.0, vartheta=0.2, r=0.4, alpha=0.3j)
        rotated = GaussianUnitaryParams(theta=0.9, vartheta=0.2, r=0.4, alpha=0.3j)
        a = one_coherent_column(base, 0.7, 6)
        b = one_coherent_column(rotated, 0.7, 6)
        ks = np.arange(7)
        assert np.max(np.abs(b - np.exp(-1j * 0.9 * ks) * a)) < 1e-14


class TestCoherentColumns:
    BETAS = (2.0, -2.0, 1.3 + 0.4j)

    @staticmethod
    def points(count=2400):
        """Seeded search points with r = 0, r in (0, 1e-10), r just above
        1e-10 and generic r mixed; |alpha + beta_tilde| up to ~15 but for one
        row."""
        rng = np.random.default_rng(8080)
        r = rng.uniform(0.0, 1.0, count)
        kind = np.arange(count) % 5
        r[kind == 0] = 0.0
        r[kind == 1] = rng.uniform(0.0, 1e-10, count)[kind == 1]
        just_above = 1e-10 * (1.0 + rng.uniform(1e-9, 1e-6, count))
        r[kind == 2] = just_above[kind == 2]
        points = np.column_stack([
            r,
            rng.uniform(-9.5, 9.5, count),
            rng.uniform(-9.5, 9.5, count),
            rng.uniform(0.0, 2.0 * math.pi, count),
        ])
        points[::7, 1:3] = 0.0
        points[::11, 3] = 0.0
        # a squeezed row whose column underflows to zero: it must not
        # disturb its batch
        points[3, 1:3] = 1e80, -1e80
        return points

    @pytest.mark.parametrize("k_max", [0, 2, 5])
    def test_batches_bit_identical_to_one_row(self, k_max):
        points = self.points()
        one_row = np.array([
            [one_coherent_column(params_from_vector(p), beta, k_max) for beta in self.BETAS]
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

    @pytest.mark.parametrize(
        "bad", [[[math.inf, 0.0, 0.0]], [[0.2, 0.0, 0.0, math.inf]], [[800.0, 0.0, 0.0]],
                [[0.2, 0.0, math.nan]]],
    )
    def test_points_checked_before_any_arithmetic(self, bad):
        # with RuntimeWarning an error, a warning from a product fails this too
        with pytest.raises(ValueError, match="r <= 700"):
            coherent_columns(bad, [2.0, -2.0], 2)

    @pytest.mark.parametrize(
        "point, beta",
        [([700.0, 0.0, 0.0], 1e5),  # beta_tilde overflows
         ([0.1, 1e308, 1e308], 2.0),  # |alpha + beta_tilde|^2 overflows
         ([700.0, 0.0, 2e4], 0.0),  # e^r Im(alpha + beta_tilde) overflows
         # Im(alpha conj(beta_tilde)) overflows, |alpha + beta_tilde|^2 does not
         ([0.1, 2e154, 0.0], complex(-1.8e154 * math.exp(-0.1), 1e154 * math.exp(0.1))),
         ([5.0, 0.0, 0.0], 1e154)],  # e^r |beta| overflows, though both are finite
    )
    def test_overflow_from_finite_inputs_rejected(self, point, beta):
        # with RuntimeWarning an error, a warning from a product fails this too;
        # the inputs are finite, so the message says out of range, not "not finite"
        with pytest.raises(ValueError, match="out of the kernels' range"):
            coherent_columns([point], [beta], 2)

    @pytest.mark.parametrize("beta", [math.inf, complex(0.0, math.nan)])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="finite"):
            coherent_columns(self.points(5), [2.0, beta], 2)

    @pytest.mark.parametrize("k_max", [0, 2, 5])
    def test_no_theta_is_zero_theta(self, k_max):
        # bytes, not values: signed zeros must agree too
        points = self.points(600)
        zero = coherent_columns(points, self.BETAS, k_max, np.zeros(len(points)))
        assert coherent_columns(points, self.BETAS, k_max).tobytes() == zero.tobytes()


# ---------------------------------------------------------------------------
# The kernels' bits against the step-by-step recurrence they replaced.
# ---------------------------------------------------------------------------


def reference_ladder(r, ar, ai, height, width):
    """The ladder recurrence stepped on (points, height, width) slices, with
    cosh r and sinh r of its own: the reference whose every bit the kernel
    must reproduce."""
    mu = np.cosh(r)
    u, v = np.exp(-r) * ar / mu, np.exp(r) * ai / mu
    log_size = -0.5 * (np.log(mu) + u * ar + v * ai)
    t = np.sinh(r) / mu
    scale = np.maximum(np.ceil(log_size / math.log(2.0)), -fock_gaussian._SCALE_FLOOR)
    roots = np.sqrt(np.arange(max(height, width)))
    lead = u + 1j * v
    scaled = np.zeros((len(r), height, width), dtype=complex)
    scaled[:, 0, 0] = np.exp(log_size - scale * math.log(2.0) - 1j * t * ar * ai)
    if width > 1:
        down = roots[1:] / mu[:, None]
        back = (1j * ai - ar) / mu
        across = scaled.transpose(0, 2, 1)

    def step(lines, s, length, first, second):
        nxt = first[:, None] * lines[:, s - 1, :length]
        if s > 1:
            nxt += second * lines[:, s - 2, :length]
        if length > 1:
            nxt[:, 1:] += down[:, : length - 1] * lines[:, s - 1, : length - 1]
        lines[:, s, :length] = nxt / roots[s]

    for s in range(1, max(height, width)):
        second = (t * roots[s - 1])[:, None]
        if s < width:
            step(across, s, min(s, height), back, -second)
        if s < height:
            step(scaled, s, min(s + 1, width), lead, second)
    return scaled, np.ldexp(1.0, scale.astype(int))


def reference_block_columns(points, rows, cols, theta=None):
    points = np.asarray(points, dtype=float)
    scaled, unscale = reference_ladder(
        points[:, 0], points[:, 1], points[:, 2], max(rows, 1), max(cols) + 1
    )
    if theta is None:
        turns = (unscale + 0j)[:, None, None]
    else:
        turns = np.exp(np.outer(-1j * np.asarray(theta, dtype=float), np.arange(rows)))
        turns *= unscale[:, None]
        turns = turns[:, :, None]
    out = scaled[:, :rows, cols] * turns
    if points.shape[1] > 3:
        return out * np.exp(np.outer(1j * points[:, 3], cols))[:, None]
    return out * (1 + 0j)


def reference_coherent_columns(points, betas, k_max, theta=None):
    betas = np.asarray(betas, dtype=complex)
    points = np.asarray(points, dtype=float)
    count, size = len(points), len(betas)
    r = points[:, 0].repeat(size)
    vartheta = points[:, 3] if points.shape[1] > 3 else np.zeros(count)
    tiled = np.empty((count, size), dtype=complex)
    tiled[:] = betas
    rotated = np.exp(1j * vartheta.repeat(size)) * tiled.reshape(-1)
    tilde = rotated * np.cosh(r) + rotated.conj() * np.sinh(r)
    alpha = (points[:, 1] + 1j * points[:, 2]).repeat(size)
    column, unscale = reference_ladder(r, (alpha + tilde).real, (alpha + tilde).imag, k_max + 1, 1)
    factor = np.exp(1j * (alpha * tilde.conj()).imag) * unscale
    if theta is None:
        turns = factor.repeat(k_max + 1).reshape(-1, k_max + 1)
    else:
        theta = np.asarray(theta, dtype=float).repeat(size)
        turns = np.exp(np.outer(-1j * theta, np.arange(k_max + 1)))
        turns *= factor[:, None]
    return (turns * column[:, :, 0]).reshape(count, size, k_max + 1)


class TestKernelsAgainstReference:
    """Every output bit of the kernels, against the reference recurrence, at
    the edges of r (zero, subnormal, tiny, generic, the largest allowed) and
    of |alpha| (zero, subnormal, up to the scale floor), in batches of 1, 7
    and 64 rows."""

    R_EDGES = (0.0, 5e-324, 1e-300, 0.3, 3.0, 699.9)
    ALPHA_EDGES = (0.0, 1e-320, 0.7, 6.0, 27.0, 50.0)

    @classmethod
    def points(cls, dims):
        rng = np.random.default_rng(1731 + dims)
        grid = [(r, a) for r in cls.R_EDGES for a in cls.ALPHA_EDGES]
        grid += [(rng.uniform(0.0, 3.0), rng.uniform(0.0, 50.0)) for _ in range(64 - len(grid))]
        r, radius = np.array(grid).T
        angle = rng.uniform(0.0, 2.0 * math.pi, len(grid))
        vartheta = rng.uniform(0.0, 2.0 * math.pi, len(grid))
        points = np.column_stack([r, radius * np.cos(angle), radius * np.sin(angle), vartheta])
        points[::5, 1] = -0.0  # signed zeros in the displacement
        return points[rng.permutation(len(points)), :dims], rng.uniform(0.0, 7.0, len(points))

    @staticmethod
    def batches(size):
        return [slice(start, start + size) for start in range(0, 64, size)]

    @pytest.mark.parametrize("dims", [3, 4])
    @pytest.mark.parametrize("size", [1, 7, 64])
    @pytest.mark.parametrize("turned", [False, True], ids=["no-theta", "theta"])
    def test_block_columns(self, dims, size, turned):
        points, theta = self.points(dims)
        with np.errstate(all="ignore"):  # the largest r overflows some entries
            for rows in range(1, 10):
                for width in range(1, 5):
                    cols = list(range(width))[::-1] if width % 2 else list(range(width))
                    for batch in self.batches(size):
                        th = theta[batch] if turned else None
                        got = block_columns_batch(points[batch], rows, cols, th)
                        expected = reference_block_columns(points[batch], rows, cols, th)
                        assert got.tobytes() == expected.tobytes(), (rows, cols, batch)
                        assert got.strides == expected.strides  # products read the layout

    @pytest.mark.parametrize("dims", [3, 4])
    @pytest.mark.parametrize("size", [1, 7, 64])
    @pytest.mark.parametrize("turned", [False, True], ids=["no-theta", "theta"])
    def test_coherent_columns(self, dims, size, turned):
        points, theta = self.points(dims)
        with np.errstate(all="ignore"):
            for betas in ([2.0], [2.0, -2.0], [-1.3 + 0.4j, 0.0, 2.0]):
                for height in range(1, 10):
                    for batch in self.batches(size):
                        th = theta[batch] if turned else None
                        got = coherent_columns(points[batch], betas, height - 1, th)
                        expected = reference_coherent_columns(points[batch], betas, height - 1, th)
                        assert got.tobytes() == expected.tobytes(), (betas, height, batch)
                        assert got.strides == expected.strides

    @pytest.mark.parametrize("dims", [3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_path_is_the_public_objective(self, dims, n):
        # a search round runs the unchecked cores: at the kernels' edge rows,
        # the bits of the checked one-row objective
        points, _ = self.points(dims)
        for witness in (cat_pair_witness(2.0, 0.7), fock_pair_witness(0, 2, 0.4), mixed_witness()):
            alone = [objective(witness, n, params_from_vector(x)) for x in points]
            assert _round_objectives(witness, n)(points).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_multimode_round_path_is_the_public_objective(self, n):
        mode_rows, _ = self.points(3)
        rng = np.random.default_rng(n)
        generators = rng.uniform(-math.pi, math.pi, (32, 4))
        vectors = np.column_stack([generators, mode_rows[0::2, 0], mode_rows[1::2, 0],
                                   mode_rows[0::2, 1:3], mode_rows[1::2, 1:3]])
        for occupations in ((1, 1), (0, 0), (0, 2)):
            witness = multimode_fock_projector(occupations)
            alone = [multimode_objective(witness, n, _unpack_vector(x, 2)) for x in vectors]
            rounds = multimode._objectives(witness, n, vectors, 2)
            assert rounds.tobytes() == np.array(alone).tobytes()


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


class TestStagedOracle:
    @staticmethod
    def full_squeeze(r, cols, dim):
        """exp(r/2 (a†² - a²)) |m> from the full truncated generator."""
        from scipy import sparse

        lower = sparse.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csc").astype(complex)
        raise_op = lower.conj().T.tocsc()
        basis = np.zeros((dim, len(cols)), dtype=complex)
        basis[cols, np.arange(len(cols))] = 1.0
        return _exp_action(0.5 * r * (raise_op @ raise_op - lower @ lower), basis)

    @pytest.mark.parametrize("dim", [61, 80])
    def test_parity_chains_match_full_generator(self, dim):
        # r = 0 takes the rho = 0 branch; an odd dim leaves the odd chain one
        # state short, which must stay empty
        rng = np.random.default_rng(77)
        cols = [0, 1, 2, 5, 8, 13]
        for r in (0.0, 1e-12, 1e-9, *rng.uniform(0.0, 3.0, 4)):
            chains = _squeeze_chains(r, cols, dim)
            expected = self.full_squeeze(r, cols, dim)
            got = np.zeros((dim, len(cols)))
            for i, m in enumerate(cols):
                states = len(range(m % 2, dim, 2))
                got[m % 2 :: 2, i] = chains[:states, i]
                assert not chains[states:, i].any()
            assert np.max(np.abs(got - expected)) < 1e-12, f"r={r}"

    @pytest.mark.parametrize("dim", [2, 45, 120])
    def test_displaced_basis_matches_full_generator(self, dim):
        # alpha = 0 takes the rho = 0 branch; dim = 2 is the smallest row stage
        from scipy import sparse

        lower = sparse.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csc").astype(complex)
        raise_op = lower.conj().T.tocsc()
        count = min(dim, 6)
        for alpha in (0.0, 0.3, -1.2 + 0.7j, 2.5j):
            basis = np.zeros((dim, count), dtype=complex)
            basis[np.arange(count), np.arange(count)] = 1.0
            expected = _exp_action(alpha * raise_op - np.conjugate(alpha) * lower, basis)
            got = _displaced_basis(alpha, count, dim)
            assert np.max(np.abs(got - expected)) < 1e-12, f"alpha={alpha}"

    def test_row_stage_sized_for_the_rows(self, monkeypatch):
        # the displacement runs on rows k <= row_max, in (sqrt(row_max) +
        # |alpha| + 6)^2 + 30 states, not in the squeezed columns' widened
        # truncation (4 757 states and more for 11 columns at r = 2.5)
        p = GaussianUnitaryParams(theta=0.3, vartheta=1.1, r=2.5, alpha=6.0)
        sizes, dims = [], []
        chains, rows = fock_gaussian._squeeze_chains, fock_gaussian._displaced_basis
        monkeypatch.setattr(
            fock_gaussian,
            "_squeeze_chains",
            lambda r, cols, dim: sizes.append(dim) or chains(r, cols, dim),
        )
        monkeypatch.setattr(
            fock_gaussian,
            "_displaced_basis",
            lambda alpha, count, dim: dims.append(dim) or rows(alpha, count, dim),
        )
        got = oracle_columns(p, 3, [0, 1])
        assert len(dims) == 1 and dims[0] <= math.ceil((math.sqrt(3) + 6 + 6) ** 2 + 30)
        assert fock_gaussian._displacement_dimension(sizes[-1], p.alpha) > 15 * dims[0]
        assert np.max(np.abs(got - gaussian_block(p, 3, 1))) < 1e-10

    def test_row_stage_tail_failure_raises(self, monkeypatch):
        # a row truncation too short for |alpha| = 4 trips the row check, not
        # the squeeze check (r = 0 keeps the chains exact)
        monkeypatch.setattr(fock_gaussian, "_displacement_dimension", lambda support, alpha: 20)
        with pytest.raises(TailBoundError, match="rows <= 3"):
            oracle_columns(GaussianUnitaryParams(alpha=4.0), 3, range(4))

    @pytest.mark.parametrize("seed", [5, 17, 29, 41])
    def test_staged_default_matches_doubled_dimension(self, seed):
        rng = np.random.default_rng(seed)
        p = random_params(rng, r_max=2.0, alpha_max=4.0)
        staged = oracle_columns(p, 9, range(10))
        reference = oracle_columns(p, 9, range(10), dim=2 * oracle_dimension(p, 9))
        assert np.max(np.abs(staged - reference)) < 1e-10, p

    @pytest.mark.parametrize(
        "p",
        [
            GaussianUnitaryParams(theta=0.4, vartheta=2.0, r=1.3, alpha=1.5 - 2j),
            GaussianUnitaryParams(r=2.0, alpha=-1 + 1j),
        ],
    )
    def test_squeeze_stage_grows_from_a_short_estimate(self, p, monkeypatch):
        reference = oracle_columns(p, 7, range(8))
        sizes = []
        chains = fock_gaussian._squeeze_chains
        monkeypatch.setattr(fock_gaussian, "_squeeze_dimension", lambda r, col_max: 12.0)
        monkeypatch.setattr(
            fock_gaussian,
            "_squeeze_chains",
            lambda r, cols, dim: sizes.append(dim) or chains(r, cols, dim),
        )
        got = oracle_columns(p, 7, range(8))
        assert sizes[:3] == [12, 18, 27] and len(sizes) > 3
        assert np.max(np.abs(got - reference)) < 1e-12

    @pytest.mark.parametrize(
        "p, dim",
        [
            (GaussianUnitaryParams(r=1.5), 20),  # squeeze stage
            (GaussianUnitaryParams(alpha=4.0), 20),  # displacement stage
        ],
    )
    def test_explicit_dimension_too_small_raises(self, p, dim):
        with pytest.raises(TailBoundError):
            oracle_columns(p, 3, range(4), dim=dim)

    @pytest.mark.parametrize("r, alpha", [(1e-310, 0.5), (0.3, 1e-310), (1e-310, 5e-324j)])
    def test_subnormal_parameters(self, r, alpha):
        # 2 / rho overflows here: the stages scale their generators by
        # 2 c / rho instead, and a NaN defect is never grown past
        p = GaussianUnitaryParams(theta=0.2, vartheta=0.9, r=r, alpha=alpha)
        with np.errstate(over="raise", invalid="raise"):
            got = oracle_columns(p, 3, [0, 1, 2])
        assert np.max(np.abs(got - gaussian_block(p, 3, 2))) < 1e-14

    def test_squeezing_beyond_reach_raises(self):
        with pytest.raises(TailBoundError, match="needs more than"):
            oracle_columns(GaussianUnitaryParams(r=50.0), 3, [0])

    @pytest.mark.parametrize("alpha", [6.0, 6.0 * complex(math.cos(0.7), math.sin(0.7))])
    def test_strong_squeezing_matches_kernel(self, alpha):
        # r = 2.5 and |alpha| = 6, inside the search box (r_max = 3); r = 3
        # agrees as well (2.3e-15) but takes ~17 s a call
        p = GaussianUnitaryParams(theta=0.3, vartheta=1.1, r=2.5, alpha=alpha)
        got = oracle_columns(p, 3, range(11))
        assert np.max(np.abs(got - gaussian_block(p, 3, 10))) < 1e-13

    @pytest.mark.parametrize(
        "row_max, cols",
        [(-3, [0, 1]), (3, [-1]), (3, [0.5]), (3, [True]), (2.5, [0])],
    )
    def test_malformed_indices_rejected(self, row_max, cols):
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            oracle_columns(GaussianUnitaryParams(r=0.3), row_max, cols)


def chebyshev_orders(rho):
    """The number of Bessel coefficients the oracle's Chebyshev series sums."""
    return int(rho + 16.0 * (rho / 2.0) ** (1.0 / 3.0)) + 20


class TestBessel:
    @pytest.mark.parametrize("rho", [1e-12, 1e-3, 0.3, 5.0, 37.2, 400.0, 2500.0])
    def test_matches_mpmath(self, rho):
        mpmath = pytest.importorskip("mpmath")
        count = chebyshev_orders(rho)
        got = _bessel_j(rho, count)
        orders = sorted({0, 1, 2, count - 1, *np.linspace(0, count - 1, 60).astype(int)})
        with mpmath.workdps(40):
            expected = [float(mpmath.besselj(k, mpmath.mpf(rho))) for k in orders]
        assert np.max(np.abs(got[orders] - expected)) <= 1e-15

    @pytest.mark.parametrize("rho", [1e-3, 2.0, 123.4, 2500.0, 1.2e4, 1.1e5])
    def test_matches_scipy_up_to_the_squeeze_stage_reach(self, rho):
        # rho = 1.1e5 is the squeeze stage's at ORACLE_MAX_SQUEEZE_DIM states
        special = pytest.importorskip("scipy.special")
        count = chebyshev_orders(rho)
        expected = special.jv(np.arange(count), rho)
        assert np.max(np.abs(_bessel_j(rho, count) - expected)) <= 1e-12

    def test_finite_and_normalized(self):
        for rho in (5e-324, 1e-310, *np.logspace(-300, 5, 62), 4.5, 1.1e5):
            values = _bessel_j(rho, chebyshev_orders(rho))
            assert np.isfinite(values).all(), rho
            assert abs(values[0] + 2.0 * values[2::2].sum() - 1.0) <= 1e-14, rho


def full_window_chebyshev(advance, rho, block):
    """The Chebyshev series with every order summed over all rows: the
    reference for the oracle's reached-rows sums."""
    if rho == 0.0:
        return block
    coeffs = 2.0 * _bessel_j(rho, chebyshev_orders(rho))
    coeffs[0] /= 2.0
    prev, cur = block, advance(block, np.zeros_like(block))
    cur *= 0.5
    out = coeffs[1] * cur
    out += coeffs[0] * prev
    for c in coeffs[2:]:
        prev, cur = cur, advance(cur, prev)
        out += c * cur
    return out


def chain_series(r, cols, dim):
    """(advance, rho, chains) of :func:`_squeeze_chains`, with every order
    advanced over all rows."""
    cols = np.asarray(cols, dtype=int)
    length = (dim + 1) // 2
    states = cols % 2 + 2 * np.arange(length - 1)[:, None]
    coupling = np.where(states + 2 < dim, 0.5 * r * np.sqrt((states + 1.0) * (states + 2.0)), 0.0)
    rows = coupling.copy()
    rows[1:] += coupling[:-1]
    rho = float(rows.max(initial=0.0))
    twice = 2.0 * coupling / rho if rho else coupling

    def advance(cur, prev):
        prev[1:] += twice * cur[:-1]
        prev[:-1] -= twice * cur[1:]
        return prev

    chains = np.zeros((length, len(cols)))
    chains[cols // 2, np.arange(len(cols))] = 1.0
    return advance, rho, chains


def basis_series(alpha, count, dim):
    """(advance, rho, basis) of :func:`_displaced_basis`, with every order
    advanced over all rows."""
    roots = np.sqrt(np.arange(1.0, dim))[:, None]
    rho = abs(alpha) * (math.sqrt(dim - 2) + math.sqrt(dim - 1))
    unit = 2.0 * alpha / rho if rho else 0.0
    up, down = roots * unit, roots * -np.conjugate(unit)

    def advance(cur, prev):
        prev[1:] += up * cur[:-1]
        prev[:-1] += down * cur[1:]
        return prev

    basis = np.zeros((dim, count), dtype=complex)
    basis[np.arange(count), np.arange(count)] = 1.0
    return advance, rho, basis


def full_window_chains(r, cols, dim):
    return full_window_chebyshev(*chain_series(r, cols, dim))


def full_window_basis(alpha, count, dim):
    return full_window_chebyshev(*basis_series(alpha, count, dim))


def same_bits(a, b):
    """Equal values and signed zeros (and NaN payloads), shape and dtype."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def leading_coefficients_signed(rho):
    """Whether J_0(rho) and J_1(rho) both carry a sign bit: the case where the
    reached-rows sum must add every row for a while."""
    if rho == 0.0:
        return False
    return bool(np.signbit(_bessel_j(rho, chebyshev_orders(rho))[:2]).all())


class TestReachedRows:
    """Each Chebyshev order of the oracle's stages touches only the rows it
    has reached; its outputs keep the full-window series' bits, signed
    zeros included, also where J_0(rho) and J_1(rho) are both negative and
    the unreached rows hold -0 for a while."""

    @pytest.mark.parametrize(
        "cols, dim", [([0], 9), ([0, 1, 2, 5, 8, 13], 61), ([3, 4], 80), ([1, 10], 401)]
    )
    def test_squeeze_stage_bit_identical_to_full_window(self, cols, dim):
        signed = 0
        for r in (0.0, 1e-12, *np.linspace(0.01, 2.5, 40)):
            expected = full_window_chains(r, cols, dim)
            assert same_bits(_squeeze_chains(r, cols, dim), expected), f"r={r}"
            signed += leading_coefficients_signed(chain_series(r, cols, dim)[1])
        assert signed

    @pytest.mark.parametrize("count, dim", [(1, 2), (6, 45), (4, 120), (10, 300)])
    def test_displacement_stage_bit_identical_to_full_window(self, count, dim):
        rng = np.random.default_rng(dim)
        signed = 0
        for size in (0.0, 1e-12, *np.linspace(0.05, 4.0, 40)):
            alpha = size * complex(*rng.normal(size=2))
            expected = full_window_basis(alpha, count, dim)
            assert same_bits(_displaced_basis(alpha, count, dim), expected), f"alpha={alpha}"
            signed += leading_coefficients_signed(basis_series(alpha, count, dim)[1])
        assert signed

    @pytest.mark.parametrize("case", ["default", "grown", "explicit dim"])
    def test_oracle_columns_bit_identical_to_full_window(self, monkeypatch, case):
        p = GaussianUnitaryParams(theta=0.4, vartheta=2.0, r=1.3, alpha=1.5 - 2j)
        dim = oracle_dimension(p, 7) if case == "explicit dim" else None
        if case == "grown":  # a short first estimate, grown by 1.5 until the chains pass
            monkeypatch.setattr(fock_gaussian, "_squeeze_dimension", lambda r, col_max: 12.0)
        got = oracle_columns(p, 7, range(8), dim)
        sizes = []
        monkeypatch.setattr(
            fock_gaussian,
            "_squeeze_chains",
            lambda r, cols, size: sizes.append(size) or full_window_chains(r, cols, size),
        )
        monkeypatch.setattr(fock_gaussian, "_displaced_basis", full_window_basis)
        assert same_bits(got, oracle_columns(p, 7, range(8), dim))
        assert (sizes[:3] == [12, 18, 27] and len(sizes) > 3) == (case == "grown")
