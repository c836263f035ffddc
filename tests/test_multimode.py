import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from stellarwitness import multimode
from stellarwitness.errors import OptimizerError
from stellarwitness.fock_gaussian import GaussianUnitaryParams, block_columns_batch, gaussian_block
from stellarwitness.multimode import (
    MultimodeGaussianParams,
    MultimodeWitness,
    compress_conjugated_multimode,
    enumerate_subspace,
    multimode_fock_projector,
    multimode_gaussian_block,
    multimode_objective,
    multimode_result_to_json,
    multimode_threshold,
    sector_indices,
)
from stellarwitness.multimode import (
    _compressions,
    _conjugated_columns,
    _generators,
    _interferometer,
    _interferometers,
    _multimode_box,
    _search_mode_points,
    _sector_matrices,
    _sector_table,
    _unpack_vector,
)
from stellarwitness.threshold import OptimizerConfig, _top_eigenvalues, compute_threshold
from stellarwitness.witness import fock_diagonal_witness, fock_pair_witness

FAST = OptimizerConfig(starts=16, max_iterations=400, seed=23)


def identity_params(modes):
    return MultimodeGaussianParams.from_generator(
        np.zeros((modes, modes), dtype=complex), (0.0,) * modes, (0.0,) * modes
    )


def product_index(occ, dim):
    idx = 0
    for o in occ:
        idx = idx * dim + o
    return idx


def product_space_unitary(X, cutoff, params=None):
    """Full product-space oracle: exponentials of kron'd truncated generators,
    the passive one of the interferometer generator X, then the per-mode
    squeezers and displacements of `params` (None: none)."""
    modes = X.shape[0]
    dim = cutoff + 1
    a_single = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    mode_ops = []
    for k in range(modes):
        factors = [np.eye(dim, dtype=complex)] * modes
        factors[k] = a_single
        full = factors[0]
        for factor in factors[1:]:
            full = np.kron(full, factor)
        mode_ops.append(full)
    passive_gen = sum(
        X[j, k] * (mode_ops[j].conj().T @ mode_ops[k])
        for j in range(modes)
        for k in range(modes)
    )
    total = scipy.linalg.expm(passive_gen)
    if params is None:
        return total
    for k in range(modes):
        a = mode_ops[k]
        ad = a.conj().T
        squeeze = scipy.linalg.expm(0.5 * params.squeezings[k] * (ad @ ad - a @ a))
        alpha = params.displacements[k]
        displace = scipy.linalg.expm(alpha * ad - np.conjugate(alpha) * a)
        total = displace @ squeeze @ total
    return total


class TestEnumeration:
    def test_single_mode(self):
        assert enumerate_subspace(1, 2) == [(0,), (1,), (2,)]

    def test_two_modes_one_photon(self):
        assert enumerate_subspace(2, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_three_modes_count(self):
        assert len(enumerate_subspace(3, 4)) == 35  # C(7, 3)

    def test_totals_and_ordering(self):
        out = enumerate_subspace(3, 3)
        totals = [sum(occ) for occ in out]
        assert totals == sorted(totals)
        assert len(set(out)) == len(out)

    def test_sector_sizes(self):
        assert len(sector_indices(3, 2)) == 6  # C(4, 2)


class TestParams:
    def test_unitarity_enforced(self):
        bad = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            MultimodeGaussianParams(bad, (0.0, 0.0), (0.0, 0.0))

    @pytest.mark.parametrize("V", [[[math.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, math.inf]]])
    def test_non_finite_interferometer_rejected(self, V):
        with pytest.raises(ValueError, match="unitarity"):
            MultimodeGaussianParams(np.array(V, dtype=complex), (0.0, 0.0), (0.0, 0.0))

    @pytest.mark.parametrize(
        "squeezings, displacements",
        [((math.nan, 0.0), (0.0, 0.0)), ((0.0, math.inf), (0.0, 0.0)), ((-0.1, 0.0), (0.0, 0.0)),
         ((0.0, 0.0), (complex(math.nan, 0.0), 0.0)), ((0.0, 0.0), (0.0, complex(0.0, -math.inf)))],
    )
    def test_non_finite_mode_params_rejected(self, squeezings, displacements):
        with pytest.raises(ValueError):
            MultimodeGaussianParams(np.eye(2, dtype=complex), squeezings, displacements)

    def test_nan_generator_rejected(self):
        with pytest.raises(ValueError):
            MultimodeGaussianParams.from_generator(
                np.array([[math.nan, 0.0], [0.0, 0.0]], dtype=complex), (0.0, 0.0), (0.0, 0.0)
            )

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: multimode_fock_projector((-1, 1)), "occupations"),
            (lambda: multimode_fock_projector((0.5, 1)), "occupations"),
            (lambda: MultimodeWitness(2, ((1.0, {(0, 1, 0): 1.0}),)), "occupations"),
            (lambda: MultimodeWitness(0, ()), "modes"),
            (lambda: MultimodeWitness(2.5, ()), "modes"),
            (lambda: MultimodeWitness(2, ((math.nan, {(0, 1): 1.0}),)), "weight"),
            (lambda: MultimodeWitness(2, ((1.0, {(0, 1): complex(0.0, math.inf)}),)), "amplitude"),
            (lambda: MultimodeWitness(2, (), identity_weight=math.nan), "identity_weight"),
        ],
    )
    def test_malformed_witness_rejected(self, build, field):
        # the Python API gets the checks of witness files, before any search
        with pytest.raises(ValueError, match=field):
            build()

    def test_witness_fields_normalized(self):
        witness = multimode_fock_projector(np.array([1, 0]))
        assert witness.modes == 2
        assert [type(o) for o in next(iter(witness.terms[0][1]))] == [int, int]

    def test_from_generator_round_trip(self):
        H = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
        params = MultimodeGaussianParams.from_generator(1j * H, (0.1, 0.2), (1j, 0.5))
        again = MultimodeGaussianParams.from_json(params.to_json())
        assert np.max(np.abs(again.interferometer - params.interferometer)) < 1e-12


def apply_passive(X, amplitudes: dict) -> dict:
    """Amplitude map of the interferometer exp(dG(X)), from the sector blocks
    the search mixes; photon-number exact."""
    V = _interferometer(X)
    blocks = _sector_matrices(V[None], 1, max(sum(occ) for occ in amplitudes))
    out = {}
    for t in sorted({sum(occ) for occ in amplitudes}):
        basis = sector_indices(V.shape[0], t)
        vec = np.array([amplitudes.get(occ, 0.0) for occ in basis], dtype=complex)
        out.update((occ, val) for occ, val in zip(basis, blocks[t][0] @ vec) if val != 0)
    return out


class TestPassiveAction:
    def test_photon_number_preserved(self):
        X = 1j * np.array([[0.2, 0.5 - 0.3j], [0.5 + 0.3j, -0.1]])
        out = apply_passive(X, {(2, 0): 1.0 + 0j})
        assert set(map(sum, out)) == {2}
        assert abs(sum(abs(v) ** 2 for v in out.values()) - 1.0) < 1e-12

    def test_beamsplitter_on_single_photon(self):
        # 50:50 coupler: |1,0> -> (|1,0> - i|0,1>)/sqrt(2) for X = -i(pi/4)(sigma_x)
        X = -1j * (math.pi / 4) * np.array([[0.0, 1.0], [1.0, 0.0]])
        out = apply_passive(X, {(1, 0): 1.0 + 0j})
        assert abs(abs(out[(1, 0)]) - 1 / math.sqrt(2)) < 1e-12
        assert abs(abs(out[(0, 1)]) - 1 / math.sqrt(2)) < 1e-12


class TestBlocks:
    def test_identity_params(self):
        params = identity_params(2)
        block = multimode_gaussian_block(params, 1, 1)
        rows = enumerate_subspace(2, 1)
        cols = list(itertools.product(range(2), repeat=2))
        for i, occ_row in enumerate(rows):
            for j, occ_col in enumerate(cols):
                expected = 1.0 if occ_row == occ_col else 0.0
                assert abs(block[i, j] - expected) < 1e-12

    def test_beamsplitter_block_matches_oracle(self):
        X = -1j * (math.pi / 4) * np.array([[0.0, 1.0], [1.0, 0.0]])
        params = MultimodeGaussianParams.from_generator(X, (0.0, 0.0), (0.0, 0.0))
        cutoff = 3
        block = multimode_gaussian_block(params, 2, cutoff)
        oracle = product_space_unitary(X, cutoff + 6)
        rows = enumerate_subspace(2, 2)
        cols = list(itertools.product(range(cutoff + 1), repeat=2))
        for i, occ_row in enumerate(rows):
            for j, occ_col in enumerate(cols):
                expected = oracle[
                    product_index(occ_row, cutoff + 7), product_index(occ_col, cutoff + 7)
                ]
                assert abs(block[i, j] - expected) < 1e-8

    def test_product_params_factorize(self):
        params = MultimodeGaussianParams.from_generator(
            np.zeros((2, 2), dtype=complex), (0.4, 0.1), (0.5 + 0.2j, -0.3j)
        )
        cutoff = 3
        block = multimode_gaussian_block(params, 2, cutoff)
        singles = [
            gaussian_block(GaussianUnitaryParams(r=params.squeezings[k], alpha=params.displacements[k]), 2, cutoff)
            for k in range(2)
        ]
        rows = enumerate_subspace(2, 2)
        cols = list(itertools.product(range(cutoff + 1), repeat=2))
        for i, occ_row in enumerate(rows):
            for j, occ_col in enumerate(cols):
                expected = singles[0][occ_row[0], occ_col[0]] * singles[1][occ_row[1], occ_col[1]]
                assert abs(block[i, j] - expected) < 1e-8

    def test_general_params_match_oracle(self):
        X = 1j * np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]])
        params = MultimodeGaussianParams.from_generator(X, (0.3, 0.5), (0.4 - 0.1j, 0.2 + 0.3j))
        cutoff = 2
        block = multimode_gaussian_block(params, 2, cutoff)
        dim = 26  # per-mode oracle truncation covering the r=0.5 spread
        oracle = product_space_unitary(X, dim - 1, params)
        rows = enumerate_subspace(2, 2)
        cols = list(itertools.product(range(cutoff + 1), repeat=2))
        worst = max(
            abs(block[i, j] - oracle[product_index(r, dim), product_index(c, dim)])
            for i, r in enumerate(rows)
            for j, c in enumerate(cols)
        )
        assert worst < 1e-8

    def test_block_isometry_on_low_columns(self):
        H = np.array([[0.2, 0.1j], [-0.1j, 0.1]])
        params = MultimodeGaussianParams.from_generator(1j * H, (0.2, 0.3), (0.3, 0.1j))
        block = multimode_gaussian_block(params, 10, 1)
        norms = np.linalg.norm(block, axis=0)
        assert np.all(norms <= 1.0 + 1e-9)
        # the vacuum column must be nearly complete at these mild parameters
        assert abs(norms[0] - 1.0) < 1e-6


def random_hermitian(rng, modes):
    A = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    return (A + A.conj().T) / 2


def passive_params(X):
    modes = X.shape[0]
    return MultimodeGaussianParams.from_generator(X, (0.0,) * modes, (0.0,) * modes)


# Witnesses with an identity weight and terms that span several sectors.
MIXED = {
    2: MultimodeWitness(
        2,
        ((0.7, {(1, 0): 0.6 + 0j, (0, 2): 0.8j}), (-0.4, {(1, 1): 1.0 + 0j})),
        identity_weight=0.3,
    ),
    3: MultimodeWitness(
        3,
        (
            (0.5, {(1, 0, 0): 0.6 + 0j, (0, 1, 1): 0.8 + 0j}),
            (0.9, {(0, 0, 2): 1.0 + 0j, (1, 1, 0): -0.5j}),
        ),
        identity_weight=0.2,
    ),
}


class TestKernel:
    """`multimode._objectives`, the search rounds' objective, is the one
    batched kernel: interferometers from eigh, sector blocks as symmetric
    powers, gathers for the mode products."""

    @pytest.mark.parametrize("modes, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_rows_bit_identical_in_any_batch(self, modes, n):
        witness = MIXED[modes]
        lo, hi = _multimode_box(OptimizerConfig(), modes)
        rng = np.random.default_rng(10 * modes + n)
        points = lo + rng.random((64, lo.size)) * (hi - lo)
        full = multimode._objectives(witness, n, points, modes)
        for size in (1, 7, 12):
            parts = [
                multimode._objectives(witness, n, points[i : i + size], modes)
                for i in range(0, len(points), size)
            ]
            assert np.concatenate(parts).tobytes() == full.tobytes()
        order = rng.permutation(len(points))
        shuffled = multimode._objectives(witness, n, points[order], modes)
        assert shuffled[np.argsort(order)].tobytes() == full.tobytes()
        alone = [multimode_objective(witness, n, _unpack_vector(x, modes)) for x in points]
        assert np.array(alone).tobytes() == full.tobytes()

    @staticmethod
    def nan_start(slot):
        """The search config with one extra start whose entry `slot` is NaN."""
        start = [0.0] * 10
        start[slot] = math.nan
        return replace(FAST, initial_points=(tuple(start),))

    def test_nan_row_rejected(self):
        # the rounds run unchecked: the search refuses a NaN start before its
        # first round, also for the vacuum projector, which builds no
        # interferometer (TestParams: the params refuse a NaN interferometer)
        for witness in (MIXED[2], multimode_fock_projector((0, 0)), MultimodeWitness(2, ())):
            with pytest.raises(ValueError, match="finite"):
                multimode_threshold(witness, 2, 1, self.nan_start(2))

    @pytest.mark.parametrize(
        "witness", [MIXED[2], multimode_fock_projector((0, 0)), MultimodeWitness(2, ())],
        ids=["mixed", "vacuum", "empty"],
    )
    def test_non_finite_mode_row_rejected(self, witness):
        # a NaN squeezing or displacement of a start (TestParams: of the params)
        for slot in (4, 7):
            with pytest.raises(ValueError, match="finite"):
                multimode_threshold(witness, 2, 1, self.nan_start(slot))

    @pytest.mark.parametrize("modes", [2, 3])
    def test_passive_sectors_match_dense_oracle(self, modes):
        """Every sector up to t = 4 against expm(dG(X)) on the product space,
        which is exact there: a per-mode cutoff of 4 truncates no state with at
        most 4 photons."""
        X = 1j * random_hermitian(np.random.default_rng(7 + modes), modes)
        oracle = product_space_unitary(X, 4)
        worst = 0.0
        for t in range(5):
            for col in sector_indices(modes, t):
                got = np.zeros(oracle.shape[0], dtype=complex)
                for occ, val in apply_passive(X, {col: 1.0 + 0j}).items():
                    got[product_index(occ, 5)] = val
                worst = max(worst, np.max(np.abs(got - oracle[:, product_index(col, 5)])))
        assert worst < 1e-12

    @pytest.mark.parametrize("modes, cutoff", [(2, 2), (3, 1)])
    @pytest.mark.parametrize("active", [False, True])
    def test_block_matches_expm_composition(self, modes, cutoff, active):
        """The loop form of the product U = (⊗ D_k S_k) exp(dG(X)): single-mode
        blocks times the dense oracle's passive exponential."""
        rng = np.random.default_rng(modes)
        X = 1j * random_hermitian(rng, modes)
        rs = tuple(rng.uniform(0.1, 0.6, modes)) if active else (0.0,) * modes
        alphas = tuple(rng.normal(size=modes) * 0.5 + 0.3j) if active else (0.0,) * modes
        params = MultimodeGaussianParams.from_generator(X, rs, alphas)
        n_rows, max_total = 2, modes * cutoff
        dim = max_total + 1
        passive = product_space_unitary(X, max_total)
        singles = block_columns_batch(params.mode_points(), n_rows + 1, range(max_total + 1))
        rows = enumerate_subspace(modes, n_rows)
        cols = list(itertools.product(range(cutoff + 1), repeat=modes))
        expected = np.zeros((len(rows), len(cols)), dtype=complex)
        for j, col in enumerate(cols):
            for mid in sector_indices(modes, sum(col)):
                amp = passive[product_index(mid, dim), product_index(col, dim)]
                for i, row in enumerate(rows):
                    expected[i, j] += amp * math.prod(singles[k][row[k], mid[k]] for k in range(modes))
        assert np.max(np.abs(multimode_gaussian_block(params, n_rows, cutoff) - expected)) < 1e-12

    @pytest.mark.parametrize("modes", [2, 3])
    def test_compression_assembles_block_columns(self, modes):
        rng = np.random.default_rng(20 + modes)
        params = MultimodeGaussianParams.from_generator(
            1j * random_hermitian(rng, modes), tuple(rng.uniform(0.1, 0.5, modes)),
            tuple(rng.normal(size=modes) * 0.4 - 0.2j),
        )
        witness, n = MIXED[modes], 2
        block = multimode_gaussian_block(params, n - 1, 2)
        cols = list(itertools.product(range(3), repeat=modes))
        expected = witness.identity_weight * np.eye(block.shape[0])
        for weight, amplitudes in witness.terms:
            vec = sum(amp * block[:, cols.index(occ)] for occ, amp in amplitudes.items())
            expected = expected + weight * np.outer(vec, vec.conj())
        got = compress_conjugated_multimode(witness, params, n)
        assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("n", [0, -1])
    def test_rank_checked_at_the_public_entry(self, n):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            compress_conjugated_multimode(MIXED[2], identity_params(2), n)
        with pytest.raises(ValueError, match="rank must be >= 1"):
            multimode_objective(MIXED[2], n, identity_params(2))

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_zero_generator_gives_identity(self, modes):
        V = passive_params(np.zeros((modes, modes), dtype=complex)).interferometer
        assert np.max(np.abs(V - np.eye(modes))) <= 1e-15

    @pytest.mark.parametrize(
        "eigenvalues", [(0.7, 0.7, 0.7), (-1.2, -1.2, 2.5), (math.pi, -math.pi, math.pi)]
    )
    def test_degenerate_generators(self, eigenvalues):
        rng = np.random.default_rng(3)
        W, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        H = W @ np.diag(eigenvalues) @ W.conj().T
        H = (H + H.conj().T) / 2
        V = passive_params(1j * H).interferometer
        assert np.max(np.abs(V - scipy.linalg.expm(1j * H))) < 1e-13

    @pytest.mark.parametrize("modes", [2, 3])
    def test_box_corners(self, modes):
        """Generator entries at the search box's ±π corners."""
        lo, hi = _multimode_box(OptimizerConfig(), modes)
        corners = itertools.product((-math.pi, math.pi), repeat=modes * modes)
        for corner in itertools.islice(corners, 0, None, 3 if modes == 3 else 1):
            point = np.clip(np.zeros(lo.size), lo, hi)
            point[: modes * modes] = corner
            params = _unpack_vector(point, modes)
            expected = scipy.linalg.expm(1j * _generators(point[None], modes)[0])
            assert np.max(np.abs(params.interferometer - expected)) < 1e-12


def all_sector_columns(V, mode_points, row_total, max_total):
    """The all-sector conjugated columns, every sector 0..max_total mixed with
    the mode columns: the reference whose every column a witness's plan reads
    must come out with the same bits."""
    count, modes = mode_points.shape[:2]
    blocks = block_columns_batch(mode_points.reshape(-1, 3), row_total + 1, range(max_total + 1))
    blocks = blocks.reshape(count, modes, row_total + 1, max_total + 1)
    rows = np.concatenate([_sector_table(modes, t)[0] for t in range(row_total + 1)])
    columns = []
    for t, passive in enumerate(_sector_matrices(V, count, max_total)):
        mids = _sector_table(modes, t)[0]
        mixed = blocks[:, 0][:, rows[:, 0, None], mids[None, :, 0]]
        for k in range(1, modes):
            mixed = mixed * blocks[:, k][:, rows[:, k, None], mids[None, :, k]]
        out = mixed[:, :, :1] * passive[:, None, 0, :]
        for j in range(1, len(mids)):
            out = out + mixed[:, :, j : j + 1] * passive[:, None, j, :]
        columns.append(out)
    return np.concatenate(columns, axis=2)


def reference_compressions(witness, n, V, mode_points):
    """Π U W U† Π assembled from :func:`all_sector_columns`."""
    support = max((sum(occ) for _, amps in witness.terms for occ in amps), default=0)
    columns = all_sector_columns(V, mode_points, n - 1, support)
    position = {occ: i for i, occ in enumerate(enumerate_subspace(witness.modes, support))}
    count, dim = columns.shape[:2]
    out = np.zeros((count, dim, dim), dtype=complex)
    for weight, amplitudes in witness.terms:
        vec = np.zeros((count, dim), dtype=complex)
        for occ, amp in amplitudes.items():
            vec = vec + amp * columns[:, :, position[occ]]
        out = out + weight * (vec[:, :, None] * vec.conj()[:, None, :])
    if witness.identity_weight:
        diag = np.arange(dim)
        out[:, diag, diag] += witness.identity_weight
    return out


# A term that mixes sectors 0 and 2 and skips sector 1, with an identity weight.
SKIPPING = MultimodeWitness(2, ((1.0, {(1, 1): 1.0 + 0j, (0, 0): 0.5 + 0j}),), identity_weight=0.25)

PLAN_WITNESSES = {
    "one-mode": MultimodeWitness(
        1, ((0.6, {(0,): 1.0 + 0j}), (-0.8, {(2,): 0.5 + 0j, (1,): 0.3j})), identity_weight=0.1
    ),
    "skipping": SKIPPING,
    "mixed-2": MIXED[2],
    "vacuum": multimode_fock_projector((0, 0)),
    "pair": multimode_fock_projector((1, 1)),
    "mixed-3": MIXED[3],
    "three": multimode_fock_projector((1, 0, 1)),
}


def plan_points(modes, seed=4):
    """Box points, the origin and signed-zero and subnormal corners."""
    lo, hi = _multimode_box(OptimizerConfig(), modes)
    points = lo + np.random.default_rng(seed).random((12, lo.size)) * (hi - lo)
    corners = np.zeros((3, lo.size))
    corners[1] = -0.0
    corners[2] = np.where(np.arange(lo.size) % 2, -0.0, 1e-320)
    return np.vstack([points, corners])


class TestPlan:
    """Each witness's `conjugation_plan` names the sectors and columns its
    compression reads; the search computes those alone."""

    def test_plan_of_a_skipping_term(self):
        sectors, steps = SKIPPING.conjugation_plan
        assert sectors == (0, 2)
        # sector 0 holds (0, 0); sector 2 holds (2, 0), (1, 1), (0, 2)
        assert steps == ((1.0, ((2, 1.0 + 0j), (0, 0.5 + 0j))),)

    @pytest.mark.parametrize("witness", [MultimodeWitness(2, ()), MultimodeWitness(2, ((0.5, {}),))])
    def test_plan_of_an_empty_witness(self, witness):
        assert witness.conjugation_plan[0] == (0,)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", list(PLAN_WITNESSES))
    def test_plan_columns_bit_equal_to_all_sectors(self, name, n):
        witness = PLAN_WITNESSES[name]
        modes = witness.modes
        points = plan_points(modes)
        V = _interferometers(_generators(points, modes))
        mode_points = _search_mode_points(points, modes)
        sectors, steps = witness.conjugation_plan
        reference = all_sector_columns(V, mode_points, n - 1, sectors[-1])
        position = {occ: i for i, occ in enumerate(enumerate_subspace(modes, sectors[-1]))}
        got = _conjugated_columns(V, mode_points, n - 1, sectors)
        for (_, amplitudes), (_, entries) in zip(witness.terms, steps):
            for occ, (column, _) in zip(amplitudes, entries):
                assert got[:, :, column].tobytes() == reference[:, :, position[occ]].tobytes()
        expected = reference_compressions(witness, n, V, mode_points)
        assert _compressions(witness, n, V, mode_points).tobytes() == expected.tobytes()
        values = multimode._objectives(witness, n, points, modes)
        assert values.tobytes() == _top_eigenvalues(expected).tobytes()

    def test_sector_zero_needs_no_interferometer(self):
        points = plan_points(2)
        mode_points = _search_mode_points(points, 2)
        V = _interferometers(_generators(points, 2))
        alone = _conjugated_columns(None, mode_points, 2, (0,))
        assert alone.tobytes() == all_sector_columns(V, mode_points, 2, 0).tobytes()

    @pytest.mark.parametrize(
        "witness", [MultimodeWitness(2, ()), MultimodeWitness(2, ((-0.5, {}),), identity_weight=0.25)],
        ids=["no-terms", "no-amplitudes"],
    )
    def test_empty_witness_threshold(self, witness):
        points = plan_points(2)
        V = _interferometers(_generators(points, 2))
        mode_points = _search_mode_points(points, 2)
        for n in (1, 2):
            expected = reference_compressions(witness, n, V, mode_points)
            assert _compressions(witness, n, V, mode_points).tobytes() == expected.tobytes()
        result = multimode_threshold(witness, 2, 2, FAST)
        assert result.value == witness.identity_weight

    def test_vacuum_builds_one_interferometer(self, monkeypatch):
        calls = []

        def spy(H):
            calls.append(H)
            return build(H)

        build = multimode._interferometers
        monkeypatch.setattr(multimode, "_interferometers", spy)
        result = multimode_threshold(multimode_fock_projector((0, 0)), 2, 1, FAST)
        assert len(calls) == 1 and calls[0].shape == (1, 2, 2)  # the winner's
        assert build(calls[0])[0].tobytes() == result.params.interferometer.tobytes()
        calls.clear()
        multimode_threshold(multimode_fock_projector((0, 1)), 2, 1, FAST)
        assert len(calls) > 1  # one per round, then the winner's

    def test_plan_derived_once_per_threshold(self, monkeypatch):
        calls = []

        def counted(modes, terms):
            calls.append(terms)
            return plan(modes, terms)

        plan = multimode._conjugation_plan
        monkeypatch.setattr(multimode, "_conjugation_plan", counted)
        witness = MIXED[2]
        fresh = MultimodeWitness(witness.modes, witness.terms, witness.identity_weight)
        multimode_threshold(fresh, 2, 2, OptimizerConfig(starts=4, max_iterations=200, seed=5))
        assert calls == [fresh.terms]


class TestBenchmarkCalls:
    """The calls of the benchmark's multimode unit, under its config: results
    do not depend on `threads`, which the benchmark passes as 1."""

    def test_threads_is_a_no_op(self):
        config = OptimizerConfig(starts=16, max_iterations=400, seed=23)
        single = compute_threshold(fock_diagonal_witness([0.0, 1.0]), 1, config)
        embedded = np.zeros(10)
        embedded[5] = single.params.r
        embedded[8] = single.params.alpha.real
        embedded[9] = single.params.alpha.imag
        cases = [
            ((0, 0), 1, config),
            ((0, 1), 1, replace(config, initial_points=(tuple(embedded),))),
            ((1, 1), 2, config),
        ]
        for occupations, n, cfg in cases:
            projector = multimode_fock_projector(occupations)
            pinned = multimode_threshold(projector, 2, n, cfg, threads=1)
            free = multimode_threshold(projector, 2, n, cfg, threads=None)
            assert multimode_result_to_json(projector, pinned) == multimode_result_to_json(
                projector, free
            )
            assert np.float64(pinned.value).tobytes() == np.float64(free.value).tobytes()
            assert pinned.params.interferometer.tobytes() == free.params.interferometer.tobytes()


class TestThreshold:
    def test_two_mode_vacuum(self):
        result = multimode_threshold(multimode_fock_projector((0, 0)), 2, 1, FAST)
        assert abs(result.value - 1.0) <= 1e-5

    def test_single_photon_mode_matches_single_mode(self):
        single = compute_threshold(fock_diagonal_witness([0.0, 1.0]), 1, FAST)
        embedded = np.zeros(10)
        embedded[5] = single.params.r
        embedded[8] = single.params.alpha.real
        embedded[9] = single.params.alpha.imag
        config = OptimizerConfig(
            starts=16, max_iterations=400, seed=23, initial_points=(tuple(embedded),)
        )
        result = multimode_threshold(multimode_fock_projector((0, 1)), 2, 1, config)
        assert result.value >= single.value - 1e-6

    def test_two_photon_pair_monotone(self):
        witness = multimode_fock_projector((1, 1))
        r1 = multimode_threshold(witness, 2, 1, FAST)
        r2 = multimode_threshold(witness, 2, 2, FAST)
        assert 0.0 < r1.value <= r2.value + 1e-7
        assert r2.value <= 1.0 + 1e-9

    def test_single_mode_reduction(self):
        witness = MultimodeWitness(
            modes=1,
            terms=(
                (math.cos(0.7), {(0,): 1.0 + 0j}),
                (math.sin(0.7), {(2,): 1.0 + 0j}),
            ),
        )
        reduced = multimode_threshold(witness, 1, 1, OptimizerConfig(starts=24, max_iterations=500, seed=7))
        single = compute_threshold(fock_pair_witness(0, 2, 0.7), 1, OptimizerConfig(starts=24, max_iterations=500, seed=7))
        assert abs(reduced.value - single.value) <= 1e-6

    def test_subspace_dimension(self):
        witness = multimode_fock_projector((1, 1))
        params = identity_params(2)
        for n in (1, 2, 3):
            out = compress_conjugated_multimode(witness, params, n)
            expected = len(enumerate_subspace(2, n - 1))
            assert out.shape == (expected, expected)

    def test_passive_conjugation_invariance(self):
        # trailing interferometers cannot change thresholds
        witness = multimode_fock_projector((0, 1))
        X = 1j * np.array([[0.15, 0.3 - 0.2j], [0.3 + 0.2j, -0.25]])
        conjugated = MultimodeWitness(
            2, tuple((weight, apply_passive(X, amps)) for weight, amps in witness.terms)
        )
        cfg = OptimizerConfig(starts=24, max_iterations=500, seed=31)
        base = multimode_threshold(witness, 2, 1, cfg)
        moved = multimode_threshold(conjugated, 2, 1, cfg)
        assert abs(base.value - moved.value) <= 2e-5

    def test_starving_config_raises(self):
        starving = OptimizerConfig(starts=2, max_iterations=3, seed=23)
        with pytest.raises(OptimizerError):
            multimode_threshold(multimode_fock_projector((1, 1)), 2, 1, starving)

    def test_initial_point_of_wrong_length_skipped(self):
        witness = multimode_fock_projector((0, 0))
        plain = multimode_threshold(witness, 2, 1, FAST)
        skipped = multimode_threshold(
            witness, 2, 1, replace(FAST, initial_points=((0.0, 0.5, 0.5, 0.0),))
        )
        assert skipped.diagnostics["start_values"] == plain.diagnostics["start_values"]
        assert skipped.value == plain.value
        # an entry of the right length is taken as start 1
        taken = multimode_threshold(witness, 2, 1, replace(FAST, initial_points=((0.1,) * 10,)))
        assert taken.diagnostics["start_values"] != plain.diagnostics["start_values"]

    def test_mode_count_guard(self):
        with pytest.raises(ValueError):
            multimode_threshold(multimode_fock_projector((0, 0, 0, 0)), 4, 1, FAST)

    def test_objective_at_identity(self):
        witness = multimode_fock_projector((0, 0))
        assert multimode_objective(witness, 1, identity_params(2)) == 1.0


class TestFiles:
    def test_witness_round_trip(self):
        witness = MultimodeWitness(
            modes=2,
            terms=((0.6, {(0, 1): 1.0 + 0j, (1, 0): 0.5j}),),
            identity_weight=0.25,
        )
        again = MultimodeWitness.from_json(witness.to_json())
        assert again.modes == 2
        assert again.identity_weight == 0.25
        assert again.terms[0][1][(1, 0)] == 0.5j

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda state: state["amplitudes"].append(
                {"occupations": [0, 1], "value": [2.0, 0.0]}), "occupations"),
            (lambda state: state.update(modes=3), "modes"),
        ],
        ids=["repeated-occupations", "state-modes"],
    )
    def test_lossy_witness_file_rejected(self, edit, field):
        obj = multimode_fock_projector((0, 1)).to_json()
        edit(obj["terms"][0]["state"])
        with pytest.raises(ValueError, match=field):
            MultimodeWitness.from_json(obj)

    def test_result_payload(self):
        result = multimode_threshold(multimode_fock_projector((0, 0)), 2, 1, FAST)
        payload = multimode_result_to_json(multimode_fock_projector((0, 0)), result)
        assert payload["modes"] == 2
        assert payload["rank"] == 1
        assert "interferometer" in payload["params"]
