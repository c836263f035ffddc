import math

import numpy as np
import pytest

from stellarwitness import multimode
from stellarwitness.errors import OptimizerError
from stellarwitness.fock_gaussian import (
    GaussianUnitaryParams,
    params_from_vector,
    transform_coherent,
)
from stellarwitness.states import FockDensity, FockVector
from stellarwitness.threshold import (
    OptimizerConfig,
    _box,
    _nelder_mead,
    _start_points,
    compute_threshold,
    compute_thresholds,
    extremal_state,
    multistart,
    objective,
    objectives,
    result_from_json,
    result_to_json,
)
from stellarwitness.witness import (
    COHERENT_SUM,
    DENSITY,
    FOCK,
    PURE,
    WitnessOperator,
    WitnessTerm,
    cat_pair_witness,
    conjugate_witness,
    expectation,
    fock_diagonal_witness,
    fock_pair_witness,
)

IDENTITY = GaussianUnitaryParams()
FAST = OptimizerConfig(starts=16, max_iterations=400, seed=11)


def vacuum_witness():
    return fock_diagonal_witness([1.0])


def single_photon_witness():
    return fock_diagonal_witness([0.0, 1.0])


def two_photon_witness():
    return fock_diagonal_witness([0.0, 0.0, 1.0])


class TestObjective:
    def test_vacuum_projector_at_identity(self):
        assert objective(vacuum_witness(), 1, IDENTITY) == 1.0

    def test_two_photon_projector_rank_one(self):
        assert objective(two_photon_witness(), 1, IDENTITY) == 0.0

    def test_two_photon_projector_rank_three(self):
        assert objective(two_photon_witness(), 3, IDENTITY) == 1.0


class TestComputeThreshold:
    def test_vacuum_projector(self):
        result = compute_threshold(vacuum_witness(), 1, FAST)
        assert abs(result.value - 1.0) <= 1e-6
        assert result.params.r == 0.0 and result.params.alpha == 0.0

    def test_two_photon_rank_three(self):
        result = compute_threshold(two_photon_witness(), 3, FAST)
        assert abs(result.value - 1.0) <= 1e-6

    def test_diagnostics_contract(self):
        result = compute_threshold(single_photon_witness(), 1, FAST)
        d = result.diagnostics
        assert len(d["start_values"]) == FAST.starts
        assert d["starts_within_1e-6"] >= 1
        assert set(d["boundary_hit"]) == {"r", "alpha_re", "alpha_im"}
        assert d["vartheta_fixed"] is True
        assert d["converged_starts"] >= 1

    def test_value_reproducible_from_params_and_core(self):
        result = compute_threshold(single_photon_witness(), 1, FAST)
        matrix = np.atleast_2d(
            objective(single_photon_witness(), 1, result.params)
        )
        assert abs(result.value - matrix[0, 0]) <= 1e-10

    def test_value_bounded_by_witness_spectrum(self):
        from stellarwitness.witness import witness_spectrum_top

        for witness, n in (
            (fock_pair_witness(0, 2, 0.9), 2),
            (cat_pair_witness(1.5, 0.4), 1),
        ):
            result = compute_threshold(witness, n, FAST)
            assert result.value <= witness_spectrum_top(witness) + 1e-9

    def test_deterministic_same_seed(self):
        a = compute_threshold(single_photon_witness(), 1, FAST)
        b = compute_threshold(single_photon_witness(), 1, FAST)
        assert a.value == b.value
        assert a.params == b.params
        assert np.array_equal(a.core.coefficients, b.core.coefficients)

    def test_thread_count_does_not_change_bits(self):
        results = [
            compute_threshold(single_photon_witness(), 1, FAST, threads=t)
            for t in (1, 4, 8)
        ]
        for other in results[1:]:
            assert other.value == results[0].value
            assert other.params == results[0].params

    def test_all_starts_failing_raises(self):
        starving = OptimizerConfig(starts=3, max_iterations=3, seed=1)
        with pytest.raises(OptimizerError):
            compute_threshold(single_photon_witness(), 1, starving)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            compute_threshold(vacuum_witness(), 0, FAST)

    def test_four_vector_start_truncated_when_vartheta_fixed(self):
        def run(point):
            cfg = OptimizerConfig(starts=4, max_iterations=400, seed=11, initial_points=(point,))
            return compute_threshold(single_photon_witness(), 1, cfg, fix_vartheta=True)

        full = run((0.4, 0.8, -0.3, 1.3))
        truncated = run((0.4, 0.8, -0.3))
        assert full.diagnostics["start_values"] == truncated.diagnostics["start_values"]
        assert full.params == truncated.params


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["r_max", "alpha_max"])
    @pytest.mark.parametrize("value", [-2.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_bad_box_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-9])
    def test_bad_simplex_tolerance_rejected(self, value):
        with pytest.raises(ValueError):
            OptimizerConfig(simplex_tolerance=value)

    @pytest.mark.parametrize("field", ["starts", "max_iterations"])
    @pytest.mark.parametrize("value", [2.5, 300.0, True, False, "4", None])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})

    def test_integer_counts_normalized(self):
        config = OptimizerConfig(starts=np.int64(3), max_iterations=np.int32(40))
        assert type(config.starts) is int and type(config.max_iterations) is int
        assert config.to_json()["starts"] == 3

    def test_zero_box_allowed(self):
        config = OptimizerConfig(r_max=0.0, alpha_max=0.0)
        assert (config.r_max, config.alpha_max) == (0.0, 0.0)


class TestBatch:
    def test_monotone_in_rank(self):
        w = fock_pair_witness(0, 2, 0.9)
        results = compute_thresholds(w, [1, 2, 3], FAST)
        values = [r.value for r in results]
        assert values[0] <= values[1] + 1e-7
        assert values[1] <= values[2] + 1e-7
        assert all(r.diagnostics["monotonicity_ok"] in (None, True) for r in results)

    def test_rank_order_enforced(self):
        with pytest.raises(ValueError):
            compute_thresholds(vacuum_witness(), [2, 1], FAST)


class TestExtremalState:
    def test_vacuum_witness_gives_vacuum(self):
        result = compute_threshold(vacuum_witness(), 1, FAST)
        state = extremal_state(result, 1, 12)
        assert abs(abs(state.amplitudes[0]) - 1.0) < 1e-9

    def test_rank_two_single_photon(self):
        result = compute_threshold(single_photon_witness(), 2, FAST)
        assert abs(result.value - 1.0) <= 1e-6
        state = extremal_state(result, 2, 12)
        assert abs(abs(state.amplitudes[1]) - 1.0) <= 1e-6

    @pytest.mark.parametrize(
        "witness,n",
        [
            (fock_pair_witness(0, 2, math.pi / 4), 2),
            (single_photon_witness(), 1),
        ],
    )
    def test_expectation_reproduces_threshold(self, witness, n):
        result = compute_threshold(witness, n, FAST)
        state = extremal_state(result, n, 80)
        assert abs(expectation(witness, state) - result.value) <= 1e-6


class TestInvariantProperties:
    def test_phase_free_vs_fixed(self):
        w = fock_pair_witness(0, 2, 0.7)
        fixed = compute_threshold(w, 2, FAST, fix_vartheta=True)
        free = compute_threshold(w, 2, FAST, fix_vartheta=False)
        assert abs(fixed.value - free.value) <= 1e-7

    def test_gaussian_covariance_single_case(self):
        w = fock_pair_witness(0, 2, 0.7)
        v = GaussianUnitaryParams(theta=0.4, vartheta=1.1, r=0.3, alpha=0.5 - 0.4j)
        conjugated = conjugate_witness(w, v, 45)
        cfg = OptimizerConfig(starts=24, max_iterations=500, seed=5)
        base = compute_threshold(w, 1, cfg)
        moved = compute_threshold(conjugated, 1, cfg)
        assert abs(base.value - moved.value) <= 2e-5

    def test_never_certifies_gaussian_states(self):
        rng = np.random.default_rng(17)
        witnesses = [fock_pair_witness(0, 2, 0.9), cat_pair_witness(1.5, 0.6)]
        for witness in witnesses:
            w1 = compute_threshold(witness, 1, FAST).value
            for _ in range(50):
                params = GaussianUnitaryParams(
                    theta=0.0,
                    vartheta=rng.uniform(0, 2 * math.pi),
                    r=rng.uniform(0, 1.2),
                    alpha=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                )
                state = transform_coherent(params, 0.0, 60)
                assert expectation(witness, state) <= w1 + 1e-7


class TestResultFiles:
    def test_round_trip(self):
        w = fock_pair_witness(0, 2, 0.4)
        result = compute_threshold(w, 2, FAST)
        payload = result_to_json(w, result)
        witness_again, result_again = result_from_json(payload)
        assert result_again.value == result.value
        assert result_again.params == result.params
        assert result_again.rank == result.rank
        assert np.array_equal(result_again.core.coefficients, result.core.coefficients)


def mixed_terms_witness():
    """Every term kind of the batched compression, plus an identity part."""
    pure = FockVector(np.array([0.6, 0.48j, 0.64]))
    hopping = 0.05 * (np.eye(3, k=1) + np.eye(3, k=-1))
    density = FockDensity(np.diag([0.5, 0.3, 0.2]).astype(complex) + hopping)
    terms = (
        WitnessTerm(0.3, FOCK, 4),
        WitnessTerm(0.7, PURE, pure),
        WitnessTerm(-0.4, DENSITY, density),
        WitnessTerm(0.2, COHERENT_SUM, ((0.5, 1.0 + 0.5j), (0.5, -1.0))),
    )
    return WitnessOperator(
        terms=terms, support_cutoff=4, phase_invariant=False, identity_weight=0.25
    )


class TestBatchedObjective:
    @pytest.mark.parametrize(
        "witness",
        [cat_pair_witness(2.0, 0.7), fock_pair_witness(0, 2, 0.9), mixed_terms_witness()],
        ids=["cat", "fock", "mixed"],
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("dims", [3, 4])
    def test_rows_bit_identical_to_one_row(self, witness, n, dims):
        lo, hi = _box(OptimizerConfig(), dims)
        rng = np.random.default_rng(100 * n + dims)
        points = lo + rng.random((40, dims)) * (hi - lo)
        points[:5, 0] = 0.0  # displacement-only rows mixed in
        points[5, 1:3] = 0.0
        values = objectives(witness, n, points)
        expected = [objective(witness, n, params_from_vector(p)) for p in points]
        assert values.tobytes() == np.array(expected).tobytes()


def drive_alone(search, fun):
    """Run one Nelder-Mead start by itself, one point per objective call."""
    points = next(search)
    while True:
        try:
            points = search.send([-fun(x) for x in points])
        except StopIteration as done:
            return done.value


def outcome_bits(x, value, evals, converged):
    return x.tobytes(), np.float64(value).tobytes(), evals, converged


class TestLockstep:
    """`multistart` runs every start in lockstep through batched calls; each
    start must end exactly where it ends when driven alone."""

    def check(self, batch_fun, one_fun, lo, hi, config, extra=()):
        _, outcomes = multistart(batch_fun, lo, hi, config, extra)
        starts = _start_points(lo, hi, config, extra)
        assert len(outcomes) == len(starts) == config.starts
        tol, budget = config.simplex_tolerance, config.max_iterations
        for x0, outcome in zip(starts, outcomes):
            x, f, evals, converged = drive_alone(_nelder_mead(x0, lo, hi, tol, budget), one_fun)
            assert outcome_bits(*outcome) == outcome_bits(x, -f, evals, converged)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cat_vartheta_free(self, n):
        witness = cat_pair_witness(2.0, 2.2)
        config = OptimizerConfig(starts=6, max_iterations=150, seed=3)
        lo, hi = _box(config, 4)
        self.check(
            lambda X: objectives(witness, n, X),
            lambda x: objective(witness, n, params_from_vector(x)),
            lo, hi, config, [np.array([0.4, 0.8, -0.3, 1.3])],
        )

    def test_fock_pair(self):
        witness = fock_pair_witness(0, 2, 0.9)
        config = OptimizerConfig(starts=6, max_iterations=200, seed=5)
        lo, hi = _box(config, 3)
        self.check(
            lambda X: objectives(witness, 2, X),
            lambda x: objective(witness, 2, params_from_vector(x)),
            lo, hi, config,
        )

    def test_two_mode(self):
        witness = multimode.multimode_fock_projector((1, 0))
        config = OptimizerConfig(starts=3, max_iterations=100, simplex_tolerance=1e-4, seed=23)
        lo, hi = multimode._multimode_box(config, 2)

        def one(x):
            return multimode.multimode_objective(witness, 2, multimode._unpack_vector(x, 2))

        self.check(
            lambda X: multimode.multimode_objectives(witness, 2, X, 2), one, lo, hi, config
        )
