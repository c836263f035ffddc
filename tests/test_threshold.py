import inspect
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from stellarwitness import fock_gaussian, multimode
from stellarwitness import threshold as threshold_module
from stellarwitness import witness as witness_module
from stellarwitness._util import dumps_stable
from stellarwitness.errors import OptimizerError
from stellarwitness.fock_gaussian import (
    GaussianUnitaryParams,
    coherent_columns,
    params_from_vector,
)
from stellarwitness.states import FockDensity, FockVector
from stellarwitness.threshold import (
    OptimizerConfig,
    _box,
    _clip,
    _nelder_mead,
    _round_objectives,
    _start_points,
    compute_threshold,
    compute_thresholds,
    extremal_state,
    multistart,
    objective,
    result_to_json,
)
from stellarwitness.witness import (
    COHERENT_SUM,
    DENSITY,
    FOCK,
    PURE,
    WitnessOperator,
    WitnessTerm,
    assemble_matrix,
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
        for witness, n in (
            (fock_pair_witness(0, 2, 0.9), 2),
            (cat_pair_witness(1.5, 0.4), 1),
        ):
            result = compute_threshold(witness, n, FAST)
            # the full-space top: the assembled block's, or the identity part's
            top = max(np.linalg.eigvalsh(assemble_matrix(witness))[-1], witness.identity_weight)
            assert result.value <= top + 1e-9

    def test_deterministic_same_seed(self):
        a = compute_threshold(single_photon_witness(), 1, FAST)
        b = compute_threshold(single_photon_witness(), 1, FAST)
        assert a.value == b.value
        assert a.params == b.params
        assert np.array_equal(a.core.coefficients, b.core.coefficients)

    def test_all_starts_failing_raises(self):
        starving = OptimizerConfig(starts=3, max_iterations=3, seed=1)
        with pytest.raises(OptimizerError):
            compute_threshold(single_photon_witness(), 1, starving)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            compute_threshold(vacuum_witness(), 0, FAST)

    def test_four_vector_start_truncated_when_vartheta_fixed(self):
        assert single_photon_witness().phase_invariant  # so vartheta is fixed

        def run(point):
            cfg = OptimizerConfig(starts=4, max_iterations=400, seed=11, initial_points=(point,))
            return compute_threshold(single_photon_witness(), 1, cfg)

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

    @pytest.mark.parametrize("value", [7.5, 7.0, True, "7", None, -3])
    def test_bad_seed_rejected(self, value):
        with pytest.raises(ValueError, match="seed"):
            OptimizerConfig(seed=value)
        with pytest.raises(ValueError, match="seed"):
            OptimizerConfig.from_json({"seed": value})

    def test_seed_from_json_kept(self):
        assert OptimizerConfig.from_json({"seed": 7}).seed == 7
        assert OptimizerConfig.from_json({"seed": 7}, seed=np.int64(0)).seed == 0

    def test_integer_counts_normalized(self):
        config = OptimizerConfig(starts=np.int64(3), max_iterations=np.int32(40))
        assert type(config.starts) is int and type(config.max_iterations) is int
        assert config.to_json()["starts"] == 3

    def test_squeezing_above_the_kernels_limit_rejected(self):
        # the kernels refuse r > MAX_SQUEEZING: a search box past it would
        # only overflow
        with pytest.raises(ValueError, match="r_max must be <= 700"):
            OptimizerConfig(r_max=800.0)
        assert OptimizerConfig(r_max=700.0).r_max == 700.0

    def test_unknown_json_keys_rejected(self):
        config = {"starts": 8, "max_iteration": 300, "initial_points": [[0.1, 0, 0, 0]]}
        with pytest.raises(ValueError, match="initial_points, max_iteration"):
            OptimizerConfig.from_json(config)
        written = OptimizerConfig(starts=8, max_iterations=300, seed=4)
        assert OptimizerConfig.from_json({**written.to_json(), "seed": 4}) == written

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
        fixed = compute_threshold(w, 2, FAST)
        free = compute_threshold(replace(w, phase_invariant=False), 2, FAST)
        assert fixed.diagnostics["vartheta_fixed"] and not free.diagnostics["vartheta_fixed"]
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
                state = FockVector(coherent_columns([params.vector()], [0.0], 60)[0, 0])
                assert expectation(witness, state) <= w1 + 1e-7


class TestResultFiles:
    def test_round_trip(self):
        # the written file gives back the exact value, params, rank and core
        w = fock_pair_witness(0, 2, 0.4)
        result = compute_threshold(w, 2, FAST)
        payload = json.loads(dumps_stable(result_to_json(w, result)))
        assert payload["value"] == result.value
        assert GaussianUnitaryParams.from_json(payload["params"]) == result.params
        assert payload["rank"] == result.rank
        core = np.array([complex(re, im) for re, im in payload["core"]])
        assert core.tobytes() == result.core.coefficients.tobytes()


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
        """The search's round objective gives each row the bits of the
        one-row `objective`, in any batch and in any order."""
        lo, hi = _box(OptimizerConfig(), dims)
        rng = np.random.default_rng(100 * n + dims)
        points = lo + rng.random((40, dims)) * (hi - lo)
        points[:5, 0] = 0.0  # displacement-only rows mixed in
        points[5, 1:3] = 0.0
        fun = _round_objectives(witness, n)
        expected = np.array([objective(witness, n, params_from_vector(p)) for p in points])
        assert fun(points).tobytes() == expected.tobytes()
        for size in (1, 7):
            parts = [fun(points[i : i + size]) for i in range(0, len(points), size)]
            assert np.concatenate(parts).tobytes() == expected.tobytes()
        order = rng.permutation(len(points))
        assert fun(points[order]).tobytes() == expected[order].tobytes()


class TestConjugationPlan:
    @pytest.mark.parametrize(
        "make", [lambda: cat_pair_witness(2.0, 0.7), mixed_terms_witness], ids=["cat", "mixed"]
    )
    def test_derived_once_per_threshold(self, monkeypatch, make):
        calls = []

        def counted(terms):
            calls.append(terms)
            return plan(terms)

        plan = witness_module._conjugation_plan
        monkeypatch.setattr(witness_module, "_conjugation_plan", counted)
        witness = make()
        compute_threshold(witness, 2, OptimizerConfig(starts=4, max_iterations=400, seed=5))
        assert calls == [witness.terms]


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


def numpy_nelder_mead(x0, lo, hi, tol, max_evals):
    """`_nelder_mead` with its simplex in numpy arrays: the reference whose
    every point and outcome the float version must reproduce bit for bit."""
    dims = x0.size
    alpha, gamma = 1.0, 1.0 + 2.0 / dims
    rho, sigma = 0.75 - 1.0 / (2.0 * dims), 1.0 - 1.0 / dims
    span = hi - lo
    evals = 0

    def build_simplex(center, scale):
        pts = [np.array(center)]
        for d in range(dims):
            step = scale * span[d]
            if center[d] + step > hi[d]:
                step = -step
            vertex = np.array(center)
            vertex[d] = vertex[d] + step
            pts.append(vertex)
        return pts

    best_x = np.clip(x0, lo, hi)
    (best_f,) = yield best_x[None]
    evals += 1
    converged = False
    for attempt, scale in enumerate((0.10, 0.005)):
        simplex = build_simplex(best_x, scale)
        fresh = simplex if attempt else simplex[1:]
        values = ([] if attempt else [best_f]) + (yield np.clip(fresh, lo, hi))
        evals += len(fresh)
        while evals < max_evals:
            order = sorted(range(len(simplex)), key=values.__getitem__)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if values[-1] - values[0] <= tol * (1.0 + abs(values[0])):
                converged = True
                break
            centroid = np.add.reduce(simplex[:-1], axis=0) / dims
            reflected = centroid + alpha * (centroid - simplex[-1])
            (f_reflected,) = yield reflected.clip(lo, hi)[None]
            evals += 1
            if f_reflected < values[0]:
                expanded = centroid + gamma * (reflected - centroid)
                (f_expanded,) = yield expanded.clip(lo, hi)[None]
                evals += 1
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            else:
                contracted = centroid + rho * (simplex[-1] - centroid)
                (f_contracted,) = yield contracted.clip(lo, hi)[None]
                evals += 1
                if f_contracted < values[-1]:
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    for i in range(1, len(simplex)):
                        simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    values[1:] = yield np.clip(simplex[1:], lo, hi)
                    evals += len(simplex) - 1
        lowest = int(np.argmin(values))
        if values[lowest] < best_f:
            best_f = values[lowest]
            best_x = np.clip(simplex[lowest], lo, hi)
        if evals >= max_evals:
            break
    return best_x, best_f, evals, converged


def recorded_run(search, fun, lo=None, hi=None):
    """Drive one start alone: the bytes of every point it asked for, in
    order, and its outcome.  With bounds, each batch is first clipped into
    them, as `multistart` clips its rounds."""
    asked = []
    points = next(search)
    while True:
        points = np.asarray(points, dtype=float)
        if lo is not None:
            points = points.clip(lo, hi)
        asked += [x.tobytes() for x in points]
        try:
            points = search.send([-fun(x) for x in points])
        except StopIteration as done:
            return asked, outcome_bits(*done.value)


def check_against_reference(args, fun):
    """`_nelder_mead`, clipped as `multistart` clips, ends with the outcome
    bits of the reference and asks for every point the reference asks for,
    in the reference's order."""
    lo, hi = args[1], args[2]
    asked, outcome = recorded_run(_nelder_mead(*args), fun, lo, hi)
    reference_asked, reference_outcome = recorded_run(numpy_nelder_mead(*args), fun)
    assert outcome == reference_outcome
    remaining = iter(asked)
    assert all(point in remaining for point in reference_asked)


def reference_rounds(search, fun):
    """Drive the reference alone: its requests other than an expansion or a
    contraction (the lockstep generator asks for both with the reflection,
    so these are its rounds), and its evaluation count.  A request's kind is
    the line of the reference at which it waits."""
    source, first = inspect.getsourcelines(numpy_nelder_mead)
    follow_ups = {
        first + i for i, line in enumerate(source)
        if "yield expanded" in line or "yield contracted" in line
    }
    rounds = 0
    points = next(search)
    while True:
        rounds += search.gi_frame.f_lineno not in follow_ups
        try:
            points = search.send([-fun(x) for x in points])
        except StopIteration as done:
            return rounds, done.value[2]


class TestSimplexReference:
    """The float simplex, asking for each iteration's three candidates at
    once, against the numpy one, which asks only for those it reads."""

    @pytest.mark.parametrize(
        "witness, n, dims, alpha_max",
        [
            (cat_pair_witness(2.0, 2.2), 3, 4, 6.0),
            (fock_pair_witness(0, 2, 0.9), 2, 3, 6.0),
            # alpha_max = 0: the box's lower alpha bounds are -0.0
            (cat_pair_witness(1.5, 0.4), 2, 4, 0.0),
        ],
        ids=["cat", "fock", "signed-zero-box"],
    )
    def test_single_mode(self, witness, n, dims, alpha_max):
        config = OptimizerConfig(starts=5, max_iterations=300, alpha_max=alpha_max, seed=9)
        lo, hi = _box(config, dims)
        outside = np.array([5.0, -9.0, 0.5, 7.0])[:dims]  # clipped on entry
        for x0 in _start_points(lo, hi, config, [outside]):
            def fun(x):
                return objective(witness, n, params_from_vector(x))

            check_against_reference(
                (x0, lo, hi, config.simplex_tolerance, config.max_iterations), fun
            )

    def test_nan_values(self):
        # NaN on a checkerboard of the box: a new simplex or a shrink puts NaN
        # values among the vertices, where only a full sort knows their order
        lo, hi = np.array([0.0, -6.0, -6.0]), np.array([3.0, 6.0, 6.0])
        center = np.array([1.1, 0.7, -2.3])
        asked_nan = []

        def fun(x):
            nan = math.sin(3.0 * x[0]) * math.sin(2.0 * x[1]) > 0.3
            asked_nan.append(nan)
            return math.nan if nan else -math.exp(-float(np.sum((x - center) ** 2)))

        for seed in range(8):
            config = OptimizerConfig(starts=12, max_iterations=400, seed=seed)
            for x0 in _start_points(lo, hi, config):
                check_against_reference((x0, lo, hi, 1e-9, config.max_iterations), fun)
        assert any(asked_nan)

    def test_clip_has_ndarray_clip_bits(self):
        # signed zeros, NaN and infinities against every ordered pair of bounds
        grid = [-0.0, 0.0, math.nan, 1.0, -1.0, 2.5, math.inf, -math.inf]
        bounds = [(lo, hi) for lo in grid for hi in grid if lo == lo and hi == hi and lo <= hi]
        lo, hi = np.array(bounds).T
        for value in grid:
            x = np.full(len(bounds), value)
            assert np.array(_clip(x.tolist(), lo, hi)).tobytes() == x.clip(lo, hi).tobytes()

    def test_two_mode(self):
        witness = multimode.multimode_fock_projector((1, 0))
        config = OptimizerConfig(starts=2, max_iterations=150, seed=23)
        lo, hi = multimode._multimode_box(config, 2)

        def fun(x):
            return multimode.multimode_objective(witness, 2, multimode._unpack_vector(x, 2))

        for x0 in _start_points(lo, hi, config):
            check_against_reference(
                (x0, lo, hi, config.simplex_tolerance, config.max_iterations), fun
            )


class TestLockstep:
    """`multistart` runs every start in lockstep through batched calls; each
    start must end exactly where the reference ends when driven alone."""

    def check(self, batch_fun, one_fun, lo, hi, config, extra=()):
        _, outcomes = multistart(batch_fun, lo, hi, config, extra)
        starts = _start_points(lo, hi, config, extra)
        assert len(outcomes) == len(starts) == config.starts
        tol, budget = config.simplex_tolerance, config.max_iterations
        for x0, outcome in zip(starts, outcomes):
            x, f, evals, converged = drive_alone(
                numpy_nelder_mead(x0, lo, hi, tol, budget), one_fun
            )
            assert outcome_bits(*outcome) == outcome_bits(x, -f, evals, converged)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_cat_vartheta_free(self, n):
        witness = cat_pair_witness(2.0, 2.2)
        config = OptimizerConfig(starts=6, max_iterations=150, seed=3)
        lo, hi = _box(config, 4)
        self.check(
            _round_objectives(witness, n),
            lambda x: objective(witness, n, params_from_vector(x)),
            lo, hi, config, [np.array([0.4, 0.8, -0.3, 1.3])],
        )

    def check_fock_pair(self, n):
        witness = fock_pair_witness(0, 2, 0.9)
        config = OptimizerConfig(starts=6, max_iterations=200, seed=5)
        lo, hi = _box(config, 3)
        self.check(
            _round_objectives(witness, n),
            lambda x: objective(witness, n, params_from_vector(x)),
            lo, hi, config,
        )

    def test_fock_pair(self):
        self.check_fock_pair(2)

    def test_fock_pair_rank_eight(self):
        self.check_fock_pair(8)

    def check_projector(self, occupations, n, iterations):
        modes = len(occupations)
        witness = multimode.multimode_fock_projector(occupations)
        config = OptimizerConfig(
            starts=3, max_iterations=iterations, simplex_tolerance=1e-4, seed=23
        )
        lo, hi = multimode._multimode_box(config, modes)

        def one(x):
            return multimode.multimode_objective(witness, n, multimode._unpack_vector(x, modes))

        self.check(lambda X: multimode._objectives(witness, n, X, modes), one, lo, hi, config)

    def test_two_mode(self):
        self.check_projector((1, 0), 2, 100)

    def test_three_mode(self):
        # 18 parameters: the float simplex's largest centroid
        self.check_projector((1, 0, 1), 2, 150)

    def test_rounds(self, monkeypatch):
        """One objective call per round, each a non-empty batch inside the
        box; as many rounds as the longest start needs when it asks for an
        iteration's candidates together, and the reference's evaluations."""
        witness = cat_pair_witness(2.0, 2.2)
        config = OptimizerConfig(starts=6, max_iterations=150, seed=3)
        lo, hi = _box(config, 4)
        calls = []

        def spy(witness_op, n):
            fun = round_objectives(witness_op, n)

            def counted(points):
                calls.append(np.array(points))
                return fun(points)

            return counted

        round_objectives = threshold_module._round_objectives
        monkeypatch.setattr(threshold_module, "_round_objectives", spy)
        result = compute_threshold(witness, 2, config)

        def one(x):
            return objective(witness, 2, params_from_vector(x))

        rounds, evals = zip(*(
            reference_rounds(
                numpy_nelder_mead(x0, lo, hi, config.simplex_tolerance, config.max_iterations), one
            )
            for x0 in _start_points(lo, hi, config)
        ))
        assert all(len(X) > 0 and (X >= lo).all() and (X <= hi).all() for X in calls)
        assert len(calls) == max(rounds)
        assert result.diagnostics["function_evaluations"] == sum(evals)


class TestSearchBox:
    """Each search checks its box once, before the first round, and its
    rounds run the kernels' unchecked cores."""

    EDGE = dict(r_max=700.0, alpha_max=6.0)
    TINY = OptimizerConfig(starts=2, max_iterations=300, seed=3)

    @pytest.mark.parametrize(
        "search",
        [
            lambda cfg: compute_threshold(single_photon_witness(), 2, cfg),
            lambda cfg: compute_threshold(witness_module.fock_pair_witness(0, 2, 0.7), 2, cfg),
            lambda cfg: compute_threshold(cat_pair_witness(2.0, 0.7), 2, cfg),
            lambda cfg: multimode.multimode_threshold(
                multimode.multimode_fock_projector((1, 1)), 2, 2, cfg
            ),
        ],
        ids=["fock-1", "fock-0-2", "cat", "two-mode"],
    )
    @pytest.mark.parametrize("edge", [False, True], ids=["default-box", "r-700"])
    def test_accepted_boxes_search_without_warnings(self, search, edge):
        config = replace(self.TINY, **self.EDGE) if edge else self.TINY
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = search(config)
        assert math.isfinite(result.value)

    @pytest.mark.parametrize(
        "witness, alpha_max",
        [(lambda: cat_pair_witness(1e5, 0.7), 6.0),
         (lambda: witness_module.fock_pair_witness(0, 2, 0.7), 2e4)],
        ids=["cat-beta-1e5", "fock-alpha-2e4"],
    )
    def test_refused_boxes_before_any_objective_call(self, monkeypatch, witness, alpha_max):
        calls = []

        def spy(witness_op, n):
            fun = round_objectives(witness_op, n)
            return lambda points: calls.append(len(points)) or fun(points)

        round_objectives = threshold_module._round_objectives
        monkeypatch.setattr(threshold_module, "_round_objectives", spy)
        config = OptimizerConfig(starts=4, max_iterations=100, r_max=700.0, alpha_max=alpha_max)
        with pytest.raises(ValueError, match="r_max = 700 with alpha_max"):
            compute_threshold(witness(), 2, config)
        assert calls == []

    def test_refused_multimode_box_before_any_objective_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(multimode, "_objectives", lambda *args: calls.append(args))
        config = OptimizerConfig(starts=4, max_iterations=100, r_max=700.0, alpha_max=2e4)
        with pytest.raises(ValueError, match="alpha_max = 20000 would overflow"):
            multimode.multimode_threshold(multimode.multimode_fock_projector((1, 1)), 2, 2, config)
        assert calls == []

    def test_one_box_check_per_search(self, monkeypatch):
        # the kernels' range test runs for the box and for the winner's
        # recompute, however many rounds the search takes
        checks, ranges, rounds = [], [], []
        in_range = fock_gaussian._in_range
        monkeypatch.setattr(fock_gaussian, "_in_range", lambda *a: ranges.append(a) or in_range(*a))
        for module in (threshold_module, multimode):
            check = module.check_box
            monkeypatch.setattr(module, "check_box", lambda *a, c=check: checks.append(a) or c(*a))
        driver = threshold_module.multistart

        def counted(fun, *args, **kwargs):
            return driver(lambda points: rounds.append(1) or fun(points), *args, **kwargs)

        monkeypatch.setattr(threshold_module, "multistart", counted)
        monkeypatch.setattr(multimode, "multistart", counted)
        for search in (
            lambda: compute_threshold(cat_pair_witness(2.0, 0.7), 3, FAST),
            lambda: compute_threshold(witness_module.fock_pair_witness(0, 2, 0.7), 2, FAST),
            lambda: multimode.multimode_threshold(
                multimode.multimode_fock_projector((1, 1)), 2, 2, self.TINY
            ),
        ):
            for record in (checks, ranges, rounds):
                record.clear()
            search()
            assert len(rounds) > 50
            assert len(checks) == 1
            assert len(ranges) == 2

    def test_nan_initial_point_refused(self):
        config = replace(FAST, initial_points=((math.nan, 0.1, 0.2, 0.0),))
        with pytest.raises(ValueError, match="must be finite, with r <= 700"):
            compute_threshold(cat_pair_witness(2.0, 0.7), 2, config)
        config = replace(FAST, initial_points=((0.0,) * 7 + (math.nan, 0.0, 0.0),))
        with pytest.raises(ValueError, match="must be finite"):
            multimode.multimode_threshold(multimode.multimode_fock_projector((1, 1)), 2, 2, config)

    def test_infinite_initial_point_clipped_into_the_box(self):
        config = replace(FAST, starts=4, initial_points=((math.inf, -math.inf, 0.2, 0.0),))
        assert math.isfinite(compute_threshold(single_photon_witness(), 2, config).value)
