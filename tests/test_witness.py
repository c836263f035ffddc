import math
import re

import numpy as np
import pytest

from stellarwitness import witness as witness_module
from stellarwitness.errors import DegenerateWitnessError, HermiticityError
from stellarwitness.fock_gaussian import (
    GaussianUnitaryParams,
    coherent_columns,
    gaussian_block,
    oracle_gaussian_matrix,
)
from stellarwitness.numerics import hermitian_spectrum
from stellarwitness.states import FockDensity, FockVector, cat, coherent, thermal
from stellarwitness.threshold import _round_objectives, objective
from stellarwitness.witness import (
    CoreState,
    WitnessOperator,
    WitnessTerm,
    assemble_matrix,
    cat_pair_witness,
    compress_conjugated,
    conjugate_witness,
    expectation,
    fock_diagonal_witness,
    fock_pair_witness,
    rescale_to_unit,
    trace_distance_lower_bound,
    witness_from_json,
    witness_to_json,
)

IDENTITY = GaussianUnitaryParams()


def fock_vector(index, cutoff):
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[index] = 1.0
    return FockVector(amps)


class TestConstruction:
    def test_fock_pair_limits(self):
        w0 = fock_pair_witness(0, 2, 0.0)
        mat = assemble_matrix(w0)
        assert np.allclose(mat, np.diag([1.0, 0.0, 0.0]))
        w2 = fock_pair_witness(0, 2, math.pi / 2)
        assert np.allclose(assemble_matrix(w2), np.diag([0.0, 0.0, 1.0]), atol=1e-16)

    def test_fock_pair_spectrum(self):
        w = fock_pair_witness(1, 2, math.pi / 4)
        eigs = hermitian_spectrum(assemble_matrix(w)).eigenvalues
        assert np.allclose(sorted(eigs, reverse=True)[:2], [math.sin(math.pi / 4)] * 2)
        assert w.phase_invariant

    def test_fock_pair_degenerate(self):
        with pytest.raises(DegenerateWitnessError):
            fock_pair_witness(1, 1, 0.3)

    def test_cat_pair_rank_one_projector(self):
        w = cat_pair_witness(2.0, 0.0)
        mat = assemble_matrix(w)
        odd = cat(2.0, "odd", w.support_cutoff)
        assert np.max(np.abs(mat - np.outer(odd.amplitudes, odd.amplitudes.conj()))) < 1e-12
        assert not w.phase_invariant

    def test_cat_pair_trace(self):
        w = cat_pair_witness(2.0, math.pi / 4)
        trace = float(np.real(np.trace(assemble_matrix(w))))
        assert abs(trace - math.sqrt(2.0)) < 1e-6

    def test_cat_pair_small_beta_limit(self):
        # the family degenerates to cos(w)|1><1| + sin(w)|0><0|
        w = cat_pair_witness(1e-3, 0.7)
        mat = assemble_matrix(w)
        expected = np.zeros_like(mat)
        expected[1, 1] = math.cos(0.7)
        expected[0, 0] = math.sin(0.7)
        assert np.max(np.abs(mat - expected)) < 1e-5

    def test_cat_pair_zero_beta_rejected(self):
        with pytest.raises(DegenerateWitnessError):
            cat_pair_witness(0.0, 0.3)

    @pytest.mark.parametrize("beta", [1e-9, 1e-170])
    def test_cat_pair_tiny_beta_rejected(self, beta):
        # c_- ~ 1/(2|beta|) would amplify the columns' rounding past ~1e-9
        with pytest.raises(DegenerateWitnessError, match="beta"):
            cat_pair_witness(beta, 0.7)

    def test_cat_pair_huge_beta_rejected(self):
        # |beta|^2 overflows, so the default cutoff is not finite
        with pytest.raises(ValueError, match="beta"):
            cat_pair_witness(1e200, 0.7)

    def test_cat_pair_large_beta_accepted(self):
        assert cat_pair_witness(40.0, 0.7).support_cutoff == 40 * 40 + 8 * 40 + 8

    def test_cat_pair_beta_1e5_matches_one_photon_limit(self):
        w = cat_pair_witness(1e-5, 0.7)
        limit = fock_pair_witness(1, 0, 0.7)
        mat = assemble_matrix(w)
        assert np.max(np.abs(mat - assemble_matrix(limit, w.support_cutoff))) < 1e-9
        params = GaussianUnitaryParams(theta=0.3, vartheta=1.1, r=0.6, alpha=0.9 - 0.4j)
        conjugated = compress_conjugated(w, params, 3)
        assert np.max(np.abs(conjugated - compress_conjugated(limit, params, 3))) < 1e-9


class TestCoreState:
    def test_normalizes(self):
        core = CoreState(np.array([1.0, 1.0j]) / math.sqrt(2.0))
        assert abs(np.linalg.norm(core.coefficients) - 1.0) < 1e-12

    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            CoreState(np.array([2.0, 0.0]))


class TestCompress:
    def test_identity_vacuum_projector(self):
        w = fock_diagonal_witness([1.0])
        out = compress_conjugated(w, IDENTITY, 1)
        assert out.shape == (1, 1) and out[0, 0] == 1.0

    def test_projector_annihilated_below_rank(self):
        w = fock_diagonal_witness([0.0, 0.0, 1.0])
        out = compress_conjugated(w, IDENTITY, 2)
        assert np.all(out == 0.0)

    def test_matches_oracle_product(self):
        rng = np.random.default_rng(42)
        w = fock_pair_witness(0, 2, 0.7)
        for _ in range(3):
            params = GaussianUnitaryParams(
                theta=0.0,
                vartheta=rng.uniform(0, 2 * math.pi),
                r=rng.uniform(0, 0.5),
                alpha=complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            )
            compressed = compress_conjugated(w, params, 3)
            U = oracle_gaussian_matrix(params, 60, relevant_cols=2)
            W = np.zeros((61, 61), dtype=complex)
            W[:3, :3] = assemble_matrix(w)
            product = (U @ W @ U.conj().T)[:3, :3]
            assert np.max(np.abs(compressed - product)) < 1e-8

    def test_hermitian_and_psd(self):
        w = cat_pair_witness(1.5, 0.3)
        params = GaussianUnitaryParams(vartheta=0.5, r=0.8, alpha=1 - 0.5j)
        out = compress_conjugated(w, params, 3)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_rank_bound(self):
        # two rank-1 terms leave at most two nonzero eigenvalues
        w = fock_pair_witness(1, 3, 0.9)
        params = GaussianUnitaryParams(vartheta=1.1, r=0.6, alpha=0.4 + 0.2j)
        eigs = np.abs(np.linalg.eigvalsh(compress_conjugated(w, params, 5)))
        assert np.sum(eigs > 1e-10) <= 2

    def test_linearity(self):
        a, b = 0.7, -1.3
        w1 = fock_pair_witness(0, 2, 0.4)
        w2 = fock_pair_witness(1, 3, 1.1)
        combined = WitnessOperator(
            terms=tuple(WitnessTerm(a * t.weight, t.kind, t.data) for t in w1.terms)
            + tuple(WitnessTerm(b * t.weight, t.kind, t.data) for t in w2.terms),
            support_cutoff=3,
            phase_invariant=True,
        )
        params = GaussianUnitaryParams(vartheta=0.2, r=0.5, alpha=0.8j)
        lhs = compress_conjugated(combined, params, 3)
        rhs = a * compress_conjugated(w1, params, 3) + b * compress_conjugated(w2, params, 3)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_phase_invariant_spectrum_independent_of_vartheta(self):
        w = fock_pair_witness(0, 2, 0.8)
        base = GaussianUnitaryParams(vartheta=0.0, r=0.7, alpha=1.2 - 0.3j)
        eigs0 = np.linalg.eigvalsh(compress_conjugated(w, base, 3))
        for vartheta in (0.5, 1.7, 4.4):
            p = GaussianUnitaryParams(vartheta=vartheta, r=0.7, alpha=1.2 - 0.3j)
            eigs = np.linalg.eigvalsh(compress_conjugated(w, p, 3))
            assert np.max(np.abs(eigs - eigs0)) < 1e-12

    def test_density_term_supported(self):
        tau = thermal(0.5, cutoff=40)
        w = WitnessOperator(
            terms=(WitnessTerm(1.0, "density", tau),),
            support_cutoff=40,
            phase_invariant=True,
        )
        params = GaussianUnitaryParams(r=0.4, alpha=0.5)
        out = compress_conjugated(w, params, 2)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        # vacuum-core consistency: <0|U W U+|0> equals Tr[W |psi><psi|]
        # for psi = U+|0> (adjoint row of the analytic block)
        psi = FockVector(gaussian_block(params, 0, 40).conj()[0])
        assert abs(out[0, 0].real - expectation(w, psi)) < 1e-8


class TestCoherentTransforms:
    PARAMS = GaussianUnitaryParams(theta=0.3, vartheta=1.1, r=0.6, alpha=0.9 - 0.4j)

    def test_one_column_call_carrying_each_beta(self, monkeypatch):
        calls = []

        def counted(points, betas, k_max, theta=None):
            calls.append(list(betas))
            return core(points, betas, k_max, theta)

        core = witness_module._coherent_columns
        monkeypatch.setattr(witness_module, "_coherent_columns", counted)
        w = cat_pair_witness(2.0, 0.7)
        for run in (
            lambda: objective(w, 3, self.PARAMS),
            lambda: conjugate_witness(w, self.PARAMS, 12),
        ):
            calls.clear()
            run()
            assert len(calls) == 1
            assert sorted(complex(beta).real for beta in calls[0]) == [-2.0, 2.0]
            assert all(complex(beta).imag == 0.0 for beta in calls[0])

    def test_shared_columns_bit_identical_to_per_term_transforms(self):
        w = cat_pair_witness(1.3 + 0.4j, 2.2)
        short = conjugate_witness(w, self.PARAMS, 3)
        conjugated = conjugate_witness(w, self.PARAMS, 9)
        for term, first, pure in zip(w.terms, short.terms, conjugated.terms):
            for size, got in ((4, first.data.amplitudes), (10, pure.data.amplitudes)):
                expected = np.zeros(size, dtype=complex)
                for coef, beta in term.data:
                    column = coherent_columns([self.PARAMS.vector()], [beta], size - 1, [self.PARAMS.theta])
                    expected += coef * column[0, 0]
                assert got.tobytes() == expected.tobytes()


class TestExpectation:
    def test_vacuum_projector(self):
        w = fock_diagonal_witness([1.0])
        assert expectation(w, fock_vector(0, 5)) == 1.0

    def test_fock_pair_on_fock_state(self):
        w = fock_pair_witness(1, 2, math.pi / 4)
        assert abs(expectation(w, fock_vector(1, 4)) - math.cos(math.pi / 4)) < 1e-15

    def test_cat_pair_on_coherent(self):
        w = cat_pair_witness(2.0, math.pi / 2)
        value = expectation(w, coherent(2.0))
        assert abs(value - (1.0 + math.exp(-8.0)) / 2.0) < 1e-9

    def test_density_state(self):
        w = fock_pair_witness(0, 1, 0.3)
        rho = thermal(1.0, cutoff=40)
        expected = math.cos(0.3) * 0.5 + math.sin(0.3) * 0.25
        assert abs(expectation(w, rho) - expected) < 1e-9

    def test_non_hermitian_density_term_raises(self):
        def density_witness(matrix):
            term = WitnessTerm(1.0, "density", FockDensity(matrix, validate=False))
            return WitnessOperator(terms=(term,), support_cutoff=1, phase_invariant=False)

        skewed = density_witness(np.array([[0.5, 0.5], [0.0, 0.5]]))
        hermitian = density_witness(np.array([[0.5, 0.25], [0.25, 0.5]]))
        psi = FockVector(np.array([1.0, 1.0j]) / math.sqrt(2.0))
        rho = FockDensity(np.outer(psi.amplitudes, psi.amplitudes.conj()))
        for state in (psi, rho):
            with pytest.raises(HermiticityError):
                expectation(skewed, state)
            assert expectation(hermitian, state) == pytest.approx(0.5, abs=1e-15)


class TestRescale:
    def test_already_unit_interval(self):
        w = fock_pair_witness(0, 2, 0.5)
        a, b, same = rescale_to_unit(w)
        assert (a, b) == (1.0, 0.0)
        assert same is w

    def test_double_projector(self):
        w = WitnessOperator(
            terms=(WitnessTerm(2.0, "fock", 0),), support_cutoff=0, phase_invariant=True
        )
        a, b, scaled = rescale_to_unit(w)
        assert (a, b) == (0.5, 0.0)
        assert scaled.terms[0].weight == 1.0

    def test_signed_spectrum(self):
        w = fock_diagonal_witness([1.0, -1.0])
        a, b, scaled = rescale_to_unit(w)
        assert abs(a - 0.5) < 1e-15 and abs(b - 0.5) < 1e-15
        eigs = np.linalg.eigvalsh(assemble_matrix(scaled))
        assert eigs.min() >= -1e-12 and eigs.max() <= 1.0 + 1e-12
        assert scaled.identity_weight == b

    def test_fock_witnesses_take_the_dense_extremes(self):
        # a Fock-only witness's extremes come from its weight sums; the same
        # block made of pure unit-vector terms goes through eigvalsh
        def dense(w):
            terms = tuple(WitnessTerm(t.weight, witness_module.PURE, fock_vector(t.data, w.support_cutoff))
                          for t in w.terms)
            return WitnessOperator(terms, w.support_cutoff, True, w.identity_weight)

        rng = np.random.default_rng(25)
        for _ in range(200):
            j, k = rng.choice(8, 2, replace=False)
            pair = fock_pair_witness(int(j), int(k), rng.uniform(0.0, 2.0 * math.pi))
            weights = rng.choice([-1.0, 1.0], 6) * 10.0 ** rng.uniform(-3, 3, 6) * (rng.random(6) < 0.7)
            diagonal = fock_diagonal_witness(weights.tolist())
            # repeated indices, and an identity weight
            repeated = WitnessOperator(pair.terms + diagonal.terms, max(pair.support_cutoff, 5), True,
                                       rng.uniform(-2.0, 2.0))
            for w in (pair, diagonal, repeated):
                if w.terms:
                    assert rescale_to_unit(w)[:2] == rescale_to_unit(dense(w))[:2]

    def test_cat_witnesses_take_the_closed_form_extremes(self, monkeypatch):
        # the odd and even cats are orthonormal: the extremes are
        # min/max(cos omega, sin omega, 0), within rounding of the dense
        # block's, which is not assembled
        rng = np.random.default_rng(64)
        cases = [(beta, omega) for beta in (0.5, 1.0, 2.0, 3.0) for omega in rng.uniform(0.0, 2.0 * math.pi, 16)]
        dense = [np.linalg.eigvalsh(assemble_matrix(cat_pair_witness(*case)))[[0, -1]] for case in cases]

        def no_block(*args):
            raise AssertionError("assembled a dense witness block")

        monkeypatch.setattr(witness_module, "assemble_matrix", no_block)
        for (beta, omega), (dense_low, dense_high) in zip(cases, dense):
            low = min(math.cos(omega), math.sin(omega), 0.0)
            high = max(math.cos(omega), math.sin(omega), 0.0)
            assert abs(dense_low - low) < 1e-14 and abs(dense_high - high) < 1e-14
            a, b, scaled = rescale_to_unit(cat_pair_witness(beta, omega))
            if low == 0.0:  # inside [0, 1] already
                assert (a, b) == (1.0, 0.0)
            else:
                assert (a, b) == (1.0 / (high - low), -low / (high - low))
                assert scaled.identity_weight == b

    def test_degenerate_spread(self):
        # a pure multiple of the identity cannot be mapped onto [0, 1]
        w = WitnessOperator(
            terms=(), support_cutoff=0, phase_invariant=True, identity_weight=2.0
        )
        with pytest.raises(DegenerateWitnessError):
            rescale_to_unit(w)


class TestTraceDistanceBound:
    def test_values(self):
        assert trace_distance_lower_bound(0.9, 0.6) == pytest.approx(0.3)
        assert trace_distance_lower_bound(0.5, 0.6) == 0.0
        assert trace_distance_lower_bound(1.0, 0.0) == 1.0


class TestConjugation:
    def test_identity_leaves_expectations(self):
        w = fock_pair_witness(0, 2, 0.7)
        conj = conjugate_witness(w, IDENTITY, 20)
        state = coherent(0.8, 20)
        assert abs(expectation(conj, state) - expectation(w, state)) < 1e-12

    def test_unitary_invariance_of_expectation(self):
        # Tr[(VWV+) (V rho V+)] = Tr[W rho]
        w = fock_pair_witness(0, 2, 0.7)
        v = GaussianUnitaryParams(vartheta=0.9, r=0.3, alpha=0.4 - 0.6j)
        conj = conjugate_witness(w, v, 40)
        psi = coherent(0.5, 8)
        moved = FockVector(gaussian_block(v, 40, 8) @ psi.amplitudes)
        assert abs(expectation(conj, moved) - expectation(w, psi)) < 1e-9

    @staticmethod
    def one_term(kind, data):
        return WitnessOperator(terms=(WitnessTerm(1.0, kind, data),), support_cutoff=2,
                               phase_invariant=False)

    def test_terms_keep_their_tail_at_the_identity(self):
        pure = self.one_term(witness_module.PURE, FockVector([1, 0, 0], tail_bound=0.1))
        density = self.one_term(
            witness_module.DENSITY, FockDensity(np.diag([1.0, 0.0, 0.0]), tail_bound=0.1)
        )
        fock = self.one_term(witness_module.FOCK, 1)
        for w, tail in ((pure, 0.1), (density, 0.1), (fock, 0.0)):
            (term,) = conjugate_witness(w, IDENTITY, 2).terms
            assert term.tail_bound() == tail, term.kind

    def test_unnormalized_pure_term_loses_nothing_at_the_identity(self):
        w = self.one_term(witness_module.PURE, FockVector([0.6, 0.0]))
        (term,) = conjugate_witness(w, IDENTITY, 4).terms
        assert term.tail_bound() == 0.0

    def test_tail_adds_what_the_cutoff_loses(self):
        # D(1)|0> keeps sum_{k <= 3} e^-1 / k! of its norm at cutoff 3
        kept = sum(math.exp(-1.0) / math.factorial(k) for k in range(4))
        shift = GaussianUnitaryParams(alpha=1.0)
        pure = self.one_term(witness_module.PURE, FockVector([1, 0, 0], tail_bound=0.1))
        density = self.one_term(
            witness_module.DENSITY, FockDensity(np.diag([1.0, 0.0, 0.0]), tail_bound=0.1)
        )
        fock = self.one_term(witness_module.FOCK, 0)
        for w, own in ((pure, 0.1), (density, 0.1), (fock, 0.0)):
            (term,) = conjugate_witness(w, shift, 3).terms
            assert abs(term.tail_bound() - (1.0 - kept + own)) < 1e-14, term.kind


class TestPureTermLayout:
    def test_strided_amplitudes_give_the_contiguous_bits(self):
        # column 1 of a complex array is a strided view; matmul would round it
        # otherwise than its contiguous copy
        rng = np.random.default_rng(12)
        block = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        points = np.column_stack([rng.uniform(0, 1.5, 300), rng.uniform(-3, 3, (300, 2))])

        def pure(amplitudes):
            return WitnessOperator(terms=(WitnessTerm(1.0, witness_module.PURE, FockVector(amplitudes)),),
                                   support_cutoff=39, phase_invariant=False)

        strided, contiguous = pure(block[:, 1]), pure(block[:, 1].copy())
        assert not strided.terms[0].data.amplitudes.flags.c_contiguous
        for n in (1, 2, 3):
            got = _round_objectives(strided, n)(points)
            assert got.tobytes() == _round_objectives(contiguous, n)(points).tobytes()


class TestWitnessFiles:
    def test_descriptor_round_trips(self):
        for w in (
            fock_pair_witness(0, 2, 0.3),
            cat_pair_witness(1.5 + 0.5j, 1.2),
            fock_diagonal_witness([0.5, -0.25, 1.0]),
        ):
            again = witness_from_json(witness_to_json(w))
            assert witness_to_json(again) == witness_to_json(w)
            state = coherent(0.7, max(w.support_cutoff, 16))
            assert abs(expectation(again, state) - expectation(w, state)) < 1e-12

    def test_generic_terms_round_trip(self):
        w = fock_pair_witness(0, 2, 0.3)
        conj = conjugate_witness(w, GaussianUnitaryParams(r=0.2, alpha=0.1), 20)
        again = witness_from_json(witness_to_json(conj))
        state = coherent(0.4, 20)
        assert abs(expectation(again, state) - expectation(conj, state)) < 1e-12

    def test_density_terms_and_identity_weight_round_trip(self):
        w = WitnessOperator(
            terms=(WitnessTerm(-0.5, witness_module.DENSITY, thermal(0.3, cutoff=20)),
                   WitnessTerm(1.0, witness_module.PURE, coherent(0.5, 8))),
            support_cutoff=20, phase_invariant=False, identity_weight=0.25,
        )
        obj = witness_to_json(w)
        assert obj["identity_weight"] == 0.25 and obj["terms"][0]["state"]["kind"] == "density"
        again = witness_from_json(obj)
        assert witness_to_json(again) == obj
        assert [t.kind for t in again.terms] == [witness_module.DENSITY, witness_module.PURE]
        assert again.identity_weight == 0.25 and not again.phase_invariant
        state = coherent(0.4, 20)
        assert expectation(again, state) == expectation(w, state)

    def test_pair_families_read_through_family_descriptor(self, monkeypatch):
        from stellarwitness import boundary

        assert boundary.family_descriptor is witness_module.family_descriptor
        assert boundary.family_witness is witness_module.family_witness
        calls = []
        checked = witness_module.family_descriptor
        monkeypatch.setattr(witness_module, "family_descriptor", lambda f: calls.append(f) or checked(f))
        obj = {"type": "cat_pair", "beta": 2, "omega": 0.7}
        assert witness_from_json(obj).descriptor == {"type": "cat_pair", "beta": [2.0, 0.0], "omega": 0.7}
        assert calls == [obj]

    @pytest.mark.parametrize(
        "obj, message",
        [({"type": "cat_pair", "beta": "2", "omega": 0.7}, "beta must be a number or a [re, im] pair"),
         ({"type": "fock_pair", "k": 2, "omega": 0.7}, "j must be an integer >= 0, got None"),
         ({"type": "fock_pair", "j": 0, "k": 2, "omega": "0.7"}, "omega must be a finite number"),
         ({"type": "fock_diagonal", "weights": 1.0}, "weights must be a list"),
         ({"type": "terms", "terms": [5]}, "witness term 0 must be an object"),
         ({"type": "terms", "terms": [{"weight": 1.0, "state": {"kind": "fock_vector", "data": [[1, 0]],
                                                                "tail_bound": math.nan}}]},
          "state of witness term 0: tail_bound must be a finite number")],
    )
    def test_malformed_files_name_the_key(self, obj, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            witness_from_json(obj)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            witness_from_json({"type": "quadrature"})
