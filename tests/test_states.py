import itertools
import math
import re

import numpy as np
import pytest

from stellarwitness.errors import TailBoundError
from stellarwitness.states import (
    FockDensity,
    FockVector,
    cat,
    cat_normalization,
    click_statistics,
    coherent,
    lossy_cat,
    lossy_cat_mixing_probability,
    q0_after_loss,
    state_from_json,
    state_to_json,
    thermal,
)


class TestCoherent:
    def test_vacuum(self):
        vec = coherent(0.0)
        assert vec.amplitudes[0] == 1.0
        assert np.all(vec.amplitudes[1:] == 0.0)
        assert vec.tail_bound == 0.0

    def test_unit_amplitude_vacuum_weight(self):
        vec = coherent(1.0)
        assert abs(abs(vec.amplitudes[0]) ** 2 - math.exp(-1.0)) < 1e-14

    def test_mean_photon_number(self):
        vec = coherent(2.0)
        mean = float(np.sum(np.arange(vec.cutoff + 1) * vec.probabilities()))
        assert abs(mean - 4.0) < 1e-9

    def test_default_tail_below_threshold(self):
        for beta in (0.5, 1.5, 3.0, 2 + 2j):
            assert coherent(beta).tail_bound < 1e-6

    def test_small_cutoff_raises(self):
        with pytest.raises(TailBoundError):
            coherent(3.0, cutoff=6)


class TestCat:
    def test_small_even_cat_is_vacuum_like(self):
        vec = cat(1e-4, "even")
        assert abs(vec.amplitudes[0]) > 0.9999999

    def test_small_odd_cat_is_single_photon(self):
        vec = cat(0.05, "odd")
        assert abs(vec.amplitudes[1]) ** 2 > 0.999

    def test_tiny_odd_cat_is_single_photon(self):
        # 1 - e^{-2|beta|^2} rounds to 0 here; -expm1 keeps N_- = 2e-18
        vec = cat(1e-9, "odd")
        assert np.max(np.abs(vec.amplitudes - np.eye(vec.cutoff + 1)[1])) < 1e-15

    def test_odd_cat_normalization_keeps_precision(self):
        beta = 1e-5
        exact = 2 * beta**2 * (1 - beta**2 + 2 * beta**4 / 3)
        assert abs(cat_normalization(beta, "odd") / exact - 1.0) < 1e-15

    @pytest.mark.parametrize("beta", [0.0, 1e-170])
    def test_degenerate_odd_cat_rejected(self, beta):
        # N_- = 0 (beta = 0) or underflowed to 0 (|beta|^2 below the subnormals)
        with pytest.raises(ValueError, match="degenerate"):
            cat(beta, "odd")

    def test_even_overlap_with_coherent(self):
        # |<beta|beta_+>|^2 = N_+/2 via <beta|-beta> = exp(-2|beta|^2)
        vec = cat(2.0, "even")
        coh = coherent(2.0)
        overlap = abs(np.vdot(coh.amplitudes, vec.amplitudes)) ** 2
        n_plus = 1.0 + math.exp(-8.0)
        assert abs(overlap - n_plus / 2.0) < 1e-9

    def test_parity_zeros_exact(self):
        even = cat(1.7, "even")
        odd = cat(1.7, "odd")
        assert np.all(even.amplitudes[1::2] == 0.0)
        assert np.all(odd.amplitudes[0::2] == 0.0)

    def test_odd_cat_at_zero_raises(self):
        with pytest.raises(ValueError):
            cat(0.0, "odd")

    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError):
            cat(1.0, "both")


class TestLossyCat:
    def test_no_loss_is_pure_even_cat(self):
        assert lossy_cat_mixing_probability(2.0, 1.0) == 1.0
        rho = lossy_cat(2.0, 1.0)
        even = cat(2.0, "even", rho.cutoff)
        fidelity = float(np.real(even.amplitudes.conj() @ rho.matrix @ even.amplitudes))
        assert abs(fidelity - 1.0) < 1e-9

    def test_full_loss_is_vacuum(self):
        rho = lossy_cat(2.0, 0.0)
        assert abs(rho.matrix[0, 0] - 1.0) < 1e-12
        assert abs(rho.trace() - 1.0) < 1e-12

    def test_partial_loss_eigenvalues(self):
        beta, t = 2.0, 0.9
        rho = lossy_cat(beta, t)
        p_plus = lossy_cat_mixing_probability(beta, t)
        assert abs(rho.trace() - 1.0) <= rho.tail_bound + 1e-12
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert abs(eigs[-1] - p_plus) < 1e-9
        assert abs(eigs[-2] - (1.0 - p_plus)) < 1e-9

    @pytest.mark.parametrize("t", [0.71, 0.8, 0.9, 1.0])
    def test_even_component_dominates(self, t):
        # p_+ >= 1/2 whenever t >= 1/sqrt(2)
        assert lossy_cat_mixing_probability(1.3, t) >= 0.5

    def test_invalid_transmittance(self):
        with pytest.raises(ValueError):
            lossy_cat(1.0, 1.2)


class TestThermal:
    def test_zero_temperature_is_vacuum(self):
        rho = thermal(0.0)
        assert rho.matrix[0, 0] == 1.0
        assert abs(rho.trace() - 1.0) < 1e-12

    def test_unit_mean_vacuum_weight(self):
        rho = thermal(1.0)
        assert abs(rho.matrix[0, 0].real - 0.5) < 1e-12

    def test_insufficient_cutoff(self):
        with pytest.raises(TailBoundError):
            thermal(5.0, cutoff=10)

    @pytest.mark.parametrize("nbar", [math.inf, math.nan, -0.5])
    @pytest.mark.parametrize("cutoff", [None, 80])
    def test_non_finite_or_negative_mean_rejected(self, nbar, cutoff):
        with pytest.raises(ValueError, match="finite and >= 0"):
            thermal(nbar, cutoff)


class TestQ0:
    def test_single_photon(self):
        for T in (0.0, 0.3, 1.0):
            assert abs(q0_after_loss([0.0, 1.0], T) - (1.0 - T)) < 1e-15

    def test_vacuum(self):
        assert q0_after_loss([1.0], 0.42) == 1.0

    def test_coherent_closed_form(self):
        probs = coherent(1.0).probabilities()
        assert abs(q0_after_loss(probs, 0.5) - math.exp(-0.5)) < 1e-9

    def test_thermal_overlap_identity(self):
        # q0(T) = (1 + nbar) Tr[thermal(nbar) rho] with nbar = (1-T)/T
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(3, 20))
            p = rng.random(dim)
            p /= p.sum()
            T = rng.uniform(0.35, 1.0)
            nbar = (1.0 - T) / T
            tau = thermal(nbar, cutoff=80)
            overlap = float(np.dot(tau.probabilities()[:dim], p))
            assert abs(q0_after_loss(p, T) - (1.0 + nbar) * overlap) <= 1e-8

    def test_invalid_transmittance(self):
        with pytest.raises(ValueError):
            q0_after_loss([1.0], -0.1)


def brute_force_click(p, M, eta, dark, pattern):
    """Exact pattern probability by enumerating photon routings."""
    total = 0.0
    for n, pn in enumerate(p):
        if pn == 0.0:
            continue
        for routing in itertools.product(range(M), repeat=n):
            counts = [0] * M
            for channel in routing:
                counts[channel] += 1
            prob = 1.0
            for i in range(M):
                silent = (1.0 - dark) * (1.0 - eta) ** counts[i]
                prob *= (1.0 - silent) if pattern[i] else silent
            total += pn * prob / M**n
    return total


class TestClickStatistics:
    def test_vacuum_all_silent(self):
        for M in (1, 2, 4):
            assert abs(click_statistics([1.0], M, 0.8, 0.1, 0) - (1.0 - 0.1) ** M) < 1e-12

    def test_single_photon_balanced_pair(self):
        # |1> on a balanced two-channel splitter: a specific detector clicks
        # (and the other stays silent) with probability 1/2
        value = click_statistics([0.0, 1.0], 2, 1.0, 0.0, 1)
        assert abs(value - 0.5) < 1e-12

    def test_no_dark_counts_no_photons_no_clicks(self):
        for m in (1, 2):
            assert click_statistics([1.0], 2, 0.9, 0.0, m) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_routing_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        M = int(rng.integers(1, 4))
        p = rng.random(5)
        p /= p.sum()
        eta = rng.uniform(0.3, 1.0)
        dark = rng.uniform(0.0, 0.3)
        for m in range(M + 1):
            pattern = [1] * m + [0] * (M - m)
            expected = brute_force_click(p, M, eta, dark, pattern)
            assert abs(click_statistics(p, M, eta, dark, m) - expected) < 1e-10

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_patterns_sum_to_one(self, M):
        rng = np.random.default_rng(M)
        p = rng.random(7)
        p /= p.sum()
        total = sum(
            math.comb(M, m) * click_statistics(p, M, 0.77, 0.05, m) for m in range(M + 1)
        )
        assert abs(total - 1.0) < 1e-9

    def test_multiplicity_out_of_range(self):
        with pytest.raises(ValueError):
            click_statistics([1.0], 2, 1.0, 0.0, 3)


class TestStateFiles:
    def test_vector_round_trip(self):
        vec = cat(1.5, "odd")
        parsed = state_from_json(state_to_json(vec))
        assert isinstance(parsed, FockVector)
        assert np.array_equal(parsed.amplitudes, vec.amplitudes)
        assert parsed.tail_bound == vec.tail_bound

    def test_density_round_trip(self):
        rho = lossy_cat(1.2, 0.8)
        parsed = state_from_json(state_to_json(rho))
        assert isinstance(parsed, FockDensity)
        assert np.max(np.abs(parsed.matrix - rho.matrix)) == 0.0

    def test_probabilities_round_trip(self):
        p = np.array([0.5, 0.25, 0.25])
        parsed = state_from_json(state_to_json(p))
        assert np.array_equal(parsed, p)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            state_from_json({"kind": "wigner", "data": []})

    def test_density_validation_rejects_negative(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            FockDensity(bad)

    @pytest.mark.parametrize(
        "matrix",
        [np.full((2, 2), math.nan), np.diag([0.5, math.nan]), [[0.5, math.inf], [math.inf, 0.5]]],
        ids=["all-nan", "nan-diagonal", "inf-off-diagonal"],
    )
    def test_density_validation_rejects_non_finite(self, matrix):
        # every comparison of the Hermitian and PSD checks with a NaN is False
        with pytest.raises(ValueError, match="must be finite"):
            FockDensity(matrix)

    @pytest.mark.parametrize(
        "obj, message",
        [([1, 2], "a state must be a JSON object, got [1, 2]"),
         (None, "a state must be a JSON object, got None"),
         ({"kind": "fock_vector", "data": [[math.nan, 0.0], [1.0, 0.0]]},
          "fock_vector amplitude must be a finite number, got nan"),
         ({"kind": "fock_vector", "data": [[1.0, math.inf]]}, "fock_vector amplitude must be a finite number, got inf"),
         ({"kind": "density", "data": [[[1.0, 0.0]]], "tail_bound": "0"}, "tail_bound must be a finite number")],
    )
    def test_entries_checked_where_they_are_read(self, obj, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            state_from_json(obj)
