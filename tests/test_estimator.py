import math

import numpy as np
import pytest

from stellarwitness.boundary import BoundaryCurve, BoundaryPoint, certify_pair
from stellarwitness.estimator import StellarRankCertifier, check_pair_array


class TestProtocol:
    def test_get_params_round_trip(self):
        est = StellarRankCertifier(j=1, k=3, max_rank=2, seed=42)
        params = est.get_params()
        clone = StellarRankCertifier(**params)
        assert clone.get_params() == params

    def test_set_params_chains(self):
        est = StellarRankCertifier()
        assert est.set_params(seed=9, n_omegas=8) is est
        assert est.seed == 9 and est.n_omegas == 8

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            StellarRankCertifier().set_params(gamma=0.1)

    def test_init_does_not_compute(self):
        est = StellarRankCertifier(max_rank=3)
        assert not hasattr(est, "curves_")

    def test_predict_requires_fit(self):
        with pytest.raises(ValueError, match="not fitted"):
            StellarRankCertifier().predict([[0.1, 0.9]])


class TestValidation:
    def test_accepts_single_pair(self):
        out = check_pair_array([0.2, 0.3])
        assert out.shape == (1, 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            check_pair_array(np.zeros((3, 3)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_pair_array([[0.5, 1.5]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            check_pair_array([[np.nan, 0.1]])


@pytest.fixture(scope="module")
def fitted():
    est = StellarRankCertifier(
        family="fock_pair", j=0, k=2, max_rank=2, n_omegas=12, starts=8,
        max_iterations=300, seed=5,
    )
    return est.fit()

class TestFitPredict:
    def test_fit_builds_curves(self, fitted):
        assert len(fitted.curves_) == 2
        assert [c.rank for c in fitted.curves_] == [1, 2]

    def test_fit_records_sweep_repairs(self, fitted):
        assert fitted.repairs_ == {"rerun": [], "unresolved": []}
        cat = StellarRankCertifier(
            family="cat_pair", beta=2.0, max_rank=1, n_omegas=8, starts=8,
            max_iterations=300, seed=202,
        ).fit()
        (repair,) = cat.repairs_["rerun"]
        assert repair["rank"] == 1 and repair["after"] > repair["before"]
        assert cat.repairs_["unresolved"] == []

    def test_predict_two_photon_point(self, fitted):
        ranks = fitted.predict([[0.0, 1.0], [1.0, 0.0], [0.25, 0.1]])
        assert list(ranks) == [2, 0, 0]

    def test_decision_function_shape_and_sign(self, fitted):
        values = fitted.decision_function([[0.0, 1.0], [1.0, 0.0]])
        assert values.shape == (2, 2)
        assert values[0, 0] > 0  # certified direction exists at rank 1
        assert values[1, 0] <= 1e-9

    def test_separating_witness(self, fitted):
        rank, omega, threshold = fitted.separating_witness([0.0, 1.0])
        assert rank == 2
        value = np.cos(omega) * 0.0 + np.sin(omega) * 1.0
        assert value > threshold

    def test_separating_witness_rejects_interior(self, fitted):
        with pytest.raises(ValueError):
            fitted.separating_witness([0.4, 0.1])

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            StellarRankCertifier(family="gkp").fit()

    @pytest.mark.parametrize(
        "params, field",
        [({"j": -1}, "j"), ({"j": 1.7}, "j"), ({"k": True}, "k"), ({"j": 2}, "j"),
         ({"family": "cat_pair", "beta": 0.0}, "beta"),
         ({"family": "cat_pair", "beta": complex(math.nan, 1.0)}, "beta")],
    )
    def test_bad_family_fields_rejected(self, params, field):
        with pytest.raises(ValueError, match=field):
            StellarRankCertifier(**params).fit()

    def test_refit_same_seed_is_deterministic(self, fitted):
        twin = StellarRankCertifier(**fitted.get_params()).fit()
        for a, b in zip(twin.curves_, fitted.curves_):
            assert a.points == b.points
            assert a.hull == b.hull


def seeded_pairs(seed, count):
    """Uniform pairs folded into the simplex p_first + p_second <= 1."""
    u = np.random.default_rng(seed).random((count, 2))
    folded = u.sum(axis=1) > 1.0
    u[folded] = 1.0 - u[folded]
    return np.vstack([u, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]])


class TestSeparationKernel:
    def test_predict_matches_per_row_certify_pair(self, fitted):
        X = seeded_pairs(31, 300)
        expected = [certify_pair((x, y), fitted.curves_, fitted.margin) for x, y in X]
        ranks = fitted.predict(X)
        assert ranks.dtype.kind == "i"
        assert ranks.tolist() == expected

    def test_decision_function_byte_equal_to_reference_loop(self, fitted):
        X = seeded_pairs(32, 300)
        expected = np.empty((len(X), len(fitted.curves_)))
        for i, (x, y) in enumerate(X):
            for j, curve in enumerate(fitted.curves_):
                best = -math.inf
                for point in curve.points:
                    if not (point.flagged or point.is_corner):
                        value = math.cos(point.omega) * x + math.sin(point.omega) * y
                        best = max(best, value - point.threshold)
                expected[i, j] = best
        assert fitted.decision_function(X).tobytes() == expected.tobytes()

    def test_all_flagged_curve_scores_minus_infinity(self, fitted):
        flagged = tuple(
            BoundaryPoint(p.omega, math.nan, math.nan, math.nan, True)
            for p in fitted.curves_[1].points
            if not p.is_corner
        )
        est = StellarRankCertifier(max_rank=2)
        est.curves_ = [
            fitted.curves_[0],
            BoundaryCurve.from_points(2, fitted.family_, flagged),
        ]
        values = est.decision_function([[0.0, 1.0], [0.2, 0.2]])
        assert np.all(values[:, 1] == -np.inf)
        assert np.array_equal(values[:, 0], fitted.decision_function([[0.0, 1.0], [0.2, 0.2]])[:, 0])
        assert est.predict([[0.0, 1.0]]).tolist() == [1]
        assert est.separating_witness([0.0, 1.0])[0] == 1

    @pytest.mark.parametrize("margin", [math.nan, math.inf])
    def test_non_finite_margin_rejected(self, fitted, margin):
        est = StellarRankCertifier(margin=margin)
        est.curves_ = fitted.curves_
        with pytest.raises(ValueError, match="margin"):
            est.predict([[0.0, 1.0]])
        with pytest.raises(ValueError, match="margin"):
            est.separating_witness([0.0, 1.0])
