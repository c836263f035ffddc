import math

import numpy as np
import pytest

from stellarwitness.boundary import (
    BoundaryCurve,
    BoundaryPoint,
    certify_pair,
    certify_pairs,
    curves_from_csv,
    curves_to_csv,
    family_witness,
    gift_wrap,
    hull_contains,
    hull_to_json,
    repair_log,
    separations,
    signed_area,
    sweep_family,
    sweep_family_ranks,
    tangent_witness,
)
from stellarwitness.errors import DegenerateWitnessError
from stellarwitness.threshold import OptimizerConfig
from stellarwitness.validation import brute_force_hull

FAST = OptimizerConfig(starts=10, max_iterations=350, seed=3)
FOCK02 = {"type": "fock_pair", "j": 0, "k": 2}
FOCK12 = {"type": "fock_pair", "j": 1, "k": 2}


def grid(count):
    return [2.0 * math.pi * i / count for i in range(count)]


def reference_separation(curve, pair):
    """Per-point support test: best (value - threshold, omega, threshold),
    the first maximum winning ties."""
    best = (-math.inf, math.nan, math.nan)
    for point in curve.points:
        if point.flagged or point.is_corner:
            continue
        sep = math.cos(point.omega) * pair[0] + math.sin(point.omega) * pair[1] - point.threshold
        if sep > best[0]:
            best = (sep, point.omega, point.threshold)
    return best


def hand_curve(rank, rows, flagged=False):
    """A curve from (omega, threshold) rows plus the closure corner."""
    points = tuple(BoundaryPoint(w, 0.5, 0.5, t, flagged) for w, t in rows)
    corner = BoundaryPoint(math.nan, 0.0, 0.0, math.nan, False)
    return BoundaryCurve(rank=rank, family=FOCK02, points=points + (corner,))


class TestGiftWrap:
    def test_triangle(self):
        hull = gift_wrap([(0, 0), (1, 0), (0, 1)])
        assert sorted(hull) == [0, 1, 2]
        vertices = [(0, 0), (1, 0), (0, 1)]
        assert signed_area([vertices[i] for i in hull]) > 0  # counterclockwise

    def test_collinear_keeps_endpoints(self):
        assert sorted(gift_wrap([(0, 0), (1, 0), (2, 0)])) == [0, 2]

    def test_single_point(self):
        assert gift_wrap([(0.3, 0.4)]) == [0]

    def test_duplicates_do_not_loop(self):
        hull = gift_wrap([(0, 0), (0, 0), (1, 0), (1, 1), (1, 1)])
        got = {(0, 0), (1, 0), (1, 1)}
        assert {((0, 0), (0, 0), (1, 0), (1, 1), (1, 1))[i] for i in hull} == got

    def test_interior_point_excluded(self):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)]
        assert sorted(gift_wrap(pts)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pts = [tuple(rng.random(2)) for _ in range(int(rng.integers(3, 50)))]
        assert set(gift_wrap(pts)) == brute_force_hull(pts)

    def test_containment_of_random_cloud(self):
        rng = np.random.default_rng(99)
        pts = [tuple(rng.normal(size=2)) for _ in range(200)]
        hull = gift_wrap(pts)
        vertices = [pts[i] for i in hull]
        assert signed_area(vertices) > 0
        for p in pts:
            assert hull_contains(vertices, p, slack=1e-9)


class TestBruteForceHull:
    """The reference hull of the `hull` suite: every ordered pair (i, j) of
    first copies with all other points on its left or on its segment is an
    edge, which is `gift_wrap`'s convention for exact duplicates and exactly
    collinear points."""

    def test_edge_midpoint_and_interior_dropped(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)]
        assert brute_force_hull(pts) == {0, 1, 2, 3} == set(gift_wrap(pts))

    def test_collinear_points_keep_their_extremes(self):
        pts = [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert brute_force_hull(pts) == {0, 3} == set(gift_wrap(pts))

    def test_duplicated_corner_keeps_its_first_copy(self):
        pts = [(0, 0), (2, 0), (0, 2), (0, 0), (0.5, 0.5)]
        assert brute_force_hull(pts) == {0, 1, 2} == set(gift_wrap(pts))

    @pytest.mark.parametrize(
        "pts",
        [
            [(0, 0), (2, 0), (0, 2), (0.5, 0.5), (0.5, 0.5)],  # a repeated interior point
            [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0)],  # the midpoint of a square's edge
        ],
        ids=["repeated-interior", "edge-midpoint"],
    )
    def test_agrees_with_gift_wrap_on_degenerate_input(self, pts):
        assert brute_force_hull(pts) == set(gift_wrap(pts))

    def test_one_and_no_points(self):
        assert brute_force_hull([(0.3, 0.4)]) == {0}
        assert brute_force_hull([(0.3, 0.4)] * 3) == {0}
        assert brute_force_hull([]) == set()

    @staticmethod
    def loop_hull(points):
        """The one-pair-at-a-time reference."""
        vertices = set()
        for i, (ax, ay) in enumerate(points):
            for j, (bx, by) in enumerate(points):
                if i == j or (ax, ay) in points[:i] or (bx, by) in points[:j]:
                    continue
                ok = True
                for kx, ky in points:
                    cross = (bx - ax) * (ky - ay) - (by - ay) * (kx - ax)
                    along = (bx - ax) * (kx - ax) + (by - ay) * (ky - ay)
                    length = (bx - ax) * (bx - ax) + (by - ay) * (by - ay)
                    ok = ok and (cross > 0 or (cross == 0 and 0 <= along <= length))
                if ok:
                    vertices.update((i, j))
        return vertices

    def test_matches_loop_reference(self):
        # the same float64 operations, so the same vertex sets exactly; grid
        # points bring duplicates and collinear runs, where gift_wrap agrees too
        rng = np.random.default_rng(4242)
        for trial in range(60):
            count = int(rng.integers(2, 30))
            if trial % 2:
                pts = [tuple(rng.integers(0, 4, 2) / 3.0) for _ in range(count)]
            else:
                pts = [tuple(rng.normal(size=2)) for _ in range(count)]
            assert brute_force_hull(pts) == self.loop_hull(pts) == set(gift_wrap(pts)), pts


@pytest.fixture(scope="module")
def fock02_curves():
    return sweep_family_ranks(FOCK02, [1, 2, 3], grid(16), FAST)


class TestSweep:
    def test_vacuum_direction_point(self, fock02_curves):
        curve = fock02_curves[0]
        point = curve.points[0]
        assert point.omega == 0.0
        assert abs(point.p_first - 1.0) < 1e-6
        assert point.p_second < 1e-6
        assert abs(point.threshold - 1.0) < 1e-6

    def test_probability_normalization(self):
        curve = sweep_family(FOCK12, 1, grid(8), FAST)
        for point in curve.points:
            if point.is_corner:
                continue
            assert point.p_first + point.p_second <= 1.0 + 1e-9

    def test_every_point_inside_own_hull(self, fock02_curves):
        for curve in fock02_curves:
            vertices = curve.hull_vertices()
            for point in curve.points:
                if point.flagged:
                    continue
                assert hull_contains(vertices, (point.p_first, point.p_second), 1e-9)

    def test_thresholds_monotone_in_rank(self, fock02_curves):
        c1, c2, c3 = fock02_curves
        for p1, p2, p3 in zip(c1.points, c2.points, c3.points):
            if p1.is_corner:
                continue
            assert p1.threshold <= p2.threshold + 1e-7
            assert p2.threshold <= p3.threshold + 1e-7

    def test_hull_vertices_nested_in_higher_region(self, fock02_curves):
        # nesting of achievable regions: every lower-rank hull vertex satisfies
        # the higher rank's support inequalities (the vertex hull only samples
        # the region, so containment is tested against the support lines)
        for low, high in zip(fock02_curves, fock02_curves[1:]):
            sep, _, _ = separations([high], low.hull_vertices())
            assert (sep <= 1e-6).all()

    def test_certified_sets_nested(self, fock02_curves):
        rng = np.random.default_rng(8)
        for _ in range(40):
            pair = (rng.uniform(0, 1), rng.uniform(0, 1))
            flags = [
                certify_pair(pair, fock02_curves[: i + 1], margin=1e-4) > i
                for i in range(3)
            ]
            # certified at rank n+1 implies certified at rank n
            for lower, higher in zip(flags, flags[1:]):
                assert lower or not higher

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_family(FOCK02, 1, [], FAST)

    def test_single_omega_no_crash(self):
        curve = sweep_family(FOCK02, 1, [0.0], FAST)
        assert len(curve.hull) >= 1


class TestThresholdCalls:
    """The benchmark counts and times a sweep's thresholds by replacing the
    module global `threshold.compute_threshold` and reading each call's
    witness descriptor; a sweep must keep calling it through that name."""

    def test_one_call_per_point_and_rerun(self, monkeypatch):
        from stellarwitness import threshold

        calls = []
        original = threshold.compute_threshold

        def probed(witness_op, n, *args, **kwargs):
            calls.append((witness_op.descriptor["omega"], n))
            return original(witness_op, n, *args, **kwargs)

        monkeypatch.setattr(threshold, "compute_threshold", probed)
        omegas = [math.pi / 2, 3 * math.pi / 4]
        config = OptimizerConfig(starts=8, max_iterations=300, seed=202)
        curves = sweep_family_ranks({"type": "cat_pair", "beta": 2.0}, [1, 2], omegas, config)
        reruns = sum(len(curve.repairs) for curve in curves)
        assert reruns > 0
        assert len(calls) == len(omegas) * 2 + reruns
        assert set(calls) == {(omega, n) for omega in omegas for n in (1, 2)}


class TestRepair:
    # the acceptance sweep's search settings, at three directions where its
    # searches stop short of what a neighbouring direction attains
    CAT = {"type": "cat_pair", "beta": [2.0, 0.0]}
    OMEGAS = [2.0 * math.pi * i / 64 for i in (29, 30, 31)]
    CONFIG = OptimizerConfig(starts=12, max_iterations=350, seed=202)

    @pytest.fixture(scope="class")
    def cat_curves(self):
        return sweep_family_ranks(self.CAT, [1, 2], self.OMEGAS, self.CONFIG)

    def test_repairs_only_raise_thresholds(self, cat_curves):
        repairs = cat_curves[0].repairs
        assert repairs
        final = {p.omega: p.threshold for p in cat_curves[0].points}
        for repair in repairs:
            assert repair.after >= repair.before
        for omega in {repair.omega for repair in repairs}:
            assert final[omega] == [r.after for r in repairs if r.omega == omega][-1]

    def test_repaired_sweep_passes_its_audit(self, cat_curves):
        for j, curve in enumerate(cat_curves):
            assert not any(p.flagged for p in curve.points)
            pairs = [
                (p.p_first, p.p_second) for c in cat_curves[: j + 1] for p in c.points if not p.is_corner
            ]
            sep, _, threshold = separations([curve], pairs)
            assert np.all(sep[:, 0] <= 1e-9 * (1.0 + np.abs(threshold[:, 0])))

    def test_log_lists_every_repair(self, cat_curves):
        log = repair_log(cat_curves)
        assert log["unresolved"] == []
        assert [(e["omega"], e["rank"], e["before"], e["after"]) for e in log["rerun"]] == [
            (r.omega, c.rank, r.before, r.after) for c in cat_curves for r in c.repairs
        ]

    def test_fock_sweep_needs_no_repair(self, fock02_curves):
        assert repair_log(fock02_curves) == {"rerun": [], "unresolved": []}


class TestCertify:
    def test_two_photon_state_pair(self, fock02_curves):
        # (p0, p2) = (0, 1) pins stellar rank exactly 2
        assert certify_pair((0.0, 1.0), fock02_curves, margin=1e-4) == 2

    def test_vacuum_pair_not_certified(self, fock02_curves):
        assert certify_pair((1.0, 0.0), fock02_curves, margin=1e-4) == 0

    def test_interior_pair(self, fock02_curves):
        assert certify_pair((0.3, 0.1), fock02_curves, margin=1e-4) == 0

    def test_tangent_witness_for_certified_pair(self, fock02_curves):
        omega, threshold = tangent_witness(fock02_curves[1], (0.0, 1.0))
        value = math.cos(omega) * 0.0 + math.sin(omega) * 1.0
        assert value > threshold
        assert abs(omega - math.pi / 2) < 0.8  # weight concentrated on p2

    def test_tangent_witness_rejects_uncertified(self, fock02_curves):
        with pytest.raises(ValueError):
            tangent_witness(fock02_curves[0], (1.0, 0.0))

    def test_certify_iff_tangent(self, fock02_curves):
        rng = np.random.default_rng(1)
        for _ in range(25):
            pair = (rng.uniform(0, 1), rng.uniform(0, 1))
            certified = certify_pair(pair, fock02_curves, margin=0.0)
            for curve in fock02_curves:
                try:
                    tangent_witness(curve, pair, margin=0.0)
                    separable = True
                except ValueError:
                    separable = False
                assert separable == (certified >= curve.rank)

    def test_kernel_matches_per_point_reference(self, fock02_curves):
        rng = np.random.default_rng(21)
        pairs = rng.random((200, 2))
        sep, omega, threshold = separations(fock02_curves, pairs)
        assert sep.shape == omega.shape == threshold.shape == (200, 3)
        for i, pair in enumerate(pairs):
            for j, curve in enumerate(fock02_curves):
                expected = reference_separation(curve, pair)
                assert (sep[i, j], omega[i, j], threshold[i, j]) == expected

    def test_all_flagged_curve_certifies_nothing(self):
        curve = hand_curve(1, [(0.0, math.nan), (1.0, math.nan)], flagged=True)
        assert certify_pair((0.0, 1.0), [curve], margin=0.0) == 0
        with pytest.raises(ValueError):
            tangent_witness(curve, (0.0, 1.0))
        sep, omega, threshold = separations([curve], [(0.0, 1.0)])
        assert sep[0, 0] == -math.inf
        assert math.isnan(omega[0, 0]) and math.isnan(threshold[0, 0])

    @pytest.mark.parametrize("first", [0.5, -0.5])
    def test_tie_returns_earlier_omega(self, first):
        # cos(w) x + sin(w) y - t is equal at w = +-0.5 for the pair (x, 0)
        curve = hand_curve(1, [(first, 0.2), (-first, 0.2), (2.0, 0.2)])
        pair = (1.0, 0.0)
        seps = {math.cos(w) * 1.0 + math.sin(w) * 0.0 - 0.2 for w in (first, -first)}
        assert len(seps) == 1
        assert tangent_witness(curve, pair) == (first, 0.2)
        ranks, omega, threshold = certify_pairs([pair], [curve], margin=1e-4)
        assert (ranks[0], omega[0], threshold[0]) == (1, first, 0.2)

    def test_nan_pair_certifies_nothing(self, fock02_curves):
        assert certify_pair((math.nan, 0.5), fock02_curves) == 0
        sep, omega, _ = separations(fock02_curves, [(math.nan, 0.5)])
        assert np.all(sep == -np.inf) and np.all(np.isnan(omega))

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf, -1e-4])
    def test_bad_margin_rejected(self, fock02_curves, margin):
        with pytest.raises(ValueError, match="margin"):
            certify_pair((0.0, 1.0), fock02_curves, margin=margin)

    def test_non_consecutive_ranks_rejected(self, fock02_curves):
        with pytest.raises(ValueError):
            certify_pair((0.5, 0.5), [fock02_curves[0], fock02_curves[2]])

    def test_inconsistent_thresholds_rejected(self):
        def curve(rank, thresholds):
            points = tuple(
                BoundaryPoint(w, 0.5, 0.5, t, False)
                for w, t in zip((0.0, 1.0), thresholds)
            )
            return BoundaryCurve(rank=rank, family=FOCK02, points=points, hull=(0, 1))

        bad = [curve(1, (0.9, 0.9)), curve(2, (0.5, 0.9))]
        with pytest.raises(ValueError):
            certify_pair((0.1, 0.1), bad)


class TestFamilies:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_witness({"type": "quadrature_pair"}, 0.1)

    def test_cat_family_instantiates(self):
        w = family_witness({"type": "cat_pair", "beta": [2.0, 0.0]}, 0.3)
        assert not w.phase_invariant

    BAD_FAMILIES = [
        ({"type": "fock_pair", "j": 1.7, "k": 2}, ValueError, "j must be"),
        ({"type": "fock_pair", "j": -1, "k": 2}, ValueError, "j must be"),
        ({"type": "fock_pair", "j": True, "k": 2}, ValueError, "j must be"),
        ({"type": "fock_pair", "j": 1}, ValueError, "k must be"),
        ({"type": "fock_pair", "j": 2, "k": 2}, DegenerateWitnessError, "j != k"),
        ({"type": "cat_pair", "beta": [math.nan, 0.0]}, ValueError, "beta must be finite"),
        ({"type": "cat_pair", "beta": "2"}, ValueError, "beta must be a number"),
        ({"type": "cat_pair", "beta": 0.0}, DegenerateWitnessError, "beta != 0"),
    ]

    @pytest.mark.parametrize("family, error, message", BAD_FAMILIES)
    def test_family_witness_checks_fields(self, family, error, message):
        with pytest.raises(error, match=message):
            family_witness(family, 0.3)

    @pytest.mark.parametrize("family, error, message", BAD_FAMILIES)
    def test_sweep_checks_fields_before_searching(self, family, error, message, monkeypatch):
        from stellarwitness import boundary

        def no_search(*args):
            raise AssertionError("searched a malformed family")

        monkeypatch.setattr(boundary, "compute_thresholds", no_search)
        with pytest.raises(error, match=message):
            sweep_family_ranks(family, [1], grid(4), FAST)

    def test_sweep_checks_the_family_once(self, monkeypatch):
        from stellarwitness import boundary

        calls = []
        checked = boundary.family_descriptor
        monkeypatch.setattr(boundary, "family_descriptor", lambda f: calls.append(f) or checked(f))
        family = {"type": "cat_pair", "beta": [2.0, 0.0]}
        (curve,) = sweep_family_ranks(family, [1], grid(4), FAST)
        assert calls == [family]
        assert curve.family == family

    def test_small_beta_cat_family_certifies_single_photon(self):
        # |1> against the beta -> 0 cat family recovers the vacuum/one-photon
        # non-Gaussianity certification
        from stellarwitness.states import FockVector, cat
        from stellarwitness.witness import expectation, cat_pair_witness
        import numpy as np

        family = {"type": "cat_pair", "beta": [0.01, 0.0]}
        curve = sweep_family(family, 1, grid(16), FAST)
        one = FockVector(np.eye(8)[1])
        pair = (
            expectation(cat_pair_witness(0.01, 0.0), one),
            expectation(cat_pair_witness(0.01, math.pi / 2), one),
        )
        assert certify_pair((pair[0], pair[1]), [curve], margin=1e-4) == 1


class TestFiles:
    def test_csv_round_trip(self, fock02_curves):
        text = curves_to_csv(fock02_curves)
        parsed = curves_from_csv(text, FOCK02)
        assert curves_to_csv(parsed) == text
        for pair in [(0.0, 1.0), (1.0, 0.0), (0.2, 0.2)]:
            assert certify_pair(pair, parsed, 1e-4) == certify_pair(pair, fock02_curves, 1e-4)

    def test_hull_json_shape(self, fock02_curves):
        payload = hull_to_json(fock02_curves[0])
        assert payload["rank"] == 1
        assert all(len(v) == 2 for v in payload["vertices"])

    def test_malformed_csv_rejected(self):
        with pytest.raises(ValueError):
            curves_from_csv("not,a,header\n", FOCK02)
