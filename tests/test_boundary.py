import math
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stellarwitness.boundary import (
    BoundaryCurve,
    BoundaryPoint,
    _check_consistency,
    certify_pair,
    certify_pairs,
    curves_from_csv,
    curves_to_csv,
    family_witness,
    gift_wrap,
    hull_contains,
    hull_to_json,
    omega_grid,
    repair_log,
    separations,
    signed_area,
    sweep_family_ranks,
    tangent_witness,
)
from stellarwitness._util import dumps_stable, fmt17
from stellarwitness.cli import main
from stellarwitness import boundary
from stellarwitness.errors import DegenerateWitnessError, OptimizerError
from stellarwitness.estimator import StellarRankCertifier
from stellarwitness.threshold import MONOTONICITY_SLACK, OptimizerConfig
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
    return BoundaryCurve.from_points(rank, FOCK02, points + (corner,))


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
        (curve,) = sweep_family_ranks(FOCK12, [1], grid(8), FAST)
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
            sweep_family_ranks(FOCK02, [1], [], FAST)

    def test_single_omega_no_crash(self):
        (curve,) = sweep_family_ranks(FOCK02, [1], [0.0], FAST)
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


class TestSweepState:
    """A sweep keeps each swept value once, in arrays over (omega, rank), and
    builds every curve straight from their columns."""

    CAT = {"type": "cat_pair", "beta": 2.0}
    OMEGAS = [math.pi / 2, 3 * math.pi / 4, math.pi]  # the last direction's search fails
    CONFIG = OptimizerConfig(starts=8, max_iterations=300, seed=202)

    def sweep(self, monkeypatch, passes):
        original = boundary.compute_thresholds

        def failing(witness_op, ranks, config):
            if witness_op.descriptor["omega"] == math.pi:
                raise OptimizerError("forced failure")
            return original(witness_op, ranks, config)

        monkeypatch.setattr(boundary, "compute_thresholds", failing)
        monkeypatch.setattr(boundary, "_REPAIR_PASSES", passes)
        return sweep_family_ranks(self.CAT, [1, 2], self.OMEGAS, self.CONFIG)

    @pytest.mark.parametrize("passes", [0, 4], ids=["unresolved", "repaired"])
    def test_sweep_builds_no_rows(self, monkeypatch, passes):
        def refuse(*args, **kwargs):
            raise AssertionError("built or replaced a point row")

        for owner, name in ((BoundaryPoint, "__new__"), (BoundaryPoint, "_replace")):
            monkeypatch.setattr(owner, name, refuse)
        monkeypatch.setattr(BoundaryCurve, "from_points", classmethod(refuse))
        curves = self.sweep(monkeypatch, passes)
        log = repair_log(curves)
        assert log["unresolved"] if passes == 0 else log["rerun"] and not log["unresolved"]
        for curve in curves:
            assert "points" not in curve.__dict__
            assert curve.flagged[2] and all(math.isnan(c[2]) for c in (curve.p_first, curve.threshold))
            assert (curve.p_first[-1], curve.p_second[-1], curve.flagged[-1]) == (0.0, 0.0, False)
            assert math.isnan(curve.omega[-1]) and math.isnan(curve.threshold[-1])

    def test_identical_sweeps_are_equal(self, monkeypatch):
        # each sweep makes its own NaN objects where a search failed
        first, second = (self.sweep(monkeypatch, 4) for _ in range(2))
        assert first[0].threshold[2] is not second[0].threshold[2]
        assert first == second


class TestRepair:
    # the acceptance sweep's search settings, at three directions where its
    # searches stop short of what a neighbouring direction attains
    CAT = {"type": "cat_pair", "beta": [2.0, 0.0]}
    OMEGAS = [2.0 * math.pi * i / 64 for i in (29, 30, 31)]
    CONFIG = OptimizerConfig(starts=12, max_iterations=350, seed=202)

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


@pytest.fixture(scope="module")
def cat_curves():
    return sweep_family_ranks(TestRepair.CAT, [1, 2], TestRepair.OMEGAS, TestRepair.CONFIG)


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
            return BoundaryCurve.from_points(rank, FOCK02, points, hull=(0, 1))

        bad = [curve(1, (0.9, 0.9)), curve(2, (0.5, 0.9))]
        with pytest.raises(ValueError):
            certify_pair((0.1, 0.1), bad)


class TestOmegaGrid:
    @pytest.mark.parametrize("count", [1, 7, 64, 256])
    def test_bits_of_the_cli_and_certifier_grids(self, count):
        # the expressions the CLI (math.pi) and the certifier (np.pi) used
        grid = omega_grid(count)
        assert grid == [2.0 * math.pi * i / count for i in range(count)]
        assert grid == [2.0 * np.pi * i / count for i in range(count)]

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_grid_refused(self, count):
        with pytest.raises(ValueError, match=f"the omega count must be >= 1, got {count}"):
            omega_grid(count)


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
        ({"type": "cat_pair", "beta": [math.nan, 0.0]}, ValueError, "beta must be a finite number"),
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
        (curve,) = sweep_family_ranks(family, [1], grid(16), FAST)
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


# ---------------------------------------------------------------------------
# Certification against the point-walking code that the curve columns and
# the column-wise reader replaced: equal bits, equal errors.
# ---------------------------------------------------------------------------

CERTIFY_DIR = Path(__file__).resolve().parents[1] / "bench" / "data" / "certify"


def reference_separations(curves, pairs):
    """Separations with each curve's arrays rebuilt from its points."""
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    best, best_omega, best_threshold = (np.empty((len(pairs), len(curves))) for _ in range(3))
    for j, curve in enumerate(curves):
        omega, _, _, threshold, flagged = tuple(zip(*curve.points)) or ((),) * 5
        usable = ~np.array(flagged, dtype=bool) & ~np.isnan(omega)
        omega = np.append(np.nan, np.array(omega)[usable])
        threshold = np.append(np.nan, np.array(threshold)[usable])
        cos, sin = np.cos(omega), np.sin(omega)
        for start in range(0, len(pairs), 32):
            rows = slice(start, start + 32)
            sep = np.fmax(cos * pairs[rows, :1] + sin * pairs[rows, 1:] - threshold, -np.inf)
            first = sep.argmax(axis=1)
            best[rows, j] = sep[np.arange(len(sep)), first]
            best_omega[rows, j] = omega[first]
            best_threshold[rows, j] = threshold[first]
    return best, best_omega, best_threshold


def reference_check_consistency(curves):
    """The nesting check by a dict of each higher curve's points."""
    ranks = [c.rank for c in curves]
    if ranks != sorted(ranks) or any(b - a != 1 for a, b in zip(ranks, ranks[1:])):
        raise ValueError(f"curves must cover consecutive ranks, got {ranks}")
    for low, high in zip(curves, curves[1:]):
        upper = {p.omega: p.threshold for p in high.points}
        for omega, _, _, threshold, flagged in low.points:
            if not flagged and upper.get(omega, math.nan) < threshold - MONOTONICITY_SLACK:
                raise ValueError(
                    "inconsistent hull nesting: threshold at rank "
                    f"{high.rank} below rank {low.rank} at omega={omega}"
                )


def reference_curves_from_csv(text, family):
    """The row-by-row reader, which takes any flag other than "1" as 0."""
    rows = text.strip().split("\n")
    if not rows or rows[0] != "omega,rank,p_first,p_second,threshold,on_hull,flagged":
        raise ValueError("boundary CSV must start with the standard header")
    by_rank = {}
    for line in rows[1:]:
        fields = line.split(",")
        if len(fields) != 7:
            raise ValueError(f"malformed boundary CSV row: {line!r}")
        rank = int(fields[1])
        point = BoundaryPoint(
            float(fields[0]), float(fields[2]), float(fields[3]), float(fields[4]), fields[6] == "1"
        )
        by_rank.setdefault(rank, ([], []))
        by_rank[rank][0].append(point)
        if fields[5] == "1":
            by_rank[rank][1].append(len(by_rank[rank][0]) - 1)
    return [
        BoundaryCurve.from_points(rank, dict(family), tuple(points), hull=tuple(hull))
        for rank, (points, hull) in sorted(by_rank.items())
    ]


def reference_certify(pair, curves, margin):
    """(certified rank, best omega and threshold on the rank's curve) from
    the reference separations."""
    reference_check_consistency(curves)
    sep, omega, threshold = reference_separations(curves, [pair])
    rank = max((c.rank for j, c in enumerate(curves) if sep[0, j] > margin), default=0)
    j = [c.rank for c in curves].index(rank) if rank else None
    return rank, (omega[0, j], threshold[0, j]) if rank else None


def outcome(function, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("returned", function(*args))
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return (type(error), str(error))


def point_record(curves):
    """Every field of every point with its type, floats as their bits."""
    return [
        (curve.rank, curve.family, curve.hull, type(point))
        + tuple((type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in point)
        for curve in curves
        for point in curve.points
    ]


def same_bits(got, expected):
    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, expected, strict=True)
    )


def certify_text():
    return (CERTIFY_DIR / "boundary.csv").read_text()


def fixture_pairs(count, seed):
    """Seeded pairs as the benchmark draws them, with NaN pairs, the corners
    of the simplex and the points of each curve among them."""
    u = np.random.default_rng(seed).random((count, 2))
    folded = u.sum(axis=1) > 1.0
    u[folded] = 1.0 - u[folded]
    special = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)]
    return np.vstack([u, special])


def hand_points(rows, corner=True):
    """Points from (omega, threshold, flagged) rows, then the closure corner."""
    points = [BoundaryPoint(w, 0.25, 0.5, t, f) for w, t, f in rows]
    return tuple(points + [BoundaryPoint(math.nan, 0.0, 0.0, math.nan, False)] * corner)


class TestAgainstPointReference:
    def test_fixture_reads_as_the_row_reader_does(self, cat_curves):
        for text, family in ((certify_text(), FOCK02), (curves_to_csv(cat_curves), TestRepair.CAT)):
            assert point_record(curves_from_csv(text, family)) == point_record(
                reference_curves_from_csv(text, family)
            )

    def test_columns_derived_once_asked(self):
        swept = sweep_family_ranks(FOCK02, [1], grid(2), OptimizerConfig(starts=2, max_iterations=20, seed=3))
        parsed = curves_from_csv(certify_text(), FOCK02)
        for curves in (swept, parsed):
            # neither a sweep nor the reader derives them
            assert not any("columns" in c.__dict__ for c in curves)
            certify_pair((0.05, 0.9), curves)
            kept = [c.__dict__["columns"] for c in curves]
            assert all(c.columns is columns for c, columns in zip(curves, kept, strict=True))

    def test_fixture_separations(self):
        text = certify_text()
        pairs = fixture_pairs(10_000, 5)
        expected = reference_separations(reference_curves_from_csv(text, FOCK02), pairs)
        assert same_bits(separations(curves_from_csv(text, FOCK02), pairs), expected)
        # curves without reader columns derive them from their points
        assert same_bits(separations(reference_curves_from_csv(text, FOCK02), pairs), expected)

    def test_sweep_separations(self, fock02_curves):
        pairs = fixture_pairs(2000, 6)
        expected = reference_separations(fock02_curves, pairs)
        assert same_bits(separations(fock02_curves, pairs), expected)
        parsed = curves_from_csv(curves_to_csv(fock02_curves), FOCK02)
        assert same_bits(separations(parsed, pairs), expected)

    def test_flagged_points_corners_and_nan_thresholds(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            size = int(rng.integers(0, 12))
            rows = [
                (float(w), float(t), bool(f))
                for w, t, f in zip(rng.uniform(0, 2 * math.pi, size), rng.uniform(0.2, 1.0, size),
                                   rng.random(size) < 0.3)
            ]
            rows = [(w, math.nan, True) if f and rng.random() < 0.5 else (w, t, f) for w, t, f in rows]
            curve = BoundaryCurve.from_points(1, FOCK02, hand_points(rows, rng.random() < 0.7))
            pairs = fixture_pairs(50, int(rng.integers(1000)))
            assert same_bits(separations([curve], pairs), reference_separations([curve], pairs))

    def test_infinite_omegas_never_separate(self):
        rows = [(0.5, 0.4, False), (math.inf, 0.1, False), (-math.inf, -5.0, False), (2.0, 0.3, False)]
        for curve in (
            BoundaryCurve.from_points(1, FOCK02, hand_points(rows)),
            BoundaryCurve.from_points(1, FOCK02, hand_points(rows[1:3])),
        ):
            pairs = fixture_pairs(200, 8)
            with np.errstate(invalid="ignore"):  # the reference takes cos(inf)
                expected = reference_separations([curve], pairs)
            assert same_bits(separations([curve], pairs), expected)

    @staticmethod
    def differing_directions():
        """Ranks 1-5 whose usable directions differ: the fixture grid (rank 3
        with a NaN threshold, sharing rank 1's directions), a point flagged
        at rank 2 only, a shorter curve and an all-flagged one."""
        low, middle, high = curves_from_csv(certify_text(), FOCK02)
        shifted = lambda delta: tuple(t + delta for t in high.threshold)
        return [
            low,
            replace(middle, flagged=tuple(i == 9 for i in range(len(middle.flagged)))),
            replace(high, threshold=high.threshold[:40] + (math.nan,) + high.threshold[41:]),
            BoundaryCurve(4, FOCK02, *(column[:100] for column in (
                high.omega, high.p_first, high.p_second, shifted(0.01), high.flagged))),
            replace(high, rank=5, threshold=shifted(0.02), flagged=(True,) * len(high.flagged)),
        ]

    @pytest.mark.parametrize("count", [0, 1, boundary._PAIR_BLOCK - 1, boundary._PAIR_BLOCK,
                                       boundary._PAIR_BLOCK + 1])
    def test_curves_with_differing_directions(self, count):
        curves = self.differing_directions()
        # rank 1 and 3 share one projection, 2, 4 and 5 each have their own
        assert len({(c.columns.cos.tobytes(), c.columns.sin.tobytes()) for c in curves}) == 4
        pairs = fixture_pairs(count, 12)[:count]
        expected = reference_separations(self.differing_directions(), pairs)
        assert same_bits(separations(curves, pairs), expected)
        certifier = StellarRankCertifier(max_rank=len(curves))
        certifier.family_, certifier.curves_ = FOCK02, curves
        assert same_bits([certifier.decision_function(pairs)], expected[:1])
        ranks = [max((c.rank for c, s in zip(curves, row) if s > certifier.margin), default=0)
                 for row in expected[0]]
        assert certifier.predict(pairs).tolist() == ranks

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (3, 3), (2, 1), (2, 2, 2), (0,), (1,), ()])
    def test_pairs_of_the_wrong_shape_refused(self, shape):
        curves = curves_from_csv(certify_text(), FOCK02)
        for call in (lambda p: separations(curves, p), lambda p: certify_pairs(p, curves)):
            with pytest.raises(ValueError, match=re.escape(f"with shape (n, 2), got {shape}")):
                call(np.full(shape, 0.25))

    def test_four_numbers_are_not_a_pair(self):
        curves = curves_from_csv(certify_text(), FOCK02)
        quad = (0.05, 0.9, 0.5, 0.5)
        with pytest.raises(ValueError, match=re.escape("got (1, 4)")):
            certify_pair(quad, curves)
        with pytest.raises(ValueError, match=re.escape("got (1, 4)")):
            tangent_witness(curves[1], quad)
        with pytest.raises(ValueError, match=re.escape("got (1, 4)")):
            separations(curves, [quad])
        assert same_bits(separations(curves, (0.05, 0.9)), separations(curves, [(0.05, 0.9)]))

    def test_certify_pair_and_tangent_on_parsed_curves(self):
        text = certify_text()
        reference = reference_curves_from_csv(text, FOCK02)
        for pair in fixture_pairs(300, 7):
            curves = curves_from_csv(text, FOCK02)
            rank, tangent = reference_certify(tuple(pair), reference, 1e-4)
            assert certify_pair(tuple(pair), curves, 1e-4) == rank
            if rank:
                got = tangent_witness(curves[rank - 1], tuple(pair), margin=1e-4)
                assert struct.pack("<2d", *got) == struct.pack("<2d", *tangent)

    # name: (rank-1 rows, rank-2 rows, whether the check raises)
    NESTINGS = {
        "consistent": ([(0.0, 0.5), (1.0, 0.5)], [(0.0, 0.6), (1.0, 0.6)], False),
        "first of two offending points": (
            [(0.0, 0.5), (1.0, 0.5), (2.0, 0.9)], [(0.0, 0.6), (1.0, 0.1), (2.0, 0.2)], True),
        "within slack": ([(1.0, 0.5)], [(1.0, 0.5 - 0.5 * MONOTONICITY_SLACK)], False),
        "last duplicate wins": ([(1.0, 0.5)], [(1.0, 0.1), (1.0, 0.7)], False),
        "last duplicate loses": ([(1.0, 0.5)], [(1.0, 0.7), (1.0, 0.1)], True),
        "second duplicate below": ([(1.0, 0.5), (1.0, 0.9)], [(1.0, 0.7)], True),
        "signed zero matches": ([(-0.0, 0.5)], [(0.0, 0.1)], True),
        "mismatched grids": ([(0.5, 0.9), (1.0, 0.5)], [(0.25, 0.1), (1.0, 0.7), (3.0, 0.0)], False),
        "infinite omegas": ([(math.inf, 0.5), (-math.inf, 0.5)], [(-math.inf, 0.1), (math.inf, 0.9)], True),
        "nan threshold above": ([(1.0, 0.5)], [(1.0, math.nan)], False),
        "nan omegas": ([(float("nan"), 0.5)], [(float("nan"), 0.1)], False),
        "empty above": ([(1.0, 0.5)], [], False),
    }

    @pytest.mark.parametrize("name", NESTINGS)
    def test_nesting_check(self, name):
        low, high, raises = self.NESTINGS[name]
        curves = [
            BoundaryCurve.from_points(1, FOCK02, hand_points([(w, t, False) for w, t in low])),
            BoundaryCurve.from_points(2, FOCK02, hand_points([(w, t, False) for w, t in high])),
        ]
        expected = outcome(reference_check_consistency, curves)
        assert outcome(_check_consistency, curves) == expected
        assert (expected[0] is ValueError) == raises

    def test_nesting_check_on_random_grids(self):
        # omegas from a small set, so grids repeat and mismatch; the first
        # offending point must be the one reported.  Grids of up to 63 points
        # have runs of equal omegas that an unstable sort would reorder.
        rng = np.random.default_rng(23)
        grid = [0.0, -0.0, 0.5, 1.0, math.inf, 2.0]
        for trial in range(400):
            curves = []
            for rank in (1, 2, 3):
                size = int(rng.integers(0, 8 if trial % 4 else 64))
                rows = [
                    (grid[int(rng.integers(len(grid)))], float(rng.choice([0.2, 0.5, 0.5, 0.8, math.nan])),
                     bool(rng.random() < 0.2))
                    for _ in range(size)
                ]
                curves.append(BoundaryCurve.from_points(rank, FOCK02, hand_points(rows)))
            assert outcome(_check_consistency, curves) == outcome(reference_check_consistency, curves)

    def test_nesting_check_on_flagged_points(self):
        low = BoundaryCurve.from_points(1, FOCK02, hand_points([(1.0, 0.9, True), (2.0, 0.5, False)]))
        high = BoundaryCurve.from_points(2, FOCK02, hand_points([(1.0, 0.1, False), (2.0, 0.4, True)]))
        assert outcome(_check_consistency, [low, high]) == outcome(reference_check_consistency, [low, high])
        assert outcome(_check_consistency, [low, high])[0] is ValueError  # a flagged point above still counts

    def test_non_consecutive_ranks(self, fock02_curves):
        curves = [fock02_curves[0], fock02_curves[2]]
        assert outcome(_check_consistency, curves) == outcome(reference_check_consistency, curves)

    def test_interleaved_ranks_read_in_file_order(self):
        header, *rows = certify_text().strip().split("\n")
        shuffled = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
        text = "\n".join([header, *shuffled]) + "\n"
        assert point_record(curves_from_csv(text, FOCK02)) == point_record(
            reference_curves_from_csv(text, FOCK02)
        )

    ROW = "0.5,1,0.25,0.5,0.75,1,0"
    MALFORMED = {
        "header": "omega,rank\n" + ROW,
        "empty": "",
        "six fields": f"{ROW}\n0.5,1,0.25,0.5,0.75,1",
        "eight fields": f"{ROW}\n{ROW},0",
        "blank line": f"{ROW}\n\n{ROW}",
        "rank not an integer": "0.5,1.0,0.25,0.5,0.75,1,0",
        "rank missing": "0.5,,0.25,0.5,0.75,1,0",
        "omega": "x,1,0.25,0.5,0.75,1,0",
        "p_first": "0.5,1,0.2.5,0.5,0.75,1,0",
        "p_second": "0.5,1,0.25,,0.75,1,0",
        "threshold": "0.5,1,0.25,0.5,inff,1,0",
        "rank before float": "x,y,0.25,0.5,0.75,1,0",
        "float before later field count": f"{ROW}\n0.5,1,x,0.5,0.75,1,0\n{ROW},0",
        "field count before later float": f"{ROW}\n{ROW},0\n0.5,1,x,0.5,0.75,1,0",
        "later float before field count": f"{ROW}\n0.5,1,0.25,0.5,x,1,0\n0.5,1,y,0.5,0.75,1,0",
        "header only": "",
        "padded and odd floats": "  0.5 ,01,1e-1,-0,nan,1,0\n-inf,1,+0.5,inf,1_0.5,0,1",
        "two ranks apart": f"{ROW}\n0.5,2,0.25,0.5,0.75,0,0\n0.75,01,0.25,0.5,0.75,0,1",
        "ranks descending": f"0.5,2,0.25,0.5,0.8,1,0\n0.75,2,0.25,0.5,0.8,0,0\n{ROW}\n0.75,1,0.2,0.5,0.75,0,1",
        "equal grids": f"{ROW}\n0.75,1,0.25,0.5,0.75,0,0\n0.5,2,0.25,0.5,0.8,0,0\n0.75,2,0.25,0.5,0.8,1,0",
        "grids differ in one omega": f"{ROW}\n0.75,1,0.25,0.5,0.75,0,0\n0.5,2,0.25,0.5,0.8,0,0\n0.7500,2,0.2,0.5,0.8,1,1",
        "later grid fails": f"{ROW}\n0.75,1,0.25,0.5,0.75,0,0\n0.5,2,0.25,0.5,0.8,0,0\n0.7.5,2,0.2,0.5,0.8,1,1",
        # a row broken in two lines of 7 fields in all: the stray newline
        # sits where the row's p_second or on_hull field would
        "newline in a float field": f"{ROW}\n0.5,1,0.25\n0.5,0.75,1\n{ROW}",
        "newline in a flag field": f"{ROW}\n0.5,1,0.25,0.5,0.75\n1\n{ROW}",
    }

    @pytest.mark.parametrize("name", MALFORMED)
    def test_reader_errors_and_values(self, name):
        text = self.MALFORMED[name]
        if name != "header":
            text = "omega,rank,p_first,p_second,threshold,on_hull,flagged\n" + text
        got, expected = outcome(curves_from_csv, text, FOCK02), outcome(reference_curves_from_csv, text, FOCK02)
        if expected[0] == "returned":
            assert got[0] == "returned" and point_record(got[1]) == point_record(expected[1])
        else:
            assert got == expected

    @pytest.mark.parametrize(
        "field, value", [("on_hull", "maybe"), ("flagged", "yes"), ("on_hull", "2"), ("flagged", " 1"),
                         ("on_hull", "1.0"), ("flagged", "")],
    )
    def test_flags_must_be_zero_or_one(self, field, value):
        header, first, *rows = certify_text().strip().split("\n")
        fields = first.split(",")
        fields[5 if field == "on_hull" else 6] = value
        bad = ",".join(fields)
        text = "\n".join([header, *rows[:40], bad, *rows[40:]])
        with pytest.raises(ValueError, match=f"{field} must be 0 or 1") as error:
            curves_from_csv(text, FOCK02)
        assert repr(bad) in str(error.value)


# ---------------------------------------------------------------------------
# Curves stored column-wise: rows are a view built only when asked for, and
# the writers give what the row-walking writers gave.
# ---------------------------------------------------------------------------


def reference_curves_to_csv(curves):
    """The writer that walked each curve's points."""
    lines = ["omega,rank,p_first,p_second,threshold,on_hull,flagged"]
    for curve in curves:
        on_hull = set(curve.hull)
        for idx, point in enumerate(curve.points):
            lines.append(",".join((
                fmt17(point.omega), str(curve.rank), fmt17(point.p_first), fmt17(point.p_second),
                fmt17(point.threshold), "1" if idx in on_hull else "0", "1" if point.flagged else "0",
            )))
    return "\n".join(lines) + "\n"


def reference_hull_to_json(curve):
    """The hull file from each hull vertex's point."""
    vertices = [[float(curve.points[i].p_first), float(curve.points[i].p_second)] for i in curve.hull]
    return {"rank": curve.rank, "vertices": vertices}


class TestColumnStore:
    def test_certification_builds_no_rows(self):
        curves = curves_from_csv(certify_text(), FOCK02)
        pairs = fixture_pairs(500, 11)[:-3]  # no NaN pair: the certifier refuses them
        certify_pairs(pairs, curves)
        rank = certify_pair((0.05, 0.9), curves)
        tangent_witness(curves[rank - 1], (0.05, 0.9), margin=1e-4)
        certifier = StellarRankCertifier(max_rank=len(curves))
        certifier.family_, certifier.curves_ = FOCK02, curves
        certifier.predict(pairs)
        certifier.decision_function(pairs)
        certifier.separating_witness((0.05, 0.9))
        assert all("columns" in c.__dict__ and "points" not in c.__dict__ for c in curves)

    def test_cli_certification_builds_no_rows(self, monkeypatch, capsys):
        def no_rows(curve):
            raise AssertionError("built the rows of a curve")

        monkeypatch.setattr(BoundaryCurve, "points", property(no_rows))
        assert main(["certify", "--curves", str(CERTIFY_DIR), "--pair", "0.05", "0.9"]) == 0
        assert '"certified_rank": 2' in capsys.readouterr().out

    def test_csv_round_trips(self, cat_curves):
        for text, family in ((certify_text(), FOCK02), (curves_to_csv(cat_curves), TestRepair.CAT)):
            assert curves_to_csv(curves_from_csv(text, family)) == text

    def test_writers_match_the_row_walkers(self, fock02_curves, cat_curves):
        for curves in (fock02_curves, cat_curves, curves_from_csv(certify_text(), FOCK02)):
            assert curves_to_csv(curves) == reference_curves_to_csv(curves)
            for curve in curves:
                assert dumps_stable(hull_to_json(curve)) == dumps_stable(reference_hull_to_json(curve))

    def test_from_points_keeps_the_points(self, fock02_curves, cat_curves):
        for curve in (*fock02_curves, *cat_curves):
            rebuilt = BoundaryCurve.from_points(curve.rank, curve.family, curve.points, curve.hull)
            assert rebuilt == curve and point_record([rebuilt]) == point_record([curve])
            assert rebuilt.points is rebuilt.points  # built once, then kept
            columns = (rebuilt.omega, rebuilt.p_first, rebuilt.p_second, rebuilt.threshold, rebuilt.flagged)
            assert all(type(column) is tuple for column in columns)
        empty = BoundaryCurve.from_points(1, FOCK02, ())
        assert empty.points == () and empty.omega == () and empty.hull_vertices() == []

    def test_equality_compares_the_columns(self):
        # each read makes its own NaN objects for the closure corner: NaN
        # equals NaN at the same position of a column
        (curve, *_) = curves_from_csv(certify_text(), FOCK02)
        (again, *_) = curves_from_csv(certify_text(), FOCK02)
        assert curve.threshold[-1] is not again.threshold[-1]
        assert curve == again and not curve != again
        changed = (curve.points[0]._replace(threshold=0.5),) + curve.points[1:]
        assert BoundaryCurve.from_points(curve.rank, curve.family, changed, curve.hull) != curve
        # a NaN against a number stays unequal, either way round, in any column
        for name in BoundaryPoint._fields[:4]:
            column = getattr(curve, name)[:-1]
            nan, other_nan, number = (
                replace(curve, **{name: column + (value,)}) for value in (math.nan, float("nan"), 0.5)
            )
            assert nan == other_nan and nan != number and number != nan
        assert curve != curve.points and BoundaryCurve.__hash__ is None  # unhashable: the family is a dict

    def test_columns_of_one_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            BoundaryCurve(1, FOCK02, (0.0, 1.0), (0.5,), (0.5,), (0.2,), (False,))
        with pytest.raises(ValueError, match="differ in length"):
            BoundaryCurve(1, FOCK02, (0.0,), (0.5,), (0.5,), (0.2,), ())
