"""Boundary curves for one-parameter witness families and rank certification.

Sweeping the family weight omega over [0, 2pi) traces the extremal probability
pairs of the bounded-rank state class in every direction; their convex hull is
the achievable region (up to closure corners forced by the probability
constraints).  Certification of a measured pair uses the support-function
test (some swept direction's witness value must exceed its threshold by more
than the safety margin), which can never certify a point inside the region
even where the sampled hull cuts a corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from ._util import fmt17, ordered_map, parse_complex
from .errors import OptimizerError
from .threshold import MONOTONICITY_SLACK, OptimizerConfig, compute_thresholds
from .witness import (
    WitnessOperator,
    cat_pair_witness,
    conjugated_term_vectors,
    fock_pair_witness,
)

CSV_HEADER = "omega,rank,p_first,p_second,threshold,on_hull,flagged"
# pairs per step of the separation kernel, which bounds its temporaries
_PAIR_BLOCK = 32


class BoundaryPoint(NamedTuple):
    omega: float          # NaN for closure corners
    p_first: float
    p_second: float
    threshold: float      # NaN for closure corners
    flagged: bool

    @property
    def is_corner(self) -> bool:
        return math.isnan(self.omega)


@dataclass(frozen=True)
class BoundaryCurve:
    rank: int
    family: dict
    points: tuple
    hull: tuple = field(default=())

    def hull_vertices(self) -> list:
        return [(self.points[i].p_first, self.points[i].p_second) for i in self.hull]


def family_witness(family: dict, omega: float) -> WitnessOperator:
    """Instantiate the swept witness of a family descriptor at a given omega."""
    ftype = family.get("type")
    if ftype == "fock_pair":
        return fock_pair_witness(int(family["j"]), int(family["k"]), omega)
    if ftype == "cat_pair":
        return cat_pair_witness(parse_complex(family["beta"]), omega)
    raise ValueError(f"unknown witness family {ftype!r}")


def _family_starts(family: dict) -> tuple:
    """Domain-informed extra starts: cat families peak near displacements ±beta."""
    if family.get("type") == "cat_pair":
        beta = parse_complex(family["beta"])
        return (
            (0.0, beta.real, beta.imag, 0.0),
            (0.0, -beta.real, -beta.imag, 0.0),
        )
    return ()


def _probability_pair(witness, result):
    """(p_first, p_second) of the extremal state against the two family terms."""
    rank_one, _ = conjugated_term_vectors(witness, result.params, result.rank)
    if len(rank_one) != 2:
        raise ValueError("probability pairs need a two-term witness family")
    q = result.core.coefficients
    return tuple(float(abs(np.vdot(q, vec)) ** 2) for _, vec in rank_one)


def sweep_family_ranks(
    family: dict,
    ranks: Sequence[int],
    omegas: Sequence[float],
    config: OptimizerConfig | None = None,
    threads: int | None = None,
) -> list:
    """One BoundaryCurve per rank over a shared omega grid.

    Per-omega tasks are independent (parallelizable); within a task the ranks
    are computed as a batch so each inherits the previous rank's optimum and
    the recorded thresholds are nondecreasing in rank.
    """
    config = config or OptimizerConfig()
    ranks = list(ranks)
    omegas = [float(w) for w in omegas]
    if not omegas:
        raise ValueError("omega grid must be nonempty")
    base_starts = tuple(config.initial_points) + _family_starts(family)
    cfg = replace(config, initial_points=base_starts)

    def one_omega(omega):
        witness = family_witness(family, omega)
        try:
            results = compute_thresholds(witness, ranks, cfg, threads=1)
        except OptimizerError:
            return [BoundaryPoint(omega, math.nan, math.nan, math.nan, True) for _ in ranks]
        rows = []
        for result in results:
            p1, p2 = _probability_pair(witness, result)
            rows.append(BoundaryPoint(omega, p1, p2, result.value, False))
        return rows

    per_omega = ordered_map(one_omega, omegas, threads)
    curves = []
    for i, rank in enumerate(ranks):
        points = [rows[i] for rows in per_omega]
        # closure corner: both probabilities can vanish in the limit of the
        # rank class, though no finite parameter attains it exactly.
        points.append(BoundaryPoint(math.nan, 0.0, 0.0, math.nan, False))
        usable = [
            (idx, (p.p_first, p.p_second))
            for idx, p in enumerate(points)
            if not p.flagged
        ]
        hull_local = gift_wrap([xy for _, xy in usable])
        hull = tuple(usable[i][0] for i in hull_local)
        curves.append(BoundaryCurve(rank=rank, family=dict(family), points=tuple(points), hull=hull))
    return curves


def sweep_family(
    family: dict,
    n: int,
    omegas: Sequence[float],
    config: OptimizerConfig | None = None,
    threads: int | None = None,
) -> BoundaryCurve:
    return sweep_family_ranks(family, [n], omegas, config, threads)[0]


def gift_wrap(points) -> list:
    """Convex hull by Jarvis march, counterclockwise vertex indices.

    Coincident points are collapsed onto their first occurrence before the
    march (repeated extremal points are common in sweeps).  Collinear points
    on an edge are excluded except the extremes (the farther candidate wins
    ties); degenerate inputs return the degenerate hull.
    """
    pts = [(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("gift_wrap needs at least one point")
    scale = max(1.0, max(max(abs(x), abs(y)) for x, y in pts))
    point_tol = 1e-12 * scale
    cross_tol = 1e-12 * scale * scale
    unique: list = []
    for idx, (x, y) in enumerate(pts):
        if not any(
            abs(x - ux) <= point_tol and abs(y - uy) <= point_tol
            for _, (ux, uy) in unique
        ):
            unique.append((idx, (x, y)))
    n = len(unique)
    start = min(range(n), key=lambda i: (unique[i][1][1], unique[i][1][0]))
    hull = [start]
    current = start
    for _ in range(n):
        candidate = None
        cx, cy = unique[current][1]
        for i in range(n):
            if i == current:
                continue
            if candidate is None:
                candidate = i
                continue
            dx, dy = unique[i][1][0] - cx, unique[i][1][1] - cy
            qx, qy = unique[candidate][1][0] - cx, unique[candidate][1][1] - cy
            cross = qx * dy - qy * dx
            if cross < -cross_tol:
                candidate = i
            elif abs(cross) <= cross_tol and dx * dx + dy * dy > qx * qx + qy * qy:
                candidate = i
        if candidate is None or candidate == start:
            break
        hull.append(candidate)
        current = candidate
    return [unique[i][0] for i in hull]


def signed_area(vertices) -> float:
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return 0.5 * total


def hull_contains(vertices, point, slack: float = 1e-9) -> bool:
    """Point-in-convex-polygon test for CCW vertices, with outward slack."""
    n = len(vertices)
    if n == 1:
        return math.hypot(point[0] - vertices[0][0], point[1] - vertices[0][1]) <= slack
    if n == 2:
        (x1, y1), (x2, y2) = vertices
        px, py = point
        ex, ey = x2 - x1, y2 - y1
        length = math.hypot(ex, ey)
        if length == 0:
            return math.hypot(px - x1, py - y1) <= slack
        t = max(0.0, min(1.0, ((px - x1) * ex + (py - y1) * ey) / (length * length)))
        return math.hypot(px - (x1 + t * ex), py - (y1 + t * ey)) <= slack
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        ex, ey = x2 - x1, y2 - y1
        norm = math.hypot(ex, ey) or 1.0
        cross = ex * (point[1] - y1) - ey * (point[0] - x1)
        if cross / norm < -slack:
            return False
    return True


def support_region_contains(curve: BoundaryCurve, point, slack: float = 1e-6) -> bool:
    """Whether the point satisfies every swept support inequality of the curve.

    The achievable region is bounded by the support lines
    cos(w) x + sin(w) y = threshold(w); the inscribed vertex hull only samples
    it, so region-nesting statements are tested against this form.
    """
    sep, _, _ = separations([curve], [point])
    return bool(sep[0, 0] <= slack)


def separations(curves: Sequence[BoundaryCurve], pairs) -> tuple:
    """Best (value - threshold, omega, threshold) of every pair against every curve.

    The support test cos(w) x + sin(w) y - threshold(w), evaluated in that
    order over each curve's usable swept points (neither flagged nor a
    corner), with the omega and threshold of the first point attaining the
    maximum.  NaN separations count as -inf; (-inf, NaN, NaN) where no point
    scores above -inf.  Each array has shape (n_pairs, n_curves).
    """
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    best, best_omega, best_threshold = (np.empty((len(pairs), len(curves))) for _ in range(3))
    for j, curve in enumerate(curves):
        omega, _, _, threshold, flagged = tuple(zip(*curve.points)) or ((),) * 5
        usable = ~np.array(flagged, dtype=bool) & ~np.isnan(omega)
        # a leading NaN direction scores -inf: it wins where nothing scores more
        omega = np.append(np.nan, np.array(omega)[usable])
        threshold = np.append(np.nan, np.array(threshold)[usable])
        cos, sin = np.cos(omega), np.sin(omega)
        for start in range(0, len(pairs), _PAIR_BLOCK):
            rows = slice(start, start + _PAIR_BLOCK)
            sep = np.fmax(cos * pairs[rows, :1] + sin * pairs[rows, 1:] - threshold, -np.inf)
            first = sep.argmax(axis=1)
            best[rows, j] = sep[np.arange(len(sep)), first]
            best_omega[rows, j] = omega[first]
            best_threshold[rows, j] = threshold[first]
    return best, best_omega, best_threshold


def _check_consistency(curves: Sequence[BoundaryCurve]) -> None:
    ranks = [c.rank for c in curves]
    if ranks != sorted(ranks) or any(b - a != 1 for a, b in zip(ranks, ranks[1:])):
        raise ValueError(f"curves must cover consecutive ranks, got {ranks}")
    for low, high in zip(curves, curves[1:]):
        # NaN thresholds and omegas (flagged points, corners) compare false
        upper = {p.omega: p.threshold for p in high.points}
        for omega, _, _, threshold, flagged in low.points:
            if not flagged and upper.get(omega, math.nan) < threshold - MONOTONICITY_SLACK:
                raise ValueError(
                    "inconsistent hull nesting: threshold at rank "
                    f"{high.rank} below rank {low.rank} at omega={omega}"
                )


def certify_pairs(pairs, curves: Sequence[BoundaryCurve], margin: float = 1e-4) -> tuple:
    """Certified rank of every pair, with the direction that certifies it.

    Returns (ranks, omega, threshold) arrays of length n_pairs: the largest n
    whose rank-n curve separates the pair by more than the margin (0 if none),
    and the best separating omega and its threshold on that curve (NaN where
    the rank is 0).  The curves are checked for consistency once per call.
    """
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and >= 0, got {margin}")
    _check_consistency(curves)
    sep, omega, threshold = separations(curves, pairs)
    ranks = np.array([c.rank for c in curves], dtype=int)
    certified = np.max(np.where(sep > margin, ranks, 0), axis=1, initial=0)
    # rank 0 picks a leading NaN column, rank n the column of the rank-n curve
    column = np.searchsorted(ranks, certified, side="right")
    rows, nan = np.arange(len(sep)), np.full((len(sep), 1), np.nan)
    omega, threshold = (np.hstack([nan, a])[rows, column] for a in (omega, threshold))
    return certified, omega, threshold


def certify_pair(pair, curves: Sequence[BoundaryCurve], margin: float = 1e-4) -> int:
    """Largest n whose rank-n achievable region excludes the pair by > margin.

    The point is outside the region exactly when some swept witness direction
    separates it: cos(w) p1 + sin(w) p2 > threshold(w) + margin.  Returns 0 if
    the pair is inside every region.
    """
    ranks, _, _ = certify_pairs([pair], curves, margin)
    return int(ranks[0])


def tangent_witness(curve: BoundaryCurve, pair, margin: float = 0.0) -> tuple:
    """The swept omega whose witness best separates the pair, with its threshold.

    Raises if the pair is not certified against this curve (no separating
    direction).  The returned threshold carries no margin.
    """
    sep, omega, threshold = separations([curve], [pair])
    if not sep[0, 0] > margin:
        raise ValueError(
            f"pair {tuple(pair)} is not certified by the rank-{curve.rank} curve; "
            "no separating witness exists"
        )
    return float(omega[0, 0]), float(threshold[0, 0])


# ---------------------------------------------------------------------------
# Boundary files: CSV of swept rows plus one hull JSON per rank.
# ---------------------------------------------------------------------------


def curves_to_csv(curves: Sequence[BoundaryCurve]) -> str:
    lines = [CSV_HEADER]
    for curve in curves:
        on_hull = set(curve.hull)
        for idx, point in enumerate(curve.points):
            lines.append(
                ",".join(
                    (
                        fmt17(point.omega),
                        str(curve.rank),
                        fmt17(point.p_first),
                        fmt17(point.p_second),
                        fmt17(point.threshold),
                        "1" if idx in on_hull else "0",
                        "1" if point.flagged else "0",
                    )
                )
            )
    return "\n".join(lines) + "\n"


def hull_to_json(curve: BoundaryCurve) -> dict:
    return {
        "rank": curve.rank,
        "vertices": [[float(x), float(y)] for x, y in curve.hull_vertices()],
    }


def curves_from_csv(text: str, family: dict) -> list:
    rows = text.strip().split("\n")
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError("boundary CSV must start with the standard header")
    by_rank: dict = {}
    for line in rows[1:]:
        fields = line.split(",")
        if len(fields) != 7:
            raise ValueError(f"malformed boundary CSV row: {line!r}")
        rank = int(fields[1])
        point = BoundaryPoint(
            float(fields[0]), float(fields[2]), float(fields[3]),
            float(fields[4]), fields[6] == "1",
        )
        by_rank.setdefault(rank, ([], []))
        by_rank[rank][0].append(point)
        if fields[5] == "1":
            by_rank[rank][1].append(len(by_rank[rank][0]) - 1)
    return [
        BoundaryCurve(rank=rank, family=dict(family), points=tuple(points), hull=tuple(hull))
        for rank, (points, hull) in sorted(by_rank.items())
    ]
