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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress, repeat
from typing import NamedTuple, Sequence

import numpy as np

from ._util import fmt17, parse_complex
from .errors import OptimizerError
from .threshold import MONOTONICITY_SLACK, OptimizerConfig, compute_thresholds
from .witness import conjugate_witness, family_descriptor, family_witness

CSV_HEADER = "omega,rank,p_first,p_second,threshold,on_hull,flagged"
# pairs per step of the separation kernel, the rows of its two work buffers
# (of 32, 64 and 128, 128 certified the most pairs per second)
_PAIR_BLOCK = 128
# audit-and-repair passes over a sweep before a deficient point is flagged
_REPAIR_PASSES = 4


class BoundaryPoint(NamedTuple):
    omega: float          # NaN for closure corners
    p_first: float
    p_second: float
    threshold: float      # NaN for closure corners
    flagged: bool

    @property
    def is_corner(self) -> bool:
        return math.isnan(self.omega)


class Repair(NamedTuple):
    """One re-run of a swept direction that its support audit found short."""

    omega: float
    before: float
    after: float


class CurveColumns(NamedTuple):
    """The arrays that certification reads from a curve's columns."""

    omega: np.ndarray          # usable directions (unflagged, finite omega) after a leading NaN
    threshold: np.ndarray      # their thresholds, NaN first
    cos: np.ndarray            # cos and sin of omega
    sin: np.ndarray
    keys: np.ndarray           # every point's omega, stably sorted, after a -inf sentinel
    key_threshold: np.ndarray  # their thresholds, NaN for the sentinel that an omega below all lands on
    point_omega: np.ndarray    # every point's omega, in order
    floor: np.ndarray          # its threshold less MONOTONICITY_SLACK, NaN where flagged


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """The swept points of one rank, stored column by column: one tuple per
    BoundaryPoint field, all of one length.  `points` and `columns` are
    derived from these on first use and kept with the curve.

    Two curves are equal when their fields other than `repairs` are, a NaN
    in a column counting as equal to a NaN at the same position.  Curves
    are not hashable (the family is a dict)."""

    rank: int
    family: dict
    omega: tuple
    p_first: tuple
    p_second: tuple
    threshold: tuple
    flagged: tuple
    hull: tuple = field(default=())
    # the sweep's re-runs at this rank, in order; the CSV does not carry them
    repairs: tuple = field(default=(), compare=False)

    def __post_init__(self):
        lengths = [len(getattr(self, name)) for name in BoundaryPoint._fields]
        if len(set(lengths)) > 1:
            raise ValueError(f"curve columns differ in length: {lengths}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rank, self.family, self.hull) == (other.rank, other.family, other.hull) and all(
            _same_column(getattr(self, name), getattr(other, name)) for name in BoundaryPoint._fields
        )

    @classmethod
    def from_points(cls, rank: int, family: dict, points, hull=(), repairs=()) -> "BoundaryCurve":
        """The curve of a sequence of BoundaryPoints."""
        return cls(rank, family, *(tuple(zip(*points)) or ((),) * 5), hull, repairs)

    @cached_property
    def points(self) -> tuple:
        """The rows of the columns, as BoundaryPoints."""
        rows = zip(self.omega, self.p_first, self.p_second, self.threshold, self.flagged)
        return tuple(map(tuple.__new__, repeat(BoundaryPoint), rows))

    def hull_vertices(self) -> list:
        return [(self.p_first[i], self.p_second[i]) for i in self.hull]

    @cached_property
    def columns(self) -> CurveColumns:
        """The arrays that certification reads, derived on first use and kept
        with the curve."""
        omega, threshold = (np.fromiter(column, float, len(column)) for column in (self.omega, self.threshold))
        flagged = np.fromiter(self.flagged, bool, len(self.flagged))
        # usable: unflagged, with a finite omega (an infinite one would score NaN,
        # counted as -inf, and never beat the leading NaN direction, which wins
        # where nothing scores more)
        usable = ~flagged & np.isfinite(omega)
        swept = np.concatenate(([np.nan], omega[usable]))
        order = omega.argsort(kind="stable")
        return CurveColumns(
            swept,
            np.concatenate(([np.nan], threshold[usable])),
            np.cos(swept),
            np.sin(swept),
            np.concatenate(([-np.inf], omega[order])),
            np.concatenate(([np.nan], threshold[order])),
            omega,
            np.where(flagged, np.nan, threshold - MONOTONICITY_SLACK),
        )


def _same_column(a: tuple, b: tuple) -> bool:
    """Equal columns, NaN equal to NaN at the same position."""
    return a == b or (len(a) == len(b) and all(x == y or x != x and y != y for x, y in zip(a, b)))


def omega_grid(count: int) -> list:
    """The `count` sweep directions 2 pi i / count, i < count, over [0, 2 pi)."""
    if count < 1:
        raise ValueError(f"the omega count must be >= 1, got {count}")
    return [2.0 * math.pi * i / count for i in range(count)]


def _family_starts(family: dict) -> tuple:
    """Domain-informed extra starts of a checked family descriptor: cat
    families peak near displacements ±beta."""
    if family["type"] == "cat_pair":
        beta = parse_complex(family["beta"], "beta")
        return (
            (0.0, beta.real, beta.imag, 0.0),
            (0.0, -beta.real, -beta.imag, 0.0),
        )
    return ()


def _probability_pair(witness, result):
    """(p_first, p_second) of the extremal state against the two family terms."""
    terms = conjugate_witness(witness, result.params, result.rank - 1).terms
    if len(terms) != 2:
        raise ValueError("probability pairs need a two-term witness family")
    q = result.core.coefficients
    return tuple(float(abs(np.vdot(q, term.data.amplitudes)) ** 2) for term in terms)


def sweep_family_ranks(
    family: dict,
    ranks: Sequence[int],
    omegas: Sequence[float],
    config: OptimizerConfig | None = None,
    threads: int | None = None,
) -> list:
    """One BoundaryCurve per rank over a shared omega grid.

    Each omega is computed on its own; within it the ranks are computed as a
    batch so each inherits the previous rank's optimum.  A direction whose
    search fails is kept as a flagged point.  The swept values are then
    audited and repaired (see `_repair`), which keeps them nondecreasing in
    rank.  The family's fields are checked once, by :func:`family_descriptor`;
    the curves keep the family as given.  `threads` is ignored, and kept only
    for the benchmark's calls until `bench/` stops passing it.
    """
    checked = family_descriptor(family)
    config = config or OptimizerConfig()
    ranks = list(ranks)
    omegas = [float(w) for w in omegas]
    if not omegas:
        raise ValueError("omega grid must be nonempty")
    cfg = replace(config, initial_points=tuple(config.initial_points) + _family_starts(checked))

    # the sweep's state over (omega, rank), NaN where a search failed
    shape = (len(omegas), len(ranks))
    pairs, thresholds = np.full(shape + (2,), np.nan), np.full(shape, np.nan)
    flagged, winners = np.zeros(shape, dtype=bool), np.full(shape + (4,), np.nan)
    for i, omega in enumerate(omegas):
        witness = family_witness(checked, omega)
        try:
            results = compute_thresholds(witness, ranks, cfg)
        except OptimizerError:
            flagged[i] = True
            continue
        for j, result in enumerate(results):
            pairs[i, j] = _probability_pair(witness, result)
            thresholds[i, j] = result.value
            winners[i, j] = result.params.vector()
    repairs = _repair(checked, ranks, cfg, omegas, pairs, thresholds, flagged, winners)
    # closure corner: both probabilities can vanish in the limit of the rank
    # class, though no finite parameter attains it exactly.
    omega_column = tuple(omegas) + (math.nan,)
    curves = []
    for j, rank in enumerate(ranks):
        p_first, p_second = (tuple(pairs[:, j, k].tolist()) + (0.0,) for k in (0, 1))
        flags = tuple(flagged[:, j].tolist()) + (False,)
        usable = [idx for idx, flag in enumerate(flags) if not flag]
        hull = tuple(usable[k] for k in gift_wrap([(p_first[idx], p_second[idx]) for idx in usable]))
        threshold = tuple(thresholds[:, j].tolist()) + (math.nan,)
        columns = (omega_column, p_first, p_second, threshold, flags)
        curves.append(BoundaryCurve(rank, dict(family), *columns, hull, tuple(repairs[j])))
    return curves


def _repair(
    family: dict, ranks: list, cfg: OptimizerConfig, omegas: list, pairs, thresholds, flagged, winners
) -> list:
    """Audit the swept thresholds of a checked family descriptor against the
    attained pairs and re-run the directions that fall short.  The sweep's
    arrays, indexed [omega, rank], are updated in place: `pairs` (with a last
    axis of 2) and `thresholds`, NaN where the search failed, `flagged`, and
    `winners` (a last axis of 4), each point's winning parameter vector.
    Returns the Repairs of each rank.

    Every pair of a searched point at rank j' <= j is attained by a state of
    rank below ranks[j], so the threshold at (i, j) is short of its supremum
    by at least the most any such pair gains over it in direction omega_i.
    A point short by more than the simplex tolerance (times 1 + |threshold|)
    is re-run with its own winner and the winner of that pair as extra
    starts.  The search never returns less than its best start (up to the
    1e-12 tie window), and the second start alone reaches the pair's value,
    so a re-run only raises the threshold.  Points are visited in ascending
    omega, then rank, for up to `_REPAIR_PASSES` passes; a point still short
    after that is flagged.
    """
    repairs = [[] for _ in ranks]

    def source(i, j):  # indices of the pair that beats (i, j) by the most, if by more than the tolerance
        threshold = thresholds[i, j]
        gains = math.cos(omegas[i]) * pairs[:, : j + 1, 0] + math.sin(omegas[i]) * pairs[:, : j + 1, 1]
        best = np.unravel_index(int(np.argmax(np.fmax(gains, -np.inf))), gains.shape)
        return best if gains[best] - threshold > cfg.simplex_tolerance * (1.0 + abs(threshold)) else None

    searched = np.argwhere(~flagged).tolist()  # ascending omega, then rank
    for _ in range(_REPAIR_PASSES):
        rerun = False
        for i, j in searched:
            best = source(i, j)
            if best is None:
                continue
            rerun = True
            witness = family_witness(family, omegas[i])
            starts = tuple(cfg.initial_points) + (winners[i, j], winners[best])
            try:
                (result,) = compute_thresholds(witness, [ranks[j]], replace(cfg, initial_points=starts))
            except OptimizerError:
                continue
            repairs[j].append(Repair(omegas[i], float(thresholds[i, j]), result.value))
            pairs[i, j] = _probability_pair(witness, result)
            thresholds[i, j] = result.value
            winners[i, j] = result.params.vector()
        if not rerun:
            return repairs
    for i, j in searched:
        flagged[i, j] = source(i, j) is not None
    return repairs


def repair_log(curves: Sequence[BoundaryCurve]) -> dict:
    """The sweep audit's record: every re-run, and every point it could not
    bring up to its attained pairs (flagged with a finite threshold)."""
    return {
        "rerun": [
            {"omega": fix.omega, "rank": curve.rank, "before": fix.before, "after": fix.after}
            for curve in curves
            for fix in curve.repairs
        ],
        "unresolved": [
            {"omega": omega, "rank": curve.rank, "threshold": threshold}
            for curve in curves
            for omega, threshold, flagged in zip(curve.omega, curve.threshold, curve.flagged)
            if flagged and not math.isnan(threshold)
        ],
    }


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


def pair_rows(pairs) -> np.ndarray:
    """Probability pairs as float rows of shape (n, 2): one pair of shape (2,)
    becomes one row; any shape but these two raises ValueError."""
    rows = np.asarray(pairs, dtype=float)
    if rows.shape == (2,):
        return rows.reshape(1, 2)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(f"expected an array of probability pairs with shape (n, 2), got {rows.shape}")
    return rows


def separations(curves: Sequence[BoundaryCurve], pairs) -> tuple:
    """Best (value - threshold, omega, threshold) of every pair against every curve.

    The support test cos(w) x + sin(w) y - threshold(w), evaluated in that
    order over each curve's usable swept points (neither flagged nor a
    corner), with the omega and threshold of the first point attaining the
    maximum.  NaN separations count as -inf; (-inf, NaN, NaN) where no point
    scores above -inf.  `pairs` has shape (n_pairs, 2), or (2,) for one pair;
    each array has shape (n_pairs, n_curves).

    Curves whose cos and sin columns are byte-equal (the rank curves of one
    sweep, unless the audit flagged a point at some ranks only) share one
    projection cos(w) x + sin(w) y per block of pairs.  The block's
    projection and separations are computed in two buffers made once per call.
    """
    pairs = pair_rows(pairs)
    best, best_omega, best_threshold = (np.empty((len(pairs), len(curves))) for _ in range(3))
    groups: list = []  # (cos, sin, [(curve index, omega, threshold), ...]) of each shared projection
    widest = 0
    for j, curve in enumerate(curves):
        omega, threshold, cos, sin = curve.columns[:4]
        for group in groups:
            if group[0].tobytes() == cos.tobytes() and group[1].tobytes() == sin.tobytes():
                break
        else:
            group = (cos, sin, [])
            groups.append(group)
            widest = max(widest, len(cos))
        group[2].append((j, omega, threshold))
    # a call of one block computes in the arrays its first operations make
    buffers = np.empty((2, _PAIR_BLOCK, widest)) if len(pairs) > _PAIR_BLOCK else None
    for start in range(0, len(pairs), _PAIR_BLOCK):
        rows = slice(start, start + _PAIR_BLOCK)
        x, y = pairs[rows, :1], pairs[rows, 1:]
        block = np.arange(len(x))
        for cos, sin, members in groups:
            value, sep = (None, None) if buffers is None else buffers[:, : len(x), : len(cos)]
            value = np.multiply(cos, x, out=value)
            sep = np.multiply(sin, y, out=sep)
            np.add(value, sep, out=value)
            for j, omega, threshold in members:
                np.subtract(value, threshold, out=sep)
                np.fmax(sep, -np.inf, out=sep)
                first = sep.argmax(axis=1)
                best[rows, j] = sep[block, first]
                best_omega[rows, j] = omega[first]
                best_threshold[rows, j] = threshold[first]
    return best, best_omega, best_threshold


def _check_consistency(curves: Sequence[BoundaryCurve]) -> None:
    ranks = [c.rank for c in curves]
    if ranks != sorted(ranks) or any(b - a != 1 for a, b in zip(ranks, ranks[1:])):
        raise ValueError(f"curves must cover consecutive ranks, got {ranks}")
    for low, high in zip(curves, curves[1:]):
        below, above = low.columns, high.columns
        # the last point of `high` whose omega equals each omega of `low`;
        # the sentinel, a NaN omega and a NaN threshold or floor compare false
        at = above.keys.searchsorted(below.point_omega, side="right") - 1
        short = (above.keys[at] == below.point_omega) & (above.key_threshold[at] < below.floor)
        if short.any():
            omega = low.omega[short.argmax()]
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
        rows = zip(curve.omega, curve.p_first, curve.p_second, curve.threshold, curve.flagged)
        for idx, (omega, p_first, p_second, threshold, flagged) in enumerate(rows):
            lines.append(
                ",".join(
                    (
                        fmt17(omega),
                        str(curve.rank),
                        fmt17(p_first),
                        fmt17(p_second),
                        fmt17(threshold),
                        "1" if idx in on_hull else "0",
                        "1" if flagged else "0",
                    )
                )
            )
    return "\n".join(lines) + "\n"


def hull_to_json(curve: BoundaryCurve) -> dict:
    return {
        "rank": curve.rank,
        "vertices": [[float(x), float(y)] for x, y in curve.hull_vertices()],
    }


_FLAGS = {"0": False, "1": True}


def curves_from_csv(text: str, family: dict) -> list:
    """The curves of a boundary CSV, in ascending rank, each with its rows in
    file order.  A malformed row raises the ValueError that a row-by-row read
    meets first: a row without 7 fields, a rank that is not an integer, a
    float field that does not parse, or an on_hull or flagged field other
    than 0 or 1.

    The fields are read column by column from one split of the whole text."""
    text = text.strip()
    if text.partition("\n")[0] != CSV_HEADER:
        raise first_csv_error(text)[1]
    fields = text.replace("\n", ",\n,").split(",")  # each newline a field of its own
    rows = len(fields) // 8
    if not rows:
        return []
    try:
        # every line has 7 fields when the newlines are every 8th field; a
        # newline anywhere else fails in the parse of its column
        if len(fields) % 8 != 7 or fields[7::8].count("\n") != rows:
            raise ValueError
        # omega, rank, p_first, p_second, threshold, on_hull, flagged
        columns = [fields[k::8] for k in range(8, 15)]
        del fields  # a garbage collection during the parse need not walk it
        # each distinct rank field parsed once
        rank_of = {value: int(value) for value in dict.fromkeys(columns[1])}
        ranks = list(map(rank_of.__getitem__, columns[1]))
        if ranks != sorted(ranks):
            # rows of a rank apart, or ranks out of order: gather them, in file order
            order = sorted(range(rows), key=ranks.__getitem__)
            ranks, columns = sorted(ranks), [[column[i] for i in order] for column in columns]
        # (rank, first row, end row) of each curve
        spans = [(n, bisect_left(ranks, n), bisect_right(ranks, n)) for n in dict.fromkeys(ranks)]
        omega, grid = [], None
        for _, lo, hi in spans:  # the curves share one omega grid: parse it once
            if columns[0][lo:hi] != grid:
                grid = columns[0][lo:hi]
                values = list(map(float, grid))
            omega += values
        # the BoundaryPoint columns, then on_hull
        columns = [tuple(omega)] + [tuple(map(float, columns[k])) for k in (2, 3, 4)] + [
            tuple(map(_FLAGS.__getitem__, columns[k])) for k in (6, 5)
        ]
    except (ValueError, KeyError):
        raise first_csv_error(text)[1] from None
    *point_columns, on_hull = columns
    return [
        BoundaryCurve(
            rank,
            dict(family),
            *(column[lo:hi] for column in point_columns),
            hull=tuple(compress(range(hi - lo), on_hull[lo:hi])),
        )
        for rank, lo, hi in spans
    ]


def first_csv_error(text: str) -> tuple | None:
    """(line number, ValueError) of the first line of a boundary CSV that a
    row-by-row read refuses, the header being line 1, or None if it refuses
    none.  The error is the one :func:`curves_from_csv` raises."""
    lines = text.strip().split("\n")
    first = text[: len(text) - len(text.lstrip())].count("\n") + 1  # after any leading blank lines
    if lines[0] != CSV_HEADER:
        return first, ValueError("boundary CSV must start with the standard header")
    for number, line in enumerate(lines[1:], first + 1):
        fields = line.split(",")
        if len(fields) != 7:
            return number, ValueError(f"malformed boundary CSV row: {line!r}")
        try:
            int(fields[1])
            for value in (fields[0], *fields[2:5]):
                float(value)
        except ValueError as error:
            return number, error
        for name, value in zip(("on_hull", "flagged"), fields[5:]):
            if value not in _FLAGS:
                return number, ValueError(f"{name} must be 0 or 1, got {value!r}, in boundary CSV row: {line!r}")
    return None
