"""Planar primitives: hulls, normed diameters and perimeters, an exact
sign predicate, lines, stabbing lines, and line dissections (every split of
a point set by a line) with their subset diameters.

The convex hull is norm-independent; diameter and perimeter are measured in
the plane's own gauge.  Every sign on input points, a turn, a side or the
rotating calipers' comparison of two edge directions, is decided exactly by
one predicate, ``cross_sign`` (Shewchuk's float filter, then integers); the
hulls' interior filter uses the float filter alone and drops only the
points it finds certainly inside.  No comparison here has a tolerance band,
so no hull, side or diameter pair depends on where the points lie.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptyInput, NonFinitePoint, NonFiniteResult
from .norm import (
    NormedPlane,
    Point,
    Segment,
    as_array,
    check_finite,
    gauge,
    gauge_scalar,
)


@dataclass(frozen=True)
class ConvexPolygon:
    """Vertices in counterclockwise order, no three collinear retained.

    One vertex (a point) or two vertices (a segment) are allowed as
    degenerate hulls.
    """

    vertices: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def degenerate(self) -> bool:
        return len(self.vertices) < 3


class Side(enum.Enum):
    LEFT = 1
    ON = 0
    RIGHT = -1


@dataclass(frozen=True)
class OrientedLine:
    """The line through two distinct points, directed from ``anchor`` to
    ``through``; "left" is the side of a counterclockwise turn."""

    anchor: Point
    through: Point

    @property
    def direction(self) -> Point:
        return Point(self.through.x - self.anchor.x, self.through.y - self.anchor.y)

    def reversed(self) -> OrientedLine:
        return OrientedLine(self.through, self.anchor)


# --------------------------------------------------------------------------


def convex_hull(points) -> ConvexPolygon:
    """Monotone chain, strict (collinear vertices dropped), with every turn
    decided exactly: each vertex of the true hull is kept and no other
    point.  The vertices run counterclockwise from the lexicographic
    minimum.  From ``_FILTER_CUT`` points on, the points strictly inside an
    octagon of input points are dropped first (``_hull_candidates``), which
    changes no vertex.  A NaN or infinite coordinate raises NonFinitePoint."""
    if not isinstance(points, (list, tuple, np.ndarray)):
        points = list(points)
    if len(points) >= _FILTER_CUT:
        if isinstance(points, np.ndarray):
            arr = as_array(points)
        else:  # a few times faster than np.asarray on a list of tuples
            flat = itertools.chain.from_iterable((p[0], p[1]) for p in points)
            arr = np.fromiter(flat, float, 2 * len(points)).reshape(-1, 2)
        pts = list(map(Point._make, arr[_hull_candidates(arr)].tolist()))
    else:
        pts = [Point(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise EmptyInput("convex hull of an empty set")
    uniq = sorted(set(pts))
    if len(uniq) <= 2:
        check_finite(uniq)  # from three points on, every point is in a turn
    return ConvexPolygon(tuple(_monotone_chain(uniq)))


def hull_indices(points: np.ndarray) -> list[int]:
    """The vertices of the convex hull of a nonempty (n, 2) float array, as
    indices into it: the first index of each vertex's location, in
    ``convex_hull``'s order.  From ``_FILTER_CUT`` points on, only the
    candidates of ``_hull_candidates`` are chained; every copy of every
    vertex is one of them, so the first index is the same.  A NaN or
    infinite coordinate raises NonFinitePoint."""
    if len(points) >= _FILTER_CUT:
        idx = _hull_candidates(points)
        pts = list(map(tuple, points[idx].tolist()))
        first = dict(zip(reversed(pts), reversed(idx.tolist())))
    else:
        pts = list(map(tuple, points.tolist()))
        first = dict(zip(reversed(pts), range(len(pts) - 1, -1, -1)))
    if len(first) <= 2:
        check_finite(first)  # from three locations on, every one is in a turn
    return [first[v] for v in _monotone_chain(sorted(first))]


# The eight directions whose extreme points span the filter's octagon.
_OCTAGON = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
                     (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])

# Points from which the hulls filter their input first.  30 uniform sets of
# each size, with and without the filter, interleaved in one process, 2-vCPU
# Xeon, medians: at n = 48, 64, 80, 96, 128, hull_indices took 56, 73, 96,
# 118, 148 us unfiltered and 89, 92, 94, 102, 104 us filtered, convex_hull of
# a list 84, 114, 146, 179, 237 us and 95, 104, 109, 119, 125 us.  At n =
# 1500 and 20,000 hull_indices took 2.0-3.1 and 34-38 ms unfiltered, 0.22-0.25
# and 1.0-1.4 ms filtered.
_FILTER_CUT = 80


def _hull_candidates(arr: np.ndarray) -> np.ndarray:
    """The ascending indices of the points of a finite (n, 2) float array
    that may be hull vertices: all but those strictly inside Q, the hull of
    the extreme points in the eight ``_OCTAGON`` directions (Akl and
    Toussaint, "A fast convex hull algorithm", IPL 7, 1978).  Q's vertices
    are input points, so a point strictly inside it is strictly inside the
    hull and no vertex; every copy of a vertex is kept.  A point is dropped
    only where each edge of Q turns left to it beyond Shewchuk's bound, as
    in ``cross_sign``; an overflowing or NaN turn keeps it.  A non-finite
    coordinate raises NonFinitePoint."""
    if not np.isfinite(arr).all():
        raise NonFinitePoint("point coordinates must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # such turns keep their point
        picks = (_OCTAGON @ arr.T).argmax(axis=1)
        q = _monotone_chain(sorted(set(map(tuple, arr[picks].tolist()))))
        if len(q) < 3:
            return np.arange(len(arr))
        x, y = np.ascontiguousarray(arr.T)
        inside = np.ones(len(arr), dtype=bool)
        for (ax, ay), (bx, by) in zip(q, q[1:] + q[:1]):
            left = (bx - ax) * (y - ay)
            right = (by - ay) * (x - ax)
            inside &= left - right > _TURN_ERR * (np.abs(left) + np.abs(right)) + _TURN_TINY
    return np.flatnonzero(~inside)


# Shewchuk's bound on the error of a float cross product of two differences
# (orient2d's ccwerrboundA): (3 + 16u) u times the sum of the two products'
# magnitudes, u = 2^-53, plus 2^-1072 for an underflow of the products.
_TURN_ERR = (3 + 16 * 2.0 ** -53) * 2.0 ** -53
_TURN_TINY = 2.0 ** -1072


def cross_sign(a, b, c, d) -> int:
    """The exact sign of the cross product (b - a) x (d - c): 1 when d - c
    turns counterclockwise from b - a, -1 when clockwise, 0 when the two are
    parallel.  A float product beyond Shewchuk's bound keeps its sign (the
    bound covers two products of rounded differences, whichever points
    they come from); any other is settled with the coordinates (floats or
    ints) as integers over their largest power-of-two denominator.  A
    non-finite one raises NonFinitePoint."""
    left = (b[0] - a[0]) * (d[1] - c[1])
    right = (b[1] - a[1]) * (d[0] - c[0])
    det = left - right
    if abs(det) > _TURN_ERR * (abs(left) + abs(right)) + _TURN_TINY:
        return 1 if det > 0 else -1
    # both products have a zero factor, as on a lattice: a float difference
    # is zero only when the coordinates are equal, and det is then 0, where
    # a coordinate that is not finite makes it NaN or infinite
    if det == 0 and (b[0] == a[0] or d[1] == c[1]) and (b[1] == a[1] or d[0] == c[0]):
        return 0
    try:
        nums, dens = zip(*(v.as_integer_ratio() for v in (*a, *b, *c, *d)))
    except (ValueError, OverflowError):
        raise NonFinitePoint("point coordinates must be finite") from None
    top = max(dens)
    ax, ay, bx, by, cx, cy, dx, dy = (q * (top // r) for q, r in zip(nums, dens))
    turn = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
    return (turn > 0) - (turn < 0)


def orient(o, a, p) -> int:
    """The exact sign of the turn o -> a -> p: 1 when p is left of the line
    from o to a, -1 when it is right of it, 0 when the three are collinear
    (``cross_sign(o, a, o, p)``)."""
    return cross_sign(o, a, o, p)


def orient_lines(pts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``orient(pts[i[r]], pts[j[r]], pts[k])`` for every line r and point k,
    as an int8 array of shape (len(i), len(pts)); pts[i[r]] and pts[j[r]]
    are distinct.  Each line's own two points are on it by their index;
    ``orient`` settles the other turns within the float bound one by one."""
    base = pts[i]
    with np.errstate(over="ignore", invalid="ignore"):  # such turns are settled exactly
        d = pts[j] - base
        rel = pts[None, :, :] - base[:, None, :]
        left = d[:, None, 0] * rel[..., 1]
        right = d[:, None, 1] * rel[..., 0]
        det = left - right
        bound = _TURN_ERR * (np.abs(left) + np.abs(right)) + _TURN_TINY
        sign = (det > bound).view(np.int8) - (det < -bound).view(np.int8)
    unsure = sign == 0
    lines = np.arange(len(i))
    unsure[lines, i] = unsure[lines, j] = False
    if unsure.any():
        coords = pts.tolist()
        for r, k in zip(*np.nonzero(unsure)):
            sign[r, k] = orient(coords[i[r]], coords[j[r]], coords[k])
    return sign


def _monotone_chain(uniq: list) -> list:
    """The hull vertices of distinct (x, y) pairs sorted in (x, y) order,
    counterclockwise from the first.  Every turn is decided exactly: a
    float turn within ``sure`` of zero is settled by ``orient``."""
    if len(uniq) == 1:
        return uniq
    ys = [p[1] for p in uniq]
    # Each coordinate difference is within X (Y) of zero and off by at most
    # u = 2^-53 of itself, so the float turn is off by at most about 8u X Y
    # (Shewchuk's static filter); 10u covers the rounding of X, Y and this
    # product, and 2^-1072 an underflow of the two products.
    sure = 10 * 2.0 ** -53 * (uniq[-1][0] - uniq[0][0]) * (max(ys) - min(ys)) + 2.0 ** -1072

    def build(seq):
        chain = []
        for p in seq:
            px, py = p
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                turn = (ax - ox) * (py - oy) - (ay - oy) * (px - ox)
                if turn > sure or (not turn < -sure and orient(chain[-2], chain[-1], p) > 0):
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower = build(uniq)
    upper = build(reversed(uniq))
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 2:  # all collinear
        return [uniq[0], uniq[-1]]
    return verts


def antipodal_pairs(poly: ConvexPolygon) -> Iterable[tuple[Point, Point]]:
    """Rotating calipers (Shamos, 1978): two parallel supporting lines turn
    half a turn around the counterclockwise hull, starting along edge 0, and
    each pair of vertices they touch is yielded.  One line runs along the
    edges 0 .. h-1, where v[h] is the first vertex from which the next edge
    no longer moves away from edge 0's line, the other along h .. n-1.
    Whichever line meets its next edge first moves on: the first line when
    (v[i+1] - v[i]) x (v[j+1] - v[j]) < 0, the second when > 0, and both
    when the two edges are exactly parallel, whose ends are then paired
    crosswise too.  That yields every antipodal pair of vertices, and a
    normed diameter is attained at one: a support functional of the unit
    ball at p - q, for a farthest pair p, q, is largest at p and smallest at
    q over the polygon.  Every comparison is exact (``cross_sign``)."""
    v = poly.vertices
    n = len(v)
    if n < 3:
        yield v[0], v[-1]
        return
    h = 1
    while cross_sign(v[0], v[1], v[h], v[(h + 1) % n]) > 0:
        h += 1
    i, j = 0, h
    while i < h or j < n:
        yield v[i], v[j % n]
        turn = 1 if i == h else -1 if j == n else cross_sign(v[i], v[i + 1], v[j], v[(j + 1) % n])
        if turn == 0:
            yield v[i + 1], v[j]
            yield v[i], v[(j + 1) % n]
        i += turn <= 0
        j += turn >= 0
    yield v[h], v[0]


def diameter(plane: NormedPlane, points) -> tuple[float, tuple[Point, Point]]:
    """Normed diameter with an attaining pair, via rotating calipers; raises
    NonFiniteResult when the diameter overflows a float."""
    d, pair = polygon_diameter(plane, convex_hull(points))
    if d == math.inf:
        raise NonFiniteResult("the diameter does not fit in a float")
    return d, pair


def polygon_diameter(plane: NormedPlane, polygon: ConvexPolygon) -> tuple[float, tuple[Point, Point]]:
    """The normed diameter of a convex polygon with an attaining vertex pair,
    via rotating calipers: ``diameter``'s value for the polygon's points."""
    best = -1.0
    best_pair = (polygon.vertices[0], polygon.vertices[0])
    for p, q in antipodal_pairs(polygon):
        g = gauge_scalar(plane, q.x - p.x, q.y - p.y)
        if g > best:
            best, best_pair = g, (p, q)
    return best, best_pair


def norm_perimeter(plane: NormedPlane, polygon: ConvexPolygon) -> float:
    """Sum of gauge lengths of the edges (a 2-vertex polygon counts both ways);
    raises NonFiniteResult when the perimeter overflows a float."""
    verts = polygon.vertices
    if len(verts) < 2:
        return 0.0
    closed = as_array(verts + verts[:1])
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(gauge(plane, closed[1:] - closed[:-1]).sum())
        if total < math.inf:
            return total
        # an edge may overflow where the sum fits: at half scale, doubled
        half = closed / 2
        total = 2 * float(gauge(plane, half[1:] - half[:-1]).sum())
    if total < math.inf:
        return total
    raise NonFiniteResult("the perimeter does not fit in a float")


# --------------------------------------------------------------------------
# lines


def line_through(p, q) -> OrientedLine:
    return OrientedLine(Point(float(p[0]), float(p[1])), Point(float(q[0]), float(q[1])))


def horizontal_line(p) -> OrientedLine:
    """The line through p parallel to the x-axis, directed to larger x."""
    x, y = float(p[0]), float(p[1])
    return OrientedLine(Point(x, y), Point(x + (1.0 + abs(x)), y))


def signed_offset(line: OrientedLine, p) -> float:
    """Orientation determinant of p against the line (positive = left)."""
    dx, dy = line.direction
    return dx * (p[1] - line.anchor.y) - dy * (p[0] - line.anchor.x)


def side_of(line: OrientedLine, p) -> Side:
    """The side of the line that p lies on, exactly (``orient``); NonFinitePoint if p is not finite."""
    check_finite([p])
    return Side(orient(line.anchor, line.through, (float(p[0]), float(p[1]))))


def _segment_stabbed(line: OrientedLine, seg: Segment) -> bool:
    return side_of(line, seg.a).value * side_of(line, seg.b).value <= 0


def stabbing_line(segments: Sequence[Segment]) -> Optional[OrientedLine]:
    """A line meeting every segment, or None.

    Candidates: lines through two segment endpoints, lines through one
    endpoint parallel to a segment, and horizontal fallbacks.  A stabbing
    line, if one exists, can be translated and rotated until it touches two
    endpoints, so the candidate set is complete.  A parallel line runs
    through the endpoint and that endpoint plus the segment's direction,
    a computed point; it is skipped when the two coincide.
    """
    segs = list(segments)
    if not segs:
        return horizontal_line((0.0, 0.0))
    endpoints: list[Point] = []
    for s in segs:
        for e in (s.a, s.b):
            if e not in endpoints:
                endpoints.append(e)
    candidates: list[OrientedLine] = []
    for i, e1 in enumerate(endpoints):
        for e2 in endpoints[i + 1:]:
            if e1 != e2:
                candidates.append(line_through(e1, e2))
    for e in endpoints:
        for s in segs:
            through = Point(e.x + (s.b.x - s.a.x), e.y + (s.b.y - s.a.y))
            if through != e:
                candidates.append(OrientedLine(e, through))
        candidates.append(horizontal_line(e))
    for line in candidates:
        if all(_segment_stabbed(line, s) for s in segs):
            return line
    return None


# --------------------------------------------------------------------------
# line dissections

_CHUNK = 1 << 18  # elements in one temporary of the chunked helpers below


def _first_distinct(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct boolean row."""
    packed = np.packbits(rows, axis=1)
    keys = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    order = np.lexsort(keys.T)  # stable: equal rows keep their index order
    keys = keys[order]
    fresh = np.ones(len(keys), bool)
    fresh[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    return np.sort(order[fresh])


def line_splits(left: np.ndarray, on: np.ndarray, along: np.ndarray) -> np.ndarray:
    """The splits of points by lines that keep each line's points in order.

    Row l of the boolean ``left`` and ``on`` matrices marks the points
    strictly left of line l and the points on it; ``along`` holds their
    positions along it (one row may serve every line).  A line with m
    points on it gives its left points plus a prefix of its on-line points,
    of each size 0..m, then its left points plus a suffix of each size
    1..m-1: every such split once.  The rows come line by line.
    """
    rank = np.argsort(np.argsort(np.where(on, along, np.inf), axis=1, kind="stable"), axis=1)
    count = on.sum(axis=1)
    # row pos of a line's 2m rows (one row when m = 0): the prefix of size
    # pos for pos <= m, else the suffix of size pos - m
    per_line = np.maximum(2 * count, 1)
    line = np.repeat(np.arange(len(on)), per_line)
    pos = (np.arange(len(line)) - np.repeat(np.cumsum(per_line) - per_line, per_line))[:, None]
    m, r = count[line, None], rank[line]
    return left[line] | (on[line] & np.where(pos <= m, r < pos, r >= 2 * m - pos))


def line_dissections(points) -> np.ndarray:
    """Every split of the points by a line, as the rows of a boolean matrix.

    The splits are those of the distinct locations, each copy of a location
    on its side.  Each distinct line through two locations, directed
    towards larger (x, y), yields the locations strictly on its left plus a
    prefix or a suffix of the locations on it, in their (x, y) order
    (``line_splits``), and the complements of those rows.  That reaches
    every split by a line that misses all points: translate such a line
    until it hits a point, then turn it about that point until it hits
    another; the points it sweeps onto itself come from one side along one
    ray and from the other side along the opposite ray.  A split that puts
    a point between two points of the other side, or on another side than
    a copy of it, is not listed; that point lies in the other side's hull,
    so moving it there never raises a diameter, a radius or a hull
    perimeter.

    Sides are decided exactly (``orient_lines``), so the points of each row
    and the other points lie on the two closed sides of a line through two
    of the points.  The rows are distinct and include the all and none
    rows.  In general position the matrix has n(n-1)+2 rows of n.  The rows
    come in the order of the first pair of locations, in (x, y) order, that
    yields each, then the complements and the all and none rows.  The pairs
    are worked through in chunks, so that no temporary exceeds about
    ``_CHUNK`` elements; the chunk size does not change the rows or their
    order.
    """
    pts = as_array([tuple(p) for p in points])
    locs, copy_of = np.unique(pts, axis=0, return_inverse=True)
    m = len(locs)
    iu, ju = np.triu_indices(m, k=1)
    blocks = []
    step = max(1, _CHUNK // max(1, 2 * m))
    for s in range(0, len(iu), step):
        sign = orient_lines(locs, iu[s:s + step], ju[s:s + step])
        # one pair per distinct line, which its points on the line identify;
        # a line met again in a later chunk yields the same rows again
        sign = sign[_first_distinct(sign == 0)]
        rows = line_splits(sign > 0, sign == 0, np.arange(m))
        blocks.append(rows[_first_distinct(rows)])
    rows = np.concatenate([*blocks, *(~b for b in blocks), np.ones((1, m), bool), np.zeros((1, m), bool)])
    return rows[_first_distinct(rows)][:, copy_of]


def subset_diameters(D: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The diameter of each row's points under the distance matrix D: the
    largest D[i, j] with i and j in the row, 0 below two points.  Works
    through the pairs in chunks, so no temporary exceeds about ``_CHUNK``
    elements."""
    rows = np.asarray(rows, dtype=bool)
    iu, ju = np.triu_indices(len(D), k=1)
    dist = D[iu, ju]
    out = np.zeros(len(rows))
    step = max(1, _CHUNK // max(1, len(rows)))
    for s in range(0, len(dist), step):
        both = rows[:, iu[s:s + step]] & rows[:, ju[s:s + step]]
        np.maximum(out, np.where(both, dist[s:s + step], 0.0).max(axis=1), out=out)
    return out


# --------------------------------------------------------------------------
# convex polygon helpers (norm-independent)


def point_in_convex(poly: ConvexPolygon, p) -> bool:
    """Closed membership test, decided exactly (``orient``); degenerate
    polygons are handled."""
    p = (float(p[0]), float(p[1]))
    verts = poly.vertices
    if len(verts) == 1:
        return p == verts[0]
    if len(verts) == 2:
        a, b = verts
        return orient(a, b, p) == 0 and min(a, b) <= p <= max(a, b)
    return all(orient(verts[i - 1], verts[i], p) >= 0 for i in range(len(verts)))
