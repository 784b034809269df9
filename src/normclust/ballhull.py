"""d-ball hulls and the dynamic tree of hulls.

The d-ball hull of S is the intersection of all radius-d balls containing S.
Its boundary is a cyclic sequence of points of S joined by d-minimal arcs;
each arc lies on the sphere of a ball whose center is an extreme point of a
pairwise sphere intersection and which covers all of S.

The tree of hulls (Hershberger and Suri's structure) sorts the points by x
and cuts them into buckets of up to 32 consecutive points, one bucket per
leaf.  Each node holds the hull of the live points beneath it, built from
the bucket's points at a leaf and from its children's vertices above, or
OVERFULL when no radius-d ball covers them.  A far-point query descends,
left first, only into OVERFULL nodes: it answers with the farthest vertex
of the first hull on its path that has a vertex at distance >= d, or with
the first such live point, in x order, of an OVERFULL leaf.  A deletion
rebuilds the victim's leaf and then the hulls along its root path.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadBounds,
    EmptyInput,
    NoBallContainsS,
    NonFinitePoint,
    NormClustError,
    NotPresent,
    TooFarApart,
)
from .geometry import convex_hull
from .norm import (
    EuclideanNorm,
    NormedPlane,
    Point,
    boundary_point,
    check_finite,
    gauge,
    gauge_scalar,
    sphere_sphere_intersection,
)


@dataclass(frozen=True)
class Arc:
    """Portion of the sphere S(center, radius) between endpoints a and b.

    ``side`` is +1 when the arc lies left of the directed chord a->b, -1 when
    right, 0 when it degenerates to the chord itself.
    """

    center: Point
    radius: float
    a: Point
    b: Point
    side: int


@dataclass(frozen=True)
class BallHull:
    """Boundary representation of bh(S, d): vertices from S, cyclic, CCW;
    arcs[i] joins vertices[i] -> vertices[i+1].  ``support_centers`` are all
    covering arc centers; the hull region is the intersection of their balls
    (plus the vertex itself for a single-point hull)."""

    vertices: tuple[Point, ...]
    arcs: tuple[Arc, ...]
    radius: float
    support_centers: tuple[Point, ...]


def _pair_extremes(plane, p: Point, q: Point, d: float) -> list[Point]:
    """The extreme points of S(p, d) cap S(q, d).  The Euclidean formula
    runs where |q - p| is finite and d^2 a normal float; its centres are
    then within d < 2^512 of the midpoint, so finite.  Elsewhere the scaled
    sphere kernel, which raises NonFiniteResult for a centre beyond the
    floats."""
    if isinstance(plane.descriptor, EuclideanNorm):
        dx, dy = q.x - p.x, q.y - p.y
        dd = math.hypot(dx, dy)
        if dd < math.inf and 2.0 ** -1022 <= d * d < math.inf:
            if dd <= 1e-15 * d or dd > 2 * d:
                return []
            h2 = d * d - dd * dd / 4
            mx, my = p.x + dx / 2, p.y + dy / 2
            if h2 <= 1e-15 * d * d:
                return [Point(mx, my)]
            h = math.sqrt(max(h2, 0.0)) / dd
            return [Point(mx - dy * h, my + dx * h), Point(mx + dy * h, my - dx * h)]
    return sphere_sphere_intersection(plane, p, q, d).all_extremes()


def _signed_depth(p: Point, q: Point, z: Point) -> float:
    """Cross product sign: positive when z is left of p->q."""
    return (q.x - p.x) * (z.y - p.y) - (q.y - p.y) * (z.x - p.x)


def _covers(plane, center: Point, pts: Sequence[Point], lim: float) -> bool:
    for p in pts:
        if gauge_scalar(plane, p.x - center.x, p.y - center.y) > lim:
            return False
    return True


def minimal_arcs(plane: NormedPlane, p, q, d: float) -> list[Arc]:
    """The one or two d-minimal arcs joining p and q.

    Arc centers are extreme points of S(p,d) cap S(q,d); one arc per side of
    the chord, or a single arc when both degenerate to the segment pq.
    """
    p = Point(float(p[0]), float(p[1]))
    q = Point(float(q[0]), float(q[1]))
    g = gauge(plane, (q.x - p.x, q.y - p.y))
    if g > 2 * d * (1 + 1e-12):
        raise TooFarApart(f"gauge distance {g} exceeds 2d = {2 * d}")
    extremes = _pair_extremes(plane, p, q, d)
    if not extremes:
        raise TooFarApart("spheres do not intersect")
    # deepest extreme on each side of the chord centers the opposite arc
    left = max(extremes, key=lambda z: (_signed_depth(p, q, z), (-z.x, -z.y)))
    right = min(extremes, key=lambda z: (_signed_depth(p, q, z), (z.x, z.y)))
    arc_right = Arc(left, d, p, q, -1)   # centered on the left, bulging right
    arc_left = Arc(right, d, p, q, +1)
    if _arc_is_chord(plane, arc_left) and _arc_is_chord(plane, arc_right):
        return [Arc(left, d, p, q, 0)]
    return [arc_left, arc_right]


def _arc_is_chord(plane, arc: Arc, samples: int = 5) -> bool:
    pts = sample_arc(plane, arc, samples)
    a, b = arc.a, arc.b
    dx, dy = b.x - a.x, b.y - a.y
    span = math.hypot(dx, dy)
    if span == 0:
        return False
    for z in pts:
        if abs(dx * (z.y - a.y) - dy * (z.x - a.x)) > 1e-9 * span ** 2:
            return False
    return True


def sample_arc(plane: NormedPlane, arc: Arc, n: int = 16) -> list[Point]:
    """n points along the arc from a to b (inclusive)."""
    c = np.array([arc.center.x, arc.center.y])
    va = np.array([arc.a.x - c[0], arc.a.y - c[1]])
    vb = np.array([arc.b.x - c[0], arc.b.y - c[1]])
    ta = math.atan2(va[1], va[0])
    tb = math.atan2(vb[1], vb[0])
    # choose the sweep whose midpoint lies on the arc's side of the chord
    flat = 1e-9 * ((arc.b.x - arc.a.x) ** 2 + (arc.b.y - arc.a.y) ** 2)
    for sweep in ((tb - ta) % (2 * math.pi), (tb - ta) % (2 * math.pi) - 2 * math.pi):
        if abs(sweep) < 1e-15:
            sweep = 2 * math.pi if sweep >= 0 else -2 * math.pi
        tm = ta + sweep / 2
        zm = _sphere_point(plane, arc.center, arc.radius, tm)
        s = _signed_depth(arc.a, arc.b, zm)
        if arc.side == 0 or (s > 0) == (arc.side > 0) or abs(s) <= flat:
            break
    out = []
    for k in range(n):
        t = ta + sweep * k / (n - 1) if n > 1 else ta
        out.append(_sphere_point(plane, arc.center, arc.radius, t))
    if n > 1:
        out[0], out[-1] = arc.a, arc.b
    return out


def _sphere_point(plane, center: Point, d: float, theta: float) -> Point:
    bp = boundary_point(plane, (math.cos(theta), math.sin(theta)))
    return Point(center.x + d * bp.x, center.y + d * bp.y)


# --------------------------------------------------------------------------
# hull construction (incremental arc-clipping)


def _bh_from_candidates(
    plane: NormedPlane,
    candidates: Sequence[Point],
    d: float,
    extremes: dict[tuple[Point, Point], Optional[tuple[Point, ...]]],
) -> BallHull:
    """Build bh(candidates, d) from a candidate superset of its vertices.

    ``extremes`` maps an ordered point pair to its pair extremes at radius d
    (None when the pair is farther apart than 2d); it is read and filled, so
    one table can serve every hull of one radius.
    """
    hull = convex_hull(candidates)
    verts = list(hull.vertices)
    hull_verts = tuple(verts)

    if len(verts) == 1:
        return BallHull((verts[0],), (), d, ())

    def pair_extremes(u, w):
        key = (u, w) if u <= w else (w, u)
        if key not in extremes:
            u, w = key
            # at half scale, which is exact, so that neither side overflows
            if gauge_scalar(plane, w.x / 2 - u.x / 2, w.y / 2 - u.y / 2) > d * (1 + 1e-12):
                extremes[key] = None
            else:
                # a tuple of points holds no container the garbage collector
                # must keep scanning while the table lives
                extremes[key] = tuple(_pair_extremes(plane, u, w, d))
        return extremes[key]

    # A gauge at most d, with a band relative to d for the pair extremes and
    # one for the rounding of coordinates far from the origin in each
    # difference; both scale with the input.
    spread = max(max(abs(v.x), abs(v.y)) for v in verts) * 2.0 ** -49  # 8 ulps, no overflow
    lim = d * (1 + 1e-9) + gauge_scalar(plane, spread, spread)

    # arc-clipping: drop any vertex inside the pair-hull of its neighbours
    changed = True
    while changed and len(verts) >= 3:
        changed = False
        i = 0
        while i < len(verts) and len(verts) >= 3:
            u = verts[i - 1]
            v = verts[i]
            w = verts[(i + 1) % len(verts)]
            ext = pair_extremes(u, w)
            if ext is not None:
                inside = all(
                    gauge_scalar(plane, v.x - e.x, v.y - e.y) <= lim for e in ext
                )
                if inside:
                    del verts[i]
                    changed = True
                    continue
            i += 1

    # canonical rotation: start the cycle at the lexicographic minimum
    start = min(range(len(verts)), key=lambda i: verts[i])
    verts = verts[start:] + verts[:start]

    # assemble arcs; every adjacency needs at least one covering extreme center
    if len(verts) == 2:
        adjacencies = [(verts[0], verts[1]), (verts[1], verts[0])]
    else:
        adjacencies = [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]
    arcs: list[Arc] = []
    centers: list[Point] = []
    for p, q in adjacencies:
        ext = pair_extremes(p, q)
        if ext is None:
            raise NoBallContainsS("adjacent hull vertices farther apart than 2d")
        covering = [e for e in ext if _covers(plane, e, hull_verts, lim)]
        if not covering:
            raise NoBallContainsS("no radius-d ball covers the set through an arc")
        deepest = max(covering, key=lambda z: (_signed_depth(p, q, z), (-z.x, -z.y)))
        arcs.append(Arc(deepest, d, p, q, -1))
        for e in covering:
            if e not in centers:
                centers.append(e)
    return BallHull(tuple(verts), tuple(arcs), d, tuple(centers))


def ball_hull(plane: NormedPlane, points, d: float) -> BallHull:
    """Boundary representation of bh(points, d)."""
    pts = [Point(float(p[0]), float(p[1])) for p in points]
    check_finite(pts)
    if not pts:
        raise EmptyInput("ball hull of an empty set")
    if not d > 0:  # NaN fails too
        raise NormClustError("radius must be positive")
    return _bh_from_candidates(plane, pts, d, {})


def bh_contains(plane: NormedPlane, hull: BallHull, x, tol: float = 1e-9) -> bool:
    """Closed membership in the hull region, with a band of ``tol * d``;
    raises NonFinitePoint for a non-finite probe, BadBounds for a NaN or negative tol."""
    if not tol >= 0:
        raise BadBounds("tol must be a number >= 0")
    px, py = float(x[0]), float(x[1])
    check_finite([(px, py)])
    d = hull.radius
    band = tol * d
    if len(hull.vertices) == 1:
        v = hull.vertices[0]
        return abs(px - v.x) <= band and abs(py - v.y) <= band
    for c in hull.support_centers:
        if gauge(plane, (px - c.x, py - c.y)) > d + band:
            return False
    return True


# --------------------------------------------------------------------------
# the tree of hulls


class _Overfull:
    """Marker for a subtree that no radius-d ball contains; any query is
    guaranteed to find a far point beneath it."""

    def __repr__(self):
        return "OVERFULL"


OVERFULL = _Overfull()


# Points per leaf.  A bucket's hull is built once from its points, where
# single-point leaves would build it again at each of the five lowest levels.
# Six trees shaped like the balltree benchmark's (1,000 uniform points;
# Euclidean, L1 and two-arc; d = 0.7 and 0.3 diam), built in one process
# with the variants interleaved, 2-vCPU Xeon: 394-471 ms per six builds with
# one point per leaf, 187-191 ms with buckets of 8, 111-143 ms with 16 and
# 92-95 ms with 32.  Query and deletion medians stayed within 10% of the
# single-point tree's at every size.
_BUCKET = 32


@dataclass
class BallHullTree:
    plane: NormedPlane
    d: float
    points: list[Point]        # sorted by (x, y); leaf b holds points[b*_BUCKET:(b+1)*_BUCKET]
    alive: list[bool]
    _size: int = field(init=False)    # leaf slots, a power of two
    _hulls: list = field(init=False)  # heap-indexed: node i children 2i+1, 2i+2
    _extremes: dict = field(init=False, default_factory=dict)  # pair extremes at radius d

    def __post_init__(self):
        n = max(1, -(-len(self.points) // _BUCKET))
        size = 1
        while size < n:
            size *= 2
        self._size = size
        self._hulls = [None] * (2 * size - 1)
        for node in range(2 * size - 2, -1, -1):
            self._rebuild(node)

    def _bucket(self, leaf: int) -> range:
        """Indices into ``points`` of the bucket at leaf slot ``leaf``."""
        return range(leaf * _BUCKET, min((leaf + 1) * _BUCKET, len(self.points)))

    def _rebuild(self, node: int) -> None:
        """A leaf's hull from its live points, an inner node's from its
        children's vertices; OVERFULL when no radius-d ball covers them."""
        if node >= self._size - 1:
            candidates = [self.points[i] for i in self._bucket(node - self._size + 1) if self.alive[i]]
        else:
            left = self._hulls[2 * node + 1]
            right = self._hulls[2 * node + 2]
            if left is OVERFULL or right is OVERFULL:
                self._hulls[node] = OVERFULL
                return
            if left is None or right is None:
                self._hulls[node] = right if left is None else left
                return
            candidates = list(left.vertices) + list(right.vertices)
        if not candidates:
            self._hulls[node] = None
            return
        try:
            self._hulls[node] = _bh_from_candidates(self.plane, candidates, self.d, self._extremes)
        except NoBallContainsS:
            self._hulls[node] = OVERFULL

    @property
    def root(self):
        return self._hulls[0]


def build_tree(plane: NormedPlane, points, d: float) -> BallHullTree:
    """Complete binary tree over buckets of x-sorted points; each node holds
    the ball hull of the live points beneath it, or OVERFULL."""
    pts = sorted(Point(float(p[0]), float(p[1])) for p in points)
    check_finite(pts)
    if not pts:
        raise EmptyInput("tree of an empty set")
    if not d > 0:  # NaN fails too
        raise NormClustError("radius must be positive")
    return BallHullTree(plane, d, pts, [True] * len(pts))


def query_far_point(tree: BallHullTree, u) -> Optional[Point]:
    """Some live v with gauge(u - v) >= d, or None.

    At a node holding a hull, its vertices decide: if every vertex is closer
    than d, the whole hull (hence every live point beneath) lies in the open
    ball around u, since a ball containing the vertices contains all their
    minimal arcs.  A node with no covering ball always holds a far point, so
    the search descends into it, left child first; an OVERFULL leaf is
    scanned.

    The answer is the farthest vertex of the leftmost hull on the search
    path that has a vertex at distance >= d or, when an OVERFULL leaf comes
    first, that bucket's first far live point in (x, y) order.
    """
    ux, uy = float(u[0]), float(u[1])
    if not (math.isfinite(ux) and math.isfinite(uy)):
        # not check_finite: a query costs a few microseconds, the generic
        # check would add a third
        raise NonFinitePoint("point coordinates must be finite")

    return _far_point(tree, 0, ux, uy)


def _far_point(tree: BallHullTree, node: int, ux: float, uy: float) -> Optional[Point]:
    """query_far_point below ``node`` (a module function: a closure made per
    query costs a tenth of a query)."""
    h = tree._hulls[node]
    if h is None:
        return None
    if h is OVERFULL:
        if node >= tree._size - 1:
            # no radius-d ball covers the bucket, so the one around u
            # misses a live point; stop at the first
            for i in tree._bucket(node - tree._size + 1):
                v = tree.points[i]
                if tree.alive[i] and gauge_scalar(tree.plane, v.x - ux, v.y - uy) >= tree.d:
                    return v
        else:
            for child in (2 * node + 1, 2 * node + 2):
                got = _far_point(tree, child, ux, uy)
                if got is not None:
                    return got
        raise NormClustError("internal: overfull node without a far point")
    best, best_g = None, -1.0
    for v in h.vertices:
        g = gauge_scalar(tree.plane, v.x - ux, v.y - uy)
        if g > best_g:
            best, best_g = v, g
    return best if best_g >= tree.d else None


def delete_point(tree: BallHullTree, p) -> None:
    """Mark a live point dead, rebuild its bucket's hull from the bucket's
    remaining live points, then the hulls along the root path.

    Of equal points, the first live one goes.
    """
    target = Point(float(p[0]), float(p[1]))
    pts = tree.points
    idx = bisect.bisect_left(pts, target)
    while idx < len(pts) and pts[idx] == target and not tree.alive[idx]:
        idx += 1
    if idx == len(pts) or pts[idx] != target:
        raise NotPresent(f"{target} is not a live point of the tree")
    tree.alive[idx] = False
    node = tree._size - 1 + idx // _BUCKET
    tree._rebuild(node)
    while node > 0:
        node = (node - 1) // 2
        tree._rebuild(node)
