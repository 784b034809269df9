"""Normed planes: unit-ball descriptors, gauge evaluation, and sphere geometry.

A plane is described by its unit ball -- Euclidean disk, centrally symmetric
convex polygon, or the "two-arc" lens bounded by two circular arcs.  All
distance queries go through the Minkowski gauge of the ball.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    DegenerateBody,
    NonFinitePoint,
    NotConvex,
    NotSymmetric,
    OriginNotInterior,
    ZeroDirection,
)

DEFAULT_TOL = 1e-9


class Point(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class Segment:
    """Closed segment; ``a == b`` is allowed and means a single point."""

    a: Point
    b: Point

    @property
    def degenerate(self) -> bool:
        return self.a == self.b


def as_array(points) -> np.ndarray:
    """Coerce a point, or sequence of points, to a float ndarray (..., 2)."""
    arr = np.asarray(points, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("expected 2d coordinates")
    return arr


def check_finite(points) -> None:
    """Raise NonFinitePoint if a coordinate of a point is NaN or infinite."""
    if not all(map(math.isfinite, itertools.chain.from_iterable(points))):
        raise NonFinitePoint("point coordinates must be finite")


def finite_points(points) -> np.ndarray:
    """A point sequence as a float (n, 2) array, n >= 0, after check_finite."""
    arr = as_array([tuple(p) for p in points] or np.empty((0, 2)))
    check_finite(arr.tolist())
    return arr


def _rot90(v):
    return np.array([-v[1], v[0]])


# --------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class EuclideanNorm:
    kind: str = field(default="euclidean", init=False)


@dataclass(frozen=True)
class PolygonNorm:
    """Unit ball given by a centrally symmetric convex polygon (CCW)."""

    vertices: tuple[Point, ...]
    kind: str = field(default="polygon", init=False)


@dataclass(frozen=True)
class TwoArcNorm:
    """Unit sphere made of two circular arcs of radius R centered at
    (0, +-c), meeting at (+-sqrt(R^2 - c^2), 0).  Requires R > c > 0."""

    center_height: float
    radius: float
    kind: str = field(default="two_arc", init=False)


NormDescriptor = Union[EuclideanNorm, PolygonNorm, TwoArcNorm]


@dataclass(frozen=True)
class NormedPlane:
    descriptor: NormDescriptor
    tolerance: float = DEFAULT_TOL
    # polygon-only caches (facet normals / offsets of the reduced polygon)
    _normals: np.ndarray | None = field(default=None, repr=False, compare=False)
    _offsets: np.ndarray | None = field(default=None, repr=False, compare=False)
    _verts: np.ndarray | None = field(default=None, repr=False, compare=False)


# --------------------------------------------------------------------------
# validation


def _strip_collinear(verts: np.ndarray, eps: float) -> np.ndarray:
    """Remove vertices that lie on the segment between their neighbours."""
    keep = list(range(len(verts)))
    changed = True
    while changed and len(keep) > 2:
        changed = False
        for idx in range(len(keep)):
            i0 = keep[idx - 1]
            i1 = keep[idx]
            i2 = keep[(idx + 1) % len(keep)]
            e1 = verts[i1] - verts[i0]
            e2 = verts[i2] - verts[i1]
            if abs(e1[0] * e2[1] - e1[1] * e2[0]) <= eps:
                del keep[idx]
                changed = True
                break
    return verts[keep]


def validate_norm(descriptor: NormDescriptor, tolerance: float = DEFAULT_TOL) -> NormedPlane:
    """Validate a descriptor and build an immutable plane.

    Raises NotSymmetric, NotConvex, OriginNotInterior or DegenerateBody when
    the descriptor does not define a symmetric convex body with the origin
    strictly inside.
    """
    if isinstance(descriptor, EuclideanNorm):
        return NormedPlane(descriptor, tolerance)

    if isinstance(descriptor, TwoArcNorm):
        c, r = descriptor.center_height, descriptor.radius
        if not (math.isfinite(c) and math.isfinite(r)):
            raise DegenerateBody("two-arc parameters must be finite")
        if c <= 0 or r <= c:
            raise DegenerateBody("two-arc norm requires R > c > 0")
        return NormedPlane(descriptor, tolerance)

    if isinstance(descriptor, PolygonNorm):
        verts = as_array([tuple(v) for v in descriptor.vertices])
        if len(verts) == 0 or not np.all(np.isfinite(verts)):
            raise DegenerateBody("polygon vertices must be finite and nonempty")
        scale = float(np.abs(verts).max())
        tol_len = tolerance * max(1.0, scale)
        # central symmetry: every vertex must have its negation among the vertices
        for v in verts:
            if np.abs(verts + v).max(axis=1).min() > tol_len:
                raise NotSymmetric(f"vertex {tuple(v)} has no opposite vertex")
        # orientation and convexity
        x, y = verts[:, 0], verts[:, 1]
        area2 = float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        if area2 < 0:
            verts = verts[::-1].copy()
        edges = np.roll(verts, -1, axis=0) - verts
        crosses = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
        tol_area = tolerance * max(1.0, scale) ** 2
        if np.any(crosses < -tol_area):
            raise NotConvex("polygon has a reflex vertex")
        if abs(area2) <= tol_area:
            raise DegenerateBody("polygon has (near) zero area")
        reduced = _strip_collinear(verts, tol_area)
        if len(reduced) < 4:
            raise DegenerateBody("symmetric convex body needs at least 4 vertices")
        edges = np.roll(reduced, -1, axis=0) - reduced
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
        offsets = np.einsum("ij,ij->i", normals, reduced)
        if np.any(offsets <= tol_len * np.linalg.norm(normals, axis=1)):
            raise OriginNotInterior("origin must be strictly inside the unit ball")
        plane = NormedPlane(
            PolygonNorm(tuple(Point(*v) for v in verts)),
            tolerance,
            _normals=normals,
            _offsets=offsets,
            _verts=reduced,
        )
        _spot_check(plane)
        return plane

    raise TypeError(f"unknown descriptor {descriptor!r}")


def _spot_check(plane: NormedPlane) -> None:
    """Cheap sampled sanity check of gauge symmetry and subadditivity."""
    rng = np.random.default_rng(0)
    u = rng.normal(size=(8, 2))
    v = rng.normal(size=(8, 2))
    gu, gv = gauge(plane, u), gauge(plane, v)
    if np.any(np.abs(gu - gauge(plane, -u)) > 1e-7 * (1 + gu)):
        raise NotSymmetric("gauge failed the symmetry spot check")
    if np.any(gauge(plane, u + v) > gu + gv + 1e-7 * (1 + gu + gv)):
        raise NotConvex("gauge failed the triangle-inequality spot check")


# convenience constructors -------------------------------------------------


def euclidean_plane(tolerance: float = DEFAULT_TOL) -> NormedPlane:
    return validate_norm(EuclideanNorm(), tolerance)


def polygon_plane(vertices: Sequence, tolerance: float = DEFAULT_TOL) -> NormedPlane:
    return validate_norm(PolygonNorm(tuple(Point(*v) for v in vertices)), tolerance)


def l1_plane(tolerance: float = DEFAULT_TOL) -> NormedPlane:
    return polygon_plane([(1, 0), (0, 1), (-1, 0), (0, -1)], tolerance)


def linf_plane(tolerance: float = DEFAULT_TOL) -> NormedPlane:
    return polygon_plane([(1, 1), (-1, 1), (-1, -1), (1, -1)], tolerance)


def two_arc_plane(center_height: float, radius: float, tolerance: float = DEFAULT_TOL) -> NormedPlane:
    return validate_norm(TwoArcNorm(center_height, radius), tolerance)


# --------------------------------------------------------------------------
# gauge and distances


def gauge(plane: NormedPlane, v):
    """Minkowski gauge of ``v``: the smallest t > 0 with v in t * unit ball.

    Accepts a single vector or an array of shape (..., 2); broadcasts.
    """
    arr = as_array(v)
    single = arr.ndim == 1
    pts = arr.reshape(-1, 2)
    desc = plane.descriptor
    if isinstance(desc, EuclideanNorm):
        out = np.hypot(pts[:, 0], pts[:, 1])
    elif isinstance(desc, PolygonNorm):
        out = np.max((pts @ plane._normals.T) / plane._offsets, axis=1)
        out = np.maximum(out, 0.0)
    else:
        h, r = desc.center_height, desc.radius
        a = r * r - h * h
        hy = h * np.abs(pts[:, 1])
        out = (hy + np.sqrt(hy * hy + a * np.einsum("ij,ij->i", pts, pts))) / a
    out = out.reshape(arr.shape[:-1])
    return float(out) if single else out


def gauge_scalar(plane: NormedPlane, vx: float, vy: float) -> float:
    """Scalar gauge without array plumbing; hot-loop companion of gauge()."""
    desc = plane.descriptor
    if isinstance(desc, EuclideanNorm):
        return math.hypot(vx, vy)
    if isinstance(desc, PolygonNorm):
        N, b = plane._normals, plane._offsets
        best = 0.0
        for f in range(len(b)):
            t = (N[f, 0] * vx + N[f, 1] * vy) / b[f]
            if t > best:
                best = t
        return best
    h, r = desc.center_height, desc.radius
    a = r * r - h * h
    hy = h * abs(vy)
    return (hy + math.sqrt(hy * hy + a * (vx * vx + vy * vy))) / a


def dist(plane: NormedPlane, p, q):
    """Gauge distance between two points (or arrays of points)."""
    return gauge(plane, as_array(q) - as_array(p))


def pairwise_distances(plane: NormedPlane, points) -> np.ndarray:
    """Full (n, n) matrix of gauge distances."""
    arr = as_array(points)
    diff = arr[:, None, :] - arr[None, :, :]
    return gauge(plane, diff.reshape(-1, 2)).reshape(len(arr), len(arr))


def boundary_point(plane: NormedPlane, direction) -> Point:
    """Intersection of the ray from the origin through ``direction`` with the
    unit sphere."""
    d = as_array(direction)
    g = gauge(plane, d)
    if g <= plane.tolerance * max(1.0, float(np.abs(d).max())):
        raise ZeroDirection("direction must be nonzero")
    return Point(float(d[0] / g), float(d[1] / g))


# --------------------------------------------------------------------------
# support structure / Birkhoff orthogonality


def _outward_normals(plane: NormedPlane, bp: np.ndarray) -> list[np.ndarray]:
    """Euclid-normalized outward normals of the unit sphere at boundary point
    ``bp``; two entries when bp is a corner."""
    desc = plane.descriptor
    tol = plane.tolerance
    if isinstance(desc, EuclideanNorm):
        return [bp / np.linalg.norm(bp)]
    if isinstance(desc, PolygonNorm):
        res = np.abs(plane._normals @ bp - plane._offsets)
        scale = np.linalg.norm(plane._normals, axis=1) * max(1.0, float(np.linalg.norm(bp)))
        active = np.nonzero(res <= 1e3 * tol * scale)[0]
        out = [plane._normals[i] / np.linalg.norm(plane._normals[i]) for i in active]
        return out if out else [bp / np.linalg.norm(bp)]
    h, r = desc.center_height, desc.radius
    out = []
    for cy in (h, -h):
        c = np.array([0.0, cy])
        if abs(np.linalg.norm(bp - c) - r) <= 1e3 * tol * r:
            n = (bp - c) / np.linalg.norm(bp - c)
            out.append(n)
    return out if out else [bp / np.linalg.norm(bp)]


def birkhoff_orthogonal(plane: NormedPlane, x) -> Point:
    """A unit-gauge direction y with gauge(x) <= gauge(x + t*y) for all t.

    y spans a support line of the unit ball at boundary_point(x).  At corners
    the vertical direction is preferred when it supports; otherwise the
    support direction bisecting the normal cone is returned.
    """
    bp = np.asarray(boundary_point(plane, x), dtype=float)
    normals = _outward_normals(plane, bp)
    if len(normals) == 1:
        y = _rot90(normals[0])
    else:
        n1, n2 = normals[0], normals[1]
        if n1[0] * n2[1] - n1[1] * n2[0] < 0:
            n1, n2 = n2, n1

        def in_cone(e):
            return (n1[0] * e[1] - n1[1] * e[0] >= -plane.tolerance) and (
                e[0] * n2[1] - e[1] * n2[0] >= -plane.tolerance
            )

        if in_cone((1.0, 0.0)) or in_cone((-1.0, 0.0)):
            y = np.array([0.0, 1.0])
        else:
            nb = n1 + n2
            y = _rot90(nb / np.linalg.norm(nb))
    g = gauge(plane, y)
    y = y / g
    # orient y counterclockwise from x for determinism
    xa = as_array(x)
    if xa[0] * y[1] - xa[1] * y[0] < 0:
        y = -y
    return Point(float(y[0]), float(y[1]))


# --------------------------------------------------------------------------
# sphere/sphere intersection


@dataclass(frozen=True)
class SphereIntersection:
    """S(p, d) and S(q, d) meet in at most two segments, possibly degenerate."""

    components: tuple[Segment, ...]

    @property
    def extreme_points(self) -> tuple[tuple[Point, Point], ...]:
        return tuple((seg.a, seg.b) for seg in self.components)

    @property
    def empty(self) -> bool:
        return not self.components

    def all_extremes(self) -> list[Point]:
        pts: list[Point] = []
        for seg in self.components:
            pts.append(seg.a)
            if seg.b != seg.a:
                pts.append(seg.b)
        return pts


def _circle_circle(c1, r1, c2, r2, eps):
    """Intersection points of two Euclidean circles."""
    c1, c2 = np.asarray(c1, float), np.asarray(c2, float)
    d = float(np.linalg.norm(c2 - c1))
    if d <= eps:
        return []
    if d > r1 + r2 + eps or d < abs(r1 - r2) - eps:
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2 * d)
    h2 = r1 * r1 - a * a
    u = (c2 - c1) / d
    base = c1 + a * u
    if h2 <= eps * max(1.0, r1 * r1):
        return [base]
    h = math.sqrt(max(h2, 0.0))
    n = _rot90(u)
    return [base + h * n, base - h * n]


def _twoarc_sphere_arcs(desc: TwoArcNorm, center, d):
    """The two circular arcs making up S(center, d) for a two-arc norm.
    Returns [(circle_center, radius, is_upper)] where is_upper means the arc
    bounds the sphere from above (y >= center_y side)."""
    h, r = desc.center_height, desc.radius
    cx, cy = float(center[0]), float(center[1])
    return [
        (np.array([cx, cy - d * h]), d * r, True),   # upper arc
        (np.array([cx, cy + d * h]), d * r, False),  # lower arc
    ]


def _on_twoarc_arc(z, center, arc, eps):
    c, r, upper = arc
    if abs(np.linalg.norm(z - c) - r) > eps:
        return False
    return z[1] >= center[1] - eps if upper else z[1] <= center[1] + eps


def _merge_components(prims: list[tuple[np.ndarray, np.ndarray]], eps) -> list[Segment]:
    """Union-find over primitive pieces, then reduce each component to its
    extreme points."""
    n = len(prims)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for i in range(n):
        for j in range(i + 1, n):
            pts_i = prims[i]
            pts_j = prims[j]
            close = any(
                np.linalg.norm(a - b) <= eps for a in pts_i for b in pts_j
            )
            if close:
                union(i, j)
    groups: dict[int, list[np.ndarray]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).extend(prims[i])
    comps = []
    for pts in groups.values():
        arr = np.array(pts)
        span = arr.max(axis=0) - arr.min(axis=0)
        if np.linalg.norm(span) <= eps:
            m = arr.mean(axis=0)
            p = Point(float(m[0]), float(m[1]))
            comps.append(Segment(p, p))
        else:
            axis = 0 if span[0] >= span[1] else 1
            lo = arr[np.argmin(arr[:, axis])]
            hi = arr[np.argmax(arr[:, axis])]
            comps.append(Segment(Point(float(lo[0]), float(lo[1])), Point(float(hi[0]), float(hi[1]))))
    comps.sort(key=lambda s: (min(s.a, s.b), max(s.a, s.b)))
    return comps


def sphere_sphere_intersection(plane: NormedPlane, p, q, d: float) -> SphereIntersection:
    """Components of S(p, d) cap S(q, d); empty if the points are too far."""
    pa, qa = as_array(p), as_array(q)
    desc = plane.descriptor
    scale = max(1.0, d, float(np.abs(pa).max()), float(np.abs(qa).max()))
    eps = 1e3 * plane.tolerance * scale

    if isinstance(desc, EuclideanNorm):
        pts = _circle_circle(pa, d, qa, d, eps)
        comps = [
            Segment(Point(float(z[0]), float(z[1])), Point(float(z[0]), float(z[1])))
            for z in pts
        ]
        comps.sort(key=lambda s: s.a)
        return SphereIntersection(tuple(comps))

    if isinstance(desc, TwoArcNorm):
        arcs_p = _twoarc_sphere_arcs(desc, pa, d)
        arcs_q = _twoarc_sphere_arcs(desc, qa, d)
        found: list[np.ndarray] = []
        for ap in arcs_p:
            for aq in arcs_q:
                for z in _circle_circle(ap[0], ap[1], aq[0], aq[1], eps):
                    if _on_twoarc_arc(z, pa, ap, eps) and _on_twoarc_arc(z, qa, aq, eps):
                        if not any(np.linalg.norm(z - w) <= eps for w in found):
                            found.append(z)
        comps = [
            Segment(Point(float(z[0]), float(z[1])), Point(float(z[0]), float(z[1])))
            for z in found
        ]
        comps.sort(key=lambda s: s.a)
        return SphereIntersection(tuple(comps))

    # polygon: both spheres are convex polygon boundaries
    shape = plane._verts
    q1 = pa + d * shape
    q2 = qa + d * shape
    prims: list[tuple[np.ndarray, np.ndarray]] = []
    m1, m2 = len(q1), len(q2)
    for i in range(m1):
        a1, a2 = q1[i], q1[(i + 1) % m1]
        for j in range(m2):
            b1, b2 = q2[j], q2[(j + 1) % m2]
            hit = _seg_seg_intersection(a1, a2, b1, b2, eps)
            if hit is not None:
                prims.append(hit)
    if not prims:
        return SphereIntersection(())
    comps = _merge_components(prims, 4 * eps)
    while len(comps) > 2:
        # float dust: merge the two closest components
        best, bi, bj = None, 0, 1
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                gap = min(
                    np.linalg.norm(np.asarray(u) - np.asarray(v))
                    for u in (comps[i].a, comps[i].b)
                    for v in (comps[j].a, comps[j].b)
                )
                if best is None or gap < best:
                    best, bi, bj = gap, i, j
        merged = _merge_components(
            [
                (np.asarray(comps[bi].a), np.asarray(comps[bi].b)),
                (np.asarray(comps[bj].a), np.asarray(comps[bj].b)),
            ],
            np.inf,
        )
        comps = [c for k, c in enumerate(comps) if k not in (bi, bj)] + merged
        comps.sort(key=lambda s: (min(s.a, s.b), max(s.a, s.b)))
    return SphereIntersection(tuple(comps))


def _seg_seg_intersection(a1, a2, b1, b2, eps):
    """Closed segment intersection, returned as a tuple of 1 or 2 endpoints."""
    d1 = a2 - a1
    d2 = b2 - b1
    den = d1[0] * d2[1] - d1[1] * d2[0]
    r = b1 - a1
    len1 = np.linalg.norm(d1)
    len2 = np.linalg.norm(d2)
    if abs(den) > eps * max(len1 * len2, 1e-30):
        t = (r[0] * d2[1] - r[1] * d2[0]) / den
        u = (r[0] * d1[1] - r[1] * d1[0]) / den
        te = eps / max(len1, 1e-30)
        ue = eps / max(len2, 1e-30)
        if -te <= t <= 1 + te and -ue <= u <= 1 + ue:
            z = a1 + np.clip(t, 0.0, 1.0) * d1
            return (z, z.copy())
        return None
    # parallel: collinear overlap?
    if abs(d1[0] * r[1] - d1[1] * r[0]) > eps * max(len1, 1.0):
        return None
    if len1 <= eps:  # degenerate edge
        if np.linalg.norm(a1 - b1) <= eps or len2 > eps and 0 <= np.dot(a1 - b1, d2) / (len2 * len2) <= 1:
            return (a1, a1.copy())
        return None
    s1 = 0.0
    s2 = 1.0
    t1 = np.dot(b1 - a1, d1) / (len1 * len1)
    t2 = np.dot(b2 - a1, d1) / (len1 * len1)
    lo = max(min(s1, s2), min(t1, t2))
    hi = min(max(s1, s2), max(t1, t2))
    if lo > hi + eps / len1:
        return None
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    return (a1 + lo * d1, a1 + hi * d1)
