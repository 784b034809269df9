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
    NonFiniteResult,
    NormClustError,
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
    """A point sequence as a float (n, 2) array, n >= 0; raises
    NonFinitePoint as check_finite does."""
    arr = as_array([tuple(p) for p in points] or np.empty((0, 2)))
    if not np.isfinite(arr).all():
        raise NonFinitePoint("point coordinates must be finite")
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
    # Gauge coefficients, fixed at validation.  Polygon: the facets' polar
    # rows u_f = n_f / b_f (n_f . z = b_f on facet f) as an (m, 2) array and
    # as (s, rows), rows the float (ux, uy) / s and s the least power of two
    # >= 1 taking them below 1; its vertices, edge f from vertex f to f + 1.
    # Two-arc: (c / a, r / a, 1 / sqrt(a)) with a = r^2 - c^2.
    _polar: np.ndarray | None = field(default=None, repr=False, compare=False)
    _coef: tuple | None = field(default=None, repr=False, compare=False)
    _verts: tuple | None = field(default=None, repr=False, compare=False)


# --------------------------------------------------------------------------
# validation


def _strip_collinear(verts: list, eps: float) -> list:
    """Remove vertices that lie on the segment between their neighbours."""
    keep = list(verts)
    changed = True
    while changed and len(keep) > 2:
        changed = False
        for idx in range(len(keep)):
            (x0, y0), (x1, y1), (x2, y2) = keep[idx - 1], keep[idx], keep[(idx + 1) % len(keep)]
            if abs((x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1)) <= eps:
                del keep[idx]
                changed = True
                break
    return keep


def validate_norm(descriptor: NormDescriptor, tolerance: float = DEFAULT_TOL) -> NormedPlane:
    """Validate a descriptor and build an immutable plane.

    Raises NotSymmetric, NotConvex, OriginNotInterior or DegenerateBody when
    the descriptor does not define a symmetric convex body with the origin
    strictly inside, and DegenerateBody for a tolerance that is not finite
    and >= 0.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DegenerateBody("tolerance must be finite and >= 0")
    if isinstance(descriptor, EuclideanNorm):
        return NormedPlane(descriptor, tolerance)

    if isinstance(descriptor, TwoArcNorm):
        c, r = descriptor.center_height, descriptor.radius
        if not (math.isfinite(c) and math.isfinite(r)):
            raise DegenerateBody("two-arc parameters must be finite")
        a = r * r - c * c
        if not (c > 0 and r > c and 0 < a < math.inf):
            raise DegenerateBody("two-arc norm requires R > c > 0 and R^2 - c^2 a positive float")
        return NormedPlane(descriptor, tolerance, _coef=(c / a, r / a, 1 / math.sqrt(a)))

    if isinstance(descriptor, PolygonNorm):
        verts = as_array([tuple(v) for v in descriptor.vertices])
        if len(verts) == 0 or not np.isfinite(verts).all():
            raise DegenerateBody("polygon vertices must be finite and nonempty")
        scale = float(np.abs(verts).max())
        tol_len = tolerance * scale
        # central symmetry: every vertex must have its negation among the vertices
        lone = np.abs(verts[:, None, :] + verts).max(axis=2).min(axis=1) > tol_len
        if lone.any():
            raise NotSymmetric(f"vertex {tuple(verts[lone.argmax()])} has no opposite vertex")
        # orientation and convexity; vertex nxt[i] follows vertex i
        nxt = (np.arange(len(verts)) + 1) % len(verts)
        x, y = verts[:, 0], verts[:, 1]
        area2 = float(np.dot(x, y[nxt]) - np.dot(y, x[nxt]))
        if area2 < 0:
            verts = verts[::-1].copy()
        edges = verts[nxt] - verts
        crosses = edges[:, 0] * edges[nxt, 1] - edges[:, 1] * edges[nxt, 0]
        tol_area = tolerance * scale ** 2
        if np.any(crosses < -tol_area):
            raise NotConvex("polygon has a reflex vertex")
        if abs(area2) <= tol_area:
            raise DegenerateBody("polygon has (near) zero area")
        corners = _strip_collinear(verts.tolist(), tol_area)
        if len(corners) < 4:
            raise DegenerateBody("symmetric convex body needs at least 4 vertices")
        reduced = np.array(corners)
        edges = reduced[(np.arange(len(reduced)) + 1) % len(reduced)] - reduced
        normals = edges[:, ::-1] * (1.0, -1.0)  # (e_y, -e_x)
        offsets = np.einsum("ij,ij->i", normals, reduced)
        if np.any(offsets <= tol_len * np.sqrt(np.einsum("ij,ij->i", normals, normals))):
            raise OriginNotInterior("origin must be strictly inside the unit ball")
        polar = normals / offsets[:, None]
        s = math.ldexp(1.0, max(0, math.frexp(float(np.abs(polar).max()))[1]))
        plane = NormedPlane(
            PolygonNorm(tuple(Point(*v) for v in verts)),
            tolerance,
            _polar=polar,
            _coef=(s, tuple(map(tuple, (polar / s).tolist()))),
            _verts=tuple(map(tuple, corners)),
        )
        _spot_check(plane)
        return plane

    raise TypeError(f"unknown descriptor {descriptor!r}")


# the sample vectors u (first 8) and v (last 8) of _spot_check
_SPOT = np.random.default_rng(0).normal(size=(16, 2))
_SPOT.flags.writeable = False


def _spot_check(plane: NormedPlane) -> None:
    """Cheap sampled sanity check of gauge symmetry and subadditivity."""
    u, v = _SPOT[:8], _SPOT[8:]
    gu, gv, gneg, gsum = gauge(plane, np.concatenate([_SPOT, -u, u + v])).reshape(4, 8)
    if np.any(np.abs(gu - gneg) > 1e-7 * (1 + gu)):
        raise NotSymmetric("gauge failed the symmetry spot check")
    if np.any(gsum > gu + gv + 1e-7 * (1 + gu + gv)):
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
#
# One formula per family on NormedPlane's coefficients: hypot(x, y);
# s max(0, max_f (u_f / s) . v) on a polygon (s, a power of two, changes no
# bit); kc |y| + hypot(ky y, kx x) on a two-arc norm, which is the lens's
# (c |y| + sqrt(c^2 y^2 + a (x^2 + y^2))) / a as c^2 y^2 + a (x^2 + y^2) =
# r^2 y^2 + a x^2.  Nothing is squared and no product exceeds |v| or the
# gauge, so a gauge that fits a float does not overflow.  gauge, gauge_scalar
# and pairwise_distances use the same IEEE operations and agree bit for bit,
# but for math.hypot in the Euclidean gauge_scalar, an ulp off np.hypot.


def gauge(plane: NormedPlane, v):
    """Minkowski gauge of ``v``: the smallest t > 0 with v in t * unit ball.

    Accepts a single vector, evaluated by gauge_scalar, or an array of shape
    (..., 2); broadcasts.
    """
    arr = as_array(v)
    if arr.ndim == 1:
        return gauge_scalar(plane, float(arr[0]), float(arr[1]))
    pts = arr.reshape(-1, 2)
    return _gauge_xy(plane, pts[:, 0].copy(), pts[:, 1].copy()).reshape(arr.shape[:-1])


def _gauge_xy(plane: NormedPlane, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gauges of the vectors (x, y), elementwise, in whatever error state
    the caller set; x may be overwritten."""
    desc = plane.descriptor
    if isinstance(desc, EuclideanNorm):
        return np.hypot(x, y, out=x)
    if isinstance(desc, TwoArcNorm):
        kc, ky, kx = plane._coef
        return np.hypot(ky * y, kx * x) + kc * np.abs(y)
    scale, rows = plane._coef
    if x.ndim == 1:  # gauge(): every facet at once, a (len(x), facets) product
        u = plane._polar / scale
        out = (x[:, None] * u[:, 0] + y[:, None] * u[:, 1]).max(axis=1, initial=0.0)
    else:  # a distance matrix: one facet at a time, with no (n, m, facets) product
        out, t, s = np.zeros_like(x), np.empty_like(x), np.empty_like(x)
        for ux, uy in rows:
            np.multiply(x, ux, out=t)
            t += np.multiply(y, uy, out=s)
            np.maximum(out, t, out=out)
    out *= scale
    return out


def gauge_scalar(plane: NormedPlane, vx: float, vy: float) -> float:
    """Scalar gauge without array plumbing; hot-loop companion of gauge()."""
    desc = plane.descriptor
    if isinstance(desc, EuclideanNorm):
        return math.hypot(vx, vy)
    if isinstance(desc, TwoArcNorm):
        kc, ky, kx = plane._coef
        try:
            return kc * abs(vy) + abs(complex(ky * vy, kx * vx))  # libm hypot, as np.hypot
        except OverflowError:  # the hypot is beyond the floats: inf, as np.hypot gives
            return math.inf
    scale, rows = plane._coef
    best = 0.0
    for ux, uy in rows:
        t = ux * vx + uy * vy
        if t > best:
            best = t
    return scale * (best if t == t else t)  # NaN in, NaN out, as np.maximum gives


def dist(plane: NormedPlane, p, q):
    """Gauge distance between two points (or arrays of points)."""
    return gauge(plane, as_array(q) - as_array(p))


def pairwise_distances(plane: NormedPlane, points, others=None) -> np.ndarray:
    """The (n, m) matrix of gauge(points[i] - others[j]); others defaults to
    points.  Each entry depends only on its two points, so it is the same
    bits in every matrix that holds the pair.  A distance between finite
    points too large for a float raises NonFiniteResult."""
    arr = as_array(points)
    ref = arr if others is None else as_array(others)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _distance_matrix(plane, arr, ref)
    except FloatingPointError:
        pass
    if not (np.isfinite(arr).all() and np.isfinite(ref).all()):
        raise NonFinitePoint("point coordinates must be finite")
    # a difference or a product overflowed where the distance may fit: the
    # entries that overflow again at half scale, which is exact
    with np.errstate(over="ignore", invalid="ignore"):
        out = _distance_matrix(plane, arr, ref)
        i, j = np.nonzero(~(out < math.inf))
        out[i, j] = 2 * gauge(plane, arr[i] / 2 - ref[j] / 2)
    if not (out < math.inf).all():
        raise NonFiniteResult("a distance between the points does not fit in a float")
    return out


def _distance_matrix(plane: NormedPlane, arr: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``pairwise_distances``' kernel, in whatever error state the caller set."""
    return _gauge_xy(plane, arr[:, None, 0] - ref[None, :, 0], arr[:, None, 1] - ref[None, :, 1])


def boundary_point(plane: NormedPlane, direction) -> Point:
    """Intersection of the ray from the origin through ``direction`` with the
    unit sphere, from the direction scaled exactly by a power of two to [1/2, 1)."""
    vx, vy = as_array(direction).tolist()
    check_finite([(vx, vy)])
    e = -math.frexp(max(abs(vx), abs(vy)))[1]
    vx, vy = math.ldexp(vx, e), math.ldexp(vy, e)
    g = gauge_scalar(plane, vx, vy)
    if not g > 0:
        raise ZeroDirection("direction must be nonzero")
    return Point(vx / g, vy / g)


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
        polar = plane._polar
        res = np.abs(polar @ bp - 1.0)
        scale = np.linalg.norm(polar, axis=1) * np.linalg.norm(bp)
        active = np.nonzero(res <= 1e3 * tol * scale)[0]
        out = [polar[i] / np.linalg.norm(polar[i]) for i in active]
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
    """Intersection points of two Euclidean circles, as (x, y) pairs.

    Two points at most 2 sqrt(eps * r1) apart merge into their midpoint,
    which then lies within about eps / 2 of both circles.
    """
    x1, y1 = c1
    dx, dy = c2[0] - x1, c2[1] - y1
    dd = math.hypot(dx, dy)
    if dd <= eps or dd > r1 + r2 + eps or dd < abs(r1 - r2) - eps:
        return []
    a = (dd * dd + r1 * r1 - r2 * r2) / (2 * dd)
    h2 = r1 * r1 - a * a
    ux, uy = dx / dd, dy / dd
    bx, by = x1 + a * ux, y1 + a * uy
    if h2 <= eps * r1:
        return [(bx, by)]
    h = math.sqrt(h2)
    return [(bx - h * uy, by + h * ux), (bx + h * uy, by - h * ux)]


def _twoarc_sphere_arcs(desc: TwoArcNorm, center, d):
    """The two circular arcs making up S(center, d) for a two-arc norm.
    Returns [(circle_center, radius, is_upper)] where is_upper means the arc
    bounds the sphere from above (y >= center_y side)."""
    h, r = desc.center_height, desc.radius
    cx, cy = float(center[0]), float(center[1])
    return [
        ((cx, cy - d * h), d * r, True),   # upper arc
        ((cx, cy + d * h), d * r, False),  # lower arc
    ]


def _on_twoarc_arc(z, center, arc, eps):
    (cx, cy), r, upper = arc
    if not (z[1] >= center[1] - eps if upper else z[1] <= center[1] + eps):
        return False
    return abs(math.hypot(z[0] - cx, z[1] - cy) - r) <= eps


def _polygon_components(plane: NormedPlane, u, d: float, eps: float) -> list:
    """Ends of the components of S(0, d) cap S(u, d) for a polygon norm.

    Edge i of S(0, d) lies where n_i . z = d b_i, with n_i the outward
    normal (y_(i+1) - y_i, x_i - x_(i+1)) of the unit ball's edge, so its
    points are -n_i . u / |n_i| outside the halfplane of edge i of S(u, d),
    and symmetrically for S(u, d): only edges of S(0, d) with n_i . u above
    -band |n_i|, and edges of S(u, d) with it below band |n_i|, are tested,
    where band = 4 eps bounds how far from an edge of the other sphere a hit
    can lie (no pruning when an edge is shorter than eps).
    """
    ux, uy = u
    verts = plane._verts
    m = len(verts)
    normals = [(y2 - y1, x1 - x2) for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1])]
    norms = [math.hypot(nx, ny) for nx, ny in normals]
    band = 4 * eps if d * min(norms) > eps else math.inf
    mine, theirs = [], []
    for i, (nx, ny) in enumerate(normals):
        sigma = nx * ux + ny * uy
        slack = band * norms[i]
        (x1, y1), (x2, y2) = verts[i], verts[i + 1 - m]
        ax, ay = d * x1, d * y1
        ex, ey = d * x2 - ax, d * y2 - ay
        if sigma >= -slack:
            mine.append((ax, ay, ex, ey, d * norms[i]))
        if sigma <= slack:
            theirs.append((ux + ax, uy + ay, ex, ey, d * norms[i]))

    hits = []  # closed segment intersections, (end, end) for a point
    for ax, ay, dx1, dy1, l1 in mine:
        te = eps / max(l1, 1e-30)
        for bx, by, dx2, dy2, l2 in theirs:
            rx, ry = bx - ax, by - ay
            den = dx1 * dy2 - dy1 * dx2
            if abs(den) > eps * max(l1 * l2, 1e-30):
                t = (rx * dy2 - ry * dx2) / den
                s = (rx * dy1 - ry * dx1) / den
                se = eps / max(l2, 1e-30)
                if -te <= t <= 1 + te and -se <= s <= 1 + se:
                    t = min(max(t, 0.0), 1.0)
                    z = (ax + t * dx1, ay + t * dy1)
                    hits.append((z, z))
            elif abs(dx1 * ry - dy1 * rx) > eps * l1:
                continue  # parallel, not collinear
            elif l1 <= eps:  # degenerate edge
                if math.hypot(rx, ry) <= eps or l2 > eps and 0 <= -(rx * dx2 + ry * dy2) / (l2 * l2) <= 1:
                    hits.append(((ax, ay), (ax, ay)))
            else:  # collinear: the overlap of the two edges
                t1 = (rx * dx1 + ry * dy1) / (l1 * l1)
                t2 = ((rx + dx2) * dx1 + (ry + dy2) * dy1) / (l1 * l1)
                lo, hi = max(0.0, min(t1, t2)), min(1.0, max(t1, t2))
                if lo <= hi + eps / l1:
                    hits.append(((ax + lo * dx1, ay + lo * dy1), (ax + hi * dx1, ay + hi * dy1)))
    return _join_hits(hits, u, eps)


def _join_hits(hits: list, u, eps: float) -> list:
    """Group hits (pairs of segment ends) of S(0, d) cap S(u, d) into its
    components, each given by its two ends.

    The point reflection z -> u - z swaps the two spheres, so it maps the
    intersection onto itself, and the hits are taken together with their
    reflections.  A common point z of the spheres has gauge(z) = gauge(z - u),
    so it lies on the line through 0 and u only at a tangency in u / 2; every
    other component lies on one side of that line, and its reflection on the
    other: at most one component per side.  The hits form one component when
    one of them lies within 2 eps of the line or a segment hit crosses it.
    """
    if not hits:
        return []
    ux, uy = u
    cx, cy = ux / 2, uy / 2
    near = 2 * eps * math.hypot(ux, uy)
    left = []  # the hits left of the line, and the reflections of the others
    for a, b in hits:
        sa = ux * (a[1] - cy) - uy * (a[0] - cx)
        sb = sa if a is b else ux * (b[1] - cy) - uy * (b[0] - cx)
        if abs(sa) <= near or abs(sb) <= near or (sa > 0) != (sb > 0):
            pts = [z for hit in hits for z in hit]
            return [_component(pts + [(ux - x, uy - y) for x, y in pts], eps)]
        if sa < 0:
            a, b = (ux - a[0], uy - a[1]), (ux - b[0], uy - b[1])
        left += (a,) if a == b else (a, b)
    a, b = _component(left, eps)
    return [(a, b), ((ux - a[0], uy - a[1]), (ux - b[0], uy - b[1]))]


def _component(pts: list, eps: float) -> tuple:
    """A connected group of hits as its two extreme points along the axis of
    larger spread, or as its mean (both ends) when it spans at most eps."""
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    sx, sy = max(xs) - min(xs), max(ys) - min(ys)
    if math.hypot(sx, sy) <= eps:
        mean = (sum(xs) / len(xs), sum(ys) / len(ys))
        return mean, mean
    k = 0 if sx >= sy else 1
    return min(pts, key=lambda z: z[k]), max(pts, key=lambda z: z[k])


def sphere_sphere_intersection(plane: NormedPlane, p, q, d: float) -> SphereIntersection:
    """Components of S(p, d) cap S(q, d); empty if the points are too far.

    The work is done on S(0, d / s) and S((q - p) / s, d / s), with s the
    least power of two above d (exact, and no square leaves the float range),
    and moved back.  The predicates share one band,
    eps = 1e3 * tolerance * max(d, |q - p|) + 4 ulp(max(|p|, |q|)) (all in
    the max norm): it scales with the spheres, not with their distance from
    the origin, and the ulps cover the rounding of q - p and of the move back.
    Coincident centres give no components: the two spheres are one, not at
    most two segments.  So does a radius d <= 0; a NaN radius raises, and
    an end beyond the floats raises NonFiniteResult.
    """
    if math.isnan(d):
        raise NormClustError("radius must be positive")
    px, py = float(p[0]), float(p[1])
    qx, qy = float(q[0]), float(q[1])
    if not d > 0 or (px == qx and py == qy):
        return SphereIntersection(())
    desc = plane.descriptor
    try:
        s = math.ldexp(1.0, math.frexp(d)[1])
    except OverflowError:  # d >= 2^1023: the spheres at half scale, which is exact, doubled
        half = sphere_sphere_intersection(plane, (px / 2, py / 2), (qx / 2, qy / 2), d / 2)
        ends = [(2 * g.a.x, 2 * g.a.y, 2 * g.b.x, 2 * g.b.y) for g in half.components]
        if not all(map(math.isfinite, itertools.chain.from_iterable(ends))):
            raise NonFiniteResult("the intersection does not fit in floats") from None
        return SphereIntersection(tuple(Segment(Point(ax, ay), Point(bx, by)) for ax, ay, bx, by in ends))
    far = max(abs(px), abs(py), abs(qx), abs(qy))
    eps = (1e3 * plane.tolerance * max(d, abs(qx - px), abs(qy - py)) + 4 * math.ulp(far)) / s
    u, r = ((qx - px) / s, (qy - py) / s), d / s
    if isinstance(desc, EuclideanNorm):
        ends = [(z, z) for z in _circle_circle((0.0, 0.0), r, u, r, eps)]
    elif isinstance(desc, PolygonNorm):
        ends = _polygon_components(plane, u, r, eps)
    else:
        # the (lower, lower) arc hits are the reflections of the (upper,
        # upper) ones, which _join_hits adds
        up0, lo0 = _twoarc_sphere_arcs(desc, (0.0, 0.0), r)
        upu, lou = _twoarc_sphere_arcs(desc, u, r)
        hits = []
        for ap, aq in ((up0, upu), (up0, lou), (lo0, upu)):
            for z in _circle_circle(ap[0], ap[1], aq[0], aq[1], eps):
                if _on_twoarc_arc(z, (0.0, 0.0), ap, eps) and _on_twoarc_arc(z, u, aq, eps):
                    hits.append((z, z))
        ends = _join_hits(hits, u, eps)
    moved = [
        (Point(px + s * a[0], py + s * a[1]), Point(px + s * b[0], py + s * b[1])) for a, b in ends
    ]
    if not all(map(math.isfinite, itertools.chain.from_iterable(itertools.chain.from_iterable(moved)))):
        raise NonFiniteResult("the intersection does not fit in floats")
    if len(moved) > 1:
        moved.sort(key=lambda ab: (min(ab), max(ab)))
    return SphereIntersection(tuple(Segment(a, b) for a, b in moved))
