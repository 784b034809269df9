"""Independent brute-force references and checks for validating the
algorithmic modules.

These deliberately avoid the library's geometric machinery: partition
enumeration works straight off the pairwise distance matrix, enclosing balls
come from a sweep over every basis, ball-hull membership goes through
inner/outer polygonal approximations of the center set, and whether two
hulls' interiors overlap comes from the area of their clipped intersection.
The only shared primitives are the gauge itself and the two-arc three-point
root find of the strictly convex enclosing balls, which is validated
separately against a grid search; the Euclidean circumcenter is the oracle's
own.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, NoBallContainsS, Undecidable
from .geometry import ConvexPolygon
from .norm import (
    DEFAULT_TOL,
    EuclideanNorm,
    NormedPlane,
    Point,
    PolygonNorm,
    _circle_circle,
    as_array,
    gauge,
    pairwise_distances,
)
from .clustering import (
    Measure,
    Objective,
    Partition,
    _twoarc_triple_candidates,
)


@dataclass(frozen=True)
class OracleBudget:
    max_points: int = 16
    max_partitions: int = 2_000_000
    time_cap: float = 600.0


DEFAULT_BUDGET = OracleBudget()


# --------------------------------------------------------------------------
# exhaustive k-partition


def brute_force_k_partition(plane: NormedPlane, points, k: int,
                            objective: Objective,
                            budget: OracleBudget = DEFAULT_BUDGET
                            ) -> tuple[float, Partition]:
    """Exact optimum over all k-labelings (clusters unordered, empties allowed)."""
    pts = as_array([tuple(p) for p in points])
    n = len(pts)
    if n > budget.max_points:
        raise BudgetExceeded(f"{n} points exceed the budget of {budget.max_points}")
    if k ** n > budget.max_partitions:
        raise BudgetExceeded(f"{k}^{n} labelings exceed the enumeration budget")
    start = time.monotonic()
    D = pairwise_distances(plane, pts)

    total = k ** n
    labels = np.empty((total, n), dtype=np.int8)
    idx = np.arange(total)
    for j in range(n):
        labels[:, j] = (idx // (k ** j)) % k
    # bitmask per cluster per labeling
    weights = (1 << np.arange(n)).astype(np.int64)
    cluster_masks = []
    for c in range(k):
        cluster_masks.append(((labels == c) * weights).sum(axis=1))

    if objective.measure is Measure.DIAMETER:
        table = np.zeros(1 << n, dtype=float)
        all_masks = np.arange(1 << n)
        for i in range(n):
            for j in range(i + 1, n):
                sel = (((all_masks >> i) & 1) & ((all_masks >> j) & 1)).astype(bool)
                table[sel] = np.maximum(table[sel], D[i, j])
        measures = [table[m] for m in cluster_masks]
    else:
        used = np.unique(np.concatenate(cluster_masks))
        radius: dict[int, float] = {0: 0.0}
        for m in used:
            m = int(m)
            if m not in radius:
                ids = [i for i in range(n) if m >> i & 1]
                radius[m] = brute_min_enclosing_ball(plane, pts[ids])[1] if ids else 0.0
        lut = np.zeros(1 << n, dtype=float)
        for m, r in radius.items():
            lut[m] = r
        measures = [lut[m] for m in cluster_masks]
    if time.monotonic() - start > budget.time_cap:
        raise BudgetExceeded("time cap hit")

    stacked = np.stack(measures, axis=0)
    if objective.combiner.value == "max":
        values = stacked.max(axis=0)
    elif objective.combiner.value == "sum":
        values = stacked.sum(axis=0)
    else:
        values = (stacked * stacked).sum(axis=0)
    best = int(np.argmin(values))
    groups = [tuple(i for i in range(n) if labels[best, i] == c) for c in range(k)]
    groups.sort(key=lambda g: (g[0] if g else n, g))
    meas = []
    for g in groups:
        if objective.measure is Measure.DIAMETER:
            meas.append(max((D[i, j] for i in g for j in g), default=0.0))
        else:
            meas.append(brute_min_enclosing_ball(plane, pts[list(g)])[1] if g else 0.0)
    part = Partition(tuple(groups), tuple(float(v) for v in meas))
    return float(values[best]), part


# --------------------------------------------------------------------------
# enclosing balls over every basis


def brute_min_enclosing_ball(plane: NormedPlane, points) -> tuple[Point, float]:
    """Smallest enclosing ball over every basis: the center of least gauge
    reach to the farthest point among all basis centers, which include the
    optimal one.

    Polygon norm: the vertices of the feasible region of the LP in (c, r),
    i.e. every three facet constraints n_f . c + r >= max_s n_f . s (n_f
    the polar rows) held with equality.  Strictly convex norms: every pair
    midpoint and every center with three points on its sphere, O(n^3)
    candidates.
    """
    pts = as_array([tuple(p) for p in points])
    n = len(pts)
    desc = plane.descriptor
    centers = [pts[0]]  # the answer for a single point
    if isinstance(desc, PolygonNorm):
        M = np.column_stack([plane._polar, np.ones(len(plane._polar))])
        far = (pts @ plane._polar.T).max(axis=0)
        idx = np.array(list(itertools.combinations(range(len(M)), 3)))
        bases, rhs = M[idx], far[idx]
        ok = np.abs(np.linalg.det(bases)) > 1e-12 * np.prod(np.linalg.norm(bases, axis=2), axis=1)
        centers.extend(np.linalg.solve(bases[ok], rhs[ok][..., None])[:, :2, 0])
    else:
        for i, j in itertools.combinations(range(n), 2):
            centers.append((pts[i] + pts[j]) / 2)
        for i, j, k in itertools.combinations(range(n), 3):
            if isinstance(desc, EuclideanNorm):
                # a + u with (b - a) . u = |b - a|^2 / 2, (c - a) . u = |c - a|^2 / 2 (Cramer)
                (bx, by), (cx, cy) = (pts[j] - pts[i]).tolist(), (pts[k] - pts[i]).tolist()
                if abs(det := bx * cy - by * cx) > 1e-12 * (abs(bx) + abs(by)) * (abs(cx) + abs(cy)):
                    e, f = (bx * bx + by * by) / 2, (cx * cx + cy * cy) / 2
                    centers.append(pts[i] + np.array([e * cy - by * f, bx * f - e * cx]) / det)
            else:
                centers.extend(c for c, _ in _twoarc_triple_candidates(desc, pts[[i, j, k]]))
    C = np.array(centers)
    reach = gauge(plane, pts[None, :, :] - C[:, None, :]).max(axis=1)
    best = int(np.argmin(reach))
    return Point(float(C[best, 0]), float(C[best, 1])), float(reach[best])


# --------------------------------------------------------------------------
# ball-hull membership via the center set


def _center_set_polygon_exact(plane: NormedPlane, pts: np.ndarray, d: float):
    """Extreme points of the center set for polygon norms.

    The set is an intersection of facet halfplanes n . c <= off; its
    vertices are exactly the feasible pairwise intersections of the boundary
    lines, which avoids any polygon-ring bookkeeping on degenerate input.
    """
    N = plane._polar
    uniq = np.unique(pts, axis=0)
    A = np.tile(N, (len(uniq), 1))  # row (s, f): n_f . c <= n_f . s + d
    off = (uniq @ N.T).ravel() + d
    scale = max(1.0, float(np.abs(uniq).max()), d)
    tol = 1e-9 * scale * np.linalg.norm(A, axis=1)
    m = len(A)
    cand = []
    for i in range(m):
        for j in range(i + 1, m):
            den = A[i, 0] * A[j, 1] - A[i, 1] * A[j, 0]
            if abs(den) <= 1e-12 * np.linalg.norm(A[i]) * np.linalg.norm(A[j]):
                continue
            x = (off[i] * A[j, 1] - off[j] * A[i, 1]) / den
            y = (A[i, 0] * off[j] - A[j, 0] * off[i]) / den
            cand.append((x, y))
    if not cand:
        return []
    carr = np.array(cand)
    feas = np.all(carr @ A.T <= off[None, :] + tol[None, :], axis=1)
    return [c for c, ok in zip(carr, feas) if ok]


class CenterSetOracle:
    """The covering-center set C of (S, d) with exact extreme-point queries.

    For polygon norms C is clipped exactly.  For the Euclidean and two-arc
    norms C is an intersection of Euclidean disks, so the maximum of a convex
    function over C is attained either at a disk-pair corner or at the
    antipodal point of one bounding circle; both are enumerable, making
    membership queries exact up to float noise.
    """

    def __init__(self, plane: NormedPlane, points, d: float):
        self.plane = plane
        self.d = d
        self.pts = as_array([tuple(p) for p in points])
        desc = plane.descriptor
        self.scale = max(1.0, float(np.abs(self.pts).max()), d)
        self.tol = 1e-9 * self.scale
        if isinstance(desc, PolygonNorm):
            poly = _center_set_polygon_exact(plane, self.pts, d)
            if not poly:
                raise NoBallContainsS("empty center set")
            self.mode = "polygon"
            self.verts = np.array(poly)
            return
        self.mode = "disks"
        if isinstance(desc, EuclideanNorm):
            centers = [s for s in self.pts]
            radii = [d] * len(self.pts)
        else:
            shift = np.array([0.0, d * desc.center_height])
            rr = d * desc.radius
            centers, radii = [], []
            for s in self.pts:
                centers += [s + shift, s - shift]
                radii += [rr, rr]
        self.zc = np.array(centers)
        self.zr = np.array(radii)
        corners = []
        m = len(self.zc)
        for i in range(m):
            for j in range(i + 1, m):
                for z in _circle_circle(self.zc[i], self.zr[i], self.zc[j], self.zr[j], 1e-12 * self.scale):
                    if self._in_all(z):
                        corners.append(z)
        self.corners = np.array(corners) if corners else np.empty((0, 2))
        if len(self.corners) == 0:
            # C is a single disk (or empty): some disk center must be feasible
            if not any(self._in_all(c) for c in self.zc):
                raise NoBallContainsS("empty center set")

    def _in_all(self, z) -> bool:
        return bool(
            np.all(np.hypot(*(self.zc - z).T) <= self.zr + 1e3 * self.tol)
        )

    def _max_euclid_from(self, w: np.ndarray) -> float:
        """Exact max over c in C of |c - w| (disk mode)."""
        best = 0.0
        if len(self.corners):
            diff = self.corners - w
            best = float(np.max(np.hypot(diff[:, 0], diff[:, 1])))
        u = self.zc - w
        nrm = np.hypot(u[:, 0], u[:, 1])
        safe = np.maximum(nrm, 1e-15 * self.scale)
        anti = self.zc + self.zr[:, None] * u / safe[:, None]
        # containment of every antipode in every disk, in one shot
        dd = anti[:, None, :] - self.zc[None, :, :]
        ok = np.all(
            np.hypot(dd[..., 0], dd[..., 1]) <= self.zr[None, :] + 1e3 * self.tol,
            axis=1,
        )
        if np.any(ok):
            reach = nrm[ok] + self.zr[ok]
            best = max(best, float(np.max(reach)))
        return best

    def max_gauge(self, x) -> float:
        """Exact-ish max over covering centers c of gauge(x - c)."""
        xa = np.asarray([float(x[0]), float(x[1])])
        if self.mode == "polygon":
            return float(np.max(gauge(self.plane, self.verts - xa)))
        desc = self.plane.descriptor
        if isinstance(desc, EuclideanNorm):
            return self._max_euclid_from(xa)
        # two-arc: gauge(x - c) <= t  iff  C inside both disks of B(x, t);
        # bisect on t using the exact Euclidean max
        h0, r0 = desc.center_height, desc.radius

        def fits(t: float) -> bool:
            off = np.array([0.0, t * h0])
            return (
                self._max_euclid_from(xa + off) <= t * r0
                and self._max_euclid_from(xa - off) <= t * r0
            )

        hi = 2.0 * self.d + 1.0
        while not fits(hi):
            hi *= 2.0
        lo = 0.0
        for _ in range(48):
            mid = (lo + hi) / 2
            if fits(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def interval(self, x) -> tuple[float, float]:
        """Bounds on max over covering centers c of gauge(x - c); x is in
        bh(S, d) exactly when that max is <= d, and a point of S gives
        (0, 0)."""
        scale = max(1.0, float(np.abs(self.pts).max()))
        xa = np.asarray([float(x[0]), float(x[1])])
        if float(np.min(np.abs(self.pts - xa).max(axis=1))) <= 1e-12 * scale:
            return 0.0, 0.0
        m = self.max_gauge(x)
        slack = 1e-9 * max(1.0, m)
        return m - slack, m + slack

    def member(self, x, band: float = 0.0) -> bool:
        lo, hi = self.interval(x)
        if hi <= self.d + band:
            return True
        if lo > self.d - band:
            return False
        raise Undecidable(f"membership bounds [{lo}, {hi}] straddle d = {self.d}")


def bh_membership_oracle(plane: NormedPlane, points, d: float, x,
                         band: float = 0.0) -> bool:
    """Membership of x in bh(S, d) via the center set.

    Raises Undecidable when the refinement cannot place the query outside the
    requested tolerance band around the boundary.
    """
    return CenterSetOracle(plane, points, d).member(x, band)


# --------------------------------------------------------------------------
# exhaustive constrained 2-clustering


def exhaustive_separable_2cluster(plane: NormedPlane, points, d1: float, d2: float,
                                  budget: OracleBudget = DEFAULT_BUDGET
                                  ) -> Optional[Partition]:
    """Try every distinct line through two points once, with every subset of
    the points on it joining its left side, in both roles."""
    pts = as_array([tuple(p) for p in points])
    n = len(pts)
    if n > budget.max_points:
        raise BudgetExceeded(f"{n} points exceed the budget")
    D = pairwise_distances(plane, pts)
    scale = max(1.0, float(np.abs(pts).max()))

    def diam_of(ids) -> float:
        ids = list(ids)
        if len(ids) < 2:
            return 0.0
        return float(D[np.ix_(ids, ids)].max())

    def check(side, rest) -> Optional[Partition]:
        da, db = diam_of(side), diam_of(rest)
        if da <= d1 and db <= d2:
            return Partition(
                (tuple(sorted(side)), tuple(sorted(rest))), (da, db)
            )
        if db <= d1 and da <= d2:
            return Partition(
                (tuple(sorted(rest)), tuple(sorted(side))), (db, da)
            )
        return None

    tried: set[int] = set()
    masks: list[int] = []
    lines: set[tuple[int, ...]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if np.all(pts[i] == pts[j]):
                continue
            nrm = np.array([-(pts[j, 1] - pts[i, 1]), pts[j, 0] - pts[i, 0]])
            off = (pts - pts[i]) @ nrm
            bandw = 1e-9 * scale * float(np.abs(nrm).max())
            strict = 0
            on_idx = []
            for t in range(n):
                if off[t] > bandw:
                    strict |= 1 << t
                elif abs(off[t]) <= bandw:
                    on_idx.append(t)
            if tuple(on_idx) in lines:
                continue
            lines.add(tuple(on_idx))
            for r in range(len(on_idx) + 1):
                for chosen in itertools.combinations(on_idx, r):
                    m = strict
                    for c in chosen:
                        m |= 1 << c
                    for mm in (m, ((1 << n) - 1) ^ m):
                        if mm not in tried:
                            tried.add(mm)
                            masks.append(mm)
    masks.extend(m for m in (0, (1 << n) - 1) if m not in tried)
    for m in masks:
        side = [i for i in range(n) if m >> i & 1]
        rest = [i for i in range(n) if not m >> i & 1]
        out = check(side, rest)
        if out is not None:
            return out
    return None


# --------------------------------------------------------------------------
# overlap of hull interiors, by clipping


def _convex_clip(subject: Sequence[Point], clip: ConvexPolygon) -> list[Point]:
    """Sutherland-Hodgman clip of a convex subject by a convex polygon."""
    out = [np.array([p[0], p[1]], float) for p in subject]
    verts = clip.vertices
    if len(verts) < 3:
        return []
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        ex, ey = b.x - a.x, b.y - a.y
        inp = out
        out = []
        if not inp:
            break
        prev = inp[-1]
        prev_in = ex * (prev[1] - a.y) - ey * (prev[0] - a.x) >= 0
        for cur in inp:
            cur_in = ex * (cur[1] - a.y) - ey * (cur[0] - a.x) >= 0
            if cur_in != prev_in:
                d = cur - prev
                den = ex * d[1] - ey * d[0]
                if abs(den) > 1e-30:
                    t = (ey * (prev[0] - a.x) - ex * (prev[1] - a.y)) / den
                    out.append(prev + t * d)
            if cur_in:
                out.append(cur)
            prev, prev_in = cur, cur_in
    return [Point(float(p[0]), float(p[1])) for p in out]


def _polygon_area(points: Sequence) -> float:
    if len(points) < 3:
        return 0.0
    arr = as_array([tuple(p) for p in points])
    x, y = arr[:, 0], arr[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def hulls_interiors_overlap(hull_a: ConvexPolygon, hull_b: ConvexPolygon,
                            tol: float = DEFAULT_TOL) -> bool:
    """True when conv(A) and conv(B) share interior points."""
    if hull_a.degenerate or hull_b.degenerate:
        return False
    inter = _convex_clip(hull_a.vertices, hull_b)
    scale = max(
        1.0,
        max(max(abs(v.x), abs(v.y)) for v in hull_a.vertices + hull_b.vertices),
    )
    return _polygon_area(inter) > tol * scale * scale
