"""2-, 3-, and k-clustering of planar points under a symmetric convex norm.

Feasibility of a two-way split at threshold d is decided on the graph of
"long" pairs (distance > d): a split exists exactly when that graph is
bipartite, and any proper 2-coloring is a witness.  The min-max 2-clustering
2-colors a maximum spanning tree instead (Asano, Bhattacharya, Keil and Yao,
"Clustering algorithms based on minimum and maximum spanning trees", SoCG
1988), and the split under two different diameter bounds is a 2-SAT
instance on the point pairs.  The 3-clustering pipeline follows the zone
decomposition around a leftmost point with the residual assignment solved
as a 2-SAT instance.  An optimal k-clustering with pairwise linearly
separable clusters always exists, so k-clustering peels off one cluster at a
time, each an intersection of line dissections
(``geometry.line_dissections``).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq, linprog

from .errors import (
    BadBounds,
    DegenerateBasis,
    EmptyInput,
    NormClustError,
    TooFewPoints,
)
from .geometry import line_dissections, subset_diameters
from .norm import (
    EuclideanNorm,
    NormedPlane,
    Point,
    PolygonNorm,
    TwoArcNorm,
    birkhoff_orthogonal,
    finite_points,
    gauge,
    gauge_scalar,
    pairwise_distances,
)


class Combiner(enum.Enum):
    MAX = "max"
    SUM = "sum"
    SUM_SQUARES = "sum_squares"


class Measure(enum.Enum):
    DIAMETER = "diameter"
    RADIUS = "radius"


@dataclass(frozen=True)
class Objective:
    combiner: Combiner
    measure: Measure

    def combine(self, values) -> float:
        vals = list(values)
        if self.combiner is Combiner.MAX:
            return max(vals) if vals else 0.0
        if self.combiner is Combiner.SUM:
            return float(sum(vals))
        return float(sum(v * v for v in vals))


@dataclass(frozen=True)
class Partition:
    """Disjoint index clusters covering 0..n-1 (empty clusters allowed where
    an operation permits them) with one measure value per cluster."""

    clusters: tuple[tuple[int, ...], ...]
    measures: tuple[float, ...]

    def value(self, objective: Objective) -> float:
        return objective.combine(self.measures)


@dataclass(frozen=True)
class Zones:
    north: tuple[int, ...]
    south: tuple[int, ...]
    east: tuple[int, ...]
    seed: tuple[int, ...]  # points on the segment aa', pre-assigned to A


@dataclass
class ZoneAudit:
    """Collects the zone-diameter checks made while exploring baselines."""

    checks: int = 0
    violations: list = field(default_factory=list)


# --------------------------------------------------------------------------
# small helpers


def _mask_diam(D: np.ndarray, idx: Sequence[int]) -> float:
    if len(idx) < 2:
        return 0.0
    sub = D[np.ix_(idx, idx)]
    return float(sub.max())


def _partition_from_masks(D: np.ndarray, groups: Sequence[Sequence[int]]) -> Partition:
    clusters = tuple(tuple(sorted(g)) for g in groups)
    measures = tuple(_mask_diam(D, list(g)) for g in clusters)
    return Partition(clusters, measures)


def _two_color(adj: np.ndarray) -> Optional[np.ndarray]:
    """Proper 2-coloring of the graph given by a boolean adjacency matrix."""
    n = len(adj)
    color = np.full(n, -1, dtype=int)
    for seed in range(n):
        if color[seed] != -1:
            continue
        color[seed] = 0
        frontier = [seed]
        while frontier:
            nxt = []
            for v in frontier:
                for w in np.nonzero(adj[v])[0]:
                    if color[w] == -1:
                        color[w] = 1 - color[v]
                        nxt.append(int(w))
                    elif color[w] == color[v]:
                        return None
            frontier = nxt
    return color


# --------------------------------------------------------------------------
# 2-clustering


def feasible_2cluster(plane: NormedPlane, points, d: float) -> Optional[Partition]:
    """A split of S into two parts of diameter <= d, or None.

    A valid split exists iff the graph of pairs at distance > d is
    2-colorable; a valid split can always be realized by a line as well, so
    absence here is definitive.
    """
    pts = finite_points(points)
    D = pairwise_distances(plane, pts)
    return _feasible_2cluster_from_matrix(D, d)


def _feasible_2cluster_from_matrix(D: np.ndarray, d: float) -> Optional[Partition]:
    n = len(D)
    if n == 0:
        return Partition(((), ()), (0.0, 0.0))
    adj = D > d
    np.fill_diagonal(adj, False)
    color = _two_color(adj)
    if color is None:
        return None
    g0 = [i for i in range(n) if color[i] == 0]
    g1 = [i for i in range(n) if color[i] == 1]
    return _partition_from_masks(D, [g0, g1])


def avis_min_max_2cluster(plane: NormedPlane, points) -> tuple[float, Partition]:
    """Minimize the maximum of the two cluster diameters.

    Colors the points alternately along a maximum spanning tree (Asano,
    Bhattacharya, Keil and Yao, SoCG 1988); d* is the largest distance
    inside one color class.  This is exact: the tree path between the ends
    of a pair longer than d uses only pairs at least that long (the cycle
    property), so whenever the pairs longer than d form a bipartite graph,
    the tree's coloring is a proper coloring of it.
    """
    pts = finite_points(points)
    n = len(pts)
    if n < 2:
        raise TooFewPoints("2-clustering needs at least two points")
    D = pairwise_distances(plane, pts)
    # dense Prim: best[v] is the longest pair from the tree to v outside it
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    best = D[0].copy()
    best[0] = -1.0
    link = np.zeros(n, dtype=np.intp)
    color = np.zeros(n, dtype=bool)
    for _ in range(n - 1):
        v = int(best.argmax())
        outside[v] = False
        best[v] = -1.0
        color[v] = not color[link[v]]
        row = D[v]
        longer = outside & (row > best)
        best[longer] = row[longer]
        link[longer] = v
    part = _partition_from_masks(D, [np.flatnonzero(~color).tolist(),
                                     np.flatnonzero(color).tolist()])
    return max(part.measures), part


def constrained_2cluster(plane: NormedPlane, points, d1: float, d2: float
                         ) -> Optional[Partition]:
    """Split S into (S1, S2) with diam(S1) <= d1 and diam(S2) <= d2, or None.

    With no pair longer than d1, S2 is the lexicographically lowest point.
    Otherwise the split is a 2-SAT instance on the pairs, exact because the
    bounds are pairwise: with x_i meaning point i is in S1, a pair longer
    than d2 adds the clause (x_i or x_j) and a pair longer than d1 also adds
    (not x_i or not x_j).
    """
    if d2 > d1 or d2 < 0 or d1 < 0:
        raise BadBounds("need d1 >= d2 >= 0")
    pts = finite_points(points)
    n = len(pts)
    if n == 0:
        raise EmptyInput("no points")
    D = pairwise_distances(plane, pts)

    def result(side1, side2):
        return Partition(
            (tuple(sorted(side1)), tuple(sorted(side2))),
            (_mask_diam(D, list(side1)), _mask_diam(D, list(side2))),
        )

    whole = _mask_diam(D, range(n))
    if whole <= d2:
        return result(range(n), [])
    if whole <= d1:
        # no pair is longer than d1: cut off one extreme point as S2
        low = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
        return result([i for i in range(n) if i != low], [low])

    sat = _TwoSat(n)
    iu, ju = np.triu_indices(n, k=1)
    far = D[iu, ju]
    for i, j in zip(iu[far > d2].tolist(), ju[far > d2].tolist()):
        sat.add_clause(2 * i, 2 * j)
    for i, j in zip(iu[far > d1].tolist(), ju[far > d1].tolist()):
        sat.add_clause(2 * i + 1, 2 * j + 1)
    model = sat.solve()
    if model is None:
        return None
    return result([i for i in range(n) if model[i]], [i for i in range(n) if not model[i]])


# --------------------------------------------------------------------------
# minimal enclosing balls


def _euclid_circumcenter(a, b, c):
    d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) < 1e-14 * (1 + abs(a[0]) + abs(b[0]) + abs(c[0])) ** 2:
        return None
    a2, b2, c2 = a[0] ** 2 + a[1] ** 2, b[0] ** 2 + b[1] ** 2, c[0] ** 2 + c[1] ** 2
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    return np.array([ux, uy])


# sign patterns (g0, g1, g2): which of its two circles each point of a triple
# lies on, in the order of itertools.product((1.0, -1.0), repeat=3)
_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))


def _twoarc_fit(s, g0, g1, g2, h, R, r):
    """Center (cx, cy) of the radius-r ball whose circles picked by the signs
    pass through s[0], s[1], s[2], and the residual of s[0]'s circle
    equation; NaN where the 2x2 system in the center is singular.

    Elementwise, so floats and broadcasting arrays get the same arithmetic
    (the grid scan and the root polish must agree on every sign)."""
    (x0, y0), (x1, y1), (x2, y2) = s
    q0 = x0 * x0 + y0 * y0
    # rows (0, j) of the system: a_j cx + b_j cy = e_j
    a1, a2 = -2 * (x0 - x1), -2 * (x0 - x2)
    b1 = -2 * (y0 - y1) - 2 * r * h * (g0 - g1)
    b2 = -2 * (y0 - y2) - 2 * r * h * (g0 - g2)
    e1 = -(q0 - (x1 * x1 + y1 * y1)) - 2 * r * h * (g0 * y0 - g1 * y1)
    e2 = -(q0 - (x2 * x2 + y2 * y2)) - 2 * r * h * (g0 * y0 - g2 * y2)
    det = a1 * b2 - b1 * a2
    amax = np.maximum(np.maximum(abs(a1), abs(a2)), np.maximum(abs(b1), abs(b2)))
    singular = abs(det) < 1e-12 * (1 + amax) ** 2
    with np.errstate(all="ignore"):  # the singular entries are masked
        cx = np.where(singular, np.nan, np.divide(e1 * b2 - b1 * e2, det))
        cy = np.where(singular, np.nan, np.divide(a1 * e2 - e1 * a2, det))
    dx, dy = x0 - cx, y0 - cy
    res = dx * dx + dy * dy + 2 * g0 * r * h * dy + r * r * h * h - r * r * R * R
    return cx, cy, res


def _twoarc_triple_candidates(desc: TwoArcNorm, tri: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Centers/radii with all three points on the sphere, one binding circle
    combination at a time; solved as a one-parameter root find in r.

    The triple is moved to tri[0] and scaled to unit extent first (norms are
    translation invariant and homogeneous), so the tolerances are relative.
    Each residual is scanned on a 96-point grid of r for all eight sign
    patterns at once, and every sign change is polished by ``brentq``."""
    h, R = desc.center_height, desc.radius
    origin = tri[0]
    scale = float(np.abs(tri - origin).max())
    if scale == 0.0:
        return [(tri[0].copy(), 0.0)]
    u = (tri - origin) / scale
    # the largest gauge distance within the triple
    v = u[[0, 0, 1]] - u[[1, 2, 2]]
    hy, a = h * np.abs(v[:, 1]), R * R - h * h
    g_max = float(((hy + np.sqrt(hy * hy + a * (v * v).sum(axis=1))) / a).max())
    s = u.tolist()
    lo, hi = g_max / 2 * (1 - 1e-9), 1.2 * g_max + 1e-9
    grid = np.linspace(lo, hi, 96)
    g0, g1, g2 = (_SIGNS[:, t, None] for t in range(3))
    vals = _twoarc_fit(s, g0, g1, g2, h, R, grid)[2]
    v0, v1 = vals[:, :-1], vals[:, 1:]
    finite = np.isfinite(v0) & np.isfinite(v1)
    out = []
    # (sign pattern, grid step) in row-major order: the order of a scan
    for p, k in np.argwhere(finite & ((v0 == 0.0) | (v0 * v1 < 0))).tolist():
        signs = _SIGNS[p].tolist()
        if vals[p, k] == 0.0:
            r_star = float(grid[k])
        else:
            r_star = float(brentq(lambda r: float(_twoarc_fit(s, *signs, h, R, r)[2]),
                                  grid[k], grid[k + 1], xtol=1e-14))
        cx, cy, _ = _twoarc_fit(s, *signs, h, R, r_star)
        if np.isfinite(cx):
            out.append((origin + scale * np.array([float(cx), float(cy)]), scale * r_star))
    return out


def _pair_ball(plane: NormedPlane, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    return (p + q) / 2, gauge_scalar(plane, float(p[0] - q[0]), float(p[1] - q[1])) / 2


def _smallest_cover(plane: NormedPlane, Q: np.ndarray, balls) -> Optional[tuple[np.ndarray, float]]:
    """The smallest of the balls (c, r) that covers the points Q, or None."""
    best = None
    for c, r in balls:
        if (best is None or r < best[1]) and float(gauge(plane, Q - c).max()) <= r * (1 + 1e-9):
            best = (c, r)
    return best


def _welzl_ball(plane: NormedPlane, pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Welzl's minimal ball ("Smallest enclosing disks (balls and
    ellipsoids)", 1991) for a strictly convex norm, where the ball is unique
    and a point outside the ball of the points before it lies on the sphere
    of the ball of all of them.

    Three nested loops over the points in one fixed pseudo-random order
    (expected linear time, deterministic output): a point outside the
    current ball goes on the boundary of the next one.  The ball through two
    boundary points is their midpoint ball; through three, the Euclidean
    circumcircle or the smallest two-arc candidate that covers the points
    seen so far, else the smallest covering pair ball of the three.

    The loops run on the points moved to pts[0], so that rounding scales
    with the spread of the points rather than with their offset."""
    origin = pts[0]
    P = (pts - origin)[np.random.default_rng(0).permutation(len(pts))]
    desc = plane.descriptor

    def first_outside(c, r, lo, hi) -> Optional[int]:
        if lo >= hi:
            return None
        out = gauge(plane, P[lo:hi] - c) > r * (1 + 1e-12)
        k = int(out.argmax())
        return lo + k if out[k] else None

    def triple_ball(i, j, k):
        if isinstance(desc, EuclideanNorm):
            c = _euclid_circumcenter(P[i], P[j], P[k])
            found = [] if c is None else [(c, float(gauge(plane, P[i] - c)))]
        else:
            found = _twoarc_triple_candidates(desc, P[[i, j, k]])
        Q = np.vstack([P[:k + 1], P[[i, j]]])
        ball = _smallest_cover(plane, Q, found)
        if ball is None:  # a numerically degenerate triple
            pairs = [_pair_ball(plane, P[a], P[b]) for a, b in ((i, j), (i, k), (j, k))]
            ball = _smallest_cover(plane, Q, pairs) or min(pairs, key=operator.itemgetter(1))
        return ball

    c, r = P[0], 0.0
    i = first_outside(c, r, 1, len(P))
    while i is not None:
        c, r = P[i], 0.0
        j = first_outside(c, r, 0, i)
        while j is not None:
            c, r = _pair_ball(plane, P[i], P[j])
            k = first_outside(c, r, 0, j)
            while k is not None:
                c, r = triple_ball(i, j, k)
                k = first_outside(c, r, k + 1, j)
            j = first_outside(c, r, j + 1, i)
        i = first_outside(c, r, i + 1, len(P))
    c = origin + c
    return c, float(gauge(plane, pts - c).max())


def min_enclosing_ball(plane: NormedPlane, points) -> tuple[Point, float]:
    """Smallest radius r and a center c with S inside B(c, r): an LP over the
    facet inequalities for a polygon norm, Welzl's algorithm for the
    strictly convex norms.  r is the largest gauge reach from c."""
    pts = finite_points(points)
    if len(pts) == 0:
        raise EmptyInput("no points")
    if len(pts) == 1:
        return Point(float(pts[0][0]), float(pts[0][1])), 0.0

    if isinstance(plane.descriptor, PolygonNorm):
        # minimize r s.t. n_f . (s - c) <= r b_f, rows point-major
        N, b = plane._normals, plane._offsets
        res = linprog(
            c=[0.0, 0.0, 1.0],
            A_ub=np.tile(np.column_stack([-N, -b]), (len(pts), 1)),
            b_ub=-(pts[:, None, 0] * N[:, 0] + pts[:, None, 1] * N[:, 1]).ravel(),
            bounds=[(None, None), (None, None), (0, None)],
            method="highs",
        )
        if not res.success:
            raise NormClustError(f"enclosing-ball LP failed: {res.message}")
        cx, cy, r = res.x
        return Point(float(cx), float(cy)), float(r)

    c, r = _welzl_ball(plane, pts)
    return Point(float(c[0]), float(c[1])), r


# --------------------------------------------------------------------------
# k-clustering by peeling off one separable cluster at a time


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def k_cluster_minimize(plane: NormedPlane, points, k: int, objective: Objective
                       ) -> tuple[float, Partition]:
    """Minimize the max, sum or sum of squares of per-cluster diameters or
    radii over all k-clusterings (empty clusters allowed).

    Some optimum has pairwise linearly separable clusters, so the cluster
    holding the lowest-index point of the remaining points U is U cut by at
    most j-1 line dissections, where j clusters are left to place.  Hence
    ``best(U, j) = min over such R of combine(measure(R), best(U - R, j-1))``,
    evaluated exactly with point sets as integer bitmasks and memoized for
    the duration of the call.  Ties go to the first region in dissection
    order.
    """
    pts = finite_points(points)
    n = len(pts)
    if n < k:
        raise TooFewPoints(f"need at least k={k} points")
    if not 2 <= k <= 4:
        raise NormClustError("k must be between 2 and 4")
    rows, _ = line_dissections(pts)
    packed = np.packbits(rows, axis=1, bitorder="little")
    cuts = [int.from_bytes(r.tobytes(), "little") for r in packed]

    if objective.measure is Measure.DIAMETER:
        D = pairwise_distances(plane, pts)
        known = dict(zip(cuts, subset_diameters(D, rows).tolist()))
        dist = D.tolist()

        def measure(mask: int) -> float:
            # diam(m) = max(diam(m without its lowest point), farthest point
            # of m from that lowest point)
            chain = []
            while mask not in known:
                chain.append(mask)
                mask &= mask - 1
            value = known[mask]
            for m in reversed(chain):
                far = dist[(m & -m).bit_length() - 1]
                value = max(value, max(far[i] for i in _bits(m)))
                known[m] = value
            return value
    else:
        @functools.cache
        def measure(mask: int) -> float:
            return min_enclosing_ball(plane, pts[list(_bits(mask))])[1] if mask else 0.0

    square = objective.combiner is Combiner.SUM_SQUARES
    join = max if objective.combiner is Combiner.MAX else operator.add

    def term(mask: int) -> float:
        value = measure(mask)
        return value * value if square else value

    @functools.cache
    def best(U: int, j: int) -> tuple[float, tuple[int, ...]]:
        """The least objective over splits of U into j clusters, and their
        masks."""
        if j == 1 or U == 0:
            return term(U), (U,) + (0,) * (j - 1)
        low = U & -U
        own = list(dict.fromkeys(U & c for c in cuts if c & low))
        regions = dict.fromkeys(own)
        level = own
        for _ in range(j - 2):
            level = [r for r in dict.fromkeys(a & b for a in level for b in own)
                     if r not in regions]
            regions.update(dict.fromkeys(level))
        best_value, best_masks = math.inf, ()
        for R in regions:
            # the objective is at least R's own term: prune before recursing
            value = term(R)
            if value < best_value:
                rest_value, rest = best(U & ~R, j - 1)
                value = join(value, rest_value)
                if value < best_value:
                    best_value, best_masks = value, (R,) + rest
        return best_value, best_masks

    _, masks = best((1 << n) - 1, k)
    part = Partition(tuple(tuple(_bits(m)) for m in masks), tuple(measure(m) for m in masks))
    return part.value(objective), part


# --------------------------------------------------------------------------
# 3-clustering (zone decomposition + 2-SAT assignment)


class _TwoSat:
    """Implication-graph 2-SAT; literals 2v (true) and 2v+1 (false)."""

    def __init__(self, nvars: int):
        self.n = nvars
        self.adj: list[list[int]] = [[] for _ in range(2 * nvars)]

    def add_clause(self, l1: int, l2: int) -> None:
        self.adj[l1 ^ 1].append(l2)
        self.adj[l2 ^ 1].append(l1)

    def solve(self) -> Optional[list[bool]]:
        n2 = 2 * self.n
        index = [-1] * n2
        low = [0] * n2
        comp = [-1] * n2
        on_stack = [False] * n2
        stack: list[int] = []
        counter = [0]
        ncomp = [0]

        for root in range(n2):
            if index[root] != -1:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work.pop()
                if pi == 0:
                    index[v] = low[v] = counter[0]
                    counter[0] += 1
                    stack.append(v)
                    on_stack[v] = True
                recurse = False
                for wi in range(pi, len(self.adj[v])):
                    w = self.adj[v][wi]
                    if index[w] == -1:
                        work.append((v, wi + 1))
                        work.append((w, 0))
                        recurse = True
                        break
                    elif on_stack[w]:
                        low[v] = min(low[v], index[w])
                if recurse:
                    continue
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomp[0]
                        if w == v:
                            break
                    ncomp[0] += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
        out = []
        for v in range(self.n):
            if comp[2 * v] == comp[2 * v + 1]:
                return None
            out.append(comp[2 * v] < comp[2 * v + 1])
        return out


def _hr_basis(plane: NormedPlane, pts: np.ndarray, seed: int):
    """A basis (xhat, yhat) with xhat Birkhoff orthogonal to yhat and all
    basis coordinates pairwise distinct; the rotation angle is seeded."""
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.abs(pts).max()))
    uniq = np.unique(pts, axis=0)
    for attempt in range(128):
        theta = 0.0 if attempt == 0 else float(rng.uniform(0, math.pi))
        xhat = np.array([math.cos(theta), math.sin(theta)])
        yhat = np.asarray(birkhoff_orthogonal(plane, xhat), dtype=float)
        M = np.column_stack([xhat, yhat])
        try:
            coords = np.linalg.solve(M, uniq.T).T
        except np.linalg.LinAlgError:
            continue
        ok = True
        for axis in (0, 1):
            vals = np.sort(coords[:, axis])
            if len(vals) > 1 and np.min(np.diff(vals)) <= 1e-7 * scale:
                ok = False
                break
        if ok:
            full = np.linalg.solve(M, pts.T).T
            return xhat, yhat, full, theta
    raise DegenerateBasis("could not find a basis with distinct coordinates")


def _zone_split(coords: np.ndarray, ia: int, ip: int, scale: float):
    """Indices of (seed-on-segment, north, south, east) for baseline a, a'
    given basis coordinates."""
    a = coords[ia]
    ap = coords[ip]
    band = 1e-9 * max(1.0, scale)
    north, south, east, seed = [], [], [], []
    dx = a - ap
    for u in range(len(coords)):
        if u == ia or u == ip:
            seed.append(u)
            continue
        rel = coords[u] - ap
        # rel = alpha * (a - a') + beta * yhat, expressed in basis coords:
        # basis x-coordinate of yhat is 0, so alpha comes from the x part
        alpha = rel[0] / dx[0]
        beta = rel[1] - alpha * dx[1]
        if abs(beta) <= band and -band <= alpha <= 1 + band:
            seed.append(u)
        elif alpha < 0:
            east.append(u)
        elif beta > 0:
            north.append(u)
        else:
            south.append(u)
    return seed, north, south, east


def hr_zones(plane: NormedPlane, points, a, a_prime) -> Zones:
    """North/South/East decomposition by the baseline (a, a') and the
    Birkhoff-orthogonal direction; a must have strictly minimal x-coordinate
    and basis coordinates must be distinct (rotate beforehand)."""
    pts = finite_points(points)
    aa = np.asarray([float(a[0]), float(a[1])])
    pp = np.asarray([float(a_prime[0]), float(a_prime[1])])
    if np.allclose(aa, pp):
        raise DegenerateBasis("a and a' coincide")
    xhat = np.array([1.0, 0.0])
    yhat = np.asarray(birkhoff_orthogonal(plane, xhat), dtype=float)
    M = np.column_stack([xhat, yhat])
    allpts = np.vstack([pts, aa[None, :], pp[None, :]])
    coords = np.linalg.solve(M, allpts.T).T
    ia, ip = len(pts), len(pts) + 1
    if coords[ip, 0] <= coords[ia, 0]:
        raise DegenerateBasis("a must precede a' in basis x-coordinate")
    scale = float(np.abs(coords).max())
    seed, north, south, east = _zone_split(coords, ia, ip, scale)
    seed = tuple(u for u in seed if u < len(pts))
    return Zones(tuple(north), tuple(south), tuple(east), seed)


def hr_feasible_3cluster(plane: NormedPlane, points, d: float, *, seed: int = 0,
                         audit: Optional[ZoneAudit] = None
                         ) -> Optional[Partition]:
    """Partition S into A, B, C with diameters <= d, or None.

    Follows the zone algorithm: for every candidate a' the North (resp.
    South) zone is forced into A, or the residual membership problem is
    written as two-choice constraints and solved by implication-graph SCC.
    """
    pts = finite_points(points)
    n = len(pts)
    if n < 3:
        raise TooFewPoints("3-clustering needs at least three points")
    D = pairwise_distances(plane, pts)

    def done(groups) -> Partition:
        return _partition_from_masks(D, list(groups) + [[]] * (3 - len(groups)))

    if _mask_diam(D, range(n)) <= d:
        return done([list(range(n))])

    # merge coincident points; constraints are identical for duplicates
    uniq_map: dict[tuple[float, float], int] = {}
    rep: list[int] = []
    members: list[list[int]] = []
    for i, p in enumerate(pts):
        key = (float(p[0]), float(p[1]))
        if key in uniq_map:
            members[uniq_map[key]].append(i)
        else:
            uniq_map[key] = len(rep)
            rep.append(i)
            members.append([i])
    W = pts[rep]
    DW = D[np.ix_(rep, rep)]
    m = len(W)
    if m < 3:
        # at most two distinct locations: a 2-coloring decides
        part2 = _feasible_2cluster_from_matrix(DW, d)
        if part2 is None:
            return None
        groups = [sorted(sum((members[u] for u in g), [])) for g in part2.clusters]
        return done([g for g in groups if g])

    xhat, yhat, coords, _theta = _hr_basis(plane, W, seed)
    scale = float(np.abs(coords).max())
    ia = int(np.argmin(coords[:, 0]))

    def expand(groups_w) -> Partition:
        groups = []
        for g in groups_w:
            groups.append(sorted(sum((members[u] for u in g), [])))
        val = max((_mask_diam(D, g) for g in groups if g), default=0.0)
        if val > d:
            raise NormClustError("internal: returned partition violates d")
        return done(groups)

    def rest_two_cluster(a_set: list[int]) -> Optional[tuple[list[int], list[int]]]:
        rest = [u for u in range(m) if u not in a_set]
        if not rest:
            return [], []
        sub = DW[np.ix_(rest, rest)]
        part = _feasible_2cluster_from_matrix(sub, d)
        if part is None:
            return None
        return (
            [rest[i] for i in part.clusters[0]],
            [rest[i] for i in part.clusters[1]],
        )

    # the A = {a} (plus coincident duplicates) case, i.e. a' = a
    bc = rest_two_cluster([ia])
    if bc is not None:
        return expand([[ia], bc[0], bc[1]])

    order = sorted(range(m), key=lambda u: coords[u, 0])
    for ip in order:
        if ip == ia or DW[ia, ip] > d:
            continue
        seed_idx, north, south, east = _zone_split(coords, ia, ip, scale)
        a0 = sorted(seed_idx)
        if _mask_diam(DW, a0) > d:
            continue

        if audit is not None:
            cand = [u for u in range(m) if DW[ia, u] <= d and DW[ip, u] <= d]
            for zone in (north, south):
                zc = [u for u in zone if u in cand]
                audit.checks += 1
                dz = _mask_diam(DW, zc)
                if dz > d + 1e-9:
                    audit.violations.append((tuple(W[ia]), tuple(W[ip]), d, dz))

        # Cases 1 and 2: a full zone joins A
        for zone, other in ((north, south), (south, north)):
            H = sorted(set(a0) | set(zone))
            if _mask_diam(DW, H) > d:
                continue
            adds = [
                u for u in other
                if all(DW[u, x] <= d for x in H)
            ]
            A = sorted(set(H) | set(adds))
            if _mask_diam(DW, A) > d:
                continue
            bc = rest_two_cluster(A)
            if bc is not None:
                return expand([A, bc[0], bc[1]])

        # Case 3: two-choice assignment
        in_ball_a0 = [all(DW[u, x] <= d for x in a0) for u in range(m)]
        b0 = {u for u in north if not in_ball_a0[u]}
        c0 = {u for u in south if not in_ball_a0[u]}
        eb, ec = set(), set()
        for u in east:
            for v in east:
                if u != v and DW[u, v] > d:
                    if coords[u, 1] > coords[v, 1]:
                        eb.add(u)
                    else:
                        ec.add(u)
        if eb & ec:
            continue
        b0 |= eb
        c0 |= ec
        if b0 & c0:
            continue
        if _mask_diam(DW, sorted(b0)) > d or _mask_diam(DW, sorted(c0)) > d:
            continue
        ab_cand = [u for u in north if u not in b0]
        ca_cand = [u for u in south if u not in c0]
        bc_cand = [u for u in east if u not in b0 and u not in c0]
        assignment = _solve_case3(DW, d, a0, sorted(b0), sorted(c0),
                                  ab_cand, ca_cand, bc_cand)
        if assignment is not None:
            A, B, C = assignment
            if max(_mask_diam(DW, A), _mask_diam(DW, B), _mask_diam(DW, C)) <= d:
                return expand([A, B, C])
    return None


def _solve_case3(DW: np.ndarray, d: float, forced_a, forced_b, forced_c,
                 ab_cand, ca_cand, bc_cand):
    """Resolve the two-choice candidates with 2-SAT: each of ab_cand goes to
    A or B, each of ca_cand to C or A, each of bc_cand to B or C, next to
    the forced points of each cluster.  Returns (A, B, C) index lists or
    None."""
    options: dict[int, tuple[str, str]] = {}
    for u in ab_cand:
        options[u] = ("A", "B")
    for u in ca_cand:
        options[u] = ("C", "A")
    for u in bc_cand:
        options[u] = ("B", "C")
    forced: dict[int, str] = {}
    for u in forced_a:
        forced[u] = "A"
    for u in forced_b:
        forced[u] = "B"
    for u in forced_c:
        forced[u] = "C"

    cand = sorted(options)
    var = {u: i for i, u in enumerate(cand)}
    sat = _TwoSat(len(cand))

    def lit(u: int, cluster: str) -> Optional[int]:
        first, second = options[u]
        if cluster == first:
            return 2 * var[u]
        if cluster == second:
            return 2 * var[u] + 1
        return None

    # forced-forced conflicts
    items = sorted(forced)
    for i, u in enumerate(items):
        for v in items[i + 1:]:
            if forced[u] == forced[v] and DW[u, v] > d:
                return None
    # candidate constraints
    for i, u in enumerate(cand):
        for v in cand[i + 1:]:
            if DW[u, v] > d:
                for cluster in set(options[u]) & set(options[v]):
                    lu, lv = lit(u, cluster), lit(v, cluster)
                    sat.add_clause(lu ^ 1, lv ^ 1)
        for f, fc in forced.items():
            if DW[u, f] > d:
                lu = lit(u, fc)
                if lu is not None:
                    sat.add_clause(lu ^ 1, lu ^ 1)
    model = sat.solve()
    if model is None:
        return None
    out = {"A": list(forced_a), "B": list(forced_b), "C": list(forced_c)}
    for u in cand:
        choice = options[u][0] if model[var[u]] else options[u][1]
        out[choice].append(u)
    return sorted(out["A"]), sorted(out["B"]), sorted(out["C"])


def min_max_3cluster(plane: NormedPlane, points, *, seed: int = 0,
                     audit: Optional[ZoneAudit] = None) -> tuple[float, Partition]:
    """Minimize the largest of the three cluster diameters: binary search on
    the sorted pairwise distances with the feasibility test."""
    pts = finite_points(points)
    if len(pts) < 3:
        raise TooFewPoints("3-clustering needs at least three points")
    D = pairwise_distances(plane, pts)
    iu, ju = np.triu_indices(len(pts), k=1)
    values = np.concatenate([[0.0], np.unique(D[iu, ju])])
    lo, hi = 0, len(values) - 1
    best = hr_feasible_3cluster(plane, pts, float(values[hi]), seed=seed, audit=audit)
    assert best is not None
    while lo < hi:
        mid = (lo + hi) // 2
        part = hr_feasible_3cluster(plane, pts, float(values[mid]), seed=seed, audit=audit)
        if part is not None:
            best, hi = part, mid
        else:
            lo = mid + 1
    return float(values[hi]), best
