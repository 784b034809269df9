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
    baseline: tuple[Point, Point]
    seed: tuple[int, ...]  # points on the segment aa', pre-assigned to A


@dataclass(frozen=True)
class HRState:
    forced_a: tuple[int, ...]
    forced_b: tuple[int, ...]
    forced_c: tuple[int, ...]
    ab_cand: tuple[int, ...]
    ca_cand: tuple[int, ...]
    bc_cand: tuple[int, ...]
    threshold: float


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


def _twoarc_triple_candidates(desc: TwoArcNorm, tri: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Centers/radii with all three points on the sphere, one binding circle
    combination at a time; solved as a one-parameter root find in r."""
    h, R = desc.center_height, desc.radius
    out = []
    g_max = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            v = tri[i] - tri[j]
            hy = h * abs(v[1])
            a = R * R - h * h
            g = (hy + math.sqrt(hy * hy + a * float(v @ v))) / a
            g_max = max(g_max, g)
    if g_max == 0.0:
        return [(tri[0].copy(), 0.0)]
    lo, hi = g_max / 2 * (1 - 1e-9), 1.2 * g_max + 1e-9

    for sigmas in itertools.product((1.0, -1.0), repeat=3):
        def solve_c(r):
            rows, rhs = [], []
            for (i, j) in ((0, 1), (0, 2)):
                si, sj = tri[i], tri[j]
                gi, gj = sigmas[i], sigmas[j]
                rows.append([
                    -2 * (si[0] - sj[0]),
                    -2 * (si[1] - sj[1]) - 2 * r * h * (gi - gj),
                ])
                rhs.append(
                    -(si @ si - sj @ sj) - 2 * r * h * (gi * si[1] - gj * sj[1])
                )
            A = np.array(rows)
            if abs(np.linalg.det(A)) < 1e-12 * (1 + np.abs(A).max()) ** 2:
                return None
            return np.linalg.solve(A, np.array(rhs))

        def residual(r):
            c = solve_c(r)
            if c is None:
                return np.nan
            s0 = tri[0]
            return float(
                (s0 - c) @ (s0 - c)
                + 2 * sigmas[0] * r * h * (s0[1] - c[1])
                + r * r * h * h
                - r * r * R * R
            )

        grid = np.linspace(lo, hi, 96)
        vals = [residual(r) for r in grid]
        for k in range(len(grid) - 1):
            v0, v1 = vals[k], vals[k + 1]
            if not (np.isfinite(v0) and np.isfinite(v1)):
                continue
            if v0 == 0.0:
                r_star = float(grid[k])
            elif v0 * v1 < 0:
                r_star = float(brentq(residual, grid[k], grid[k + 1], xtol=1e-14))
            else:
                continue
            c = solve_c(r_star)
            if c is not None:
                out.append((c, r_star))
    return out


def min_enclosing_ball(plane: NormedPlane, points) -> tuple[Point, float]:
    """Smallest radius r and a center c with S inside B(c, r)."""
    pts = finite_points(points)
    if len(pts) == 0:
        raise EmptyInput("no points")
    if len(pts) == 1:
        return Point(float(pts[0][0]), float(pts[0][1])), 0.0
    desc = plane.descriptor

    if isinstance(desc, PolygonNorm):
        # LP over facet inequalities: minimize r s.t. n_f . (s - c) <= r b_f
        N, b = plane._normals, plane._offsets
        rows, rhs = [], []
        for s in pts:
            for f in range(len(N)):
                rows.append([-N[f, 0], -N[f, 1], -b[f]])
                rhs.append(-float(N[f] @ s))
        res = linprog(
            c=[0.0, 0.0, 1.0],
            A_ub=np.array(rows),
            b_ub=np.array(rhs),
            bounds=[(None, None), (None, None), (0, None)],
            method="highs",
        )
        if not res.success:
            raise NormClustError(f"enclosing-ball LP failed: {res.message}")
        cx, cy, r = res.x
        return Point(float(cx), float(cy)), float(r)

    # strictly convex norms: pair and triple candidates, containment-checked
    candidates: list[tuple[np.ndarray, float]] = []
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            mid = (pts[i] + pts[j]) / 2
            g = gauge(plane, pts[i] - pts[j]) / 2
            candidates.append((mid, float(g)))
    if isinstance(desc, EuclideanNorm):
        for i, j, k in itertools.combinations(range(n), 3):
            c = _euclid_circumcenter(pts[i], pts[j], pts[k])
            if c is not None:
                candidates.append((c, float(np.linalg.norm(pts[i] - c))))
    else:
        for i, j, k in itertools.combinations(range(n), 3):
            candidates.extend(_twoarc_triple_candidates(desc, pts[[i, j, k]]))

    best = None
    for c, r in candidates:
        if r < 0:
            continue
        reach = float(np.max(gauge(plane, pts - c)))
        if reach <= r * (1 + 1e-9) + 1e-12:
            if best is None or r < best[1]:
                best = (c, max(r, reach))
    if best is None:
        # numeric safety net: shrink around the best reach seen
        c = pts.mean(axis=0)
        best = (c, float(np.max(gauge(plane, pts - c))))
    return Point(float(best[0][0]), float(best[0][1])), float(best[1])


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
    return Zones(
        tuple(north),
        tuple(south),
        tuple(east),
        (Point(*map(float, aa)), Point(*map(float, pp))),
        seed,
    )


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
        state = HRState(
            tuple(a0), tuple(sorted(b0)), tuple(sorted(c0)),
            tuple(ab_cand), tuple(ca_cand), tuple(bc_cand), d,
        )
        assignment = _solve_case3(DW, d, state)
        if assignment is not None:
            A, B, C = assignment
            if max(_mask_diam(DW, A), _mask_diam(DW, B), _mask_diam(DW, C)) <= d:
                return expand([A, B, C])
    return None


def _solve_case3(DW: np.ndarray, d: float, state: HRState):
    """Resolve the two-choice candidates with 2-SAT; returns (A, B, C) index
    lists or None."""
    options: dict[int, tuple[str, str]] = {}
    for u in state.ab_cand:
        options[u] = ("A", "B")
    for u in state.ca_cand:
        options[u] = ("C", "A")
    for u in state.bc_cand:
        options[u] = ("B", "C")
    forced: dict[int, str] = {}
    for u in state.forced_a:
        forced[u] = "A"
    for u in state.forced_b:
        forced[u] = "B"
    for u in state.forced_c:
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
    out = {"A": list(state.forced_a), "B": list(state.forced_b), "C": list(state.forced_c)}
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
