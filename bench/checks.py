"""Independent references and output checks for the benchmark.

Nothing here calls into ``normclust``: distances come from each norm's unit
ball (``RefNorm``), optimal values from brute force or classic constructions
(maximum spanning tree, exhaustive labelling, bisection on ball
intersections, grid search).  Every check raises ``CheckFailed`` with a
message when an output is wrong.  Length tolerances scale with the
coordinate magnitude of the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

REL = 1e-9          # lengths and optimal values
RADIUS_REL = 1e-8   # enclosing radii, found by root finding in the program


class CheckFailed(AssertionError):
    pass


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def scale_of(*arrays) -> float:
    """Coordinate magnitude, at least 1."""
    return max([1.0] + [float(np.abs(np.asarray(a, float)).max()) for a in arrays if len(a)])


# --------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class RefNorm:
    """Gauge of a norm, computed from its unit ball.

    ``kind`` is "euclidean", "polygon" (``vertices``: a centrally symmetric
    convex polygon) or "two_arc" (the lens cut out by the disks of radius
    ``radius`` centred at (0, +-``center``)).
    """

    kind: str
    vertices: tuple = ()
    center: float = 0.0
    radius: float = 0.0

    def __post_init__(self):
        if self.kind == "polygon":
            v = np.asarray(self.vertices, float)
            area2 = float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - v[:, 1] * np.roll(v[:, 0], -1)))
            if area2 < 0:
                v = v[::-1]
            e = np.roll(v, -1, axis=0) - v
            normals = np.stack([e[:, 1], -e[:, 0]], axis=1)   # outward for a CCW polygon
            offsets = np.einsum("ij,ij->i", normals, v)
            object.__setattr__(self, "_facets", normals / offsets[:, None])

    def gauge(self, v) -> np.ndarray:
        v = np.asarray(v, float)
        if self.kind == "euclidean":
            return np.hypot(v[..., 0], v[..., 1])
        if self.kind == "polygon":
            # v lies in t*P exactly when every facet inequality n.v <= t*b holds
            return np.max(v @ self._facets.T, axis=-1)
        # t*lens = intersection of the disks |z -+ t*(0, c)| <= t*R; the
        # smallest t meeting both quadratic conditions in t
        c, big_r = self.center, self.radius
        a = big_r * big_r - c * c
        cy = c * np.abs(v[..., 1])
        return (cy + np.sqrt(cy * cy + a * (v[..., 0] ** 2 + v[..., 1] ** 2))) / a

    def scale(self, *arrays) -> float:
        """Coordinate magnitude measured in this norm, at least 1: the scale
        of every length tolerance."""
        pts = [np.asarray(a, float).reshape(-1, 2) for a in arrays if len(a)]
        return max([1.0] + [float(self.gauge(p).max()) for p in pts])

    def dist_matrix(self, pts, chunk: int = 128) -> np.ndarray:
        """Full distance matrix, computed a block of rows at a time."""
        p = np.asarray(pts, float)
        out = np.empty((len(p), len(p)))
        for s in range(0, len(p), chunk):
            out[s:s + chunk] = self.gauge(p[None, :, :] - p[s:s + chunk, None, :])
        return out

    def diameter(self, pts) -> float:
        """Largest distance; on large sets only between hull vertices, where
        a convex gauge attains it."""
        p = np.asarray(pts, float).reshape(-1, 2)
        if len(p) < 2:
            return 0.0
        if len(p) > 64:
            p = p[ConvexHull(p).vertices]
        return float(self.dist_matrix(p).max())

    def balls_as_disks(self, centres, r):
        """B(p, r) as an intersection of Euclidean disks (strictly convex kinds)."""
        c = np.asarray(centres, float)
        if self.kind == "euclidean":
            return c, np.full(len(c), r)
        up = c + np.array([0.0, r * self.center])
        down = c - np.array([0.0, r * self.center])
        return np.vstack([up, down]), np.full(2 * len(c), r * self.radius)


# --------------------------------------------------------------------------
# partitions


def check_partition(clusters, n: int, k: int) -> list[list[int]]:
    """k disjoint index lists covering 0..n-1 (empty lists allowed)."""
    groups = [list(map(int, c)) for c in clusters]
    require(len(groups) == k, f"expected {k} clusters, got {len(groups)}")
    flat = sorted(i for g in groups for i in g)
    require(flat == list(range(n)), "clusters are not a partition of the points")
    return groups


def cluster_diams(D: np.ndarray, groups) -> list[float]:
    return [float(D[np.ix_(g, g)].max()) if len(g) > 1 else 0.0 for g in groups]


def check_measures(reported, expected, tol: float, what: str) -> None:
    require(len(reported) == len(expected), f"{what}: wrong number of measures")
    for got, want in zip(reported, expected):
        require(abs(float(got) - want) <= tol, f"{what}: measure {got} != {want}")


def min_max_2cluster_ref(D: np.ndarray) -> float:
    """Optimal max of the two cluster diameters, from the 2-colouring of a
    maximum spanning tree (Asano, Bhattacharya, Keil and Yao, SoCG 1988):
    a same-colour pair longer than the tree's colouring allows would close
    an odd cycle of pairs at least that long.  Dense Prim, O(n^2)."""
    n = len(D)
    colour = np.zeros(n, dtype=int)
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    link = D[0].copy()                 # heaviest edge from the tree to each point
    parent = np.zeros(n, dtype=int)
    for _ in range(n - 1):
        v = int(np.argmax(np.where(outside, link, -np.inf)))
        outside[v] = False
        colour[v] = 1 - colour[parent[v]]
        heavier = outside & (D[v] > link)
        link[heavier] = D[v][heavier]
        parent[heavier] = v
    return max(cluster_diams(D, [np.nonzero(colour == c)[0] for c in (0, 1)]))


def subset_diameters(D: np.ndarray) -> np.ndarray:
    """diam[mask] for every subset of the n <= 20 points."""
    n = len(D)
    diam = np.zeros(1 << n)
    for h in range(1, n):
        rest = np.arange(1 << h)
        far = np.zeros(1 << h)
        for j in range(h):
            far = np.maximum(far, np.where(rest >> j & 1, D[h, j], 0.0))
        diam[(1 << h) + rest] = np.maximum(diam[rest], far)
    return diam


def labelling_masks(n: int, k: int) -> np.ndarray:
    """Cluster masks of every labelling with point 0 in cluster 0, shape (L, k)."""
    codes = np.arange(k ** (n - 1), dtype=np.int64)
    masks = np.zeros((len(codes), k), dtype=np.int64)
    masks[:, 0] = 1
    for i in range(1, n):
        digit = codes % k
        codes //= k
        for c in range(k):
            masks[:, c] |= (digit == c).astype(np.int64) << i
    return masks


def combine(values: np.ndarray, combiner: str) -> np.ndarray:
    """Combine per-cluster measures along the last axis."""
    if combiner == "max":
        return values.max(axis=-1)
    if combiner == "sum":
        return values.sum(axis=-1)
    return (values * values).sum(axis=-1)


def exhaustive_optimum(table: np.ndarray, n: int, k: int, combiner: str) -> float:
    """Best objective over all labellings, given a per-subset measure table."""
    return float(combine(table[labelling_masks(n, k)], combiner).min())


# --------------------------------------------------------------------------
# enclosing balls


def _disks_meet(c: np.ndarray, rho: np.ndarray, eps: float) -> bool:
    """Whether closed disks share a point: the lowest point of a nonempty
    intersection is the bottom of one disk or a crossing of two circles."""
    cand = [c - np.stack([np.zeros_like(rho), rho], axis=1)]
    i, j = np.triu_indices(len(c), k=1)
    delta = c[j] - c[i]
    d = np.hypot(delta[:, 0], delta[:, 1])
    ok = (d > 0) & (d <= rho[i] + rho[j]) & (d >= np.abs(rho[i] - rho[j]))
    i, j, delta, d = i[ok], j[ok], delta[ok], d[ok]
    if len(d):
        a = (d * d + rho[i] ** 2 - rho[j] ** 2) / (2 * d)
        h = np.sqrt(np.maximum(rho[i] ** 2 - a * a, 0.0))
        u = delta / d[:, None]
        base = c[i] + a[:, None] * u
        perp = np.stack([-u[:, 1], u[:, 0]], axis=1) * h[:, None]
        cand += [base + perp, base - perp]
    pts = np.vstack(cand)
    gap = np.hypot(pts[:, None, 0] - c[None, :, 0], pts[:, None, 1] - c[None, :, 1]) - rho[None, :]
    return bool((gap.max(axis=1) <= eps).any())


def enclosing_radius_bisect(norm: RefNorm, pts) -> float:
    """Smallest enclosing radius for the strictly convex kinds, by bisection
    on r: the radius-r balls around the points meet exactly when r is feasible."""
    p = np.asarray(pts, float).reshape(-1, 2)
    if len(p) < 2:
        return 0.0
    diam = norm.diameter(p)
    if len(p) == 2 or diam == 0.0:
        return diam / 2
    eps = 1e-13 * scale_of(p)
    lo, hi = diam / 2, diam
    for _ in range(48):
        mid = (lo + hi) / 2
        if _disks_meet(*norm.balls_as_disks(p, mid), eps):
            hi = mid
        else:
            lo = mid
    return hi


def enclosing_radius_grid(norm: RefNorm, pts) -> float:
    """Upper bound on the smallest enclosing radius: an 11x11 grid search
    over centres that zooms in on the best grid point."""
    p = np.asarray(pts, float).reshape(-1, 2)
    lo, hi = p.min(axis=0), p.max(axis=0)
    centre, half = (lo + hi) / 2, max(float((hi - lo).max()), 1e-12)
    best = float(norm.gauge(p - centre).max())
    ticks = np.linspace(-1.0, 1.0, 11)
    for _ in range(60):
        gx, gy = np.meshgrid(centre[0] + half * ticks, centre[1] + half * ticks)
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        reach = norm.gauge(p[None, :, :] - grid[:, None, :]).max(axis=1)
        k = int(np.argmin(reach))
        if reach[k] <= best:
            best, centre = float(reach[k]), grid[k]
        half *= 0.6
    return best


def enclosing_radius(norm: RefNorm, pts) -> float:
    if norm.kind == "polygon":
        return enclosing_radius_grid(norm, pts)
    return enclosing_radius_bisect(norm, pts)


def subset_radii(norm: RefNorm, pts) -> np.ndarray:
    p = np.asarray(pts, float)
    return np.array([
        enclosing_radius(norm, p[[i for i in range(len(p)) if m >> i & 1]]) if m else 0.0
        for m in range(1 << len(p))
    ])


# --------------------------------------------------------------------------
# checks, one per kind of output


def check_separation(norm: RefNorm, a, b, a_prime, b_prime, anchor, direction) -> None:
    """A' u B' = A u B, neither diameter grows, and the line has A' on its
    closed left and B' on its closed right."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    ap = np.asarray(a_prime, float).reshape(-1, 2)
    bp = np.asarray(b_prime, float).reshape(-1, 2)
    before = sorted(map(tuple, np.vstack([a, b]).tolist()))
    after = sorted(map(tuple, np.vstack([ap, bp]).tolist()))
    require(before == after, "separation: union not preserved")
    tol = REL * norm.scale(a, b)
    require(norm.diameter(ap) <= norm.diameter(a) + tol, "separation: diam(A') grew")
    require(norm.diameter(bp) <= norm.diameter(b) + tol, "separation: diam(B') grew")
    tol = REL * scale_of(a, b)
    d = np.asarray(direction, float)
    length = float(np.hypot(*d))
    require(length > 0, "separation: zero line direction")

    def offsets(pts):
        rel = pts - np.asarray(anchor, float)
        return (d[0] * rel[:, 1] - d[1] * rel[:, 0]) / length

    require(bool(np.all(offsets(ap) >= -tol)), "separation: a point of A' is right of the line")
    require(bool(np.all(offsets(bp) <= tol)), "separation: a point of B' is left of the line")


def check_cluster2(norm: RefNorm, pts, d_star: float, clusters, measures) -> None:
    """d* is the spanning-tree optimum and the partition certifies it."""
    D = norm.dist_matrix(pts)
    tol = REL * norm.scale(pts)
    want = min_max_2cluster_ref(D)
    require(abs(d_star - want) <= tol, f"cluster2: d* {d_star!r} != reference {want!r}")
    groups = check_partition(clusters, len(D), 2)
    diams = cluster_diams(D, groups)
    require(max(diams) <= d_star + tol, "cluster2: a cluster is wider than d*")
    check_measures(measures, diams, tol, "cluster2")


def check_cluster3(norm: RefNorm, pts, d_star: float, clusters, measures) -> None:
    """Small n: d* equals the exhaustive optimum.  Any n: the partition is a
    certificate whose widest cluster is d*, and d* <= the 2-cluster optimum."""
    D = norm.dist_matrix(pts)
    n = len(D)
    tol = REL * norm.scale(pts)
    groups = check_partition(clusters, n, 3)
    diams = cluster_diams(D, groups)
    check_measures(measures, diams, tol, "cluster3")
    require(abs(max(diams) - d_star) <= tol, "cluster3: widest cluster is not d*")
    require(d_star <= min_max_2cluster_ref(D) + tol, "cluster3: d* exceeds the 2-cluster optimum")
    if n <= 12:
        want = exhaustive_optimum(subset_diameters(D), n, 3, "max")
        require(abs(d_star - want) <= tol, f"cluster3: d* {d_star!r} != exhaustive {want!r}")


def check_cluster2c(norm: RefNorm, pts, d1: float, d2: float, feasible: bool, clusters,
                    measures, expect_feasible=None) -> None:
    """The answer meets the bounds; feasibility matches ``expect_feasible``
    when given, else all 2^n splits (n <= 16)."""
    D = norm.dist_matrix(pts)
    n = len(D)
    tol = REL * norm.scale(pts)
    if expect_feasible is None:
        require(n <= 16, "cluster2c: no reference for large n without known bounds")
        diam = subset_diameters(D)
        full = (1 << n) - 1
        masks = np.arange(1 << n)
        expect_feasible = bool(np.any((diam[masks] <= d1) & (diam[full ^ masks] <= d2)))
    require(feasible == expect_feasible,
            f"cluster2c: feasible={feasible} but the reference says {expect_feasible}")
    if feasible:
        groups = check_partition(clusters, n, 2)
        diams = cluster_diams(D, groups)
        require(diams[0] <= d1 + tol and diams[1] <= d2 + tol, "cluster2c: bounds violated")
        check_measures(measures, diams, tol, "cluster2c")


def check_clusterk(norm: RefNorm, pts, k: int, combiner: str, measure: str, value: float,
                   clusters, measures, table=None) -> None:
    """The value is the exhaustive optimum over all k-labellings and the
    partition attains it.  Radii come from ``subset_radii``."""
    p = np.asarray(pts, float)
    n = len(p)
    if table is None:
        table = subset_diameters(norm.dist_matrix(p)) if measure == "diameter" else subset_radii(norm, p)
    rel = REL if measure == "diameter" else RADIUS_REL
    tol = rel * norm.scale(p) * (k if combiner == "sum" else 1)
    if combiner == "sum_squares":
        tol *= 2 * k * max(1.0, float(table.max()))
    groups = check_partition(clusters, n, k)
    own = np.array([table[sum(1 << i for i in g)] for g in groups])
    check_measures(measures, own, rel * norm.scale(p), f"clusterk/{measure}")
    require(abs(value - float(combine(own, combiner))) <= tol, "clusterk: value != objective of its partition")
    want = exhaustive_optimum(table, n, k, combiner)
    require(abs(value - want) <= tol, f"clusterk: value {value!r} != exhaustive {want!r}")


def check_mineball(norm: RefNorm, pts, centre, radius: float) -> None:
    """The ball covers the points and diam/2 <= r <= reference radius + tol."""
    p = np.asarray(pts, float)
    tol = RADIUS_REL * norm.scale(p)
    reach = float(norm.gauge(p - np.asarray(centre, float)).max())
    require(reach <= radius + tol, "mineball: a point lies outside the ball")
    require(radius >= norm.diameter(p) / 2 - tol, "mineball: radius below diam/2")
    require(radius <= enclosing_radius(norm, p) + tol, "mineball: radius above the reference")


def check_far_point(norm: RefNorm, live: np.ndarray, u, d: float, got) -> None:
    """Against a linear scan over the live points."""
    tol = REL * norm.scale(live, [u])
    g = norm.gauge(live - np.asarray(u, float)) if len(live) else np.zeros(0)
    far = float(g.max()) if len(g) else -math.inf
    if got is None:
        require(far < d + tol, "query: a far live point exists but none was returned")
        return
    hit = np.all(live == np.asarray(got, float), axis=1)
    require(bool(hit.any()), "query: returned point is not live")
    require(float(norm.gauge(np.asarray(got, float) - np.asarray(u, float))) >= d - tol,
            "query: returned point is closer than d")


def check_ball_hull(norm: RefNorm, pts, d: float, vertices, centres) -> None:
    """Vertices are input points, and every support centre's ball covers the points."""
    p = np.asarray(pts, float)
    tol = REL * max(norm.scale(p), d)
    v = np.asarray(vertices, float).reshape(-1, 2)
    require(len(v) > 0, "ball hull: no vertices")
    inputs = set(map(tuple, p.tolist()))
    require(all(tuple(x) in inputs for x in v.tolist()), "ball hull: a vertex is not an input point")
    c = np.asarray(centres, float).reshape(-1, 2)
    require(len(c) > 0 or len(inputs) == 1, "ball hull: no support centres")
    for ci in c:
        require(float(norm.gauge(p - ci).max()) <= d + tol, "ball hull: a support ball misses a point")


def check_tree_root(norm: RefNorm, pts, d: float, diam: float, overfull: bool, vertices, centres) -> None:
    """No radius-d ball covers a set wider than 2d, so the root must be
    OVERFULL; a set no wider than 3d/2 has a covering ball (Bohnenblust's
    bound r <= 2/3 diam in the plane), so the root must be a hull.  ``diam``
    is the set's diameter from ``norm``."""
    if diam > 2 * d:
        require(overfull, "tree: root is a hull although no radius-d ball covers the set")
    elif 1.5 * d >= diam:
        require(not overfull, "tree: root is OVERFULL although a radius-d ball covers the set")
    if not overfull:
        check_ball_hull(norm, pts, d, vertices, centres)
