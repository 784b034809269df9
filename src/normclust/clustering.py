"""2-, 3-, and k-clustering of planar points under a symmetric convex norm.

A two-way split with both diameters at most d exists exactly when the graph
of "long" pairs (distance > d) is bipartite.  The min-max 2-clustering
2-colors a maximum spanning tree (Asano, Bhattacharya, Keil and Yao,
"Clustering algorithms based on minimum and maximum spanning trees", SoCG
1988), built from the pairs with an end on the convex hull; its split answers
every threshold at once.  The split under two different diameter bounds and
the residual assignment of the 3-clustering's zone decomposition around a
leftmost point are both 2-SAT (each point chooses one of two clusters, and no
far pair may share one), solved by the one bitset solver ``_two_sat``.  An optimal
k-clustering with pairwise linearly separable clusters always exists, so
k-clustering peels off one cluster at a time, each an intersection of line
dissections (``geometry.line_dissections``).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadBounds,
    DegenerateBasis,
    EmptyInput,
    NonFiniteResult,
    NormClustError,
    TooFewPoints,
)
from .geometry import hull_indices, line_dissections, subset_diameters
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


# Point sets as Python ints used as bitsets (bit u set: point u is in the
# set); the pairs longer than a threshold d as one bitset per point, far[u].


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bit_rows(mask: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a bitset."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _reach(far: list[int], mask: int) -> int:
    """The points far from some point of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= far[low.bit_length() - 1]
        mask ^= low
    return out


def _wide(far: list[int], mask: int) -> bool:
    """Whether mask holds a far pair."""
    rest = mask
    while rest:
        low = rest & -rest
        if far[low.bit_length() - 1] & mask:
            return True
        rest ^= low
    return False


def _two_colour(far: list[int], rest: int) -> Optional[tuple[int, int]]:
    """A proper 2-colouring (B, C) of the graph of far pairs on the points of
    rest, or None.  Breadth first from the lowest uncoloured point of each
    component, which goes to B; the colouring of a connected bipartite graph
    is unique up to swapping, so this one is canonical."""
    b = c = 0
    todo = rest
    while todo:
        frontier = todo & -todo
        todo ^= frontier
        b |= frontier
        on_b = True
        while frontier:
            nbrs = _reach(far, frontier) & rest
            if nbrs & (b if on_b else c):
                return None
            frontier = nbrs & todo
            todo ^= frontier
            if on_b:
                c |= frontier
            else:
                b |= frontier
            on_b = not on_b
    return b, c


def _two_sat(far: Sequence[list[int]], forced: tuple[int, ...],
             choices: Sequence[tuple[int, int, int]]) -> Optional[tuple[int, ...]]:
    """Clusters holding the forced points of each and, for every (candidates,
    first, second) of choices, each candidate in its first or second cluster,
    with no pair far in cluster k's relation far[k] inside cluster k; or
    None.  The forced sets must be disjoint, each without a far pair.

    This is 2-SAT (one two-way choice per candidate, one clause per far pair
    that could share a cluster), solved by unit propagation over bitsets: a
    point placed in a cluster pushes its far candidates to their other
    choice.  The lowest free candidate tries its first cluster; a propagation
    that ends without conflict is kept, since every clause it touched is then
    satisfied; if it conflicts, the second cluster is forced, and if that
    conflicts too there is no assignment (Even, Itai and Shamir, SIAM J.
    Comput. 5, 1976)."""
    # (candidates, their other cluster) for the points pushed out of each
    leave = [[(cand, b if a == k else a) for cand, a, b in choices if k in (a, b)]
             for k in range(len(far))]

    def place(members, free, queue):
        members = list(members)
        while queue:
            k, pts = queue.pop()
            if pts & ~free & ~members[k]:
                return None  # already in another cluster
            pts &= free
            if not pts:
                continue
            reach = _reach(far[k], pts)
            if reach & (members[k] | pts):
                return None
            members[k] |= pts
            free ^= pts
            queue += [(z, reach & free & cand) for cand, z in leave[k]]
        return members, free

    free = functools.reduce(operator.or_, (cand for cand, _, _ in choices))
    queue = []
    for k, held in enumerate(forced):
        reach = _reach(far[k], held)
        queue += [(z, reach & cand) for cand, z in leave[k]]
    state = place(forced, free, queue)
    while state is not None and state[1]:
        members, free = state
        u = free & -free
        first, second = next((a, b) for cand, a, b in choices if u & cand)
        state = place(members, free, [(first, u)]) or place(members, free, [(second, u)])
    return None if state is None else tuple(state[0])


# --------------------------------------------------------------------------
# 2-clustering


def _tree_split(plane: NormedPlane, pts: np.ndarray) -> tuple[float, Partition]:
    """The points coloured alternately along a maximum spanning tree (Asano,
    Bhattacharya, Keil and Yao, SoCG 1988), as a partition whose first
    cluster holds point 0, and d*, the larger of its two diameters.  d* is
    the least d for which some split has both diameters <= d: the tree path
    between the ends of a pair longer than d uses only pairs at least that
    long (the cycle property), so whenever the pairs longer than d form a
    bipartite graph, the tree's colouring is a proper colouring of it.

    The tree only needs the pairs with an end in H, the hull vertices (one
    index per location; Monma, Paterson, Suri and Yao, "Computing Euclidean
    maximum spanning trees", Algorithmica 5, 1990).  Take a pair (v, w) with
    neither end in H and d = gauge(w - v), let phi be a norming functional
    of w - v (phi(w - v) = d, |phi| <= gauge), and let x in H maximize phi
    over the points and y in H minimize it.  Then gauge(x - v), gauge(x - y)
    and gauge(w - y) are each >= phi(w - v) = d, so the cycle v-x-y-w has no
    pair shorter than (v, w), and some maximum spanning tree avoids (v, w).
    Prim over those pairs reads F, the (n, h) distances to the hull
    vertices: a hull vertex joining the tree offers its column to every
    point outside it, any other point offers its row to the hull vertices
    outside it.  Once every hull vertex is in the tree no offer is left, so
    each remaining point joins its best hull vertex in one step.  That is
    O(n h) distances and memory, all points on the hull being the worst
    case, n^2; time is up to n Prim steps of O(n) numpy work each, as many
    as there are points outranking the last hull vertex to join.

    The argument needs every vertex of the hull in H: ``hull_indices``
    decides each turn exactly, so none is lost to an orientation band,
    whose width would depend on where the points lie.  On large inputs it
    chains only the points not certainly inside an octagon of input points,
    which loses no vertex and costs O(n) numpy work.  The float gauge may
    order two pairs within a rounding error epsilon of each other
    differently from the true one; the tree is then maximal within epsilon,
    and the argument above still splits every pair longer than d* +
    epsilon.  A cluster's diameter is attained by two vertices of its own
    hull (a norm is convex), and the same ``pairwise_distances`` kernel
    gives the same bits for a pair in any matrix, F included.
    """
    n = len(pts)
    colour = np.zeros(n, dtype=bool)
    H = np.array(hull_indices(pts))
    F = pairwise_distances(plane, pts, pts[H])
    slot = np.full(n, -1)
    slot[H] = np.arange(len(H))
    outside, hull_outside = np.ones(n, dtype=bool), np.ones(len(H), dtype=bool)
    outside[H[0]] = hull_outside[0] = False
    # best[v] is the longest pair from the tree to v outside it
    best = F[:, 0].copy()
    best[H[0]] = -1.0
    link = np.full(n, H[0])
    to_join = len(H) - 1  # hull vertices outside the tree
    while to_join:
        v = int(best.argmax())
        outside[v] = False
        best[v] = -1.0
        colour[v] = not colour[link[v]]
        if slot[v] < 0:  # off the hull: offers its row to the hull outside
            row = F[v]
            longer = hull_outside & (row > best[H])
            best[H[longer]] = row[longer]
            link[H[longer]] = v
        else:  # a hull vertex: offers its column to every point outside
            hull_outside[slot[v]] = False
            to_join -= 1
            col = F[:, slot[v]]
            longer = outside & (col > best)
            np.copyto(best, col, where=longer)
            link[longer] = v
    colour[outside] = ~colour[link[outside]]
    colour ^= colour[0]
    clusters = (np.flatnonzero(~colour), np.flatnonzero(colour))

    def measure(idx):
        if not len(idx):
            return 0.0
        ends = idx[hull_indices(pts[idx])]
        if (slot[ends] >= 0).all():  # all on the hull of S: the pairs are in F
            return float(F[np.ix_(ends, slot[ends])].max())
        return float(pairwise_distances(plane, pts[ends]).max())

    measures = (measure(clusters[0]), measure(clusters[1]))
    return max(measures), Partition(tuple(tuple(c.tolist()) for c in clusters), measures)


def feasible_2cluster(plane: NormedPlane, points, d: float) -> Optional[Partition]:
    """A split of S into two parts of diameter <= d, or None.

    Such a split exists exactly when d >= d*, the min-max 2-clustering's
    value, and the spanning-tree split of ``avis_min_max_2cluster`` is then a
    witness; a valid split can always be realized by a line as well, so
    absence here is definitive.
    """
    if math.isnan(d):  # a negative d is a bound no split meets
        raise BadBounds("d is NaN")
    d_star, part = _tree_split(plane, finite_points(points))
    return part if d >= d_star else None


def avis_min_max_2cluster(plane: NormedPlane, points) -> tuple[float, Partition]:
    """Minimize the maximum of the two cluster diameters: the split of a
    maximum spanning tree's 2-colouring (see ``_tree_split``, which is exact)
    and d*, the larger of its diameters.  O(n h) distances for h hull
    vertices; no n x n matrix is formed.
    """
    pts = finite_points(points)
    if len(pts) < 2:
        raise TooFewPoints("2-clustering needs at least two points")
    return _tree_split(plane, pts)


def constrained_2cluster(plane: NormedPlane, points, d1: float, d2: float
                         ) -> Optional[Partition]:
    """Split S into (S1, S2) with diam(S1) <= d1 and diam(S2) <= d2, or None.

    With no pair longer than d1, S2 is the lexicographically lowest point.
    Otherwise the split is 2-SAT, exact because the bounds are pairwise:
    every point chooses S1 first, then S2, and no pair longer than d1 (d2)
    may share S1 (S2).
    """
    if not d1 >= d2 >= 0:  # NaN fails too
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

    sides = _two_sat((_bit_rows(D > d1), _bit_rows(D > d2)), (0, 0), [((1 << n) - 1, 0, 1)])
    return None if sides is None else result(*(list(_bits(s)) for s in sides))


# --------------------------------------------------------------------------
# minimal enclosing balls


def _euclid_circumcenter(a, b, c):
    """The circumcenter of a triple, or None when it is collinear within a
    share of its squared magnitude, so that the test scales with the input."""
    d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) <= 1e-14 * (abs(a[0]) + abs(b[0]) + abs(c[0]) + abs(a[1]) + abs(b[1]) + abs(c[1])) ** 2:
        return None
    a2, b2, c2 = a[0] ** 2 + a[1] ** 2, b[0] ** 2 + b[1] ** 2, c[0] ** 2 + c[1] ** 2
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    return ux, uy


# sign patterns (g0, g1, g2): which of its two circles each point of a triple
# lies on, in the order of itertools.product((1.0, -1.0), repeat=3)
_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
# an enclosing-ball input or scan of more points than this runs as array passes;
# Welzl's orders of fewer are made once: a seeded generator costs as much as a short ball
_SCAN_CUT = 32
_SHORT_ORDERS = [tuple(np.random.default_rng(0).permutation(n).tolist()) for n in range(_SCAN_CUT + 1)]


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
    from scipy.optimize import brentq  # imported on first use: it is most of the import time

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


def _welzl_center(plane: NormedPlane, pts, reach) -> tuple[float, float]:
    """The center of Welzl's minimal ball ("Smallest enclosing disks (balls
    and ellipsoids)", 1991) for a strictly convex norm, where the ball is
    unique and a point outside the ball of the points before it lies on the
    sphere of the ball of all of them; pts are float pairs, an array past
    _SCAN_CUT, and reach is the gauge on floats.

    Three nested loops over the points in one fixed pseudo-random order
    (expected linear time, deterministic output): a point outside the
    current ball goes on the boundary of the next one.  The ball through two
    boundary points is their midpoint ball; through three, the Euclidean
    circumcircle or the smallest two-arc candidate that covers the points
    seen so far, else the smallest covering pair ball of the three."""
    A = pts[np.random.default_rng(0).permutation(len(pts))] if len(pts) > _SCAN_CUT else None
    P = A.tolist() if A is not None else [pts[t] for t in _SHORT_ORDERS[len(pts)]]

    def first_outside(c, r, lo, hi, slack=1e-12, more=()) -> Optional[int]:
        # the first t of range(lo, hi), then of more, with P[t] outside
        # B(c, r (1 + slack)); one array pass over a long range, with the same bits
        (cx, cy), lim = c, r * (1 + slack)
        if hi - lo > _SCAN_CUT:
            out = gauge(plane, A[lo:hi] - c) > lim
            if out.any():
                return lo + int(out.argmax())
            lo = hi
        for t in itertools.chain(range(lo, hi), more):
            x, y = P[t]
            if reach(x - cx, y - cy) > lim:
                return t
        return None

    def pair_ball(a, b):
        (ax, ay), (bx, by) = P[a], P[b]
        return ((ax + bx) / 2, (ay + by) / 2), gauge_scalar(plane, ax - bx, ay - by) / 2

    def triple_ball(i, j, k):
        if isinstance(plane.descriptor, EuclideanNorm):
            c = _euclid_circumcenter(P[i], P[j], P[k])
            found = [] if c is None else [(c, gauge_scalar(plane, P[i][0] - c[0], P[i][1] - c[1]))]
        else:
            tri = np.array([P[i], P[j], P[k]])
            found = [(c.tolist(), r) for c, r in _twoarc_triple_candidates(plane.descriptor, tri)]

        def cover(balls):  # the smallest ball that covers P[:k + 1], P[i] and P[j], the first of equals
            return min((b for b in balls if first_outside(*b, 0, k + 1, 1e-9, (i, j)) is None),
                       key=operator.itemgetter(1), default=None)

        ball = cover(found)
        if ball is None:  # a numerically degenerate triple
            pairs = [pair_ball(a, b) for a, b in ((i, j), (i, k), (j, k))]
            ball = cover(pairs) or min(pairs, key=operator.itemgetter(1))
        return ball

    c, r = P[0], 0.0
    i = first_outside(c, r, 1, len(P))
    while i is not None:
        c, r = P[i], 0.0
        j = first_outside(c, r, 0, i)
        while j is not None:
            c, r = pair_ball(i, j)
            k = first_outside(c, r, 0, j)
            while k is not None:
                c, r = triple_ball(i, j, k)
                k = first_outside(c, r, k + 1, j)
            j = first_outside(c, r, j + 1, i)
        i = first_outside(c, r, i + 1, len(P))
    return c


def _polygon_center(plane: NormedPlane, pts: np.ndarray) -> np.ndarray:
    """The center of a minimal ball for a polygon norm.

    B(c, r) holds the points exactly when c lies in every half-plane
    n_f . c >= h_f - r, for each facet f of the unit ball (polar row n_f,
    so n_f . z = 1 on the facet) and h_f the points' largest n_f . s.  By
    Helly's theorem the half-planes meet when every three do.  Three facets
    have weights alpha with sum alpha_i n_i = 0 (alpha_i the cross product of
    the other two rows), unique up to a factor; by Farkas' lemma their
    half-planes miss each other exactly when alpha can be taken >= 0 and
    sum alpha_i (h_i - r) > 0.  So the least radius is the largest
    sum alpha h / sum alpha over the triples with alpha >= 0 (linear
    programming duality, with the triples as the dual bases).  Where the
    best triple has three nonzero weights, its half-planes meet in one
    point, the center; where it has two, two opposite facets, the center is
    the middle of the stretch of their common line inside every other
    half-plane."""
    N = plane._polar
    h = (pts @ N.T).max(axis=0)
    T = np.array(list(itertools.combinations(range(len(N)), 3)))
    n = N[T]
    alpha = np.stack([n[:, j, 0] * n[:, k, 1] - n[:, j, 1] * n[:, k, 0]
                      for j, k in ((1, 2), (2, 0), (0, 1))], axis=1)
    alpha *= np.sign(alpha.sum(axis=1, keepdims=True))
    dual = np.flatnonzero((alpha >= 0).all(axis=1) & (alpha.sum(axis=1) > 0))
    bound = (alpha[dual] * h[T[dual]]).sum(axis=1) / alpha[dual].sum(axis=1)
    pick = int(bound.argmax())
    best, weights = dual[pick], alpha[dual[pick]]
    line = h - bound[pick]  # n_f . c >= line_f, with equality on the tight facets
    if (weights > 0).all():
        # weights[i] is the cross product of the other two rows: keep the
        # best-conditioned pair
        pair = np.delete(T[best], weights.argmax())
        return np.linalg.solve(N[pair], line[pair])
    f = T[best][weights.argmax()]
    start, along = N[f] * line[f] / (N[f] @ N[f]), np.array([-N[f][1], N[f][0]])
    # n_g . (start + tau along) >= line_g bounds tau on one side; the rate
    # n_g . along is a cross product with n_f, exactly 0 for f and -f
    rate, need = N[:, 1] * along[1] + N[:, 0] * along[0], line - N @ start
    up, down = rate > 0, rate < 0
    lo = (need[up] / rate[up]).max(initial=-np.inf)
    hi = (need[down] / rate[down]).min(initial=np.inf)
    return start + (lo + hi) / 2 * along


def min_enclosing_ball(plane: NormedPlane, points) -> tuple[Point, float]:
    """Smallest radius r and a center c with S inside B(c, r): the best dual
    basis of the facet inequalities for a polygon norm (see
    ``_polygon_center``), Welzl's algorithm for the strictly convex norms.
    r is the largest gauge reach from c.

    Both run on the points scaled by a power of two to coordinates of at
    most 1, moved to the first point and scaled by a power of two again to
    an extent of at most 1.  The scalings are exact and no difference
    overflows, so the answer scales exactly with the input and its rounding
    scales with the spread of the points rather than with their offset.  A
    radius too large for a float raises NonFiniteResult.  Up to _SCAN_CUT
    points, all but the polygon norms run on Python floats, which beat
    numpy's per-call cost; both paths give the same bits."""
    pts = finite_points(points)
    if len(pts) == 0:
        raise EmptyInput("no points")
    polygon = isinstance(plane.descriptor, PolygonNorm)
    if arrays := polygon or len(pts) > _SCAN_CUT:
        top = math.frexp(float(np.abs(pts).max()))[1]
        q = np.ldexp(pts, -top)
        spread = math.frexp(extent := float(np.abs(q - q[0]).max()))[1]
        (x0, y0), unit = q[0].tolist(), np.ldexp(q - q[0], -spread)
    else:
        rows = pts.tolist()
        top = math.frexp(max(max(abs(x), abs(y)) for x, y in rows))[1]
        q = [(math.ldexp(x, -top), math.ldexp(y, -top)) for x, y in rows]
        x0, y0 = q[0]
        spread = math.frexp(extent := max(max(abs(x - x0), abs(y - y0)) for x, y in q))[1]
        unit = [(math.ldexp(x - x0, -spread), math.ldexp(y - y0, -spread)) for x, y in q]
    if extent == 0.0:
        return Point(float(pts[0][0]), float(pts[0][1])), 0.0
    # the array kernel's bits: abs(complex) is libm's hypot, as np.hypot (math.hypot is not)
    reach = ((lambda vx, vy: abs(complex(vx, vy))) if isinstance(plane.descriptor, EuclideanNorm)
             else functools.partial(gauge_scalar, plane))
    cx, cy = _polygon_center(plane, unit).tolist() if polygon else _welzl_center(plane, unit, reach)
    try:  # math.ldexp and reach raise OverflowError where numpy gives inf
        cx, cy = math.ldexp(x0 + math.ldexp(cx, spread), top), math.ldexp(y0 + math.ldexp(cy, spread), top)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            r = (float(gauge(plane, pts - (cx, cy)).max()) if arrays
                 else max(reach(x - cx, y - cy) for x, y in rows))
    except OverflowError:
        r = math.inf
    if not math.isfinite(r):
        raise NonFiniteResult("the enclosing ball does not fit in floats")
    return Point(cx, cy), r


# --------------------------------------------------------------------------
# k-clustering by peeling off one separable cluster at a time


def k_cluster_minimize(plane: NormedPlane, points, k: int, objective: Objective
                       ) -> tuple[float, Partition]:
    """Minimize the max, sum or sum of squares of per-cluster diameters or
    radii over all k-clusterings (empty clusters allowed).

    The max of the diameters at k = 2 and 3 is the min-max 2- and
    3-clustering, which ``_tree_split`` and ``min_max_3cluster`` solve
    exactly; its ties may be split differently from the enumeration's.

    Every other objective enumerates.  Some optimum has pairwise linearly
    separable clusters, so the cluster holding the lowest-index point of the
    remaining points U is U cut by at most j-1 line dissections, where j
    clusters are left to place.  Hence ``best(U, j) = min over such R of
    combine(measure(R), best(U - R, j-1))``, evaluated exactly with point
    sets as integer bitmasks and memoized for the duration of the call.
    Ties go to the first region in dissection order.

    A region is skipped when a lower bound on its term already reaches the
    best value found, and at j = 2 also when its term joined with the bound
    of U - R, the last cluster, does; a skipped region could not have
    replaced the incumbent, so the answer is the same as without the bounds.
    A diameter bounds itself.  A radius is at least half the diameter in
    every norm (the triangle inequality through the center); the bound is
    deflated by a relative 1e-12 and 64 ulps of the largest coordinate, more
    than the rounding of a computed radius, so it only skips enclosing balls
    that could not win.
    """
    pts = finite_points(points)
    n = len(pts)
    if n < k:
        raise TooFewPoints(f"need at least k={k} points")
    if not 2 <= k <= 4:
        raise NormClustError("k must be between 2 and 4")
    if objective == Objective(Combiner.MAX, Measure.DIAMETER) and k < 4:
        return _tree_split(plane, pts) if k == 2 else min_max_3cluster(plane, pts)
    rows = line_dissections(pts)
    cuts = _bit_rows(rows)
    D = pairwise_distances(plane, pts)
    known = dict(zip(cuts, subset_diameters(D, rows).tolist()))
    dist = D.tolist()

    def diam(mask: int) -> float:
        # diam(m) = max(diam(m without its lowest point), farthest point of m
        # from that lowest point)
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

    if objective.measure is Measure.DIAMETER:
        measure = lower = diam
    else:
        slack, coords = 64 * math.ulp(1.0) * float(np.abs(pts).max()), pts.tolist()

        @functools.cache
        def measure(mask: int) -> float:
            return min_enclosing_ball(plane, [coords[i] for i in _bits(mask)])[1] if mask else 0.0

        def lower(mask: int) -> float:
            return max(diam(mask) / 2 * (1 - 1e-12) - slack, 0.0)

    square = objective.combiner is Combiner.SUM_SQUARES
    join = max if objective.combiner is Combiner.MAX else operator.add

    def term(mask: int) -> float:
        value = measure(mask)
        return value * value if square else value

    def bound(mask: int) -> float:
        value = lower(mask)
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
            # the objective is at least R's own term, which is at least its
            # bound; at j = 2 the rest is one cluster, whose term is at least
            # its bound: prune before computing a ball or recursing
            if bound(R) >= best_value:
                continue
            value = term(R)
            if value >= best_value or j == 2 and join(value, bound(U & ~R)) >= best_value:
                continue
            rest_value, rest = best(U & ~R, j - 1)
            value = join(value, rest_value)
            if value < best_value:
                best_value, best_masks = value, (R,) + rest
        return best_value, best_masks

    _, masks = best((1 << n) - 1, k)
    if not masks:  # no clustering has a finite objective
        raise NonFiniteResult("the objective of every clustering overflows a float")
    part = Partition(tuple(tuple(_bits(m)) for m in masks), tuple(measure(m) for m in masks))
    return part.value(objective), part


# --------------------------------------------------------------------------
# 3-clustering (zone decomposition + 2-SAT assignment)


def _birkhoff_coords(plane: NormedPlane, pts: np.ndarray) -> np.ndarray:
    """Coordinates of (pts - pts[0]) / 2^e in the basis xhat = (1, 0),
    yhat, where xhat is Birkhoff orthogonal to yhat and 2^e bounds the
    points' coordinates, so that no difference overflows; the zones read
    only orders and signs, which the exact scaling keeps.  Moving the points
    to pts[0] first makes the rounding of the coordinates scale with the
    spread of the points rather than with their offset, as the seed band of
    ``_zones`` does."""
    yhat = np.asarray(birkhoff_orthogonal(plane, (1.0, 0.0)), dtype=float)
    q = np.ldexp(pts, -math.frexp(float(np.abs(pts).max()))[1])
    return np.linalg.solve(np.column_stack([(1.0, 0.0), yhat]), (q - q[0]).T).T


def _x_order(C: np.ndarray) -> np.ndarray:
    """The points in x-order, ties broken by y (see ``_ThreeClustering``)."""
    return np.lexsort((C[:, 1], C[:, 0]))


def _zones(C: np.ndarray, xrank: np.ndarray, ia: int, ips) -> tuple[np.ndarray, ...]:
    """Boolean (len(ips), len(C)) masks (seed, north, south, east) of the
    baselines from a = C[ia] to each a' = C[ip], in basis coordinates.

    East is every point after a' in the x-order.  Of the others, those within
    a band of the line aa' form the seed (a and a' among them: they lie on
    the segment), those left of the directed line a -> a' the north and the
    rest the south."""
    base = C[ips] - C[ia]
    rel = C - C[ia]
    cross = base[:, :1] * rel[:, 1] - base[:, 1:] * rel[:, 0]
    band = 1e-9 * float(np.abs(C).max()) * np.abs(base).max(axis=1, keepdims=True)
    east = xrank > xrank[ips][:, None]
    seed = ~east & (np.abs(cross) <= band)
    north = ~east & ~seed & (cross > 0)
    return seed, north, ~(east | seed | north), east


class _ThreeClustering:
    """One 3-clustering instance, built once per call: the distance matrix,
    coincident points merged into locations, the basis order and the zones
    of every baseline.  ``probe(d)`` then decides a threshold on bitsets.

    Zone algorithm (Hagauer and Rote, "Three-clustering of points in the
    plane", Comput. Geom. 8, 1997, with the vertical direction replaced by a
    Birkhoff orthogonal one): a, the first location in the x-order, is in
    cluster A; a' is the last location of A in that order, tried in order
    (a' = a first).  Points on the segment aa' join A at no cost, since by
    convexity of the norm none of them is farther from a point than both a
    and a' are.  The north (south) zone lies between a and a' in x, left
    (right) of the line a -> a'; the east zone after a'.  Either a whole zone
    joins A, with every point of the other zone close to all of it, and the
    rest is 2-coloured; or the zones' points outside A are forced into B
    (north) and C (south), and so is the upper (lower) end of every far
    pair in the east, and the remaining choices are 2-SAT.

    Ties.  The zones need distinct x-coordinates, and the east rule distinct
    y-coordinates; L1, L-infinity and lattice inputs have many equal ones.
    Instead of rotating the basis until none are left, the coordinates are
    read in the frame turned by an infinitesimal angle -e (Simulation of
    Simplicity, Edelsbrunner and Muecke, ACM TOG 9, 1990): x' = x + e y and
    y' = y - e x, so the x-order is lexicographic in (x, y) and the y-order
    in (y, -x).  That order is exact and total on distinct locations, and
    the sides of a line are unchanged, since the turn is linear: it keeps
    every collinear triple collinear, and the points of the line aa' between
    a and a' are still exactly its seed.  Why the answer is the same: the
    turned points lie within O(e) of the given ones, so for e below the gap
    between d and the nearest other pairwise distance, the pairs longer
    than d, and with them the feasibility of d, are the same for both point
    sets.  The turned set has no ties, where the zone algorithm applies, and
    the algorithm reads only the far pairs and the turned order.  The one
    tolerance left is the seed band of ``_zones`` for rounded coordinates.
    """

    def __init__(self, plane: NormedPlane, points):
        pts = finite_points(points)
        if len(pts) < 3:
            raise TooFewPoints("3-clustering needs at least three points")
        self.D = D = pairwise_distances(plane, pts)
        # one location per distinct point, numbered in the x-order: a is 0,
        # and the east zone of a' = r is every location above r
        uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
        C = _birkhoff_coords(plane, uniq)
        xorder = _x_order(C)
        self.m = m = len(uniq)
        self.members: list[list[int]] = [[] for _ in range(m)]
        for i, k in enumerate(np.argsort(xorder)[inverse.ravel()].tolist()):
            self.members[k].append(i)
        rep = [group[0] for group in self.members]
        self.W, C = uniq[xorder], C[xorder]
        self.DW = D[np.ix_(rep, rep)]
        if m <= 3:
            return
        self.zones = list(zip(*(_bit_rows(z) for z in _zones(C, np.arange(m), 0, range(1, m))[:3])))
        # below[u]: the locations before u in the y-order
        self.below = [0] * m
        seen = 0
        for u in np.lexsort((-C[:, 0], C[:, 1])).tolist():
            self.below[u] = seen
            seen |= 1 << u

    def probe(self, d: float) -> Optional[tuple[int, int, int]]:
        """Three location bitsets (A, B, C) of diameter <= d, or None."""
        if not d >= 0:
            return None
        m = self.m
        full = (1 << m) - 1
        far = _bit_rows(self.DW > d)
        if not any(far):
            return full, 0, 0
        if m <= 3:
            return tuple(1 << u for u in range(m)) + (0,) * (3 - m)
        bc = _two_colour(far, full ^ 1)
        if bc is not None:
            return (1,) + bc
        # the east locations forced into B (C) for a' = r: u > r with a far
        # location v > r below (above) it, that is r < key = min(u, max v)
        key_b, key_c = [0] * (m + 1), [0] * (m + 1)
        for u in range(1, m):
            low, high = far[u] & self.below[u], far[u] & ~self.below[u]
            key_b[max(0, min(u, low.bit_length() - 1))] |= 1 << u
            key_c[max(0, min(u, high.bit_length() - 1))] |= 1 << u
        east_b, east_c = [0] * (m + 1), [0] * (m + 1)
        for r in range(m - 1, 0, -1):
            east_b[r] = east_b[r + 1] | key_b[r + 1]
            east_c[r] = east_c[r + 1] | key_c[r + 1]
        for r, (seed, north, south) in enumerate(self.zones, start=1):
            if _wide(far, seed):
                continue
            # cases 1 and 2: a full zone joins A
            for zone, other in ((north, south), (south, north)):
                held = seed | zone
                if _wide(far, held):
                    continue
                A = held | (other & ~_reach(far, held))
                if _wide(far, A):
                    continue
                bc = _two_colour(far, full & ~A)
                if bc is not None:
                    return (A,) + bc
            # case 3: the locations that cannot join A are forced into B or C
            reach = _reach(far, seed)
            B, C = north & reach | east_b[r], south & reach | east_c[r]
            if B & C or _wide(far, B) or _wide(far, C):
                continue
            east = full >> (r + 1) << (r + 1)
            groups = _two_sat((far,) * 3, (seed, B, C), [
                (north & ~B, 0, 1), (south & ~C, 2, 0), (east & ~(B | C), 1, 2)])
            if groups is not None:
                return groups
        return None

    def partition(self, groups, d: float) -> Partition:
        """The point partition of location bitsets, checked against d."""
        part = _partition_from_masks(
            self.D, [[i for u in _bits(g) for i in self.members[u]] for g in groups])
        if max(part.measures) > d:
            raise NormClustError("internal: returned partition violates d")
        return part


def hr_zones(plane: NormedPlane, points, a, a_prime) -> Zones:
    """North/South/East decomposition of points by the baseline (a, a') and
    the Birkhoff orthogonal direction, with the tie-break of
    ``_ThreeClustering``; a must come first in the x-order (ties broken by
    y) and before a'."""
    pts = finite_points(points)
    ends = finite_points([a, a_prime])
    if (ends[0] == ends[1]).all():
        raise DegenerateBasis("a and a' coincide")
    C = _birkhoff_coords(plane, np.vstack([pts, ends]))
    n = len(pts)
    xrank = np.argsort(_x_order(C))
    if xrank[n + 1] < xrank[n]:
        raise DegenerateBasis("a must precede a' in basis x-coordinate")
    seed, north, south, east = (tuple(np.flatnonzero(z[0, :n]).tolist())
                                for z in _zones(C, xrank, n, [n + 1]))
    return Zones(north, south, east, seed)


def hr_feasible_3cluster(plane: NormedPlane, points, d: float) -> Optional[Partition]:
    """Partition S into A, B, C with diameters <= d, or None (the zone
    algorithm of ``_ThreeClustering``)."""
    if math.isnan(d):  # a negative d is a bound no partition meets
        raise BadBounds("d is NaN")
    inst = _ThreeClustering(plane, points)
    groups = inst.probe(d)
    return None if groups is None else inst.partition(groups, d)


def _fourth_farthest_first(D: np.ndarray) -> float:
    """r4, the distance of the fourth point of a farthest-first traversal to
    the first three: the four are pairwise at least r4 apart, so any
    3-clustering has a cluster of diameter >= r4."""
    near = D[0]
    for _ in range(2):
        near = np.minimum(near, D[int(near.argmax())])
    return float(near.max())


def min_max_3cluster(plane: NormedPlane, points) -> tuple[float, Partition]:
    """Minimize the largest of the three cluster diameters: binary search
    with the feasibility probe over the pairwise distances in [r4, d2],
    where d2 is the optimal 2-clustering's value (a 3-split with an empty
    cluster) and r4 a lower bound from a farthest-first traversal."""
    inst = _ThreeClustering(plane, points)
    if inst.m <= 3:
        return 0.0, inst.partition(inst.probe(0.0), 0.0)
    DW = inst.DW
    d2, split = _tree_split(plane, inst.W)
    best = tuple(sum(1 << u for u in c) for c in split.clusters) + (0,)
    values = np.unique(DW[np.triu_indices(inst.m, k=1)])
    values = values[(values >= _fourth_farthest_first(DW)) & (values <= d2)]
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        groups = inst.probe(float(values[mid]))
        if groups is not None:
            best, hi = groups, mid
        else:
            lo = mid + 1
    d_star = float(values[hi])
    return d_star, inst.partition(best, d_star)
