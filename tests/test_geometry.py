import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normclust import (
    Point,
    Segment,
    Side,
    convex_hull,
    diameter,
    euclidean_plane,
    gauge,
    l1_plane,
    linf_plane,
    norm_perimeter,
    perimeter_check,
    side_of,
    stabbing_line,
    two_arc_plane,
)
from normclust.errors import EmptyInput, NonFinitePoint, NonFiniteResult
from normclust import geometry
from normclust.geometry import (
    cross_sign,
    line_dissections,
    line_splits,
    line_through,
    point_in_convex,
    subset_diameters,
)
from normclust.norm import gauge_scalar, pairwise_distances
from normclust.separation import SeparationResult, SeparationWitness

E = euclidean_plane()
L1 = l1_plane()
LI = linf_plane()
TA = two_arc_plane(10.0, 5 * math.sqrt(13))
PLANES = pytest.mark.parametrize("plane", [E, L1, LI, TA], ids=["euclidean", "l1", "linf", "two_arc"])

# (1e-12, +-5) lie 5 from the chord between the other two points, but their
# turns are 1e-11, below the 1e-10 that a band of 1e-12 * extent^2 would
# count as straight
SPIKE = [(0, 0), (1e-12, -5), (1e-12, 5), (2e-12, 0)]


def _fraction_hull(pts):
    """Monotone chain with every turn in exact rational arithmetic."""
    uniq = sorted(set(map(tuple, np.asarray(pts, float).tolist())))
    if len(uniq) == 1:
        return [Point(*uniq[0])]

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                (ox, oy), (ax, ay), (px, py) = (map(Fraction, q) for q in (chain[-2], chain[-1], p))
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    verts = build(uniq)[:-1] + build(uniq[::-1])[:-1]
    return [Point(*v) for v in (verts if len(verts) >= 2 else [uniq[0], uniq[-1]])]


class TestConvexHull:
    def test_triangle_with_interior(self):
        h = convex_hull([(0, 0), (1, 0), (0, 1), (0.1, 0.1)])
        assert set(h.vertices) == {Point(0, 0), Point(1, 0), Point(0, 1)}

    def test_single_point(self):
        assert convex_hull([(2, 3)]).vertices == (Point(2, 3),)

    def test_collinear(self):
        h = convex_hull([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert set(h.vertices) == {Point(0, 0), Point(3, 0)}

    def test_empty(self):
        with pytest.raises(EmptyInput):
            convex_hull([])

    @pytest.mark.parametrize("pts", [[(1, -2), (math.nan, -2), (-1, -2)], [(0, -math.inf), (0, 0), (0, -1)],
                                     [(0, math.nan), (0, math.nan)]])
    def test_non_finite_on_a_line(self, pts):
        # both products of each turn here have a zero factor; two points make no turn
        for call in (convex_hull, lambda p: diameter(E, p), lambda p: geometry.hull_indices(np.array(p, float))):
            with pytest.raises(NonFinitePoint):
                call(pts)

    @pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (2.0 ** -40, 0.0), (2.0 ** 40, 0.0), (1.0, 1.0)],
                             ids=["unit", "2^-40", "2^40", "shifted"])
    def test_thin_spikes(self, scale, shift):
        pts = [(scale * x + shift, scale * y + shift) for x, y in SPIKE]
        assert sorted(convex_hull(pts).vertices) == sorted(Point(*p) for p in pts)

    def test_exact_turns(self):
        # a few ulps off a line, far from the origin: the hull is the one that
        # exact rational turns give
        rng = np.random.default_rng(11)
        for n in (3, 5, 12, 40):
            for _ in range(25):
                base, d = 1e5 * rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
                pts = (base + rng.uniform(0, 1, (n, 1)) * d
                       + rng.integers(-3, 4, (n, 2)) * np.spacing(1e5))
                assert list(convex_hull(pts).vertices) == _fraction_hull(pts)

    def test_against_edge_oracle(self):
        # every input point must be on the left of every hull edge
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.uniform(-10, 10, size=(100, 2))
            h = convex_hull(pts)
            v = h.vertices
            for i in range(len(v)):
                a, b = v[i], v[(i + 1) % len(v)]
                cross = (b.x - a.x) * (pts[:, 1] - a.y) - (b.y - a.y) * (pts[:, 0] - a.x)
                assert cross.min() > -1e-7


@st.composite
def _filter_sets(draw):
    """Point sets on both sides of the hulls' filter cut, rows shuffled:
    uniform reals, lattice squares and diamonds (points on the octagon's
    edges), a few locations copied many times (duplicated hull vertices),
    all-collinear lattice runs (two-vertex hulls) and slivers a few ulps
    wide around a line, each scaled by 2^k, k in [-60, 60]; or reals near
    +-1e308, where the filter's sums, differences and products overflow."""
    cut = geometry._FILTER_CUT
    n = draw(st.integers(1, 3 * cut))
    kind = draw(st.sampled_from(["uniform", "lattice", "diamond", "duplicate", "collinear", "sliver", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "uniform":
        pts = rng.uniform(-1, 1, (n, 2))
    elif kind in ("lattice", "diamond"):
        pts = rng.integers(-draw(st.integers(1, 6)), draw(st.integers(1, 6)) + 1, (n, 2)).astype(float)
        if kind == "diamond":  # turned by 45 degrees, exactly
            pts = np.column_stack([pts[:, 0] - pts[:, 1], pts[:, 0] + pts[:, 1]])
    elif kind == "duplicate":
        base = rng.uniform(-1, 1, (draw(st.integers(1, 12)), 2))
        pts = base[rng.integers(0, len(base), n)]
    elif kind == "collinear":
        start, step = rng.integers(-50, 51, 2), draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -3)]))
        pts = (start + np.outer(rng.integers(-1000, 1001, n), step)).astype(float)
    elif kind == "sliver":  # a few ulps off a line, far out: turns within the float bound
        base, d = 1e5 * rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        pts = base + rng.uniform(0, 1, (n, 1)) * d + rng.integers(-3, 4, (n, 2)) * np.spacing(1e5)
    else:
        pts = rng.uniform(-1, 1, (n, 2)) * draw(st.sampled_from([1e308, 1.7e308, 1.79e308]))
        return pts[rng.permutation(n)]
    return np.ldexp(pts, draw(st.integers(-60, 60)))[rng.permutation(n)]


def _chain_all(pts):
    """The hull over every point, unfiltered: ``convex_hull``'s vertices and
    ``hull_indices``' first indices."""
    first = {}
    for i, p in enumerate(map(tuple, pts.tolist())):
        first.setdefault(p, i)
    verts = geometry._monotone_chain(sorted(first))
    return [Point(*v) for v in verts], [first[v] for v in verts]


class TestHullFilter:
    @settings(max_examples=300, deadline=None)
    @given(pts=_filter_sets())
    def test_same_as_the_chain_over_all_points(self, pts):
        verts, first = _chain_all(pts)
        assert list(convex_hull(pts).vertices) == verts
        assert list(convex_hull(pts.tolist()).vertices) == verts
        assert geometry.hull_indices(pts) == first

    def test_turn_within_the_float_bound(self):
        # p is right of b -> c, so a hull vertex, but its float turn to b -> c
        # is positive: only Shewchuk's bound keeps it through the filter
        a, b, c = (-0.027391336361037258, 1.0765279389179532), (-1.0585044742296272, -0.28767311991619526), \
            (1.05556350102754, -0.6140783541812027)
        p = (0.4722671245557333, -0.5240192867167094)
        assert (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0]) > 0 > cross_sign(b, c, b, p)
        w = np.random.default_rng(6).uniform(0.1, 1, (2 * geometry._FILTER_CUT, 3))
        pts = np.vstack([(w / w.sum(axis=1, keepdims=True)) @ np.array([a, b, c]), [a, b, c, p]])
        assert geometry.hull_indices(pts) == _chain_all(pts)[1] == [len(pts) - 3, len(pts) - 1, len(pts) - 2,
                                                                    len(pts) - 4]

    def test_drops_the_interior(self):
        pts = np.random.default_rng(8).uniform(-10, 10, (2000, 2))
        keep = geometry._hull_candidates(pts)
        assert len(keep) < 100 and set(geometry.hull_indices(pts)) <= set(keep.tolist())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_large_input(self, bad):
        pts = np.random.default_rng(2).uniform(-1, 1, (3 * geometry._FILTER_CUT, 2))
        pts[17, 1] = bad
        for call in (convex_hull, geometry.hull_indices, lambda p: diameter(E, p)):
            with pytest.raises(NonFinitePoint):
                call(pts)
        with pytest.raises(NonFinitePoint):
            convex_hull(pts.tolist())


class TestDiameter:
    def test_square_euclid(self):
        val, (p, q) = diameter(E, [(0, 0), (1, 0), (1, 1), (0, 1)])
        assert val == pytest.approx(math.sqrt(2))
        assert abs(p.x - q.x) == 1 and abs(p.y - q.y) == 1

    def test_square_l1(self):
        assert diameter(L1, [(0, 0), (1, 0), (1, 1), (0, 1)])[0] == pytest.approx(2.0)

    def test_matches_all_pairs(self, norm_suite):
        rng = np.random.default_rng(9)
        # duplicates and a collinear run, with an interior duplicate on it
        degenerate = np.array([(0, 0), (0, 0), (1, 2), (2, 4), (3, 6), (2, 4), (5, -1), (5, -1)], float)
        for _, plane in norm_suite:
            for pts in [rng.uniform(-10, 10, size=(n, 2)) for n in (2, 3, 12, 60, 200)] + [degenerate]:
                D = pairwise_distances(plane, pts)
                assert diameter(plane, pts)[0] == pytest.approx(float(D.max()), abs=1e-9)


    @PLANES
    def test_beyond_floats(self, plane):
        # 2e308 apart: their difference overflows
        with pytest.raises(NonFiniteResult):
            diameter(plane, [(1e308, 0.0), (-1e308, 0.0)])
        value = diameter(plane, [(1e308, 0.0), (-7e307, 0.0)])[0]
        # 1.7e308 along x, and 1.7e308 / 15 on the two-arc norm
        assert value == (pytest.approx(1.7e308 / 15, rel=1e-15) if plane is TA else 1.7e308)

    @PLANES
    def test_thin_spikes(self, plane):
        # the diameter runs between the spike's tips, 10 apart vertically
        value, pair = diameter(plane, SPIKE)
        assert set(pair) == {Point(1e-12, -5), Point(1e-12, 5)}
        assert value == pytest.approx(float(pairwise_distances(plane, np.array(SPIKE)).max()), rel=1e-15)
        if plane is not TA:
            assert value == 10.0


@st.composite
def _hull_sets(draw):
    """Points whose hulls stress the calipers: lattice points (duplicates,
    collinear triples, parallel edges), centrally symmetric polygons (every
    edge exactly parallel to its opposite), collinear runs or uniform reals;
    scaled by 2^k, k in [-60, 60], and moved by up to 2^40 times their
    spread."""
    kind = draw(st.sampled_from(["lattice", "symmetric", "collinear", "uniform"]))
    if kind == "lattice":
        coord = st.integers(-4, 4)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=14))
    elif kind == "symmetric":
        m = draw(st.integers(1, 8))
        turn = draw(st.floats(0, 1))
        half = [(math.cos(math.pi * (i + turn) / m), math.sin(math.pi * (i + turn) / m)) for i in range(m)]
        pts = half + [(-x, -y) for x, y in half]
    elif kind == "collinear":
        (x, y), (dx, dy) = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4))), draw(
            st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]))
        pts = [(x + t * dx, y + t * dy) for t in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=8))]
    else:
        real = st.floats(-1, 1, allow_nan=False)
        pts = draw(st.lists(st.tuples(real, real), min_size=1, max_size=14))
    pts = np.array(pts, float)
    spread = float(np.ptp(pts, axis=0).max()) or 1.0
    shift = np.array(draw(st.tuples(*[st.floats(-2.0 ** 40, 2.0 ** 40)] * 2))) * spread
    if draw(st.booleans()):
        shift[:] = 0.0
    return np.ldexp(pts + shift, draw(st.integers(-60, 60)))


class TestCalipers:
    @settings(max_examples=300, deadline=None)
    @given(pts=_hull_sets())
    def test_diameter_is_the_largest_vertex_pair(self, norm_suite, pts):
        # the calipers' value is exactly the all-pairs maximum of the same
        # gauge over the hull's vertices, and their pair attains it
        verts = convex_hull(pts).vertices
        for _, plane in norm_suite:
            value, (p, q) = diameter(plane, pts)
            assert value == max(gauge_scalar(plane, b.x - a.x, b.y - a.y) for a in verts for b in verts)
            assert value == gauge_scalar(plane, q.x - p.x, q.y - p.y)

    def test_far_offset(self, norm_suite):
        # 3-24 points in [-1, 1]^2 moved by 1e12: a slope band proportional
        # to the offset had taken non-parallel edges for parallel ones
        rng = np.random.default_rng(12)
        for _ in range(40):
            pts = rng.uniform(-1, 1, size=(int(rng.integers(3, 25)), 2)) + 1e12
            verts = convex_hull(pts).vertices
            for _, plane in norm_suite:
                assert diameter(plane, pts)[0] == max(
                    gauge_scalar(plane, b.x - a.x, b.y - a.y) for a in verts for b in verts)


class TestCrossSign:
    def test_parallel_lattice_edges(self):
        # parallel edges far apart and far out: exactly 0, both ways round
        a, b = (1e15 + 1, 3.0), (1e15 + 4, 9.0)
        c, d = (-7e15, 1.0), (-7e15 + 1, 3.0)
        assert cross_sign(a, b, c, d) == cross_sign(b, a, c, d) == cross_sign(c, d, a, b) == 0
        assert cross_sign((0, 0), (2, 2), (5, -1), (3, -3)) == 0
        assert cross_sign((0.5, 0.25), (0.5, 0.75), (3, 8), (3, -1)) == 0

    def test_sign_inside_the_float_filter(self):
        # 3 * fl(1/3) rounds to 1, but is below it: the float product is 0
        third = 1 / 3
        assert 3 * third == 1.0
        assert cross_sign((0, 0), (1, third), (0, 0), (3, 1)) == 1
        assert cross_sign((0, 0), (3, 1), (0, 0), (1, third)) == -1

    def test_near_parallel_far_out(self):
        # edges one ulp from parallel, 1e12 out, where a slope band
        # proportional to the coordinates took them for parallel
        base = 1e12
        a, b = (base, base), (base + 3, base + 1)
        c, d = (base + 7, base - 5), (np.nextafter(base + 10, 0), base - 4)
        assert cross_sign(a, b, c, d) == _fraction_cross(a, b, c, d) == 1

    def test_against_fractions(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            a, b, c = (tuple(p) for p in rng.uniform(-1, 1, size=(3, 2)) * 10.0 ** rng.integers(-8, 9))
            # d - c a rounded multiple of b - a: near parallel, often within the filter
            t = rng.uniform(-3, 3)
            d = (c[0] + t * (b[0] - a[0]), c[1] + t * (b[1] - a[1]))
            assert cross_sign(a, b, c, d) == _fraction_cross(a, b, c, d)
            assert geometry.orient(a, b, c) == cross_sign(a, b, a, c) == _fraction_cross(a, b, a, c)


def _fraction_cross(a, b, c, d) -> int:
    """The sign of (b - a) x (d - c) in exact rational arithmetic."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = (map(Fraction, map(float, q)) for q in (a, b, c, d))
    cross = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
    return (cross > 0) - (cross < 0)


class TestPerimeter:
    def test_unit_square_euclid(self):
        h = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert norm_perimeter(E, h) == pytest.approx(4.0)

    def test_l1_ball_in_l1(self):
        # each side of the diamond has L1 length 2
        h = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
        assert norm_perimeter(L1, h) == pytest.approx(8.0)

    def test_degenerate_segment(self):
        h = convex_hull([(0, 0), (2, 1)])
        assert norm_perimeter(E, h) == pytest.approx(2 * gauge(E, (2, 1)))

    def test_translation_and_reversal_invariance(self, norm_suite):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-5, 5, size=(10, 2))
        for _, plane in norm_suite:
            h = convex_hull(pts)
            base = norm_perimeter(plane, h)
            shifted = convex_hull(pts + np.array([3.5, -2.25]))
            assert norm_perimeter(plane, shifted) == pytest.approx(base, rel=1e-9)
            from normclust.geometry import ConvexPolygon

            rev = ConvexPolygon(tuple(reversed(h.vertices)))
            assert norm_perimeter(plane, rev) == pytest.approx(base, rel=1e-9)

    @PLANES
    @pytest.mark.filterwarnings("error")
    def test_beyond_floats(self, plane):
        # an edge of 2e308 overflows, and so does the perimeter, but on the
        # two-arc norm, whose unit ball reaches 15 along x: there it is the
        # perimeter at half scale, doubled
        tri = [(-1e308, 0.0), (1e308, 0.0), (0.0, 1e308)]
        a, b = [tri[0], tri[2]], [tri[1]]
        res = SeparationResult(tuple(map(Point._make, a)), (Point(*tri[1]),),
                               line_through(tri[0], tri[1]), SeparationWitness.NO_BAD_PAIRS)
        if plane is TA:
            half = convex_hull([(x / 2, y / 2) for x, y in tri])
            assert norm_perimeter(plane, convex_hull(tri)) == 2 * norm_perimeter(plane, half)
            assert perimeter_check(plane, a, b, res)[0] == 2 * gauge(plane, (1e308, 1e308))
        else:
            with pytest.raises(NonFiniteResult):
                norm_perimeter(plane, convex_hull(tri))
            with pytest.raises(NonFiniteResult):
                perimeter_check(plane, a, b, res)

    @pytest.mark.filterwarnings("error")
    def test_sum_beyond_floats(self):
        # each side's perimeter is 1e308 (a segment counts both ways), their sum is not
        a, b = [(0.0, 0.0), (0.5e308, 0.0)], [(0.0, 1.0), (0.5e308, 1.0)]
        assert norm_perimeter(E, convex_hull(a)) == norm_perimeter(E, convex_hull(b)) == 1e308
        res = SeparationResult(tuple(map(Point._make, a)), tuple(map(Point._make, b)),
                               line_through((0.0, 0.5), (1.0, 0.5)), SeparationWitness.DISJOINT_HULLS)
        with pytest.raises(NonFiniteResult):
            perimeter_check(E, a, b, res)


class TestLines:
    def test_side_of(self):
        x_axis = line_through((0, 0), (1, 0))
        assert side_of(x_axis, (0, 1)) is Side.LEFT
        assert side_of(x_axis, (5, 0)) is Side.ON
        assert side_of(x_axis, (0, -1)) is Side.RIGHT
        # a few ulps off the diagonal, whose defining points differ in
        # magnitude by 2^60; every answer is the exact one
        diagonal = line_through((2.0 ** -60, 2.0 ** -60), (1, 1))
        half_ulp = np.spacing(0.5)
        assert side_of(diagonal, (0.5, 0.5)) is Side.ON
        assert side_of(diagonal, (0.5, 0.5 + 3 * half_ulp)) is Side.LEFT
        assert side_of(diagonal, (0.5 + 2 * half_ulp, 0.5)) is Side.RIGHT
        # one ulp off a vertical line at 1e5
        vertical = line_through((1e5, 0), (1e5, 1))
        assert side_of(vertical, (np.nextafter(1e5, 0), 7)) is Side.LEFT
        assert side_of(vertical, (np.nextafter(1e5, 2e5), 7)) is Side.RIGHT
        assert side_of(vertical, (1e5, -7)) is Side.ON
        for line, p in ((diagonal, (0.5, 0.5 + half_ulp)), (vertical, (np.nextafter(1e5, 2e5), 7))):
            assert side_of(line, p).value == _fraction_turn(line.anchor, line.through, p)

    @pytest.mark.parametrize("p", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_side_of_non_finite(self, p):
        # (nan, 0) was ON the x-axis: its float turn is NaN and the lattice
        # shortcut saw one zero difference per product
        with pytest.raises(NonFinitePoint):
            side_of(line_through((0, 0), (1, 0)), p)

    def test_point_in_convex(self):
        # the spike's sides are 1e-12 from its axis over a height of 10: the
        # points just outside them are outside, whatever their distance
        spike = convex_hull(SPIKE)
        inside = [(1e-12, 0), (1e-12, 4.9), (1e-12, 5), (0, 0), (2e-12, 0), (0.5e-12, 2.5)]
        outside = [(0, 1), (-1e-13, 0), (3e-12, 0), (2e-12, 1), (1e-12, 5.0000001), (0.5e-12, 2.6)]
        for p in inside + outside:
            assert point_in_convex(spike, p) is (p in inside)
            assert point_in_convex(spike, p) is all(
                _fraction_turn(a, b, p) >= 0 for a, b in zip(spike.vertices, spike.vertices[1:] + spike.vertices[:1]))
        segment = convex_hull([(0, 0), (2, 2)])
        assert point_in_convex(segment, (1, 1)) and not point_in_convex(segment, (3, 3))
        assert not point_in_convex(segment, (1, 1 + np.spacing(1.0)))
        assert point_in_convex(convex_hull([(1, 2)]), (1, 2)) and not point_in_convex(convex_hull([(1, 2)]), (1, 2.5))


def _fraction_turn(o, a, p) -> int:
    """The sign of the turn o -> a -> p in exact rational arithmetic."""
    (ox, oy), (ax, ay), (px, py) = (map(Fraction, map(float, q)) for q in (o, a, p))
    turn = (ax - ox) * (py - oy) - (ay - oy) * (px - ox)
    return (turn > 0) - (turn < 0)


def _stab_oracle(segments):
    """Exhaustive candidate check, quadratic in the endpoints."""
    endpoints = []
    for s in segments:
        endpoints += [s.a, s.b]

    def stabs(line):
        for s in segments:
            sa = side_of(line, s.a)
            sb = side_of(line, s.b)
            if sa is sb and sa is not Side.ON and sb is not Side.ON:
                return False
        return True

    from normclust.geometry import OrientedLine

    for i, e1 in enumerate(endpoints):
        for e2 in endpoints[i + 1:]:
            if e1 != e2 and stabs(line_through(e1, e2)):
                return True
        for s in segments:
            through = Point(e1.x + (s.b.x - s.a.x), e1.y + (s.b.y - s.a.y))
            if through != e1 and stabs(OrientedLine(e1, through)):
                return True
        if stabs(OrientedLine(e1, Point(e1.x + 1.0, e1.y))):
            return True
    return False


class TestLineDissections:
    def test_every_split_by_a_line(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-1, 1, size=(9, 2))
        rows = line_dissections(pts)
        # points in general position: n(n-1) splits plus all and none
        assert len(rows) == 9 * 8 + 2
        assert len({r.tobytes() for r in rows}) == len(rows)
        # each row and its complement lie on the closed sides of a line
        # through two of the points, in exact rational arithmetic
        pairs = [(p, q) for p in pts for q in pts if tuple(p) != tuple(q)]
        for row in rows:
            assert any(all(_fraction_turn(p, q, r) >= 0 for r in pts[row])
                       and all(_fraction_turn(p, q, r) <= 0 for r in pts[~row]) for p, q in pairs)
        found = {r.tobytes() for r in rows}
        for theta, c in rng.uniform((0, -1.5), (2 * math.pi, 1.5), size=(2000, 2)):
            cut = pts @ (math.cos(theta), math.sin(theta)) > c
            assert cut.tobytes() in found

    def test_collinear_with_duplicates(self):
        rows = line_dissections([(0, 0), (2, 2), (1, 1), (1, 1)])
        # prefixes and suffixes along the line; the twins share a side
        want = {(0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 1, 1), (1, 1, 1, 1), (0, 1, 1, 1), (0, 1, 0, 0)}
        assert {tuple(map(int, r)) for r in rows} == want

    def test_blocks_give_the_same_rows(self, monkeypatch):
        # a lattice has many lines with three or more points on them, each
        # met by pairs in different blocks when a block holds one pair; the
        # rows and their order do not depend on the blocks
        pts = [(x, y) for x in range(4) for y in range(4)]
        rows = line_dissections(pts)
        monkeypatch.setattr(geometry, "_CHUNK", 32)
        assert np.array_equal(line_dissections(pts), rows)

    def test_blocks_keep_the_first_pair_of_a_line(self, monkeypatch):
        # 30 points on 12 locations: every pair of a line yields the same
        # rows, also when its pairs fall in different blocks, and no row
        # parts equal points
        pts = np.random.default_rng(0).integers(0, [3, 4], size=(30, 2)).astype(float)
        rows = line_dissections(pts)
        monkeypatch.setattr(geometry, "_CHUNK", 2 * len(pts))
        assert np.array_equal(line_dissections(pts), rows)
        assert len(rows) == 100
        twins = (pts[:, None] == pts[None]).all(axis=2)
        assert not (twins[None] & (rows[:, :, None] != rows[:, None, :])).any()

    def test_line_splits(self):
        # three points on the line, at positions 2, 0 and 1, and one left of it
        rows = line_splits(np.array([[False, False, False, True]]),
                           np.array([[True, True, True, False]]),
                           np.array([[2.0, 0.0, 1.0, 5.0]]))
        assert rows.astype(int).tolist() == [
            [0, 0, 0, 1], [0, 1, 0, 1], [0, 1, 1, 1], [1, 1, 1, 1],
            [1, 0, 0, 1], [1, 0, 1, 1]]

    def test_subset_diameters(self):
        rng = np.random.default_rng(19)
        pts = rng.uniform(-5, 5, size=(7, 2))
        D = pairwise_distances(L1, pts)
        rows = rng.random((40, 7)) < 0.4
        want = [max((D[i, j] for i in np.flatnonzero(r) for j in np.flatnonzero(r)), default=0.0)
                for r in rows]
        assert subset_diameters(D, rows).tolist() == want


class TestStabbingLine:
    def test_two_parallel(self):
        segs = [Segment(Point(-1, 0), Point(1, 0)), Segment(Point(-1, 1), Point(1, 1))]
        line = stabbing_line(segs)
        assert line is not None
        for s in segs:
            assert not (
                side_of(line, s.a) is side_of(line, s.b)
                and side_of(line, s.a) is not Side.ON
            )

    def test_no_transversal(self):
        segs = [
            Segment(Point(0, 0), Point(1, 0)),
            Segment(Point(3, 0), Point(4, 0)),
            Segment(Point(0, 5), Point(0, 6)),
        ]
        assert stabbing_line(segs) is None
        assert not _stab_oracle(segs)

    def test_single_segment(self):
        seg = Segment(Point(1, 1), Point(2, 5))
        line = stabbing_line([seg])
        assert line is not None
        assert side_of(line, seg.a) is Side.ON or side_of(line, seg.b) is Side.ON

    def test_random_agreement_with_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(1, 7))
            segs = [
                Segment(Point(*rng.uniform(-5, 5, 2)), Point(*rng.uniform(-5, 5, 2)))
                for _ in range(m)
            ]
            line = stabbing_line(segs)
            if line is not None:
                for s in segs:
                    sa, sb = side_of(line, s.a), side_of(line, s.b)
                    assert sa is Side.ON or sb is Side.ON or sa is not sb
            else:
                assert not _stab_oracle(segs)
