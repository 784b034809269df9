import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normclust import (
    Point,
    ball_hull,
    bh_contains,
    build_tree,
    convex_hull,
    delete_point,
    diameter,
    euclidean_plane,
    gauge,
    l1_plane,
    linf_plane,
    minimal_arcs,
    polygon_plane,
    query_far_point,
    sample_arc,
    sphere_sphere_intersection,
    two_arc_plane,
)
from normclust.ballhull import _BUCKET as B
from normclust.ballhull import OVERFULL, BallHullTree, _bh_from_candidates, _witness_overfull
from normclust.errors import (
    BadBounds,
    NoBallContainsS,
    NonFinitePoint,
    NonFiniteResult,
    NormClustError,
    NotPresent,
    TooFarApart,
)
from normclust.oracle import CenterSetOracle

E = euclidean_plane()
L1 = l1_plane()
LI = linf_plane()
TA = two_arc_plane(10.0, 5 * math.sqrt(13))
HEX = polygon_plane([(1, 0), (0.5, 1), (-0.5, 1), (-1, 0), (-0.5, -1), (0.5, -1)])


class TestMinimalArcs:
    def test_euclid_two_arcs(self):
        arcs = minimal_arcs(E, (0, 0), (2, 0), 2.0)
        centers = sorted((a.center for a in arcs), key=lambda c: c.y)
        assert len(arcs) == 2
        assert centers[0].x == pytest.approx(1.0)
        assert centers[0].y == pytest.approx(-math.sqrt(3))
        assert centers[1].y == pytest.approx(math.sqrt(3))

    def test_euclid_tangency(self):
        arcs = minimal_arcs(E, (0, 0), (2, 0), 1.0)
        assert len(arcs) == 2
        for a in arcs:
            assert a.center.x == pytest.approx(1.0)
            assert a.center.y == pytest.approx(0.0, abs=1e-9)
        # the two arcs are the upper and lower unit semicircles
        tops = sorted(sample_arc(E, a, 3)[1].y for a in arcs)
        assert tops[0] == pytest.approx(-1.0)
        assert tops[1] == pytest.approx(1.0)

    def test_too_far(self):
        with pytest.raises(TooFarApart):
            minimal_arcs(E, (0, 0), (3, 0), 1.0)

    def test_degenerate_segment_single_arc(self):
        arcs = minimal_arcs(LI, (0, 0), (1, 0), 1.0)
        assert len(arcs) == 1
        assert arcs[0].side == 0

    def test_arc_points_on_sphere(self, norm_suite):
        rng = np.random.default_rng(2)
        for _, plane in norm_suite:
            for _ in range(10):
                p, q = rng.uniform(-5, 5, size=(2, 2))
                g = float(gauge(plane, q - p))
                d = float(rng.uniform(0.55, 1.5)) * g
                if g > 2 * d:
                    continue
                for arc in minimal_arcs(plane, p, q, d):
                    for z in sample_arc(plane, arc, 9):
                        assert gauge(plane, (z.x - arc.center.x, z.y - arc.center.y)) == pytest.approx(d, rel=1e-9, abs=1e-9)


class TestBallHull:
    def test_single_point(self):
        h = ball_hull(E, [(3, 4)], 2.0)
        assert h.vertices == (Point(3, 4),)
        assert h.arcs == ()
        assert bh_contains(E, h, (3, 4))
        assert not bh_contains(E, h, (3.1, 4))

    def test_two_points(self):
        h = ball_hull(E, [(0, 0), (2, 0)], 2.0)
        assert set(h.vertices) == {Point(0, 0), Point(2, 0)}
        centers = sorted(h.support_centers, key=lambda c: c.y)
        assert centers[0].y == pytest.approx(-math.sqrt(3))
        assert centers[1].y == pytest.approx(math.sqrt(3))
        assert bh_contains(E, h, (1, 0))
        assert bh_contains(E, h, (1, 0.26))  # inside the lens
        assert not bh_contains(E, h, (1, 5))

    def test_vertices_from_input(self, norm_suite):
        rng = np.random.default_rng(6)
        for _, plane in norm_suite:
            pts = rng.uniform(0, 8, size=(15, 2))
            d = 0.9 * diameter(plane, pts)[0]
            h = ball_hull(plane, pts, d)
            asset = {tuple(p) for p in pts}
            assert all((v.x, v.y) in asset for v in h.vertices)
            # every input point is inside its own hull
            for p in pts:
                assert bh_contains(plane, h, p, tol=1e-7)

    def test_infeasible(self):
        with pytest.raises(NoBallContainsS):
            ball_hull(E, [(0, 0), (10, 0)], 1.0)

    @pytest.mark.parametrize("plane", [E, L1, TA], ids=["euclidean", "l1", "two_arc"])
    def test_nan_radius(self, plane):
        with pytest.raises(NormClustError, match="radius must be positive"):
            ball_hull(plane, [(0, 0), (1, 0), (0, 1)], math.nan)

    @pytest.mark.parametrize("x", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)])
    def test_contains_non_finite_probe(self, x):
        for pts in ([(0, 0)], [(0, 0), (1, 0), (0, 1)]):
            with pytest.raises(NonFinitePoint):
                bh_contains(E, ball_hull(E, pts, 2.0), x)

    def test_radius_of_2_to_the_1023(self):
        # the pair extremes need a sphere intersection whose radius has no
        # power of two above it in the floats, and the rounding band of the
        # covering test overflowed at these coordinates, so that every pair
        # extreme covered and (0, 1) stayed a vertex
        pts = [(1e308, 0.0), (-1e308, 0.0), (0.0, 1.0)]
        d = 1.5e308
        h = ball_hull(L1, pts, d)
        assert h.vertices == (Point(-1e308, 0.0), Point(1e308, 0.0))
        assert sorted(h.support_centers) == [Point(0.0, -5e307), Point(0.0, 5e307)]
        for c in h.support_centers:
            assert all(gauge(L1, (x / 2 - c.x / 2, y / 2 - c.y / 2)) <= d / 2 * (1 + 1e-9) for x, y in pts)
        assert all(bh_contains(L1, h, p) for p in pts)
        tree = build_tree(L1, pts, d)
        assert tree.root == h
        assert query_far_point(tree, (0.0, 0.0)) is None

    @pytest.mark.filterwarnings("error")
    def test_euclidean_pairs_beyond_squares(self):
        # d * d and the pair's difference overflow, and 2d is inf: the pair
        # extremes came out NaN and nothing filtered them.  The hull is the
        # lens of the far pair, whose arcs are centered at (0, +-sqrt(1.2^2 -
        # 1) 1e308) and reach 1.2e308 - 0.66e308 above and below the chord
        pts = [(-1e308, 0.0), (1e308, 0.0), (0.0, 1.0)]
        d = 1.2e308
        h = ball_hull(E, pts, d)
        assert h.vertices == (Point(-1e308, 0.0), Point(1e308, 0.0))
        assert len(h.support_centers) == 2
        for c, sign in zip(sorted(h.support_centers, key=lambda c: c.y), (-1, 1)):
            assert abs(c.x) <= 1e-15 * d and c.y == pytest.approx(sign * math.sqrt(0.44) * 1e308, rel=1e-14)
        assert all(bh_contains(E, h, p) for p in pts + [(0.0, 0.53e308), (0.0, -0.53e308)])
        assert not bh_contains(E, h, (0.0, 0.54e308))

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
    def test_euclidean_radius_below_squares(self, scale):
        # d * d underflows: the hull is the unit-scale one, scaled, where it
        # lost a vertex or raised NoBallContainsS
        pts = [(0.0, 0.0), (2.0, 0.0), (1.0, 0.5)]
        unit = ball_hull(E, pts, 2.0)
        h = ball_hull(E, [(scale * x, scale * y) for x, y in pts], 2.0 * scale)
        assert len(h.vertices) == len(unit.vertices) == 3
        got = sorted((c.x / scale, c.y / scale) for c in h.support_centers)
        np.testing.assert_allclose(got, sorted(unit.support_centers), rtol=1e-12)

    @pytest.mark.parametrize("plane", [E, L1, TA], ids=["euclidean", "l1", "two_arc"])
    def test_center_beyond_floats(self, plane):
        # the centers of this pair's lens lie beyond x = 1.7e308 + 0.1e308
        pair = [(1.7e308, -0.5e308), (1.7e308, 0.5e308)]
        d = 0.6e308 * gauge(plane, (0.0, 1.0))
        with pytest.raises(NonFiniteResult):
            sphere_sphere_intersection(plane, *pair, d)
        with pytest.raises(NonFiniteResult):
            ball_hull(plane, pair, d)

    @pytest.mark.parametrize("tol", [math.nan, -1e-9])
    def test_contains_bad_tol(self, tol):
        h = ball_hull(E, [(0, 0), (1, 0), (0, 1)], 1.0)
        with pytest.raises(BadBounds):
            bh_contains(E, h, (5, 5), tol=tol)

    def test_membership_against_oracle(self, norm_suite):
        rng = np.random.default_rng(8)
        for _, plane in norm_suite:
            for _ in range(6):
                n = int(rng.integers(3, 15))
                pts = rng.uniform(0, 6, size=(n, 2))
                d = float(rng.uniform(0.7, 1.2)) * diameter(plane, pts)[0]
                h = ball_hull(plane, pts, d)
                lo, hi = pts.min(0) - 0.5 * d, pts.max(0) + 0.5 * d
                probes = rng.uniform(lo, hi, size=(60, 2))
                oracle = CenterSetOracle(plane, pts, d)
                for x in probes:
                    got = bh_contains(plane, h, x, tol=1e-9)
                    want_lo, want_hi = oracle.interval(x)
                    if want_lo > d + 1e-7:
                        assert not got
                    elif want_hi < d - 1e-7:
                        assert got

    def test_monotone_in_radius(self, norm_suite):
        rng = np.random.default_rng(12)
        for _, plane in norm_suite:
            pts = rng.uniform(0, 6, size=(10, 2))
            d = diameter(plane, pts)[0]
            h1 = ball_hull(plane, pts, d)
            h2 = ball_hull(plane, pts, 2 * d)
            probes = rng.uniform(-2, 8, size=(150, 2))
            for x in probes:
                if bh_contains(plane, h2, x):
                    assert bh_contains(plane, h1, x, tol=1e-7)

    def test_arcs_inside_containing_balls(self, norm_suite):
        rng = np.random.default_rng(14)
        for _, plane in norm_suite:
            pts = rng.uniform(0, 5, size=(8, 2))
            d = 0.9 * diameter(plane, pts)[0]
            h = ball_hull(plane, pts, d)
            # sampled covering centers: perturb hull centers, keep the covers
            centers = list(h.support_centers)
            for c in list(centers):
                for _ in range(3):
                    cand = np.array([c.x, c.y]) + rng.normal(scale=0.05 * d, size=2)
                    if float(np.max(gauge(plane, pts - cand))) <= d:
                        centers.append(Point(*cand))
            for arc in h.arcs:
                for z in sample_arc(plane, arc, 7):
                    for c in centers:
                        assert gauge(plane, (z.x - c.x, z.y - c.y)) <= d * (1 + 1e-7) + 1e-9


class TestTree:
    def test_single_leaf(self):
        t = build_tree(E, [(1, 1)], 1.0)
        assert t.root.vertices == (Point(1, 1),)
        assert query_far_point(t, (1, 1)) is None

    @pytest.mark.parametrize("plane", [E, L1, TA], ids=["euclidean", "l1", "two_arc"])
    def test_nan_radius(self, plane):
        with pytest.raises(NormClustError, match="radius must be positive"):
            build_tree(plane, [(0, 0), (1, 0), (0, 1)], math.nan)

    def test_root_matches_direct_n8(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 5, size=(8, 2))
        d = diameter(E, pts)[0]
        t = build_tree(E, pts, d)
        assert t.root.vertices == ball_hull(E, pts, d).vertices

    def test_root_matches_direct_n1000_polygon(self):
        rng = np.random.default_rng(22)
        pts = rng.uniform(0, 20, size=(1000, 2))
        d = 0.8 * diameter(L1, pts)[0]
        t = build_tree(L1, pts, d)
        assert t.root.vertices == ball_hull(L1, pts, d).vertices

    def test_query_examples(self):
        t = build_tree(E, [(0, 0), (10, 0)], 1.0)
        assert query_far_point(t, (0, 0)) == Point(10, 0)
        t2 = build_tree(E, [(0, 0), (0.5, 0)], 1.0)
        assert query_far_point(t2, (0.25, 0)) is None

    def test_delete_then_query(self):
        t = build_tree(E, [(0, 0), (10, 0)], 1.0)
        delete_point(t, (10, 0))
        assert query_far_point(t, (0, 0)) is None
        delete_point(t, (0, 0))
        assert t.root is None
        assert query_far_point(t, (3, 3)) is None

    def test_delete_not_present(self):
        t = build_tree(E, [(0, 0), (10, 0)], 1.0)
        with pytest.raises(NotPresent):
            delete_point(t, (5, 5))
        delete_point(t, (10, 0))
        with pytest.raises(NotPresent):
            delete_point(t, (10, 0))

    @pytest.mark.parametrize("plane", [E, L1, TA], ids=["euclidean", "l1", "two_arc"])
    def test_delete_every_duplicate(self, plane):
        pts = [(1, 1), (3, 0), (1, 1), (0, 2), (1, 1), (3, 0), (2, 2)]
        t = build_tree(plane, pts, 5.0)
        for k in range(3):
            delete_point(t, (1, 1))
            live = [q for q, a in zip(t.points, t.alive) if a]
            assert live.count(Point(1, 1)) == 2 - k
            assert len(live) == len(pts) - 1 - k
        with pytest.raises(NotPresent):
            delete_point(t, (1, 1))
        assert Point(1, 1) not in t.root.vertices
        delete_point(t, (3, 0))
        assert query_far_point(t, (-100, -100)) in {Point(3, 0), Point(0, 2), Point(2, 2)}
        delete_point(t, (3, 0))
        with pytest.raises(NotPresent):
            delete_point(t, (3, 0))
        assert set(t.root.vertices) == {Point(0, 2), Point(2, 2)}

    def test_replay_against_linear_scan(self, norm_suite):
        rng = np.random.default_rng(33)
        for _, plane in norm_suite[:3]:
            pts = [Point(*p) for p in rng.uniform(0, 10, size=(60, 2))]
            d = 0.4 * diameter(plane, pts)[0]
            tree = build_tree(plane, pts, d)
            alive = set(tree.points)
            for _ in range(400):
                if not alive or rng.random() < 0.75:
                    u = Point(*rng.uniform(-1, 11, size=2))
                    got = query_far_point(tree, u)
                    want = any(
                        float(gauge(plane, (p.x - u.x, p.y - u.y))) >= d for p in alive
                    )
                    assert (got is not None) == want
                    if got is not None:
                        assert got in alive
                        assert float(gauge(plane, (got.x - u.x, got.y - u.y))) >= d
                else:
                    victim = sorted(alive)[int(rng.integers(0, len(alive)))]
                    delete_point(tree, victim)
                    alive.discard(victim)
                    if not alive:
                        tree = build_tree(plane, pts, d)
                        alive = set(tree.points)


FAMILIES = pytest.mark.parametrize("plane", [E, L1, TA], ids=["euclidean", "l1", "two_arc"])


def _check_tree(plane, tree, live, d, probes):
    """The root against a hull built directly from the live points, and each
    probe's query against a linear scan."""
    if live:
        try:
            want = ball_hull(plane, live, d).vertices
        except NoBallContainsS:
            want = OVERFULL
        got = tree.root if tree.root is OVERFULL else tree.root.vertices
        assert got == want
    else:
        assert tree.root is None
    for u in probes:
        got = query_far_point(tree, u)
        want = any(float(gauge(plane, (p.x - u.x, p.y - u.y))) >= d for p in live)
        assert (got is not None) == want
        if got is not None:
            assert got in live
            assert float(gauge(plane, (got.x - u.x, got.y - u.y))) >= d


def _replay(plane, pts, d, rng, deletions):
    """Delete ``deletions`` (indices into the sorted points, or random picks
    when None), checking the tree after the build and after every deletion."""
    tree = build_tree(plane, pts, d)
    live = sorted(Point(float(x), float(y)) for x, y in pts)
    arr = np.array([(p.x, p.y) for p in live])
    lo, hi = arr.min(0) - d, arr.max(0) + d

    def probes():
        return [Point(*u) for u in rng.uniform(lo, hi, size=(8, 2))]

    _check_tree(plane, tree, live, d, probes())
    order = deletions if deletions is not None else rng.permutation(len(live))
    victims = [tree.points[i] for i in order]
    for v in victims:
        delete_point(tree, v)
        live.remove(v)
        _check_tree(plane, tree, live, d, probes())
    return tree


class TestBuckets:
    """Trees whose leaves are buckets of up to B points, near bucket
    boundaries, replayed against a direct hull and a linear scan."""

    @FAMILIES
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1, 5 * B])
    def test_sizes(self, plane, n):
        rng = np.random.default_rng(n)
        pts = rng.uniform(0, 10, size=(n, 2))
        diam = diameter(plane, pts)[0] or 1.0
        for frac in (0.7, 0.3):
            _replay(plane, pts, frac * diam, rng, rng.permutation(n)[: min(n, 12)])

    @FAMILIES
    def test_duplicates_straddle_a_boundary(self, plane):
        rng = np.random.default_rng(61)
        left = rng.uniform([-10, 0], [-1, 10], size=(B - 2, 2))
        right = rng.uniform([1, 0], [10, 10], size=(B + 3, 2))
        pts = np.vstack([left, np.tile([0.0, 5.0], (4, 1)), right])
        d = 0.6 * diameter(plane, pts)[0]
        tree = build_tree(plane, pts, d)
        assert tree.points[B - 2] == tree.points[B + 1] == Point(0.0, 5.0)
        # the four copies go one by one, whichever bucket holds them
        _replay(plane, pts, d, rng, [B - 2, B - 1, B, B + 1])

    @FAMILIES
    def test_empty_bucket(self, plane):
        rng = np.random.default_rng(62)
        pts = rng.uniform(0, 10, size=(3 * B, 2))
        d = 0.5 * diameter(plane, pts)[0]
        tree = _replay(plane, pts, d, rng, range(B, 2 * B))
        assert sum(tree.alive) == 2 * B

    @FAMILIES
    def test_overfull_strip(self, plane):
        rng = np.random.default_rng(63)
        pts = rng.uniform([0, 0], [0.5, 100], size=(5 * B, 2))
        d = 0.3 * diameter(plane, pts)[0]
        first = sorted(map(tuple, pts.tolist()))[:B]
        with pytest.raises(NoBallContainsS):
            ball_hull(plane, first, d)  # the first bucket has no hull
        _replay(plane, pts, d, rng, None)


class TestScale:
    """Scaling the input by 2^k scales every hull exactly; other scales and a
    set far from the origin keep the hull's shape."""

    BASE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.5)]
    SCALES = [2.0 ** k for k in range(-60, 61)] + [1e-6, 1e6]

    @FAMILIES
    def test_scale(self, plane):
        rng = np.random.default_rng(64)
        cloud = rng.uniform(0, 10, size=(3 * B, 2))
        cloud_diam = diameter(plane, cloud)[0]
        ref_hull = convex_hull(self.BASE).vertices
        ref_diam = diameter(plane, self.BASE)[0]
        ref_bh = len(ball_hull(plane, self.BASE, 1.0).vertices)
        assert ref_bh == 4
        ref_arcs = [a.side for a in minimal_arcs(plane, (0, 0), (1, 0), 1.0)]
        assert ref_arcs == [1, -1]
        ref_roots = [build_tree(plane, cloud, f * cloud_diam).root is OVERFULL for f in (0.7, 0.3)]
        assert ref_roots == [False, True]
        for s in self.SCALES:
            pts = [(s * x, s * y) for x, y in self.BASE]
            hull = convex_hull(pts).vertices
            diam = diameter(plane, pts)[0]
            if math.frexp(s)[0] == 0.5:  # a power of two
                assert hull == tuple(Point(s * v.x, s * v.y) for v in ref_hull), s
                assert diam == s * ref_diam, s
            else:
                assert len(hull) == len(ref_hull), s
                assert diam == pytest.approx(s * ref_diam, rel=1e-12), s
            arcs = minimal_arcs(plane, (0, 0), (s, 0), s)
            assert [a.side for a in arcs] == ref_arcs, s
            # each arc's midpoint lies on its own side of the chord
            assert [math.copysign(1, sample_arc(plane, a, 3)[1].y) for a in arcs] == ref_arcs, s
            h = ball_hull(plane, pts, s)
            assert len(h.vertices) == ref_bh, s
            assert all(bh_contains(plane, h, p, tol=1e-9) for p in pts), s
            # the band is a share of the radius, so a far point stays out
            assert not bh_contains(plane, h, (3 * s, 3 * s)), s
            roots = [build_tree(plane, s * cloud, f * s * cloud_diam).root is OVERFULL
                     for f in (0.7, 0.3)]
            assert roots == ref_roots, s

    @FAMILIES
    def test_far_from_origin(self, plane):
        pts = [(x + 1e6, y + 1e6) for x, y in self.BASE]
        assert len(convex_hull(pts)) == 4
        assert diameter(plane, pts)[0] == diameter(plane, self.BASE)[0]
        h = ball_hull(plane, pts, 1.0)
        assert len(h.vertices) == 4
        assert all(bh_contains(plane, h, p, tol=1e-9) for p in pts)
        # a small set there: the rounding of its coordinates exceeds 1e-9 d
        s = 1e-3
        small = [(s * x + 1e6, s * y + 1e6) for x, y in self.BASE]
        assert len(convex_hull(small)) == 4
        assert len(ball_hull(plane, small, s).vertices) == 4
        cloud = np.random.default_rng(65).uniform(0, s, size=(3 * B, 2)) + 1e6
        diam = diameter(plane, cloud)[0]
        assert build_tree(plane, cloud, 0.7 * diam).root is not OVERFULL
        assert build_tree(plane, cloud, 0.3 * diam).root is OVERFULL


def _rebuilt(tree):
    """Every node of the tree rebuilt bottom-up from its live points."""
    return BallHullTree(tree.plane, tree.d, tree.points, list(tree.alive))._hulls


@st.composite
def _deletions(draw):
    """A plane, points with copies of one point (0 or -0, y) between a left
    and a right part, so that they often straddle a bucket boundary, a
    radius, and the order of deletion: a few picks, or every point."""
    plane = draw(st.sampled_from([E, L1, TA]))
    y = st.one_of(st.integers(-8, 8).map(float), st.just(-0.0))
    part = st.integers(0, B + 4)
    left = draw(st.lists(st.tuples(st.integers(-8, -1).map(float), y), min_size=(n := draw(part)), max_size=n))
    copies = draw(st.lists(st.tuples(st.sampled_from([0.0, -0.0]), st.just(5.0)), max_size=6))
    right = draw(st.lists(st.tuples(st.integers(1, 8).map(float), y), min_size=(n := draw(part)), max_size=n))
    pts = left + copies + right
    if not pts:
        pts = [(0.0, 0.0)]
    diam = diameter(plane, pts)[0] or 1.0
    d = draw(st.sampled_from([0.2, 0.4, 0.7, 1.5])) * diam
    if draw(st.booleans()):
        order = draw(st.permutations(range(len(pts))))
    else:
        order = draw(st.lists(st.integers(0, len(pts) - 1), max_size=12, unique=True))
    return plane, pts, d, order


class TestDeletionWalk:
    """A deletion rebuilds up to the first node its parent reads unchanged;
    every node must still be what a full rebuild gives, to the bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=_deletions())
    # copies of (0, 5) and (-0, 5) across the first bucket boundary
    @example(case=(L1, [(-1.0, 0.0)] * (B - 1) + [(0.0, 5.0), (-0.0, 5.0)] + [(1.0, 8.0)], 100.0,
                   [B - 1, 0, B, B + 1]))
    # both in the first bucket: deleting (0, 5) leaves vertices that compare
    # equal but hold -0.0 where the root holds 0.0
    @example(case=(E, [(-1.0, 0.0)] * (B - 2) + [(0.0, 5.0), (-0.0, 5.0)] + [(1.0, 8.0)], 100.0,
                   [B - 2]))
    def test_nodes_match_a_full_rebuild(self, case):
        plane, pts, d, order = case
        tree = build_tree(plane, pts, d)
        assert repr(tree._hulls) == repr(_rebuilt(tree))
        victims = [tree.points[i] for i in order]
        for v in victims:
            delete_point(tree, v)
            assert repr(tree._hulls) == repr(_rebuilt(tree))
        if len(order) == len(pts):
            assert tree.root is None


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


class TestWitness:
    """Two candidates whose half gauge exceeds the covering bound mark a node
    OVERFULL without a hull; the hull builder must raise on every such list,
    including radii a few ulps from the witness's threshold."""

    @settings(max_examples=150, deadline=None)
    @given(
        plane=st.sampled_from([E, L1, TA, HEX]),
        pts=st.lists(st.tuples(*[st.one_of(st.integers(-2 ** 20, 2 ** 20).map(lambda v: v / 2 ** 16),
                                           st.integers(-3, 3).map(float))] * 2),
                     min_size=2, max_size=12),
        k=st.integers(-60, 60),
    )
    def test_marks_only_what_raises(self, plane, pts, k):
        cand = [Point(x * 2.0 ** k, y * 2.0 ** k) for x, y in pts]
        lo, hi = 2.0 ** (k - 40), 2.0 ** (k + 8)  # marked at lo, not at hi
        if not _witness_overfull(plane, cand, lo):
            assert len(set(cand)) == 1
            return
        assert not _witness_overfull(plane, cand, hi)
        a, b = _bits(lo), _bits(hi)
        while b - a > 1:  # the largest marked radius
            m = (a + b) // 2
            a, b = (m, b) if _witness_overfull(plane, cand, _float(m)) else (a, m)
        for step in range(5):
            assert _witness_overfull(plane, cand, _float(a - step))
            with pytest.raises(NoBallContainsS):
                _bh_from_candidates(plane, cand, _float(a - step), {})
            assert not _witness_overfull(plane, cand, _float(b + step))

    @FAMILIES
    def test_centres_beyond_floats(self, plane):
        # (-1.7e308, 0) lies 3.4e308 from the two points at x = 1.7e308,
        # farther than 2d: the witness marks the root OVERFULL, where the
        # hull builder first met the lens of the close pair, whose centres
        # lie beyond the floats, and build_tree raised NonFiniteResult
        pts = [(1.7e308, -0.5e308), (1.7e308, 0.5e308), (1.6e308, 0.0), (-1.7e308, 0.0)]
        d = 0.6e308 * gauge(plane, (0.0, 1.0))
        with pytest.raises(NonFiniteResult):
            ball_hull(plane, pts, d)
        tree = build_tree(plane, pts, d)
        assert tree.root is OVERFULL
        assert query_far_point(tree, (0.0, 0.0)) in {Point(*p) for p in pts}
