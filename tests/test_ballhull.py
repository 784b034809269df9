import math

import numpy as np
import pytest

from normclust import (
    Point,
    ball_hull,
    bh_contains,
    build_tree,
    delete_point,
    diameter,
    euclidean_plane,
    gauge,
    l1_plane,
    linf_plane,
    minimal_arcs,
    query_far_point,
    sample_arc,
    two_arc_plane,
)
from normclust.errors import NoBallContainsS, NotPresent, TooFarApart, Undecidable
from normclust.oracle import bh_membership_interval

E = euclidean_plane()
L1 = l1_plane()
LI = linf_plane()
TA = two_arc_plane(10.0, 5 * math.sqrt(13))


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
                for x in probes:
                    got = bh_contains(plane, h, x, tol=1e-9)
                    try:
                        want_lo, want_hi = bh_membership_interval(plane, pts, d, x)
                    except Undecidable:
                        continue
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
