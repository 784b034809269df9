import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normclust import (
    EuclideanNorm,
    Point,
    birkhoff_orthogonal,
    boundary_point,
    dist,
    euclidean_plane,
    gauge,
    l1_plane,
    linf_plane,
    polygon_plane,
    sphere_sphere_intersection,
    two_arc_plane,
    validate_norm,
)
from normclust.errors import (
    DegenerateBody,
    NotConvex,
    NotSymmetric,
    OriginNotInterior,
    ZeroDirection,
)

E = euclidean_plane()
L1 = l1_plane()
LI = linf_plane()
TA = two_arc_plane(10.0, 5 * math.sqrt(13))
PLANES = [E, L1, LI, TA]


class TestValidate:
    def test_euclidean(self):
        assert isinstance(validate_norm(EuclideanNorm()).descriptor, EuclideanNorm)

    def test_diamond_valid(self):
        plane = polygon_plane([(1, 0), (0, 1), (-1, 0), (0, -1)])
        assert gauge(plane, (1, 0)) == pytest.approx(1.0)

    def test_triangle_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            polygon_plane([(1, 0), (0, 1), (-1, 0)])

    def test_reflex_not_convex(self):
        with pytest.raises(NotConvex):
            polygon_plane([(1, 0), (0.05, 0.05), (0, 1), (-1, 0), (-0.05, -0.05), (0, -1)])

    def test_origin_not_interior(self):
        # symmetric and convex but flat through the origin
        with pytest.raises((OriginNotInterior, DegenerateBody)):
            polygon_plane([(1, 0), (1, 1e-15), (-1, 0), (-1, -1e-15)])

    def test_two_arc_bad_params(self):
        with pytest.raises(DegenerateBody):
            two_arc_plane(5.0, 3.0)  # R <= c
        with pytest.raises(DegenerateBody):
            two_arc_plane(-1.0, 2.0)


class TestGauge:
    def test_euclidean(self):
        assert gauge(E, (3, 4)) == pytest.approx(5.0)

    def test_l1(self):
        assert gauge(L1, (3, 4)) == pytest.approx(7.0)

    def test_two_arc_corner(self):
        assert gauge(TA, (15, 0)) == pytest.approx(1.0)

    def test_vectorized(self):
        out = gauge(L1, [(3, 4), (1, 0), (0, 0)])
        assert np.allclose(out, [7.0, 1.0, 0.0])

    def test_dist_symmetric_zero(self):
        for plane in PLANES:
            assert dist(plane, (2, 3), (2, 3)) == 0.0
            assert dist(plane, (0, 0), (3, 4)) == pytest.approx(dist(plane, (3, 4), (0, 0)))

    def test_two_arc_counterexample_pair(self):
        # the anchor pair of the counterexample is farther apart than 1.1
        assert dist(TA, (0, 0), (-9.81, 6.24)) >= 1.1


class TestBoundaryPoint:
    def test_euclidean(self):
        assert boundary_point(E, (2, 0)) == Point(1.0, 0.0)

    def test_diamond(self):
        bp = boundary_point(L1, (1, 1))
        assert bp.x == pytest.approx(0.5) and bp.y == pytest.approx(0.5)

    def test_two_arc(self):
        bp = boundary_point(TA, (1, 0))
        assert bp.x == pytest.approx(15.0) and bp.y == pytest.approx(0.0)

    def test_zero_direction(self):
        with pytest.raises(ZeroDirection):
            boundary_point(E, (0, 0))


class TestBirkhoff:
    def test_euclidean(self):
        y = birkhoff_orthogonal(E, (1, 0))
        assert abs(y.x) < 1e-12 and y.y == pytest.approx(1.0)

    def test_diamond(self):
        y = birkhoff_orthogonal(L1, (1, 0))
        assert abs(y.x) < 1e-12 and y.y == pytest.approx(1.0)

    def test_two_arc_corner(self):
        y = birkhoff_orthogonal(TA, (1, 0))
        g01 = gauge(TA, (0, 1))
        assert abs(y.x) < 1e-12 and y.y == pytest.approx(1.0 / g01)

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(range(4)),
        st.floats(0.0, 2 * math.pi, allow_nan=False),
    )
    def test_defining_inequality(self, plane_idx, theta):
        plane = PLANES[plane_idx]
        x = (math.cos(theta), math.sin(theta))
        y = birkhoff_orthogonal(plane, x)
        gx = gauge(plane, x)
        for k in range(-3, 4):
            for sign in (1.0, -1.0):
                lam = sign * 10.0 ** k
                assert gauge(plane, (x[0] + lam * y.x, x[1] + lam * y.y)) >= gx - 1e-9


class TestGaugeProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(range(4)),
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.floats(-8, 8),
    )
    def test_homogeneity_symmetry(self, plane_idx, vx, vy, t):
        plane = PLANES[plane_idx]
        g = gauge(plane, (vx, vy))
        assert gauge(plane, (-vx, -vy)) == pytest.approx(g, abs=1e-9, rel=1e-9)
        assert gauge(plane, (t * vx, t * vy)) == pytest.approx(
            abs(t) * g, abs=1e-9, rel=1e-9
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(range(4)),
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(-50, 50), st.floats(-50, 50),
    )
    def test_triangle_inequality(self, plane_idx, ux, uy, vx, vy):
        plane = PLANES[plane_idx]
        lhs = gauge(plane, (ux + vx, uy + vy))
        rhs = gauge(plane, (ux, uy)) + gauge(plane, (vx, vy))
        assert lhs <= rhs + 1e-9 * (1 + rhs)

    def test_boundary_point_unit_gauge(self):
        rng = np.random.default_rng(5)
        for plane in PLANES:
            for _ in range(20):
                v = rng.normal(size=2)
                assert gauge(plane, boundary_point(plane, v)) == pytest.approx(1.0)


class TestSphereSphere:
    def test_euclidean_two_points(self):
        si = sphere_sphere_intersection(E, (0, 0), (2, 0), 2.0)
        pts = sorted((seg.a for seg in si.components), key=lambda p: p.y)
        assert len(si.components) == 2
        assert all(seg.degenerate for seg in si.components)
        assert pts[0].x == pytest.approx(1.0) and pts[0].y == pytest.approx(-math.sqrt(3))
        assert pts[1].y == pytest.approx(math.sqrt(3))

    def test_linf_segments(self):
        si = sphere_sphere_intersection(LI, (0, 0), (1, 0), 1.0)
        assert len(si.components) == 2
        comps = sorted(si.components, key=lambda s: s.a.y)
        lo, hi = comps
        assert {lo.a.y, lo.b.y} == {-1.0}
        assert {hi.a.y, hi.b.y} == {1.0}
        assert sorted([lo.a.x, lo.b.x]) == pytest.approx([0.0, 1.0])
        assert sorted([hi.a.x, hi.b.x]) == pytest.approx([0.0, 1.0])

    def test_empty(self):
        assert sphere_sphere_intersection(E, (0, 0), (5, 0), 2.0).empty

    def test_components_on_both_spheres(self, norm_suite):
        rng = np.random.default_rng(11)
        for _, plane in norm_suite:
            for _ in range(15):
                p, q = rng.uniform(-5, 5, size=(2, 2))
                d = float(rng.uniform(0.5, 1.2)) * max(
                    float(dist(plane, p, q)) / 2, 0.1
                ) + float(dist(plane, p, q)) / 2
                si = sphere_sphere_intersection(plane, p, q, d)
                for seg in si.components:
                    for z in (seg.a, seg.b):
                        assert abs(dist(plane, p, z) - d) <= 1e-6 * (1 + d)
                        assert abs(dist(plane, q, z) - d) <= 1e-6 * (1 + d)
