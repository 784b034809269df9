import math

import numpy as np
import pytest
from conftest import random_polygon_plane
from hypothesis import assume, example, given, settings, strategies as st

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
from normclust.norm import gauge_scalar, pairwise_distances
from normclust.errors import (
    DegenerateBody,
    NonFinitePoint,
    NonFiniteResult,
    NormClustError,
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

    def test_small_diamond(self):
        # the L1 ball scaled by 1e-10: its tolerances scale with it
        s = 1e-10
        plane = polygon_plane([(s, 0), (0, s), (-s, 0), (0, -s)])
        v = np.random.default_rng(3).normal(size=(20, 2))
        np.testing.assert_allclose(gauge(plane, v), 1e10 * gauge(L1, v), rtol=1e-12)
        y = birkhoff_orthogonal(plane, (1, 0))
        assert y.x == 0.0 and y.y == pytest.approx(1e-10, rel=1e-12)

    def test_origin_not_interior(self):
        # symmetric and convex but flat through the origin
        with pytest.raises((OriginNotInterior, DegenerateBody)):
            polygon_plane([(1, 0), (1, 1e-15), (-1, 0), (-1, -1e-15)])

    @pytest.mark.parametrize("make, tol", [
        (euclidean_plane, math.nan),
        (euclidean_plane, math.inf),
        (euclidean_plane, -1e-9),
        (l1_plane, math.nan),
        (lambda tol: two_arc_plane(10.0, 20.0, tol), math.nan),
    ], ids=["euclidean-nan", "euclidean-inf", "euclidean-negative", "l1-nan", "two_arc-nan"])
    def test_tolerance_finite_nonnegative(self, make, tol):
        with pytest.raises(DegenerateBody):
            make(tol)

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

    @pytest.mark.parametrize("v, want", [
        ((1e-170, 0.0), 1e-170 / 15),
        ((0.0, 1.96e-163), 1.96e-163 / (5 * math.sqrt(13) - 10)),
        ((1e160, 0.0), 1e160 / 15),
        ((0.0, -1e160), 1e160 / (5 * math.sqrt(13) - 10)),
    ])
    def test_two_arc_extreme_scales(self, v, want):
        # (x, 0) has gauge x / sqrt(R^2 - c^2), (0, y) has |y| / (R - c)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert gauge(TA, v) == pytest.approx(want, rel=1e-12)
            assert gauge_scalar(TA, *v) == pytest.approx(want, rel=1e-12)
            out = gauge(TA, [v, (3.0, 4.0), (0.0, 0.0), (-v[0], -v[1])])
        assert out[[0, 3]] == pytest.approx([want, want], rel=1e-12)
        assert out[1] == pytest.approx(gauge_scalar(TA, 3.0, 4.0), rel=1e-15) and out[2] == 0.0

    def test_pairwise_matches_gauge(self, norm_suite):
        rng = np.random.default_rng(41)
        pts = rng.uniform(-10, 10, size=(50, 2))
        pts = np.vstack([pts, pts[:5], 1e6 + rng.uniform(0, 1e-3, size=(10, 2))])
        for _, plane in norm_suite:
            want = gauge(plane, pts[:, None, :] - pts[None, :, :])
            np.testing.assert_array_equal(pairwise_distances(plane, pts), want)

    def test_scalar_matches_array(self, norm_suite):
        # bit for bit on polygon and two-arc norms, from 1e-150 to 1e150;
        # the Euclidean scalar kernel is math.hypot, within an ulp of np.hypot
        rng = np.random.default_rng(43)
        v = rng.normal(size=(3000, 2)) * 10.0 ** rng.uniform(-150, 150, size=(3000, 1))
        for _, plane in norm_suite:
            want = gauge(plane, v)
            got = np.array([gauge_scalar(plane, x, y) for x, y in v.tolist()])
            if plane.descriptor.kind == "euclidean":
                np.testing.assert_allclose(got, want, rtol=4e-16, atol=0)
            else:
                np.testing.assert_array_equal(got, want)

    def test_linf_beyond_squares(self):
        # L-infinity's polar rows are unit vectors: no product overflows
        assert gauge(LI, (1.7e308, 0)) == 1.7e308
        assert gauge_scalar(LI, 0.0, -1.7e308) == 1.7e308

    def test_thin_polygon_beyond_squares(self):
        # polar rows of about 500, taken below 1 by a power of two, so no
        # product overflows where the gauge fits
        plane = polygon_plane([(1, 1), (-1e-3, 1e-3), (-1, -1), (1e-3, -1e-3)])
        v = (1e306, 1e306)
        want = 2.0 ** 1000 * gauge(plane, (1e306 / 2.0 ** 1000, 1e306 / 2.0 ** 1000))
        assert want == pytest.approx(1e306, rel=1e-12)
        assert gauge(plane, v) == want == gauge(plane, [v])[0]
        assert pairwise_distances(plane, [(0, 0), v])[1, 0] == want

    @pytest.mark.parametrize("plane", PLANES, ids=["euclidean", "l1", "linf", "two_arc"])
    def test_pairwise_beyond_floats(self, plane):
        # the difference of these two overflows, and so does their distance,
        # but on the two-arc norm, whose unit ball reaches 15 along x
        pair = [(-1e308, 0), (1e308, 0)]
        if plane is TA:
            assert pairwise_distances(plane, pair)[0, 1] == 2 * gauge(plane, (1e308, 0))
        else:
            with pytest.raises(NonFiniteResult):
                pairwise_distances(plane, pair)
            with pytest.raises(NonFiniteResult):
                pairwise_distances(plane, [(0, 0), pair[0]], pair[1:])
        # a distance that fits, although for L-infinity a facet product does not
        D = pairwise_distances(plane, [(1e308, 0), (-7e307, 0), (0, 0)])
        assert D[0, 1] == D[1, 0] == 2 * gauge(plane, (0.85e308, 0))
        if plane is L1:  # the difference fits, its L1 length does not
            with pytest.raises(NonFiniteResult):
                pairwise_distances(plane, [(-1e308, 0), (0, 1e308)])

    def test_two_arc_counterexample_pair(self):
        # the anchor pair of the counterexample is farther apart than 1.1
        assert dist(TA, (0, 0), (-9.81, 6.24)) >= 1.1

    @pytest.mark.parametrize("v", [(1.68e308, 1.25e308), (-1.7e308, 1.7e308), (0.0, 1.7e308)])
    def test_two_arc_scalar_beyond_floats(self, v):
        # the hypot overflows: inf, as the array form gives, not OverflowError
        plane = two_arc_plane(1, 1.5)
        with np.errstate(over="ignore"):
            want = gauge(plane, np.array([v]))[0]
        assert want == math.inf
        assert gauge(plane, v) == gauge_scalar(plane, *v) == want


class TestBoundaryPoint:
    def test_euclidean(self):
        assert boundary_point(E, (2, 0)) == Point(1.0, 0.0)
        assert boundary_point(E, (1e-12, 0)) == Point(1.0, 0.0)

    def test_diamond(self):
        bp = boundary_point(L1, (1, 1))
        assert bp.x == pytest.approx(0.5) and bp.y == pytest.approx(0.5)

    def test_two_arc(self):
        bp = boundary_point(TA, (1, 0))
        assert bp.x == pytest.approx(15.0) and bp.y == pytest.approx(0.0)

    @pytest.mark.parametrize("plane", [E, L1, two_arc_plane(1, 2)], ids=["euclidean", "l1", "two_arc"])
    def test_unit_gauge_at_every_scale(self, plane):
        # a subnormal direction keeps its bits: (5e-324, 0) gave gauge 0.577
        # on the two-arc norm and ZeroDirection on L1
        for v in (5e-324, 1e-320, 2.0 ** -1022, 1e-300, 1e-8, 1.0, 1e8, 1e300, 1e308):
            for direction in ((v, 0.0), (0.0, -v), (v, v), (-v, v / 3)):
                assert gauge(plane, boundary_point(plane, direction)) == pytest.approx(1.0, abs=1e-15)

    def test_zero_direction(self):
        with pytest.raises(ZeroDirection):
            boundary_point(E, (0, 0))
        for bad in ((math.nan, 0), (math.inf, 0)):
            with pytest.raises(NonFinitePoint):
                boundary_point(E, bad)


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

    @pytest.mark.parametrize("plane, half_height", [(L1, 0.5), (E, math.sqrt(3) / 2)],
                             ids=["l1", "euclidean"])
    def test_small_spheres_far_out(self, plane, half_height):
        # the band follows the spheres' size, not their distance from 0
        p, q, d = (1e6, 0.0), (1e6 + 1e-3, 0.0), 1e-3
        si = sphere_sphere_intersection(plane, p, q, d)
        assert len(si.components) == 2 and all(seg.degenerate for seg in si.components)
        ends = sorted((seg.a for seg in si.components), key=lambda z: z.y)
        mid = (p[0] + q[0]) / 2
        for z, sign in zip(ends, (-1, 1)):
            assert z.x == pytest.approx(mid, abs=1e-9)
            assert z.y == pytest.approx(sign * half_height * d, abs=1e-9)

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

    @pytest.mark.parametrize("plane", [E, L1, TA], ids=["euclidean", "l1", "two_arc"])
    def test_nan_radius(self, plane):
        # the error ball_hull raises; a radius d <= 0 gives no components
        with pytest.raises(NormClustError, match="radius must be positive"):
            sphere_sphere_intersection(plane, (0, 0), (1, 0), math.nan)
        assert sphere_sphere_intersection(plane, (0, 0), (1, 0), -1.0).empty

    @pytest.mark.parametrize("plane", [E, L1], ids=["euclidean", "l1"])
    def test_radius_of_2_to_the_1023(self, plane):
        # no power of two above d fits a float: the half-scale answer, doubled
        d, q = 1.5e308, (0.0, 1e308)
        si = sphere_sphere_intersection(plane, (0.0, 0.0), q, d)
        assert si.components
        for z in si.all_extremes():
            for c in ((0.0, 0.0), q):
                assert gauge(plane, (z.x / 2 - c[0] / 2, z.y / 2 - c[1] / 2)) == pytest.approx(d / 2, rel=1e-12)

    def test_radius_of_2_to_the_1023_coincident(self):
        # centres within the relative band of coincident, as at d = 1e300
        assert sphere_sphere_intersection(E, (0.0, 0.0), (1.0, 0.0), 1.5e308).empty

    def test_radius_of_2_to_the_1023_overflow(self):
        # TA's sphere of radius d reaches x = 15 d, past the float range
        with pytest.raises(NonFiniteResult):
            sphere_sphere_intersection(TA, (0.0, 0.0), (0.0, 1e308), 1.5e308)

    def test_radius_of_2_to_the_1023_l1(self):
        si = sphere_sphere_intersection(L1, (1e308, 0.0), (0.0, 1.0), 1.5e308)
        assert si.all_extremes() == [Point(5e307, -1e308), Point(5e307, 1e308)]

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


# --------------------------------------------------------------------------
# sphere/sphere intersection against a dense sampling of S(p, d)

SPHERE_PLANES = {
    "euclidean": E,
    "l1": L1,
    "linf": LI,
    "poly_a": random_polygon_plane(101, 4),
    "poly_b": random_polygon_plane(202, 5),
    "poly_c": random_polygon_plane(303, 6),
    "two_arc": TA,
}


def _unit_sphere_samples(plane, per_piece=1500):
    """Points of the unit sphere in cyclic order, from the descriptor alone:
    each polygon edge, each of the two arcs, or the circle, sampled evenly."""
    desc = plane.descriptor
    if desc.kind == "polygon":
        v = np.array(desc.vertices, dtype=float)
        t = np.linspace(0, 1, per_piece, endpoint=False)[:, None]
        return np.concatenate([a + t * (b - a) for a, b in zip(v, np.roll(v, -1, axis=0))])
    if desc.kind == "euclidean":
        th = np.linspace(0, 2 * math.pi, 4 * per_piece, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    c, r = desc.center_height, desc.radius
    a0 = math.atan2(c, math.sqrt(r * r - c * c))
    th = np.linspace(a0, math.pi - a0, 2 * per_piece, endpoint=False)
    upper = np.stack([r * np.cos(th), r * np.sin(th) - c], axis=1)
    return np.concatenate([upper, -upper])


@st.composite
def _sphere_pairs(draw):
    """(kind, p, q, d factor, scale); d = gauge(q - p) / 2 * factor."""
    kind = draw(st.sampled_from(["uniform", "lattice", "near_tangent", "equal", "far_small"]))
    coord = st.floats(-10, 10, allow_nan=False)
    if kind == "far_small":
        # spheres of radius about 1e-3 centred about 1e6 from the origin
        o = draw(st.tuples(st.sampled_from([1e6, -1e6, 3e7]), st.sampled_from([0.0, 1e6, -2e5])))
        small = st.floats(-1e-3, 1e-3, allow_nan=False)
        p, q = ((o[0] + draw(small), o[1] + draw(small)) for _ in range(2))
        factor = draw(st.floats(1.0, 3.0))
    elif kind == "lattice":
        p, q = (draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))) for _ in range(2))
        factor = draw(st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 0.75]))
    elif kind == "near_tangent":
        p, q = draw(st.tuples(coord, coord)), draw(st.tuples(coord, coord))
        factor = 1 + draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-4, -1e-4, 1e-2]))
    else:
        p = draw(st.tuples(coord, coord))
        q = p if kind == "equal" else draw(st.tuples(coord, coord))
        factor = draw(st.floats(1.0, 3.0))
    return kind, p, q, factor, draw(st.sampled_from([1e-6, 1.0, 1e6]))


class TestSphereSphereProperties:
    @pytest.mark.parametrize("name", list(SPHERE_PLANES))
    @settings(max_examples=200, deadline=None)
    @given(case=_sphere_pairs())
    # tangent along the line pq: one segment crossing it (Linf), one point (L1)
    @example(case=("lattice", (0, 0), (2, 0), 1.0, 1.0))
    @example(case=("lattice", (0, 0), (2, 2), 1.0, 1.0))
    # two-arc: lens corners almost touching, arcs within the band along a stretch
    @example(case=("near_tangent", (7.844953508461005, 7.673278963442982),
                   (2.2269143068423105, 7.67795893352843), 1.0, 1.0))
    # poly_b: antiparallel edges within the band of each other
    @example(case=("near_tangent", (9.390249167324125, 7.834305767303675),
                   (2.985978742302071, 1.1921932236003119), 1.000001, 1.0))
    def test_against_sampling(self, name, case):
        plane = SPHERE_PLANES[name]
        kind, p, q, factor, scale = case
        p, q = np.array(p, float) * scale, np.array(q, float) * scale
        # subnormal offsets carry too few digits to set up a tangent radius
        assume(kind == "equal" or float(np.abs(q - p).max()) >= 1e-300)
        d = float(gauge(plane, q - p)) / 2 * factor if kind != "equal" else factor * scale
        si = sphere_sphere_intersection(plane, p, q, d)
        if kind == "equal":
            assert si.empty
            return
        ends = np.array([z for seg in si.components for z in (seg.a, seg.b)], float).reshape(-1, 2)
        # the kernel's band in Euclidean length, and the largest gauge of a
        # Euclidean unit vector, which turns lengths into gauge differences
        eps = (1e3 * plane.tolerance * max(d, float(np.abs(q - p).max()))
               + 4 * math.ulp(float(np.abs([p, q]).max())))
        unit = _unit_sphere_samples(plane)
        lip = float((1 / np.hypot(unit[:, 0], unit[:, 1])).max())
        on = 10 * eps * lip

        assert len(si.components) <= 2
        for z in ends:
            assert abs(float(gauge(plane, z - p)) - d) <= on
            assert abs(float(gauge(plane, z - q)) - d) <= on
        for z in ends:  # point reflection through (p + q) / 2 swaps the components
            assert np.hypot(*(ends - (p + q - z)).T).min() <= 10 * eps

        sphere = p + d * unit
        f = gauge(plane, sphere - q) - d
        spacing = float(np.hypot(*(sphere - np.roll(sphere, 1, axis=0)).T).max())
        band = 100 * eps * lip
        signs = np.sign(f[np.abs(f) > band])
        changes = int(np.count_nonzero(signs != np.roll(signs, 1))) if len(signs) else 0
        assert changes in (0, 2)
        if changes == 2:
            # S(p, d) dips into the ball around q: one component at each end
            assert len(si.components) == 2
        elif f.min() > band + spacing * lip:
            assert si.empty
        if kind == "near_tangent" and factor == 1.0 and d > band:
            assert len(si.components) == 1
