import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from conftest import grid_meb_oracle, random_polygon_plane, zone_diameter_checks
from normclust import (
    Combiner,
    Measure,
    Objective,
    Point,
    avis_min_max_2cluster,
    ball_hull,
    brute_force_k_partition,
    build_tree,
    constrained_2cluster,
    convex_hull,
    diameter,
    euclidean_plane,
    exhaustive_separable_2cluster,
    feasible_2cluster,
    gauge,
    hr_feasible_3cluster,
    hr_zones,
    k_cluster_minimize,
    l1_plane,
    linf_plane,
    min_enclosing_ball,
    min_max_3cluster,
    query_far_point,
    separate_clusters,
    two_arc_plane,
)
from normclust import clustering, geometry
from normclust.errors import (
    BadBounds,
    DegenerateBasis,
    NonFinitePoint,
    NonFiniteResult,
    TooFewPoints,
)
from normclust.norm import birkhoff_orthogonal, pairwise_distances
from normclust.oracle import brute_min_enclosing_ball

E = euclidean_plane()
L1 = l1_plane()
LI = linf_plane()
TA = two_arc_plane(10.0, 5 * math.sqrt(13))
SQ = [(0, 0), (1, 0), (1, 1), (0, 1)]
MAXDIAM = Objective(Combiner.MAX, Measure.DIAMETER)
THREE_PAIRS = [(0, 0), (0.1, 0), (10, 0), (10.1, 0), (5, 8), (5.1, 8)]
# seven points on a line, one far out on it: the best 2-split puts the
# outlier alone, a prefix of the points along the line
COLLINEAR = [(i, 0) for i in range(7)] + [(100, 0)]


def _partition_ok(D, part, d):
    for c in part.clusters:
        ids = list(c)
        if len(ids) > 1:
            assert float(D[np.ix_(ids, ids)].max()) <= d + 1e-9


def _split_exists(D, d1, d2):
    """Whether one of all 2^n labellings has diam(S1) <= d1, diam(S2) <= d2."""
    n = len(D)
    in1 = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    in2 = 1 - in1
    bad1 = ((in1 @ (D > d1)) * in1).sum(axis=1)
    bad2 = ((in2 @ (D > d2)) * in2).sum(axis=1)
    return bool(((bad1 == 0) & (bad2 == 0)).any())


@pytest.mark.parametrize("call", [
    pytest.param(lambda pts: feasible_2cluster(E, pts, 1.0), id="feasible_2cluster"),
    pytest.param(lambda pts: avis_min_max_2cluster(E, pts), id="avis_min_max_2cluster"),
    pytest.param(lambda pts: constrained_2cluster(E, pts, 2.0, 1.0), id="constrained_2cluster"),
    pytest.param(lambda pts: min_enclosing_ball(E, pts), id="min_enclosing_ball"),
    pytest.param(lambda pts: k_cluster_minimize(E, pts, 2, MAXDIAM), id="k_cluster_minimize"),
    pytest.param(lambda pts: hr_zones(E, pts, (-1, 0), (5, 0)), id="hr_zones"),
    pytest.param(lambda pts: hr_feasible_3cluster(E, pts, 1.0), id="hr_feasible_3cluster"),
    pytest.param(lambda pts: min_max_3cluster(E, pts), id="min_max_3cluster"),
    pytest.param(lambda pts: diameter(E, pts), id="diameter"),
    pytest.param(lambda pts: convex_hull(pts), id="convex_hull"),
    pytest.param(lambda pts: convex_hull(pts[2:3]), id="convex_hull_one_point"),
    pytest.param(lambda pts: separate_clusters(E, pts, [(5, 5)]), id="separate_clusters"),
    pytest.param(lambda pts: ball_hull(E, pts, 5.0), id="ball_hull"),
    pytest.param(lambda pts: build_tree(E, pts, 5.0), id="build_tree"),
    pytest.param(lambda pts: query_far_point(build_tree(E, SQ, 5.0), pts[2]),
                 id="query_far_point"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_rejected(call, bad):
    with pytest.raises(NonFinitePoint):
        call([(0, 0), (1, 1), (bad, 2), (3, 0)])


class TestFeasible2:
    def test_square_d1(self):
        part = feasible_2cluster(E, SQ, 1.0)
        assert part is not None
        assert sorted(len(c) for c in part.clusters) == [2, 2]
        _partition_ok(pairwise_distances(E, np.array(SQ, float)), part, 1.0)

    def test_square_d09(self):
        assert feasible_2cluster(E, SQ, 0.9) is None

    def test_nan_bound(self):
        # a NaN d is no bound; a negative one is a bound no split meets
        with pytest.raises(BadBounds):
            feasible_2cluster(E, SQ, math.nan)
        assert feasible_2cluster(E, SQ, -1.0) is None

    def test_matches_brute_force(self, norm_suite):
        rng = np.random.default_rng(41)
        for _, plane in norm_suite:
            for _ in range(8):
                n = int(rng.integers(2, 13))
                pts = rng.uniform(-10, 10, size=(n, 2))
                D = pairwise_distances(plane, pts)
                iu, ju = np.triu_indices(n, k=1)
                for d in np.unique(D[iu, ju])[:: max(1, n // 3)]:
                    got = feasible_2cluster(plane, pts, float(d))
                    want, _ = brute_force_k_partition(plane, pts, 2, MAXDIAM)
                    assert (got is not None) == (want <= d)


class TestAvis:
    def test_square(self):
        d, part = avis_min_max_2cluster(E, SQ)
        assert d == pytest.approx(1.0)
        assert max(part.measures) == pytest.approx(1.0)

    def test_collinear(self):
        d, part = avis_min_max_2cluster(E, [(0, 0), (1, 0), (3, 0)])
        assert d == pytest.approx(1.0)
        assert sorted(tuple(c) for c in part.clusters) == [(0, 1), (2,)]

    def test_two_points(self):
        d, _ = avis_min_max_2cluster(E, [(0, 0), (5, 5)])
        assert d == 0.0

    def test_distances_beyond_floats(self):
        # L1 distance 2e308 between finite points
        with pytest.raises(NonFiniteResult):
            avis_min_max_2cluster(L1, [(-1e308, 0), (0, 1e308), (0, 0)])

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            avis_min_max_2cluster(E, [(1, 1)])

    def test_matches_brute_force(self, norm_suite):
        rng = np.random.default_rng(43)
        for _, plane in norm_suite:
            for _ in range(6):
                n = int(rng.integers(2, 15))
                pts = rng.uniform(-10, 10, size=(n, 2))
                got, part = avis_min_max_2cluster(plane, pts)
                want, _ = brute_force_k_partition(plane, pts, 2, MAXDIAM)
                assert got == pytest.approx(want, abs=1e-9)
                assert max(part.measures) == pytest.approx(got, abs=1e-9)

    def test_feasible_at_d_star_only(self, norm_suite):
        # d* is attained and feasible, the next smaller distance is not
        rng = np.random.default_rng(83)
        some = rng.uniform(-10, 10, size=(20, 2))
        run = [(float(x), 2.0) for x in range(-9, 10, 3)]
        degenerate = np.vstack([some, some[:5], run, run[:2]])
        for _, plane in norm_suite:
            for pts in (rng.uniform(-10, 10, size=(300, 2)), degenerate):
                d, part = avis_min_max_2cluster(plane, pts)
                assert max(part.measures) == d
                assert feasible_2cluster(plane, pts, d) is not None
                D = pairwise_distances(plane, pts)
                assert feasible_2cluster(plane, pts, float(D[D < d].max())) is None


def _degenerate_sets(rng, n):
    """(kind, points): uniform, duplicate-heavy, collinear runs, lattice,
    convex position (every point on the hull), uniform scaled by 2^k, and
    convex position and a rounded line far from the origin."""
    yield "uniform", rng.uniform(-10, 10, size=(n, 2))
    pool = rng.uniform(-10, 10, size=(n // 5, 2))
    yield "duplicates", pool[rng.integers(0, len(pool), n)]
    along = rng.integers(-20, 21, size=(n, 1)).astype(float)
    dirs = np.array([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -2.0)])[rng.integers(0, 4, n)]
    yield "collinear", along * dirs + rng.integers(-3, 4, size=(n, 1)) * np.array([0.0, 7.0])
    yield "lattice", rng.integers(-6, 7, size=(n, 2)).astype(float)
    angle = rng.uniform(0, 2 * math.pi, n)
    yield "convex", np.stack([3 * np.cos(angle), 2 * np.sin(angle)], axis=1) + 1.5
    k = int(rng.integers(-60, 61))
    yield f"scale 2^{k}", np.ldexp(rng.uniform(-10, 10, size=(n, 2)), k)
    angle = rng.uniform(0, 2 * math.pi, n)
    yield "convex + 1e5", np.stack([3 * np.cos(angle), 2 * np.sin(angle)], axis=1) + 1e5
    along = rng.uniform(-10, 10, size=(n, 1))
    yield "near-collinear + 1e5", along * np.array([1.0, 1 / 3]) + 1e5


def _dense_tree_d_star(D):
    """d* from scipy's spanning tree of -D, a maximum spanning tree of D
    (coincident points, at distance 0, get no edge), coloured breadth first.
    The graph goes in sparse: from a dense array scipy drops entries within
    1e-8 of zero, every pair of [-10, 10]^2 scaled by 2^-30."""
    i, j = np.nonzero(D)
    graph = coo_matrix((-D[i, j], (i, j)), shape=D.shape)
    order, parent = breadth_first_order(minimum_spanning_tree(graph), 0, directed=False)
    assert len(order) == len(D)
    colour = np.zeros(len(D), dtype=bool)
    for v in order[1:]:
        colour[v] = not colour[parent[v]]
    return max(float(D[np.ix_(c, c)].max()) for c in (np.flatnonzero(colour), np.flatnonzero(~colour)))


def _bipartite(far):
    """Whether the graph of the boolean matrix far is 2-colourable: no point
    shares a component with its copy in the double cover."""
    n = len(far)
    i, j = np.nonzero(far)
    cover = coo_matrix((np.ones(2 * len(i)), (np.concatenate([i, i + n]), np.concatenate([j + n, j]))),
                       shape=(2 * n, 2 * n))
    _, label = connected_components(cover, directed=False)
    return not (label[:n] == label[n:]).any()


class TestHullAnchoredTree:
    """The spanning tree over the pairs with a hull-vertex end against an
    independent dense maximum spanning tree and bipartiteness check."""

    @staticmethod
    def _check(plane, pts):
        D = pairwise_distances(plane, pts)
        d, part = avis_min_max_2cluster(plane, pts)
        assert d == _dense_tree_d_star(D)
        assert max(part.measures) == d
        assert 0 in part.clusters[0]
        assert sorted(i for c in part.clusters for i in c) == list(range(len(pts)))
        below = float(D[D < d].max())
        for t in (d, below):
            got = feasible_2cluster(plane, pts, t)
            assert (got is not None) == _bipartite(D > t)
            if got is not None:
                assert all(float(D[np.ix_(c, c)].max()) <= t for c in got.clusters if c)

    def test_n300_every_norm_and_degenerate_set(self, norm_suite):
        rng = np.random.default_rng(1101)
        for _, plane in norm_suite:
            for _, pts in _degenerate_sets(rng, 300):
                self._check(plane, pts)

    def test_n2000(self, norm_suite):
        # one norm per set, the norms taken in turn from L-infinity, so that
        # "convex + 1e5" falls on L1: hull vertices lost to an orientation
        # band of 1e-12 * |coordinate| * extent change d* there
        rng = np.random.default_rng(1102)
        for i, (_, pts) in enumerate(_degenerate_sets(rng, 2000)):
            self._check(norm_suite[(i + 2) % len(norm_suite)][1], pts)

    def test_thin_spikes(self):
        # (1e-12, +-5) are hull vertices 5 from the chord between the other
        # two, but their neighbours lie 1e-12 apart, so their turns are 1e-11:
        # an orientation band of 1e-12 * extent^2 = 1e-10 would drop them
        pts = np.array([(0, 0), (1e-12, -5), (1e-12, 5), (2e-12, 0)])
        for plane in (E, L1, TA):
            self._check(plane, pts)
        assert avis_min_max_2cluster(E, pts)[0] == 5.0

    @pytest.mark.parametrize("shape", ["uniform", "thin triangle"])
    @pytest.mark.parametrize("plane", [E, L1, TA], ids=["euclidean", "l1", "two_arc"])
    def test_n20000_smoke(self, plane, shape):
        rng = np.random.default_rng(1103)
        pts = rng.uniform(-10, 10, size=(20000, 2))
        if shape == "thin triangle":
            # corners (-10, 0), (10, 0), (0, 0.5): the flat apex is the last
            # hull vertex to join, after every point far from the middle
            u, v = rng.uniform(0, 1, size=(2, 20000))
            u, v = np.where(u + v > 1, 1 - u, u), np.where(u + v > 1, 1 - v, v)
            pts = np.stack([-10 + 20 * u + 10 * v, 0.5 * v], axis=1)
        tracemalloc.start()
        try:
            t0 = time.monotonic()
            d, part = avis_min_max_2cluster(plane, pts)
            elapsed = time.monotonic() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 30
        assert peak < 200e6
        # rotating calipers on each cluster agree with the hull-vertex diameters
        for c, m in zip(part.clusters, part.measures):
            assert diameter(plane, pts[list(c)])[0] == pytest.approx(m, rel=1e-12)
        assert d == max(part.measures)


class TestConstrained2:
    def test_square_singleton_split(self):
        part = constrained_2cluster(E, SQ, math.sqrt(2), 0.0)
        assert part is not None
        sizes = sorted(len(c) for c in part.clusters)
        assert sizes == [1, 3]
        assert part.measures[1] == 0.0

    def test_square_infeasible(self):
        assert constrained_2cluster(E, SQ, 1.0, 0.9) is None

    def test_collinear_outlier(self, monkeypatch):
        want = ((0, 1, 2, 3, 4, 5, 6), (7,))
        assert constrained_2cluster(E, COLLINEAR, 6.0, 0.0).clusters == want
        assert exhaustive_separable_2cluster(E, COLLINEAR, 6.0, 0.0).clusters == want
        # the same sweep over dissection blocks of one point pair each
        monkeypatch.setattr(geometry, "_CHUNK", 16)
        assert constrained_2cluster(E, COLLINEAR, 6.0, 0.0).clusters == want

    def test_no_pair_longer_than_d1(self):
        # S2 is the lexicographically lowest point
        pts = np.random.default_rng(5).uniform(-5, 5, size=(1000, 2))
        low = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
        dmax = float(pairwise_distances(E, pts).max())
        part = constrained_2cluster(E, pts, dmax, 0.0)
        assert part.clusters == (tuple(i for i in range(1000) if i != low), (low,))
        assert part.measures[1] == 0.0

    def test_bad_bounds(self):
        with pytest.raises(BadBounds):
            constrained_2cluster(E, SQ, 1.0, 2.0)

    @pytest.mark.parametrize("d1, d2", [(math.nan, math.nan), (math.nan, 0.5), (2.0, math.nan)])
    def test_nan_bounds(self, d1, d2):
        with pytest.raises(BadBounds):
            constrained_2cluster(E, SQ, d1, d2)

    def test_roles_respected(self, norm_suite):
        rng, lattice = np.random.default_rng(47), np.random.default_rng(48)
        cases = []
        for _, plane in norm_suite:
            for _ in range(10):
                n = int(rng.integers(2, 13))
                pts = rng.uniform(-5, 5, size=(n, 2))
                d1 = float(rng.uniform(0.4, 1.0)) * float(pairwise_distances(plane, pts).max())
                cases.append((plane, pts, d1, float(rng.uniform(0.0, 1.0)) * d1))
            # lattice points, both bounds tied with pairwise distances
            for _ in range(10):
                n = int(lattice.integers(2, 13))
                pts = lattice.integers(0, 4, size=(n, 2)).astype(float)
                d2, d1 = sorted(lattice.choice(np.unique(pairwise_distances(plane, pts)), 2).tolist())
                cases.append((plane, pts, d1, d2))
        # the lowest point cannot join S1, so its second choice is forced
        cases.append((E, np.array([(100, 0), (0, 0), (1, 0), (2, 0), (3, 0)], float), 5.0, 1.0))
        for plane, pts, d1, d2 in cases:
            D = pairwise_distances(plane, pts)
            part = constrained_2cluster(plane, pts, d1, d2)
            assert (part is not None) == _split_exists(D, d1, d2)
            if part is not None:
                s1, s2 = part.clusters
                assert sorted(s1 + s2) == list(range(len(pts)))
                assert part.measures[0] <= d1
                assert part.measures[1] <= d2
        assert part.clusters == ((1, 2, 3, 4), (0,))  # the last case

    def test_large_tight_bounds(self, norm_suite):
        rng = np.random.default_rng(89)
        for _, plane in norm_suite:
            pts = rng.uniform(-10, 10, size=(300, 2))
            d, _ = avis_min_max_2cluster(plane, pts)
            D = pairwise_distances(plane, pts)
            part = constrained_2cluster(plane, pts, d, d)
            assert part is not None and max(part.measures) <= d
            below = float(D[D < d].max())
            assert constrained_2cluster(plane, pts, below, below) is None


class TestMinEnclosingBall:
    def test_pair(self):
        c, r = min_enclosing_ball(E, [(0, 0), (2, 0)])
        assert c == Point(1, 0) and r == pytest.approx(1.0)

    def test_linf_triple(self):
        c, r = min_enclosing_ball(LI, [(0, 0), (2, 0), (0, 2)])
        assert r == pytest.approx(1.0, abs=1e-7)
        assert max(abs(c.x - x) for x in (0, 2)) <= 1 + 1e-7

    def test_single(self):
        assert min_enclosing_ball(TA, [(3, 4)]) == (Point(3, 4), 0.0)

    def test_matches_grid_oracle(self, norm_suite):
        rng = np.random.default_rng(53)
        for _, plane in norm_suite:
            for _ in range(4):
                n = int(rng.integers(2, 11))
                pts = rng.uniform(-3, 3, size=(n, 2))
                c, r = min_enclosing_ball(plane, pts)
                # returned ball must contain the points
                assert float(np.max(gauge(plane, pts - np.array(c)))) <= r * (1 + 1e-7) + 1e-9
                _, r_oracle = grid_meb_oracle(plane, pts)
                assert r <= r_oracle + 1e-4
                assert r >= r_oracle - 1e-4


# on a 1e-9 grid: a configuration spans at least 1e-9 before scaling (the
# two-arc gauge squares its argument, which underflows below about 1e-154)
_coord = st.floats(-10, 10, allow_nan=False).map(lambda x: round(x, 9))
_point = st.tuples(_coord, _coord)


@st.composite
def _meb_points(draw):
    """1-8 points: uniform, with duplicates, a collinear run, or the corners
    of a square or a regular hexagon (one of them perhaps a little outside)
    with up to two more points, at scale 1e-6, 1 or 1e6."""
    kind = draw(st.sampled_from(["uniform", "duplicates", "collinear", "square", "hexagon"]))
    if kind == "uniform":
        pts = draw(st.lists(_point, min_size=1, max_size=8))
    elif kind == "duplicates":
        some = draw(st.lists(_point, min_size=1, max_size=4))
        pts = some + draw(st.lists(st.sampled_from(some), min_size=1, max_size=8 - len(some)))
    elif kind == "collinear":
        (ax, ay), (dx, dy) = draw(_point), draw(_point)
        steps = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8))
        pts = [(ax + t * dx, ay + t * dy) for t in steps]
    else:
        m = 4 if kind == "square" else 6
        (cx, cy), rad = draw(_point), draw(st.floats(0.1, 10))
        phase = draw(st.floats(0, math.pi))
        # one corner may sit just outside the circle of the others
        bulge = [draw(st.sampled_from([0.0, 1e-10, 1e-8, 1e-6]))] + [0.0] * (m - 1)
        pts = [(cx + rad * (1 + bulge[i]) * math.cos(phase + 2 * math.pi * i / m),
                cy + rad * (1 + bulge[i]) * math.sin(phase + 2 * math.pi * i / m))
               for i in range(m)]
        pts += draw(st.lists(_point, max_size=8 - m))
    return np.array(pts) * draw(st.sampled_from([1e-6, 1.0, 1e6]))


class TestMinEnclosingBallProperties:
    @pytest.mark.parametrize("plane", [E, TA, L1, LI, random_polygon_plane(71)],
                             ids=["euclidean", "two_arc", "l1", "linf", "polygon"])
    @settings(max_examples=150, deadline=None)
    @given(pts=_meb_points(), k=st.integers(-60, 60))
    # near-duplicates far from the origin relative to their spread
    @example(pts=np.array([[0, 2e-6], [0, 2e-6], [0, 2.0000002e-6]]), k=0)
    @example(pts=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]), k=-40)
    def test_invariants(self, plane, pts, k):
        # a center is rounded to the input's magnitude, so radii carry an
        # absolute error of a few ulps of the largest coordinate
        ulps = 64 * np.finfo(float).eps * float(np.abs(pts).max())
        c, r = min_enclosing_ball(plane, pts)
        assert float(gauge(plane, pts - np.array(c)).max()) <= r * (1 + 1e-9)
        assert r >= float(pairwise_distances(plane, pts).max()) / 2 * (1 - 1e-12) - ulps
        _, r_brute = brute_min_enclosing_ball(plane, pts)
        assert abs(r - r_brute) <= 1e-9 * r_brute + ulps
        _, r_reversed = min_enclosing_ball(plane, pts[::-1])
        assert abs(r - r_reversed) <= 1e-12 * r + ulps
        # a power-of-two scaling is exact, and so is the answer's, unless
        # the scaled points leave the normal range and lose bits
        assume(np.array_equal(np.ldexp(np.ldexp(pts, k), -k), pts))
        s = 2.0 ** k
        assert min_enclosing_ball(plane, pts * s) == (Point(c.x * s, c.y * s), r * s)

    @pytest.mark.parametrize("plane", [E, TA, L1], ids=["euclidean", "two_arc", "l1"])
    def test_no_overflow(self, plane):
        # the differences of the points overflow, the radius does not
        big = np.array([(1e308, 0.0), (-1e308, 0.0), (0.0, 1e308)])
        c, r = min_enclosing_ball(plane, big)
        assert math.isfinite(r)
        assert float(gauge(plane, big - np.array(c)).max()) <= r
        halves = big[:, None, :] / 2 - big[None, :, :] / 2
        assert r >= float(gauge(plane, halves).max()) * (1 - 1e-12)
        if plane is E:
            assert r == pytest.approx(1e308, rel=1e-15)

    @pytest.mark.parametrize("plane", [E, L1], ids=["euclidean", "l1"])
    def test_radius_beyond_floats(self, plane):
        with pytest.raises(NonFiniteResult):
            min_enclosing_ball(plane, [(1.7e308, 1.7e308), (-1.7e308, -1.7e308)])

    @pytest.mark.parametrize("plane, n", [(TA, 40), (E, 2000)], ids=["two_arc", "euclidean"])
    def test_large(self, plane, n):
        pts = np.random.default_rng(97).uniform(-10, 10, size=(n, 2))
        t0 = time.perf_counter()
        c, r = min_enclosing_ball(plane, pts)
        elapsed = time.perf_counter() - t0
        print(f"min_enclosing_ball {plane.descriptor.kind} n={n}: {elapsed:.3f} s (target 1 s)")
        assert float(gauge(plane, pts - np.array(c)).max()) <= r * (1 + 1e-9)
        assert r >= float(pairwise_distances(plane, pts).max()) / 2 * (1 - 1e-12)
        assert elapsed < 30

    @pytest.mark.parametrize("plane", [E, TA], ids=["euclidean", "two_arc"])
    def test_array_passes_same_bits(self, plane, monkeypatch):
        # short inputs and scans run on Python floats, long ones as array passes
        rng = np.random.default_rng(29)
        sets = [rng.uniform(-10, 10, (int(rng.integers(3, 25)), 2)) + rng.choice([0.0, 1e6]) for _ in range(12)]
        on_floats = [min_enclosing_ball(plane, p) for p in sets]
        monkeypatch.setattr(clustering, "_SCAN_CUT", 1)
        assert [min_enclosing_ball(plane, p) for p in sets] == on_floats


class TestKCluster:
    def test_k2_matches_avis(self, norm_suite):
        # the max of two diameters is the spanning-tree split: checked by the
        # oracle where its budget allows, by avis beyond
        rng = np.random.default_rng(59)
        for _, plane in norm_suite[:4]:
            pts = rng.uniform(-10, 10, size=(9, 2))
            v, _ = k_cluster_minimize(plane, pts, 2, MAXDIAM)
            w, _ = brute_force_k_partition(plane, pts, 2, MAXDIAM)
            assert v == pytest.approx(w, abs=1e-9)
        # on-line points past the first six
        for pts in (COLLINEAR, COLLINEAR[::-1]):
            v, _ = k_cluster_minimize(E, pts, 2, MAXDIAM)
            w, _ = brute_force_k_partition(E, pts, 2, MAXDIAM)
            assert v == pytest.approx(w, abs=1e-9)
        pts = rng.uniform(-10, 10, size=(70, 2))
        v, _ = k_cluster_minimize(E, pts, 2, MAXDIAM)
        a, split = avis_min_max_2cluster(E, pts)
        assert v == pytest.approx(a, abs=1e-9)
        # the sum enumerates over more points than an int64 mask holds
        obj = Objective(Combiner.SUM, Measure.DIAMETER)
        v, part = k_cluster_minimize(E, pts, 2, obj)
        assert v == part.value(obj) <= split.value(obj)
        assert sorted(i for c in part.clusters for i in c) == list(range(70))

    def test_collinear_outlier(self):
        for pts in (COLLINEAR, COLLINEAR[::-1]):
            for combiner in (Combiner.MAX, Combiner.SUM):
                obj = Objective(combiner, Measure.DIAMETER)
                v, _ = k_cluster_minimize(E, pts, 2, obj)
                w, _ = brute_force_k_partition(E, pts, 2, obj)
                assert v == pytest.approx(6.0) and w == pytest.approx(6.0)

    def test_three_far_pairs(self):
        v, part = k_cluster_minimize(E, THREE_PAIRS, 3, MAXDIAM)
        assert v == pytest.approx(0.1)
        assert sorted(tuple(c) for c in part.clusters) == [(0, 1), (2, 3), (4, 5)]

    def test_sum_diameter_matches_oracle(self):
        rng = np.random.default_rng(61)
        obj = Objective(Combiner.SUM, Measure.DIAMETER)
        for plane in (E, L1):
            # the last set has repeated points: 9 points on 6 lattice locations
            for pts in [rng.uniform(-10, 10, size=(8, 2)) for _ in range(3)] + [
                    rng.integers(0, [2, 3], size=(9, 2)).astype(float)]:
                v, _ = k_cluster_minimize(plane, pts, 3, obj)
                w, _ = brute_force_k_partition(plane, pts, 3, obj)
                assert v == pytest.approx(w, abs=1e-9)

    def test_partition_does_not_depend_on_the_chunk_size(self, monkeypatch):
        # ties on the 4x4 lattice go to the first region in dissection
        # order, which chunking the point pairs must not change
        pts = [(x, y) for x in range(4) for y in range(4)]
        obj = Objective(Combiner.SUM, Measure.DIAMETER)
        v, part = k_cluster_minimize(E, pts, 2, obj)
        monkeypatch.setattr(geometry, "_CHUNK", 32)
        assert k_cluster_minimize(E, pts, 2, obj) == (v, part)

    def test_radius_measure(self):
        rng = np.random.default_rng(67)
        obj = Objective(Combiner.MAX, Measure.RADIUS)
        pts = rng.uniform(-5, 5, size=(7, 2))
        v, part = k_cluster_minimize(E, pts, 2, obj)
        w, _ = brute_force_k_partition(E, pts, 2, obj)
        assert v == pytest.approx(w, abs=1e-9)
        # reported measures reproduce the enclosing-ball radii
        for c, m in zip(part.clusters, part.measures):
            r = min_enclosing_ball(E, pts[list(c)])[1] if c else 0.0
            assert m == pytest.approx(r, abs=1e-12)
        assert part.value(obj) == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("plane", [L1, LI], ids=["l1", "linf"])
    @pytest.mark.parametrize("scale", [2.0 ** -20, 1.0, 2.0 ** 20])
    def test_radius_measure_polygon_norms(self, plane, scale):
        # seven points on four locations; the half-diameter bound skips balls
        rng = np.random.default_rng(71)
        for k in (2, 3):
            for _ in range(2):
                some = rng.uniform(-10, 10, size=(4, 2))
                pts = np.vstack([some, some[rng.integers(0, 4, size=3)]]) * scale
                for combiner in Combiner:
                    obj = Objective(combiner, Measure.RADIUS)
                    v, _ = k_cluster_minimize(plane, pts, k, obj)
                    w, _ = brute_force_k_partition(plane, pts, k, obj)
                    assert v == pytest.approx(w, rel=1e-9)

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            k_cluster_minimize(E, [(0, 0)], 2, MAXDIAM)

    @pytest.mark.parametrize("plane, pts, combiner", [
        # a distance overflows
        (L1, [(1e308, 0), (-1e308, 0), (0, 1e308), (0, -1e308)], Combiner.SUM),
        (E, [(1e308, 0), (-1e308, 0), (0, 1)], Combiner.SUM_SQUARES),
        # the distances fit, but every 2-split has a cluster whose square does not
        (E, [(1e160, 0), (-1e160, 0), (0, 1e160), (0, -1e160)], Combiner.SUM_SQUARES),
    ], ids=["l1-sum", "euclidean-squares", "euclidean-squares-finite-distances"])
    @pytest.mark.parametrize("measure", list(Measure))
    def test_objective_beyond_floats(self, plane, pts, combiner, measure):
        with pytest.raises(NonFiniteResult):
            k_cluster_minimize(plane, pts, 2, Objective(combiner, measure))

    def test_k4_small(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-10, 10, size=(8, 2))
        for combiner in (Combiner.MAX, Combiner.SUM):
            obj = Objective(combiner, Measure.DIAMETER)
            v, _ = k_cluster_minimize(E, pts, 4, obj)
            w, _ = brute_force_k_partition(E, pts, 4, obj)
            assert v == pytest.approx(w, abs=1e-9)


class TestZones:
    def test_examples(self):
        z = hr_zones(E, [(2, 1), (2, -1), (5, 7)], (0, 0), (4, 0))
        assert z.north == (0,)
        assert z.south == (1,)
        assert z.east == (2,)
        # a and a' 1e-9 apart are distinct, and the zones scale with them
        z = hr_zones(E, [(5e-10, 1e-9), (5e-10, -1e-9), (2e-9, 0), (5e-10, 0)], (0, 0), (1e-9, 0))
        assert (z.north, z.south, z.east, z.seed) == ((0,), (1,), (2,), (3,))

    def test_on_segment_to_seed(self):
        z = hr_zones(E, [(3, 0), (2, 1)], (0, 0), (4, 0))
        assert z.seed == (0,)
        assert z.north == (1,)

    def test_degenerate(self):
        with pytest.raises(DegenerateBasis):
            hr_zones(E, [(1, 1)], (0, 0), (0, 0))

    def test_zones_partition(self, norm_suite):
        rng = np.random.default_rng(71)
        for _, plane in norm_suite:
            pts = rng.uniform(-10, 10, size=(12, 2))
            order = np.argsort(pts[:, 0])
            a = tuple(pts[order[0]])
            ap = tuple(pts[order[-1]])
            body = [tuple(p) for p in pts if tuple(p) not in (a, ap)]
            z = hr_zones(plane, body, a, ap)
            all_idx = sorted(z.north + z.south + z.east + z.seed)
            assert all_idx == list(range(len(body)))


# the acceptance norms, for the 3-clustering property test
PLANES_3 = {
    "euclidean": E,
    "l1": L1,
    "linf": LI,
    "poly_a": random_polygon_plane(101, 4),
    "poly_b": random_polygon_plane(202, 5),
    "poly_c": random_polygon_plane(303, 6),
    "two_arc": TA,
}


@st.composite
def _lattice_sets(draw):
    """(points, along): 3-8 points of a small integer lattice, often with a
    collinear run and a duplicate; along = (i, t) adds point i moved by t
    times the Birkhoff direction (vertical for all but the random polygons),
    or is None."""
    coord = st.integers(-3, 3)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=8))
    if draw(st.booleans()):
        (x, y), (dx, dy) = draw(st.tuples(coord, coord)), draw(
            st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]))
        pts = pts[:5] + [(x + k * dx, y + k * dy) for k in range(3)]
    if draw(st.booleans()):
        pts[-1] = pts[0]
    along = draw(st.none() | st.tuples(st.integers(0, 7), st.sampled_from([0.5, 1.0, 2.0])))
    return pts, along


class TestHR3:
    @pytest.mark.parametrize("name", list(PLANES_3))
    @settings(max_examples=80, deadline=None)
    @given(case=_lattice_sets())
    # ties in both basis coordinates under L1 (the basis rotation never
    # cleared them)
    @example(case=([(0, 0), (1, 1), (4, 0), (0, 4)], None))
    # two distances one ulp apart
    @example(case=([(-1, 3), (0, 0), (0, -1), (1, 1), (1, 2), (1, 3)], (0, 0.5)))
    def test_lattice_matches_oracle(self, name, case):
        plane = PLANES_3[name]
        pts, along = case
        pts = np.array(pts, dtype=float)
        if along is not None:
            i, t = along
            yhat = np.array(birkhoff_orthogonal(plane, (1.0, 0.0)))
            pts = np.vstack([pts, pts[i % len(pts)] + t * yhat])
        D = pairwise_distances(plane, pts)
        want, _ = brute_force_k_partition(plane, pts, 3, MAXDIAM)
        # neither call may raise (DegenerateBasis included)
        got, part = min_max_3cluster(plane, pts)
        assert got == pytest.approx(want, abs=1e-9)
        assert max(part.measures) == got
        _partition_ok(D, part, got)
        iu, ju = np.triu_indices(len(pts), k=1)
        for d in np.concatenate([[0.0], np.unique(D[iu, ju])]):
            # exact: want is an entry of the same matrix, and moved copies
            # of a pair can differ from it in the last bit
            part = hr_feasible_3cluster(plane, pts, float(d))
            assert (part is not None) == (want <= d), d
            if part is not None:
                _partition_ok(D, part, float(d))

    @pytest.mark.parametrize("plane", [E, L1, TA], ids=["euclidean", "l1", "two_arc"])
    def test_large(self, plane):
        pts = np.random.default_rng(97).uniform(-10, 10, size=(200, 2))
        t0 = time.perf_counter()
        d, part = min_max_3cluster(plane, pts)
        elapsed = time.perf_counter() - t0
        print(f"min_max_3cluster {plane.descriptor.kind} n=200: {elapsed:.3f} s (target 1 s)")
        D = pairwise_distances(plane, pts)
        _partition_ok(D, part, d)
        assert d <= avis_min_max_2cluster(plane, pts)[0]
        assert hr_feasible_3cluster(plane, pts, float(D[D < d].max())) is None
        assert elapsed < 30

    def test_three_far_pairs(self):
        part = hr_feasible_3cluster(E, THREE_PAIRS, 0.11)
        assert part is not None
        assert sorted(tuple(c) for c in part.clusters if c) == [(0, 1), (2, 3), (4, 5)]

    def test_equilateral_singletons(self):
        pts = [(0, 0), (2, 0), (1, math.sqrt(3))]
        part = hr_feasible_3cluster(E, pts, 1.0)
        assert part is not None
        assert all(len(c) <= 1 for c in part.clusters)

    def test_infeasible(self):
        pts = [(0, 0), (2, 0), (1, math.sqrt(3)), (1, 0.6)]
        # all four mutually farther than 0.5 apart: no 3-split at 0.5
        assert hr_feasible_3cluster(E, pts, 0.5) is None

    def test_nan_bound(self):
        # a NaN d is no bound; a negative one is a bound no partition meets
        with pytest.raises(BadBounds):
            hr_feasible_3cluster(E, THREE_PAIRS, math.nan)
        assert hr_feasible_3cluster(E, THREE_PAIRS, -1.0) is None

    def test_min_max_far_pairs(self):
        d, _ = min_max_3cluster(E, THREE_PAIRS)
        assert d == pytest.approx(0.1)

    def test_min_max_distances_beyond_floats(self):
        with pytest.raises(NonFiniteResult):
            min_max_3cluster(L1, [(-1e308, 0), (0, 1e308), (0, 0), (1, 1)])

    def test_min_max_far_apart_two_arc(self):
        # differences overflow, two-arc distances do not: the zones' basis
        # coordinates are scaled down before the points are moved to the
        # first one
        rng = np.random.default_rng(0)
        for _ in range(40):
            pts = rng.uniform(-1, 1, size=(int(rng.integers(4, 9)), 2)) * 1.7e308
            want, _ = brute_force_k_partition(TA, pts, 3, MAXDIAM)
            assert math.isfinite(want)
            assert min_max_3cluster(TA, pts)[0] == want

    def test_min_max_collinear_zero(self):
        d, part = min_max_3cluster(E, [(0, 0), (1, 0), (3, 0)])
        assert d == 0.0
        assert sorted(len(c) for c in part.clusters) == [1, 1, 1]

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            min_max_3cluster(E, [(0, 0), (1, 1)])

    @pytest.mark.parametrize("k", [-40, -30, 0, 30])
    @pytest.mark.parametrize("plane", [E, L1, TA], ids=["euclidean", "l1", "two_arc"])
    def test_scaled_matches_oracle(self, plane, k):
        # the seed band of the zones has no absolute floor: at every
        # power-of-two scale the optimum is exactly the oracle's
        rng = np.random.default_rng(83)
        for _ in range(30):
            n = int(rng.integers(4, 10))
            pts = rng.uniform(-10, 10, size=(n, 2)) * 2.0 ** k
            want, _ = brute_force_k_partition(plane, pts, 3, MAXDIAM)
            got, part = min_max_3cluster(plane, pts)
            assert got == want
            assert max(part.measures) == got

    def test_feasibility_sweep_matches_oracle(self, norm_suite):
        rng = np.random.default_rng(73)
        for _, plane in norm_suite:
            for _ in range(3):
                n = int(rng.integers(3, 9))
                pts = rng.uniform(-10, 10, size=(n, 2))
                D = pairwise_distances(plane, pts)
                w, _ = brute_force_k_partition(plane, pts, 3, MAXDIAM)
                iu, ju = np.triu_indices(n, k=1)
                for d in np.concatenate([[0.0], np.unique(D[iu, ju])]):
                    got = hr_feasible_3cluster(plane, pts, float(d))
                    assert (got is not None) == (w <= d)
                    if got is not None:
                        _partition_ok(D, got, float(d))

    def test_min_max_matches_oracle(self, norm_suite):
        rng = np.random.default_rng(79)
        checks = 0
        for _, plane in norm_suite:
            for _ in range(4):
                n = int(rng.integers(3, 10))
                pts = rng.uniform(-10, 10, size=(n, 2))
                got, _ = min_max_3cluster(plane, pts)
                want, _ = brute_force_k_partition(plane, pts, 3, MAXDIAM)
                assert got == pytest.approx(want, abs=1e-9)
                D = pairwise_distances(plane, pts)
                found, violations = zone_diameter_checks(plane, pts, D, np.unique(D))
                assert violations == []
                checks += found
        assert checks > 0

    def test_duplicates(self):
        pts = [(0, 0), (0, 0), (5, 0), (5, 0), (2.5, 4)]
        d, part = min_max_3cluster(E, pts)
        assert d == 0.0
