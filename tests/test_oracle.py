import math

import numpy as np
import pytest

from conftest import grid_meb_oracle
from normclust import (
    Combiner,
    Measure,
    Objective,
    OracleBudget,
    avis_min_max_2cluster,
    bh_membership_oracle,
    brute_force_k_partition,
    constrained_2cluster,
    euclidean_plane,
    exhaustive_separable_2cluster,
    gauge,
    l1_plane,
    min_max_3cluster,
    two_arc_plane,
)
from normclust.errors import BudgetExceeded
from normclust.oracle import brute_min_enclosing_ball

E = euclidean_plane()
MAXDIAM = Objective(Combiner.MAX, Measure.DIAMETER)
SQ = [(0, 0), (1, 0), (1, 1), (0, 1)]


class TestBruteForce:
    def test_square_k2(self):
        v, part = brute_force_k_partition(E, SQ, 2, MAXDIAM)
        assert v == pytest.approx(1.0)
        assert sorted(len(c) for c in part.clusters) == [2, 2]

    def test_three_far_pairs(self):
        pts = [(0, 0), (0.1, 0), (10, 0), (10.1, 0), (5, 8), (5.1, 8)]
        v, _ = brute_force_k_partition(E, pts, 3, MAXDIAM)
        assert v == pytest.approx(0.1)

    def test_lower_bounds_algorithms(self, norm_suite):
        rng = np.random.default_rng(83)
        for _, plane in norm_suite[:4]:
            pts = rng.uniform(-10, 10, size=(8, 2))
            v2, _ = brute_force_k_partition(plane, pts, 2, MAXDIAM)
            a2, _ = avis_min_max_2cluster(plane, pts)
            assert v2 <= a2 + 1e-12
            v3, _ = brute_force_k_partition(plane, pts, 3, MAXDIAM)
            a3, _ = min_max_3cluster(plane, pts)
            assert v3 <= a3 + 1e-12

    def test_budget(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(20, 2))
        with pytest.raises(BudgetExceeded):
            brute_force_k_partition(E, pts, 3, MAXDIAM)
        with pytest.raises(BudgetExceeded):
            brute_force_k_partition(
                E, pts[:8], 3, MAXDIAM, OracleBudget(max_points=4)
            )

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-5, 5, size=(9, 2))
        out1 = brute_force_k_partition(E, pts, 3, MAXDIAM)
        out2 = brute_force_k_partition(E, pts, 3, MAXDIAM)
        assert out1 == out2


class TestBruteMinEnclosingBall:
    def test_matches_grid_oracle(self, norm_suite):
        rng = np.random.default_rng(37)
        for _, plane in norm_suite:
            for n in (1, 2, 3, 5, 8):
                pts = rng.uniform(-3, 3, size=(n, 2))
                c, r = brute_min_enclosing_ball(plane, pts)
                assert float(np.max(gauge(plane, pts - np.array(c)))) <= r
                _, r_grid = grid_meb_oracle(plane, pts)
                assert r == pytest.approx(r_grid, abs=1e-4)


class TestMembershipOracle:
    def test_singleton(self):
        assert bh_membership_oracle(E, [(1, 2)], 1.0, (1, 2), band=1e-7)

    def test_pair_outside(self):
        assert not bh_membership_oracle(E, [(0, 0), (2, 0)], 2.0, (1, 3), band=1e-7)

    def test_pair_inside(self):
        assert bh_membership_oracle(E, [(0, 0), (2, 0)], 2.0, (1, 0), band=1e-7)

    def test_polygon_exact(self):
        plane = l1_plane()
        assert bh_membership_oracle(plane, [(0, 0), (2, 0)], 1.5, (1, 0))
        assert not bh_membership_oracle(plane, [(0, 0), (2, 0)], 1.5, (1, 2))

    def test_two_arc(self):
        plane = two_arc_plane(10.0, 5 * math.sqrt(13))
        assert bh_membership_oracle(plane, [(0, 0), (2, 0)], 1.0, (1, 0), band=1e-7)


class TestExhaustiveSeparable:
    def test_disjoint_present(self):
        pts = [(0, 0), (1, 0), (10, 0), (11, 0)]
        part = exhaustive_separable_2cluster(E, pts, 1.0, 1.0)
        assert part is not None
        assert sorted(tuple(c) for c in part.clusters) == [(0, 1), (2, 3)]

    def test_agrees_with_constrained(self, norm_suite):
        rng = np.random.default_rng(89)
        for _, plane in norm_suite:
            for _ in range(8):
                n = int(rng.integers(2, 9))
                pts = rng.uniform(-5, 5, size=(n, 2))
                from normclust.norm import pairwise_distances

                dmax = float(pairwise_distances(plane, pts).max())
                d1 = float(rng.uniform(0.4, 0.9)) * dmax
                d2 = float(rng.uniform(0.3, 1.0)) * d1
                lib = constrained_2cluster(plane, pts, d1, d2)
                orc = exhaustive_separable_2cluster(plane, pts, d1, d2)
                assert (lib is None) == (orc is None)

    def test_budget(self):
        rng = np.random.default_rng(5)
        with pytest.raises(BudgetExceeded):
            exhaustive_separable_2cluster(
                E, rng.uniform(0, 1, size=(6, 2)), 1, 1, OracleBudget(max_points=4)
            )
