#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each check must pass the program's
real answer and fail deliberately wrong ones.  The references themselves are
compared with brute force on small inputs.

    python3 bench/selftest.py

Run from the root of a source checkout.  Exits 1 when any case misbehaves.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from run import import_program

import_program()

import normclust  # noqa: E402
from normclust import ballhull  # noqa: E402

import checks as C  # noqa: E402
from workloads import make_norms  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, check, should_pass: bool) -> None:
    try:
        check()
        passed = True
    except C.CheckFailed:
        passed = False
    RESULTS.append((name, passed == should_pass))
    print(f"{'ok  ' if passed == should_pass else 'FAIL'} {name}: check {'passed' if passed else 'failed'}"
          f" (expected {'pass' if should_pass else 'failure'})")


def moved(clusters, src: int, dst: int, idx: int):
    out = [list(c) for c in clusters]
    out[src].remove(idx)
    out[dst].append(idx)
    return out


def breaking_move(D, clusters, bound):
    """A point of cluster 0 that is farther than ``bound`` from cluster 1."""
    for i in clusters[0]:
        if clusters[1] and D[i, list(clusters[1])].max() > bound * (1 + 1e-6):
            return i
    raise RuntimeError("no breaking move in this instance")


def main() -> int:
    rng = np.random.default_rng(2024)
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        norms = make_norms(Path(tmp))
    euc, l1, poly, two = norms["euclidean"], norms["l1"], norms["poly_b"], norms["two_arc"]

    # references against normclust's gauge and brute force
    for nm in norms.values():
        v = rng.uniform(-10, 10, size=(200, 2))
        agree = np.allclose(nm.ref.gauge(v), normclust.gauge(nm.plane, v), rtol=1e-12, atol=1e-12)
        expect(f"reference gauge agrees ({nm.name})", lambda a=agree: C.require(a, "gauge differs"), True)
        pts = rng.uniform(-10, 10, size=(11, 2))
        D = nm.ref.dist_matrix(pts)
        diam = C.subset_diameters(D)
        masks = np.arange(1 << 11)
        brute = float(np.maximum(diam[masks], diam[(1 << 11) - 1 - masks]).min())
        expect(f"spanning-tree optimum = brute force ({nm.name})",
               lambda D=D, b=brute: C.require(abs(C.min_max_2cluster_ref(D) - b) <= 1e-12, "differs"), True)
    for nm in (euc, two):
        pts = rng.uniform(-10, 10, size=(7, 2))
        bis, grid = C.enclosing_radius_bisect(nm.ref, pts), C.enclosing_radius_grid(nm.ref, pts)
        expect(f"bisection radius <= grid radius ({nm.name})",
               lambda b=bis, g=grid: C.require(b <= g + 1e-9 and g - b < 1e-4 * g, "radii disagree"), True)

    # separation
    for nm in (euc, l1):
        a, b = rng.uniform(-10, 10, size=(9, 2)), rng.uniform(-5, 12, size=(8, 2))
        res = normclust.separate_clusters(nm.plane, a, b)
        ap, bp, line = list(res.a_prime), list(res.b_prime), res.line
        expect(f"separation ({nm.name})",
               lambda: C.check_separation(nm.ref, a, b, ap, bp, line.anchor, line.direction), True)
        expect(f"separation, a point dropped from A' ({nm.name})",
               lambda: C.check_separation(nm.ref, a, b, ap[1:], bp, line.anchor, line.direction), False)
        expect(f"separation, A' and B' swapped ({nm.name})",
               lambda: C.check_separation(nm.ref, a, b, bp, ap, line.anchor, line.direction), False)
        far = rng.uniform(40, 50, size=(5, 2))
        expect(f"separation, diameter grows ({nm.name})",
               lambda: C.check_separation(nm.ref, a, far, list(a) + list(far), [], (1e3, 0.0), (0.0, 1.0)),
               False)

    # cluster2
    for nm in (euc, two):
        pts = rng.uniform(-10, 10, size=(40, 2))
        d_star, part = normclust.avis_min_max_2cluster(nm.plane, pts)
        D = nm.ref.dist_matrix(pts)
        cl, ms = part.clusters, part.measures
        expect(f"cluster2 ({nm.name})", lambda: C.check_cluster2(nm.ref, pts, d_star, cl, ms), True)
        for f in (1 + 1e-6, 1 - 1e-6):
            expect(f"cluster2, d* x {f} ({nm.name})",
                   lambda f=f: C.check_cluster2(nm.ref, pts, d_star * f, cl, ms), False)
        bad = moved(cl, 0, 1, breaking_move(D, cl, d_star))
        expect(f"cluster2, one point moved ({nm.name})",
               lambda: C.check_cluster2(nm.ref, pts, d_star, bad, ms), False)
        expect(f"cluster2, a point missing ({nm.name})",
               lambda: C.check_cluster2(nm.ref, pts, d_star, [cl[0][1:], cl[1]], ms), False)

    # cluster3, small (exhaustive) and mid-size (certificate)
    for n in (9, 60):
        pts = rng.uniform(-10, 10, size=(n, 2))
        d_star, part = normclust.min_max_3cluster(poly.plane, pts)
        D = poly.ref.dist_matrix(pts)
        cl, ms = part.clusters, part.measures
        expect(f"cluster3 n={n}", lambda: C.check_cluster3(poly.ref, pts, d_star, cl, ms), True)
        expect(f"cluster3 n={n}, d* x (1+1e-6)",
               lambda: C.check_cluster3(poly.ref, pts, d_star * (1 + 1e-6), cl, ms), False)
        bad = moved(cl, 0, 1, breaking_move(D, cl, d_star))
        expect(f"cluster3 n={n}, one point moved", lambda: C.check_cluster3(poly.ref, pts, d_star, bad, ms), False)
    pts = rng.uniform(-10, 10, size=(9, 2))
    d_star, part = normclust.min_max_3cluster(poly.plane, pts)
    worse = max(C.cluster_diams(poly.ref.dist_matrix(pts), [list(range(9)), [], []]))
    expect("cluster3, a valid but suboptimal answer",
           lambda: C.check_cluster3(poly.ref, pts, worse, [list(range(9)), [], []], [worse, 0.0, 0.0]), False)

    # cluster2c, small (all splits) and mid-size (known bounds)
    pts = rng.uniform(-10, 10, size=(12, 2))
    d2star = C.min_max_2cluster_ref(l1.ref.dist_matrix(pts))
    d1, d2 = 1.3 * d2star, 0.8 * d2star
    part = normclust.constrained_2cluster(l1.plane, pts, d1, d2)
    feasible = part is not None
    cl, ms = (part.clusters, part.measures) if feasible else (None, None)
    expect("cluster2c n=12", lambda: C.check_cluster2c(l1.ref, pts, d1, d2, feasible, cl, ms), True)
    expect("cluster2c n=12, feasibility flipped",
           lambda: C.check_cluster2c(l1.ref, pts, d1, d2, not feasible, cl, ms), False)
    pts = rng.uniform(-10, 10, size=(50, 2))
    D = l1.ref.dist_matrix(pts)
    d_star = C.min_max_2cluster_ref(D)
    d1 = d2 = d_star * (1 + 1e-6)
    part = normclust.constrained_2cluster(l1.plane, pts, d1, d2)
    cl, ms = part.clusters, part.measures
    expect("cluster2c n=50, d2 >= d*",
           lambda: C.check_cluster2c(l1.ref, pts, d1, d2, True, cl, ms, expect_feasible=True), True)
    expect("cluster2c n=50, reported infeasible although d2 >= d*",
           lambda: C.check_cluster2c(l1.ref, pts, d1, d2, False, None, None, expect_feasible=True), False)
    bad = moved(cl, 0, 1, breaking_move(D, cl, d2))
    expect("cluster2c n=50, one point moved",
           lambda: C.check_cluster2c(l1.ref, pts, d1, d2, True, bad, ms, expect_feasible=True), False)
    expect("cluster2c n=50, reported feasible although d1 < d*",
           lambda: C.check_cluster2c(l1.ref, pts, d_star * 0.99, d_star * 0.9, True, cl, ms,
                                     expect_feasible=False), False)

    # clusterk, diameters and radii
    cases = ((poly, 3, "sum", "diameter", 9), (euc, 3, "max", "radius", 6), (two, 2, "sum_squares", "radius", 5))
    for nm, k, comb, measure, n in cases:
        pts = rng.uniform(-10, 10, size=(n, 2))
        obj = normclust.Objective(normclust.Combiner(comb), normclust.Measure(measure))
        value, part = normclust.k_cluster_minimize(nm.plane, pts, k, obj)
        cl, ms = part.clusters, part.measures
        what = f"clusterk {nm.name} k={k} {comb}/{measure}"
        expect(what, lambda: C.check_clusterk(nm.ref, pts, k, comb, measure, value, cl, ms), True)
        expect(f"{what}, value x (1+1e-6)",
               lambda: C.check_clusterk(nm.ref, pts, k, comb, measure, value * (1 + 1e-6), cl, ms), False)
        src = next(i for i, c in enumerate(cl) if len(c) > 1)
        bad = moved(cl, src, (src + 1) % k, cl[src][0])
        expect(f"{what}, one point moved",
               lambda: C.check_clusterk(nm.ref, pts, k, comb, measure, value, bad, ms), False)

    # minimal enclosing balls
    for nm, factor in ((euc, 1 + 1e-6), (two, 1 + 1e-6), (poly, 1.01)):
        pts = rng.uniform(-10, 10, size=(7, 2))
        centre, r = normclust.min_enclosing_ball(nm.plane, pts)
        expect(f"mineball ({nm.name})", lambda: C.check_mineball(nm.ref, pts, centre, r), True)
        expect(f"mineball, radius x {factor} ({nm.name})",
               lambda: C.check_mineball(nm.ref, pts, centre, r * factor), False)
        expect(f"mineball, radius x (1-1e-6) ({nm.name})",
               lambda: C.check_mineball(nm.ref, pts, centre, r * (1 - 1e-6)), False)
        expect(f"mineball, centre moved ({nm.name})",
               lambda: C.check_mineball(nm.ref, pts, (centre[0] + 0.01, centre[1]), r), False)

    # tree of ball hulls, queries and ball hulls
    for nm in (euc, l1, two):
        pts = rng.uniform(0, 100, size=(300, 2))
        diam = nm.ref.diameter(pts)
        d = 0.7 * diam
        tree = normclust.build_tree(nm.plane, pts, d)
        root = tree.root
        expect(f"tree root hull ({nm.name})",
               lambda: C.check_tree_root(nm.ref, pts, d, diam, False, root.vertices, root.support_centers), True)
        expect(f"tree root reported OVERFULL ({nm.name})",
               lambda: C.check_tree_root(nm.ref, pts, d, diam, True, (), ()), False)
        shifted = [(c[0] + 0.05 * d, c[1]) for c in root.support_centers]
        expect(f"tree root, support centres shifted ({nm.name})",
               lambda: C.check_tree_root(nm.ref, pts, d, diam, False, root.vertices, shifted), False)
        over = normclust.build_tree(nm.plane, pts, 0.3 * diam)
        expect(f"tree root OVERFULL ({nm.name})",
               lambda: C.check_tree_root(nm.ref, pts, 0.3 * diam, diam, over.root is ballhull.OVERFULL, (), ()), True)
        live = np.asarray(sorted(map(tuple, pts.tolist())))
        u = live[0] + 1e-3
        got = normclust.query_far_point(tree, u)
        expect(f"query ({nm.name})", lambda: C.check_far_point(nm.ref, live, u, d, got), True)
        expect(f"query, none returned although a far point exists ({nm.name})",
               lambda: C.check_far_point(nm.ref, live, u, d, None), False)
        near = live[np.argmin(nm.ref.gauge(live - u))]
        expect(f"query, a near point returned ({nm.name})",
               lambda: C.check_far_point(nm.ref, live, u, d, tuple(near)), False)
        normclust.delete_point(tree, tuple(got))
        rest = live[np.any(live != np.asarray(got), axis=1)]
        expect(f"query, a deleted point returned ({nm.name})",
               lambda: C.check_far_point(nm.ref, rest, u, d, got), False)
        sub = pts[:80] / 10
        hd = 0.9 * nm.ref.diameter(sub)
        hull = normclust.ball_hull(nm.plane, sub, hd)
        expect(f"ball hull ({nm.name})",
               lambda: C.check_ball_hull(nm.ref, sub, hd, hull.vertices, hull.support_centers), True)
        expect(f"ball hull, a vertex that is not an input point ({nm.name})",
               lambda: C.check_ball_hull(nm.ref, sub, hd, [(v[0] + 1e-3, v[1]) for v in hull.vertices],
                                         hull.support_centers), False)

    bad = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)} of {len(RESULTS)} self-test cases behaved as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
